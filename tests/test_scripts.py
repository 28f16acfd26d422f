"""Smoke tests for the runnable experiment scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_montecarlo_check_pulls_within_5_sigma():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "montecarlo_check.py"),
         "--trials", "5000", "--seed", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-1] == "dev/sigma"
    assert len(rows) == 3
    for row in rows:
        assert abs(float(row.split()[-1])) < 5
