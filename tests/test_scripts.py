"""Smoke tests for the runnable experiment scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

from qdistill.sweep import PRESETS

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_montecarlo_check_pulls_within_5_sigma():
    proc = run_script("montecarlo_check.py", "--trials", "5000", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-1] == "dev/sigma"
    assert len(rows) == 3
    for row in rows:
        assert abs(float(row.split()[-1])) < 5


def test_reproduce_figures_writes_every_preset(tmp_path):
    proc = run_script("reproduce_figures.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    presets = ["ghz_contour", "ghz_convergence", "ghz_dimension", "w_contour", "w_convergence"]
    assert presets == [name.replace("-", "_") for name in sorted(PRESETS)]
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        name for preset in presets for name in (f"{preset}.csv", f"{preset}.manifest.json")
    )
    for preset in presets:
        # each golden is a sub-grid of its full preset, row for row
        full = (tmp_path / f"{preset}.csv").read_text().splitlines()
        golden = (ROOT / "tests" / "golden" / f"sweep_{preset}.csv").read_text().splitlines()
        assert golden[0] == full[0]
        assert set(golden[1:]) <= set(full[1:])
