#!/usr/bin/env python3
"""Self-test of the benchmark, at minimal size:

    python3 bench/selftest.py

For each workload it checks that
1. an untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
   all positive, with no failed op;
2. two traced runs with the same seed emit exactly the per-layer metrics and
   give the same exact counts;
3. a run with one deliberately bad op (a GHZ spec whose alpha_0 is not
   minimal) still completes and counts that op as failed.
Last, it checks that the benchmark fails without printing a result in a
directory that holds only the benchmark.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3
TIMEOUT_S = 300

sys.path.insert(0, str(BENCH))
from spans import EXACT_COUNTS  # noqa: E402


def run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--quick", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_workload(workload: str, spec: dict) -> list[str]:
    problems = []
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    plain = result_of(run(workload, "--trace", "0"))
    if set(plain["metrics"]) != end_to_end:
        problems.append(f"untraced metrics {sorted(set(plain['metrics']) ^ end_to_end)} "
                        "differ from BENCHMARK.json")
    if not plain["correct"] or plain["failed"]:
        problems.append(f"untraced run failed {plain['failed']} ops")
    problems += [f"{k} is not positive" for k, m in plain["metrics"].items()
                 if not m["value"] > 0]

    traced = [result_of(run(workload, "--trace", "1")) for _ in range(2)]
    for result in traced:
        if set(result["metrics"]) != per_layer:
            problems.append(f"traced metrics {sorted(set(result['metrics']) ^ per_layer)} "
                            "differ from BENCHMARK.json")
        if not result["correct"]:
            problems.append(f"traced run incorrect: failed {result['failed']}")
    for key in EXACT_COUNTS:
        first, second = (r["metrics"][key]["value"] for r in traced)
        if first != second:
            problems.append(f"count {key} did not repeat across runs: {first} then {second}")

    bad = result_of(run(workload, "--trace", "0", "--inject-bad"))
    if bad["failed"] != 1 or bad["correct"] or bad["attempted"] != plain["attempted"] + 1:
        problems.append(f"bad op not counted as one failure: {bad}")
    return problems


def check_bare_directory() -> list[str]:
    """A directory with only BENCHMARK.json and the benchmark's own files."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        proc = run("cli", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        found = check_workload(workload, spec)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += [f"{workload}: {p}" for p in found]
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
