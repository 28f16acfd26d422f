import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdistill


def test_all_is_sorted_unique_and_resolves():
    names = qdistill.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(qdistill, n)] == []


def test_runtime_imports_only_numpy():
    # numpy is the one runtime dependency: scipy (the tests' oracles) and the
    # test tools must not be loaded by the package or its CLI
    code = (
        "import sys, qdistill, qdistill.cli; "
        "print(*[m for m in ('scipy', 'hypothesis', 'pytest') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qdistill.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == ""


# what the conftest oracles may take from the package: specs, assignments,
# the dense constructor, closed forms and the one scorer oracle_steering
# uses; no filter or steering kernel, and not the basis placement rule
ORACLE_IMPORTS = {
    "Family", "GhzSpec", "WSpec", "ProtocolConfig", "IndexPartition",
    "assignment_for", "closed_form_fidelity", "overall_success",
    "perfect_like", "make_dense", "_root_fidelity",
}


def test_oracles_import_only_the_allowlist():
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    imported = set()
    for node in ast.walk(tree):  # function-level imports included
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qdistill":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "qdistill")
    assert imported == ORACLE_IMPORTS


def test_bench_trace_targets_resolve(monkeypatch):
    # the benchmark traces these names by module and attribute; a change
    # that deletes or renames one would leave the benchmark a blind spot
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{t.module}.{t.attr}" for t in spans.TARGETS
        if not callable(getattr(importlib.import_module(t.module), t.attr, None))
    ]
    assert missing == []
    uncached = [
        f"{module}.{attr}" for _, module, attr in spans.CACHES
        if not hasattr(getattr(importlib.import_module(module), attr, None), "cache_info")
    ]
    assert uncached == []


@pytest.mark.parametrize("workload", ["ted-sweep", "mc", "steer", "cli"])
def test_traced_benchmark_runs_clean(workload):
    # one quick traced pass of each workload, end to end, checks included:
    # the last stdout line is the benchmark's JSON result (details go to
    # the gitignored .bench_out/)
    root = Path(__file__).parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--quick", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=root, timeout=120,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert [name for name, metric in result["metrics"].items() if "note" in metric] == []
    if workload == "steer":
        assert result["metrics"]["tsd.members"]["value"] > 0
