import ast
import importlib
import importlib.util
import json
import os
import pkgutil
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


# the reference layer: importable from its own module, not from the top level
REFERENCE_NAMES = {
    "errors": ["DenseCapExceededError", "DimensionMismatchError", "NotHermitianError"],
    "filters": ["FilterAssignment", "ghz_partition_assignment", "w_assignment"],
    "states": ["make_dense", "perfect_ghz", "perfect_w"],
    "ted": ["apply_filter_layer"],
    "tsd": ["Assemblage", "build_assemblage", "filter_assemblage"],
    "montecarlo": ["TrialRecord", "simulate_trial"],
}


def test_the_top_level_exports_the_run_path_only():
    for module, names in REFERENCE_NAMES.items():
        module = importlib.import_module(f"qdistill.{module}")
        assert [n for n in names if not hasattr(module, n)] == []
        assert [n for n in names if n in qdistill.__all__ or hasattr(qdistill, n)] == []
    assert len(qdistill.__all__) == 23


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
# the dense constructor, the closed-form fidelity and the one scorer
# oracle_steering uses; no filter or steering kernel, not the basis
# placement rule, and not P_s (the oracles compute it in decimals)
ORACLE_IMPORTS = {
    "Family", "GhzSpec", "WSpec", "ProtocolConfig", "IndexPartition",
    "assignment_for", "closed_form_fidelity",
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


def bench_module(monkeypatch, name: str):
    """``bench/<name>.py`` loaded as a module of its own."""
    path = Path(__file__).parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_bench_trace_targets_resolve(monkeypatch):
    # the benchmark traces these names by module and attribute; a change
    # that deletes or renames one would leave the benchmark a blind spot
    spans = bench_module(monkeypatch, "spans")
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


def test_bench_empties_the_spec_state_cache(monkeypatch):
    # the bench models each command and pass as a fresh process; a cache it
    # did not empty would carry states across commands, a reuse no user sees
    workloads = bench_module(monkeypatch, "workloads")
    spec = qdistill.GhzSpec(2, 2, (0.6, 0.8))
    qdistill.run_ted(qdistill.ProtocolConfig(2, qdistill.Family.GHZ_DIAGONAL, spec, 1))
    assert qdistill.ted._compact_zero_layer.cache_info().currsize > 0
    workloads.clear_package_caches()
    assert qdistill.ted._compact_zero_layer.cache_info().currsize == 0


def test_every_package_cache_is_bounded():
    # run paths meet a new spec on nearly every call, so a cache without a
    # size limit would hold every spec a long run has seen
    sizes = {}
    for module_info in pkgutil.iter_modules(qdistill.__path__, "qdistill."):
        module = importlib.import_module(module_info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                sizes[f"{module_info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"qdistill.ted._cached_assignment", "qdistill.ted._compact_zero_layer"} <= set(sizes)
    assert [name for name, size in sizes.items() if size is None] == []


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
        assert result["metrics"]["tsd.run_tsd.calls"]["value"] > 0


def defined_names(tree: ast.Module, module):
    """(qualified name, name, owner class or None) of every module-level
    function, class and constant, and every non-dunder method or property."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, None
        if isinstance(node, ast.ClassDef):
            cls = getattr(module, node.name)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, cls


def test_every_package_name_is_read(monkeypatch):
    # src/ keeps only what a run path reads: a name no module of the package
    # reads is test-only API, unless an oracle imports it or the benchmark
    # traces it; a method that overrides a base class is read by that base
    package = Path(qdistill.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    spans = bench_module(monkeypatch, "spans")
    kept = read | ORACLE_IMPORTS | {t.attr for t in spans.TARGETS}
    kept |= {attr for _, _, attr in spans.CACHES}
    unread = []
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        module = importlib.import_module(f"qdistill.{stem}")
        for qualified, name, cls in defined_names(tree, module):
            overrides = cls is not None and any(hasattr(b, name) for b in cls.__mro__[1:])
            if name not in kept and not overrides:
                unread.append(f"{stem}.{qualified}")
    assert unread == []


def test_the_readme_quick_start_runs_as_written():
    # the README's "Library quick start" block, executed as printed, and
    # every value its comments state
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    block = section[section.index("```python\n") + 10:section.index("```\n", 10)]
    for stated in ("# 0.375", "# 0.960502988894...", "# (1,)", "# True"):
        assert stated in block
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    report, tsd = namespace["report"], namespace["tsd"]
    assert report.p_success_per_copy == pytest.approx(0.375, abs=1e-15)
    assert repr(report.fidelity_closed_form).startswith("0.960502988894")
    assert report.fidelity_numeric == pytest.approx(report.fidelity_closed_form, abs=1e-15)
    assert tsd.fidelity_assemblage == pytest.approx(report.fidelity_closed_form, abs=1e-15)
    assert tsd.minimizing_setting == (1,)
    assert tsd.threshold is True
