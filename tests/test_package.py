import os
import subprocess
import sys
from pathlib import Path

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
