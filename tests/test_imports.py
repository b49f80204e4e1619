"""Import budget: each entry point loads only what it uses.

``run``, ``rate-sweep`` and ``burn-in`` never need scipy, and the
Clopper-Pearson interval behind ``verify`` and ``concentration`` needs only
``scipy.special``.  Each import runs in a fresh interpreter, so modules that
other tests loaded do not count.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _modules_after_import(module: str) -> list[str]:
    code = (f"import sys, json; import {module}; "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out)


@pytest.mark.parametrize("module", ["tailopt.cli", "tailopt.harness"])
def test_run_entry_points_load_no_scipy(module):
    loaded = _modules_after_import(module)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert "tailopt.concentration" not in loaded


def test_verify_loads_no_scipy_stats():
    loaded = _modules_after_import("tailopt.verify")
    assert "scipy.special" in loaded
    assert [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")] == []
