"""Cold-start guards. dipa.lp loads scipy's HiGHS binding from its extension
file, so importing dipa never runs the scipy.optimize package __init__, and
the binding stays the one module object scipy.optimize itself uses. Each
check runs in a fresh interpreter, because this test process has imported
scipy.optimize long before."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )


def test_cli_import_skips_scipy_optimize():
    out = run_fresh(
        "import sys, dipa.cli\n"
        "print('\\n'.join(k for k in sys.modules if k.startswith(('scipy.optimize', 'scipy.sparse.csgraph'))))\n"
    )
    assert out.returncode == 0, out.stderr
    loaded = out.stdout.split()
    # the binding registers its own pybind11 submodules (cb,
    # simplex_constants) when it loads; no module of the scipy.optimize
    # package runs, and the binding is not entered under its own name.
    # forced_zero_arcs finds its matching in numpy and Python, so the
    # scipy.sparse.csgraph package stays unloaded as well
    assert all(k.startswith("scipy.optimize._highspy._core.") for k in loaded), loaded


SOLVE_BOTH = """
import numpy as np
import dipa.lp
import scipy.optimize._highspy._core as core
from scipy.optimize import linprog

assert dipa.lp.highs is core
x, status = dipa.lp.lp_solve([1.0, 2.0], [[1.0, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0])
assert status == "optimal" and x.tolist() == [1.0, 0.0], (status, x)
res = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=[(0, 1)] * 2, method="highs")
assert res.status == 0 and res.x.tolist() == [1.0, 0.0], res
"""


@pytest.mark.parametrize("first", ["import scipy.optimize", "import dipa.lp"])
def test_one_binding_in_either_import_order(first):
    out = run_fresh(first + "\n" + SOLVE_BOTH)
    assert out.returncode == 0, out.stderr


def test_missing_binding_names_the_folder():
    out = run_fresh(
        "import scipy\n"
        "scipy.__file__ = '/nonexistent/scipy/__init__.py'\n"
        "import dipa.lp\n"
    )
    assert out.returncode != 0
    assert "ImportError: no HiGHS binding _core in /nonexistent/scipy/optimize/_highspy" in out.stderr
