"""Cold-start guards. dipa.scipy_ext.load reads scipy's HiGHS binding, LAPACK
and sparse kernels from their extension files, so importing dipa never runs
the __init__ of scipy.optimize, scipy.linalg or scipy.sparse, and a module
scipy has already imported is the one dipa uses. Each check runs in a fresh
interpreter, because this test process has imported those packages long
before."""

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


def loaded_after_cli_import(prefixes: tuple) -> list:
    out = run_fresh(
        "import sys, dipa.cli\n"
        f"print('\\n'.join(k for k in sys.modules if k.startswith({prefixes!r})))\n"
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_cli_import_skips_scipy_optimize():
    loaded = loaded_after_cli_import(("scipy.optimize", "scipy.sparse.csgraph"))
    # the binding registers its own pybind11 submodules (cb,
    # simplex_constants) when it loads; no module of the scipy.optimize
    # package runs, and the binding is not entered under its own name.
    # forced_zero_arcs finds its matching in numpy and Python, so the
    # scipy.sparse.csgraph package stays unloaded as well
    assert all(k.startswith("scipy.optimize._highspy._core.") for k in loaded), loaded


def test_cli_import_skips_linalg_sparse_and_their_imports():
    # _flapack and _sparsetools are loaded but not entered in sys.modules;
    # scipy._lib._array_api is what imports numpy.f2py and numpy.testing, and
    # only dipa bench's worker pool needs the process pool
    skipped = (
        "scipy.linalg",
        "scipy.sparse",
        "scipy._lib._array_api",
        "scipy._lib.array_api_compat",
        "numpy.f2py",
        "numpy.testing",
        "concurrent.futures.process",
        "multiprocessing",
    )
    loaded = loaded_after_cli_import(skipped)
    assert not [k for k in loaded if k in skipped or k.startswith(tuple(s + "." for s in skipped))]


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


IMPORT_DIPA = "import dipa.inner, dipa.nullspace\nfrom dipa.bench import trace_solve\n"
IMPORT_SCIPY = "import numpy as np\nimport scipy.linalg, scipy.sparse\n"
# scipy's own routines still work when dipa loaded their files first
SCIPY_WORKS = """
assert scipy.linalg.cholesky(np.eye(2) * 4.0).tolist() == [[2.0, 0.0], [0.0, 2.0]]
assert scipy.linalg.solve_triangular(np.eye(2) * 2.0, np.ones(2)).tolist() == [0.5, 0.5]
assert (scipy.sparse.csr_matrix(np.eye(2)) @ np.ones(2)).tolist() == [1.0, 1.0]
"""
REUSES_SCIPY = """
assert dipa.inner._POTRF is scipy.linalg._flapack.dpotrf
assert dipa.nullspace._SPARSETOOLS is scipy.sparse._sparsetools
"""
SOLVE_TRACE = """
import hashlib
from dipa.graph import gen_random_graph
from dipa.outer import DipaParams
g = gen_random_graph(20, 3, 6, seed=101, plant=True)
rep, rows = trace_solve(g, DipaParams(mode="ds", restore="lp"))
print(rep.status, rep.deflations, rep.deletions, len(rows), hashlib.sha256("\\n".join(rows).encode()).hexdigest())
"""


def test_trace_bytes_in_either_import_order():
    # a planted ds solve with 7 deflations and 3 deletions runs LAPACK, the
    # sparse kernels and HiGHS; with scipy's packages imported before dipa
    # (their modules reused) or after it (dipa's own loads), and with
    # neither, it writes the same trace
    runs = [
        IMPORT_SCIPY + IMPORT_DIPA + REUSES_SCIPY + SOLVE_TRACE,
        IMPORT_DIPA + IMPORT_SCIPY + SCIPY_WORKS + SOLVE_TRACE,
        IMPORT_DIPA + SOLVE_TRACE,
    ]
    outs = [run_fresh(code) for code in runs]
    for out in outs:
        assert out.returncode == 0, out.stderr
    assert outs[0].stdout.startswith("HC-found 7 3 ")
    assert outs[0].stdout == outs[1].stdout == outs[2].stdout


FAKE_SCIPY_PATH = "import scipy\nscipy.__file__ = '/nonexistent/scipy/__init__.py'\n"


def test_missing_binding_names_the_folder():
    out = run_fresh(FAKE_SCIPY_PATH + "import dipa.lp\n")
    assert out.returncode != 0
    assert "ImportError: no extension _core in /nonexistent/scipy/optimize/_highspy" in out.stderr
    # the one loader names the folder of each extension dipa reads
    for name, folder in (
        ("scipy.linalg._flapack", "linalg"),
        ("scipy.sparse._sparsetools", "sparse"),
    ):
        out = run_fresh(FAKE_SCIPY_PATH + f"from dipa import scipy_ext\nscipy_ext.load({name!r})\n")
        assert out.returncode != 0
        leaf = name.rsplit(".", 1)[1]
        assert f"ImportError: no extension {leaf} in /nonexistent/scipy/{folder}" in out.stderr
