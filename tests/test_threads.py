import ctypes
import glob
import os

import numpy
import scipy

import conftest


def openblas_query(query: str, restype) -> dict:
    """path -> what openblas_<query> returns in each OpenBLAS bundled with
    numpy and scipy, under whichever of the symbol's names it exports."""
    out = {}
    for pkg in (numpy, scipy):
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        for path in glob.glob(os.path.join(site, pkg.__name__ + ".libs", "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for name in (f"scipy_openblas_{query}64_", f"scipy_openblas_{query}",
                         f"openblas_{query}64_", f"openblas_{query}"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    out[path] = fn()
                    break
    return out


def openblas_thread_counts() -> dict:
    """Threads each OpenBLAS bundled with numpy and scipy will use, read
    from the library itself."""
    return openblas_query("get_num_threads", ctypes.c_int)


def test_blas_pinned_to_one_thread():
    assert not conftest.NUMPY_IMPORTED_BEFORE_PIN
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"
    assert all(n == 1 for n in openblas_thread_counts().values())
