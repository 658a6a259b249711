import ctypes
import glob
import os

import numpy
import scipy

import conftest


def openblas_thread_counts() -> dict:
    """Threads each OpenBLAS bundled with numpy and scipy will use, read
    from the library itself."""
    counts = {}
    for pkg in (numpy, scipy):
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        for path in glob.glob(os.path.join(site, pkg.__name__ + ".libs", "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    counts[path] = fn()
                    break
    return counts


def test_blas_pinned_to_one_thread():
    assert not conftest.NUMPY_IMPORTED_BEFORE_PIN
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"
    assert all(n == 1 for n in openblas_thread_counts().values())
