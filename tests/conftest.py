"""Pin BLAS and OpenMP to one thread before numpy is imported, as the
benchmark does (``perfbench/run.py --blas-threads 1``). OpenBLAS splits
large factorizations and products across threads and rounds differently
with each count, so at N >= 50 a solve's trajectory, and even its status,
can depend on the thread count."""

import os
import sys

NUMPY_IMPORTED_BEFORE_PIN = "numpy" in sys.modules

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
