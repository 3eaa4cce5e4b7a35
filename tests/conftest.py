"""Test-session setup: one BLAS thread, pinned before numpy loads.

A multithreaded OpenBLAS on a small shared machine stalls now and then,
which can push the timing-bound tests past their limits; the benchmark
pins it the same way.  The CLI subprocesses the tests start inherit the
pins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
