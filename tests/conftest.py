"""Test-session setup: one BLAS thread, pinned before numpy loads, and
the source tree on the path of the CLI subprocesses.

A multithreaded OpenBLAS on a small shared machine stalls now and then,
which can push the timing-bound tests past their limits; the benchmark
pins it the same way.  The CLI subprocesses the tests start inherit the
pins.  pyproject.toml puts src/ on this process's path; PYTHONPATH
carries it to the subprocesses, so a plain `pytest` needs no install.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
