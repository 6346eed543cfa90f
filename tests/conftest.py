"""Pin BLAS and OpenMP to one thread each before numpy is imported.

Tests that run repetitions on threads then use the cores without BLAS
threads competing for them, and every result replays at one fixed BLAS
thread count. A variable already set in the environment wins. numpy
reads these variables only when it is first imported, so this file
fails loudly if something imported numpy before it.
"""
import os
import sys

# README names these too, so test_readme reads them from here
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the BLAS thread count")
for name in THREAD_VARIABLES:
    os.environ.setdefault(name, "1")
