"""Suite-wide setup: one OpenBLAS thread, as the command-line entry point uses.

The tiny LAPACK calls of the tests run slower under a multi-threaded
pool on a small host; OPENBLAS_NUM_THREADS, when set, still decides.
"""

from geomoment.blas import pin_blas_threads


def pytest_configure(config):
    pin_blas_threads()
