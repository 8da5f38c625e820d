"""Thread pools of the OpenBLAS builds bundled with numpy and scipy.

numpy and scipy each ship their own OpenBLAS, each with its own thread
pool. On a small host the default pools make the tiny LAPACK calls of a
training step slower and erratic, not faster, so entry points pin both
to one thread unless OPENBLAS_NUM_THREADS is set. The pools are reached
through ctypes; where a library or symbol is missing nothing is set and
the thread count reads as None.
"""

import ctypes
import glob
import os
from functools import cache

import numpy
import scipy


@cache
def _openblas(package, name, argtypes, restype):
    """Function name of the OpenBLAS bundled in package's .libs directory, or None."""
    libdir = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        fn = getattr(ctypes.CDLL(path), name, None)
        if fn is not None:
            fn.argtypes = argtypes
            fn.restype = restype
            return fn
    return None


def blas_threads():
    """Threads of numpy's OpenBLAS pool, or None where it cannot be read."""
    get = _openblas(numpy, "scipy_openblas_get_num_threads64_", (), ctypes.c_int)
    return None if get is None else int(get())


def pin_blas_threads():
    """Set numpy's and scipy's OpenBLAS pools to one thread, unless OPENBLAS_NUM_THREADS is set."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    for package, name in ((numpy, "scipy_openblas_set_num_threads64_"),
                          (scipy, "scipy_openblas_set_num_threads")):
        set_threads = _openblas(package, name, (ctypes.c_int,), None)
        if set_threads is not None:
            set_threads(1)
