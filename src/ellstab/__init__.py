"""Elliptic curve enumeration, trace statistics and diophantine-stability checks."""

import os

# numpy's OpenBLAS starts a worker thread per extra core at import, which
# spins on that core in every short CLI process although no ellstab code
# calls BLAS; so numpy loads with one thread unless the user chose a number,
# and the variable is gone again before any child process could inherit it
_blas_default = "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
try:
    import numpy  # noqa: F401  the package's first numpy import
finally:
    if _blas_default:
        del os.environ["OPENBLAS_NUM_THREADS"]

# the one re-exported name, which perfbench/inprocess.py reads; import the rest from their modules
from .curves import CurveModel  # noqa: F401

__version__ = "0.1.0"
