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

from .curves import CurveModel, count_curves, discriminant, enumerate_curves, height, is_minimal
from .errors import (
    BadReduction,
    BudgetExceeded,
    ConflictingEntry,
    ConflictingRank,
    CorruptFile,
    EllstabError,
    InvalidCurve,
    InvalidDiscriminant,
    OutOfHasseRange,
    ParseError,
    SingularReduction,
)
from .galois_image import FieldSpec, ImageVerdict, classify_image, t_kl_member
from .stability import StabilityReport, check_ds, s_kl_census
from .traces import batch_trace_census, frobenius_trace, trace_table

__all__ = [
    "CurveModel",
    "FieldSpec",
    "ImageVerdict",
    "StabilityReport",
    "batch_trace_census",
    "check_ds",
    "classify_image",
    "count_curves",
    "discriminant",
    "enumerate_curves",
    "frobenius_trace",
    "height",
    "is_minimal",
    "s_kl_census",
    "t_kl_member",
    "trace_table",
    "BadReduction",
    "BudgetExceeded",
    "ConflictingEntry",
    "ConflictingRank",
    "CorruptFile",
    "EllstabError",
    "InvalidCurve",
    "InvalidDiscriminant",
    "OutOfHasseRange",
    "ParseError",
    "SingularReduction",
]

__version__ = "0.1.0"
