"""Build trace caches' record arrays from plain {(A, B, p): a_p} maps in tests."""

import numpy as np

from ellstab.store import RECORD


def records_of(entries: dict) -> np.ndarray:
    """The entries as RECORDs in (A, B, p) order; a value outside its field raises OverflowError."""
    return np.array([(*key, entries[key]) for key in sorted(entries)], dtype=RECORD)
