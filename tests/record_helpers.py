"""Plain-Python views of the package's array results, for tests.

records_of builds trace caches' record arrays from {(A, B, p): a_p} maps;
fraction_rows reads partial_sum_sweep's columns as rows of Fractions.
"""

from fractions import Fraction

import numpy as np

from ellstab.store import RECORD


def records_of(entries: dict) -> np.ndarray:
    """The entries as RECORDs in (A, B, p) order; a value outside its field raises OverflowError."""
    return np.array([(*key, entries[key]) for key in sorted(entries)], dtype=RECORD)


def fraction_rows(cols) -> list[tuple]:
    """PartialSums columns as rows (p, d, t, S, main, err), S and main as Fractions.

    Each fraction column pair must already be in lowest terms with a positive
    denominator, as the CLI prints it.
    """
    rows = []
    for p, d, t, s_num, s_den, m_num, m_den, err in zip(*(c.tolist() for c in cols)):
        s, main = Fraction(s_num, s_den), Fraction(m_num, m_den)
        assert (s.numerator, s.denominator, main.numerator, main.denominator) == (s_num, s_den, m_num, m_den)
        rows.append((p, d, t, s, main, err))
    return rows
