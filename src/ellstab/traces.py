"""Frobenius traces over prime fields via the quadratic-character sum.

a_{r,s}(p) = -sum_x ((x^3 + rx + s)/p), so #E(F_p) = p + 1 - a.  Traces are
computed with a cached Legendre table per prime; per-prime full (r, s)
tables back the Deuring census and, below _TABLE_PRIME_CAP, the batch
traces of curve_traces.  This module alone decides where a batch trace
comes from and how a singular reduction is marked.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .curves import CurveModel, discriminant
from .errors import SingularReduction
from .primes import check_ell, primes_up_to

#: sentinel in per-prime trace tables for singular (r, s)
SINGULAR = np.int16(np.iinfo(np.int16).min)

#: x^3 + rx + s (x, r, s < p) fits in int64 up to this p = floor((2^63 - 1)^(1/3))
MAX_TRACE_PRIME = 2_097_151

#: primes below this cap read full (r, s) census tables in curve_traces
_TABLE_PRIME_CAP = 200


@lru_cache(maxsize=4096)
def legendre_table(p: int) -> np.ndarray:
    """chi[v] = (v/p) for v in 0..p-1, as an int8 array."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    v = np.arange(1, (p + 1) // 2, dtype=np.int64)
    chi[(v * v) % p] = 1
    return chi


def frobenius_trace(r: int, s: int, p: int) -> int:
    """Trace a of Frobenius for y^2 = x^3 + rx + s over F_p, 5 <= p <= MAX_TRACE_PRIME."""
    if p < 5:
        raise ValueError("traces only computed at primes p >= 5")
    if p > MAX_TRACE_PRIME:
        raise ValueError(f"traces only computed at primes p <= {MAX_TRACE_PRIME}")
    r %= p
    s %= p
    if (4 * r**3 + 27 * s * s) % p == 0:
        raise SingularReduction(f"(r, s)=({r}, {s}) is singular mod {p}")
    chi = legendre_table(p)
    x = np.arange(p, dtype=np.int64)
    return int(-chi[(x * x * x + r * x + s) % p].sum(dtype=np.int64))


def good_primes(disc: int, bound: int, ell: int) -> list[int]:
    """Primes 5 <= p <= bound with p != ell and p not dividing disc."""
    return [p for p in primes_up_to(bound) if p >= 5 and p != ell and disc % p]


@dataclass(frozen=True)
class TraceRecord:
    p: int
    a_p: int
    t: int  # a_p mod ell
    d: int  # p mod ell


def trace_table(c: CurveModel, bound: int, ell: int) -> list[TraceRecord]:
    """One record per prime 5 <= p <= bound with p != ell and good reduction."""
    check_ell(ell)
    out = []
    for p in good_primes(discriminant(c), bound, ell):
        a = frobenius_trace(c.A, c.B, p)
        out.append(TraceRecord(p, a, a % ell, p % ell))
    return out


@lru_cache(maxsize=256)
def trace_census_table(p: int) -> np.ndarray:
    """int16 table T[r, s] = a_{r,s}(p), with SINGULAR marking 4r^3+27s^2 = 0."""
    if p < 5:
        raise ValueError("census only defined for primes p >= 5")
    chi = legendre_table(p)
    x = np.arange(p, dtype=np.int64)
    x3 = (x * x * x) % p
    s = np.arange(p, dtype=np.int64)
    s_sq27 = (27 * s * s) % p
    table = np.empty((p, p), dtype=np.int16)
    for r in range(p):
        vals = ((x3 + r * x)[:, None] + s[None, :]) % p
        row = -chi[vals].sum(axis=0, dtype=np.int64)
        row[(4 * r**3 + s_sq27) % p == 0] = SINGULAR
        table[r] = row.astype(np.int16)
    table.setflags(write=False)
    return table


def curve_traces(A, B, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(a_p, good) of the curves y^2 = x^3 + Ax + B at p >= 5: int64 and bool arrays.

    A and B are integers or integer arrays (broadcast together, any residue);
    a_p = 0 where the reduction is singular.  Primes below _TABLE_PRIME_CAP
    read the census table; larger ones take the character sum.
    """
    r, s = np.broadcast_arrays(
        np.asarray(A, dtype=np.int64) % p, np.asarray(B, dtype=np.int64) % p
    )
    del A, B  # frees a caller's gathered temporaries (sweep survivors) early
    if p < _TABLE_PRIME_CAP:
        a = trace_census_table(p)[r, s]
        good = a != SINGULAR
        return np.where(good, a, 0).astype(np.int64), good
    chi = legendre_table(p)
    a = np.zeros(r.shape, dtype=np.int64)
    for x in range(p):
        a -= chi[(x * x * x % p + r * x + s) % p]
    good = (4 * r * r % p * r + 27 * s * s) % p != 0
    return np.where(good, a, 0), good


def batch_trace_census(p: int) -> dict[int, int]:
    """Counts {a: #{(r, s) nonsingular with a_{r,s}(p) = a}}; totals p^2 - p."""
    table = trace_census_table(p)
    vals = table[table != SINGULAR].astype(np.int64)
    bound = isqrt(4 * p)
    counts = np.bincount(vals + bound, minlength=2 * bound + 1)
    return {int(a - bound): int(n) for a, n in enumerate(counts) if n > 0}
