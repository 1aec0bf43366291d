"""Frobenius traces over prime fields via the quadratic-character sum.

a_{r,s}(p) = -sum_x ((x^3 + rx + s)/p), so #E(F_p) = p + 1 - a.  Traces are
computed with a cached Legendre table per prime; per-prime full (r, s)
tables, filled from three character-sum rows by quadratic twists, back the
Deuring census and the curve_traces batches large enough to read one.  This
module alone decides where a batch trace comes from and how a singular
reduction is marked.
"""

from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import SingularReduction
from .primes import check_ell, legendre_table, primes_up_to, unit_logs
from .store import RECORD

#: sentinel in per-prime trace tables for singular (r, s)
SINGULAR = np.int16(np.iinfo(np.int16).min)

#: x^3 + rx + s (x, r, s < p) fits in int64 up to this p = floor((2^63 - 1)^(1/3))
MAX_TRACE_PRIME = 2_097_151

#: elements per block of the character-sum gather
_SUM_BLOCK = 1 << 16

#: largest chi repeated p times (bytes) that the gather reads instead of reducing
#: mod p, a step that about doubles the cost of a block
_TILED_CHI_LIMIT = 1 << 22

#: most (curve, good prime) cells trace_table fills.  The trace command peaks
#: near 35 bytes a cell (43.7 MB at X = 3, 59.9 MB at X = 4 and 109.4 MB at
#: X = 5, bound 1000: 0.17M, 0.70M and 2.1M cells), so about 0.55 GB at the
#: limit, where the arrays kept need 29: int32 a_p, bool good, a 24-byte record
MAX_TRACE_CELLS = 15_000_000


def check_prime_bound(bound: int) -> None:
    """Raise ValueError unless 5 <= bound <= MAX_TRACE_PRIME: the one range of traced primes."""
    if not 5 <= bound <= MAX_TRACE_PRIME:
        raise ValueError(f"prime bound must be in [5, {MAX_TRACE_PRIME}], got {bound}")


def frobenius_trace(r: int, s: int, p: int) -> int:
    """Trace a of Frobenius for y^2 = x^3 + rx + s over F_p, 5 <= p <= MAX_TRACE_PRIME."""
    check_prime_bound(p)
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


def check_trace_cells(n_curves: int, bound: int, ell: int) -> None:
    """Raise ValueError unless trace_table over n_curves curves fits MAX_TRACE_CELLS cells."""
    check_ell(ell)
    check_prime_bound(bound)
    cells = n_curves * len(good_primes(1, bound, ell))
    if cells > MAX_TRACE_CELLS:
        raise ValueError(
            f"tracing {n_curves} curves below {bound} fills {cells} cells, more than {MAX_TRACE_CELLS}"
        )


def trace_table(A, B, bound: int, ell: int) -> np.ndarray:
    """RECORDs (A, B, p, a_p) for every good prime 5 <= p <= bound with p != ell.

    A and B are integers or 1-D integer arrays (broadcast together); one
    curve_traces call per prime fills an (n_curves, n_primes) table, and
    the records are its good entries in row-major order: (A, B, p) order
    when the curves are, as curve_box's are.  They are filled field by field
    from per-curve counts and boolean gathers, with no index pair per cell.
    More than MAX_TRACE_CELLS cells are refused before the first trace.
    """
    A, B = np.broadcast_arrays(
        np.atleast_1d(np.asarray(A, dtype=np.int64)), np.atleast_1d(np.asarray(B, dtype=np.int64))
    )
    check_trace_cells(A.size, bound, ell)
    ps = np.array(good_primes(1, bound, ell), dtype=np.uint32)
    a = np.empty((A.size, ps.size), dtype=np.int32)
    good = np.empty(a.shape, dtype=bool)
    for j, p in enumerate(ps.tolist()):
        a[:, j], good[:, j] = curve_traces(A, B, p)
    per_curve = good.sum(axis=1)
    out = np.empty(int(per_curve.sum()), dtype=RECORD)
    out["A"] = np.repeat(A, per_curve)  # one field at a time: one temporary
    out["B"] = np.repeat(B, per_curve)
    out["p"] = np.broadcast_to(ps, good.shape)[good]  # row-major, as the records
    out["a_p"] = a[good]
    return out


def _character_sums(r: np.ndarray, s: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, good) for 1-D residue arrays r, s mod p, with a = 0 where not good.

    One 2-D gather chi[(x^3 + r x + s) mod p] over blocks of about _SUM_BLOCK
    elements, summed over x in int64.  The unreduced index x^3 mod p + r x + s
    is below p^2, so while chi repeated p times fits in _TILED_CHI_LIMIT bytes
    the gather reads that instead of reducing mod p, for a batch of at least
    p/64 curves: building it costs about as much as reducing that many curves'
    indices (measured for 101 <= p <= 1999).
    """
    chi = legendre_table(p)
    tiled = p * p <= _TILED_CHI_LIMIT and 64 * r.size >= p
    if tiled:
        chi = np.tile(chi, p)
    x = np.arange(p, dtype=np.int64)
    x3 = x * x * x % p
    a = np.empty(r.size, dtype=np.int64)
    rows = max(1, _SUM_BLOCK // p)
    for i in range(0, r.size, rows):
        v = r[i:i + rows, None] * x
        v += x3
        v += s[i:i + rows, None]
        if not tiled:
            v %= p
        a[i:i + rows] = -chi[v].sum(axis=1, dtype=np.int64)
    good = (4 * r * r % p * r + 27 * s * s) % p != 0
    a[~good] = 0
    return a, good


@lru_cache(maxsize=256)
def trace_census_table(p: int) -> np.ndarray:
    """int16 table T[r, s] = a_{r,s}(p), with SINGULAR marking 4r^3+27s^2 = 0.

    Rows 0, 1 and g (the least primitive root) are character sums, 3p sums
    of length p.  Every other row r = g^k is a signed permutation of row
    g^(k mod 2): (lam^2 r, lam^3 s) with lam = g^-(k // 2) is the quadratic
    twist of (r, s) by lam, so T[r, s] = (-1)^(k // 2) T[g^(k mod 2), lam^3 s],
    and singular pairs map to singular pairs.  That gather costs about p^2
    beside the 3p^2 of the sums; it runs by slabs of rows holding about
    _SUM_BLOCK entries, so the int64 temporaries stay O(max(p, _SUM_BLOCK))
    beside the p^2 int16 table.
    """
    check_prime_bound(p)
    logs = unit_logs(p)
    g = logs.index(1)
    s = np.arange(p, dtype=np.int64)
    a, good = _character_sums(np.repeat(np.array([0, 1, g], dtype=np.int64), p), np.tile(s, 3), p)
    base = np.where(good, a, SINGULAR).astype(np.int16).reshape(3, p)
    power = np.empty(p - 1, dtype=np.int64)  # power[e] = g^e mod p
    power[logs[1:]] = s[1:]
    k = np.array(logs, dtype=np.int64)
    half = k // 2
    scale = power[-3 * half % (p - 1)]  # lam^3 for each row r = g^k
    sign = (1 - 2 * (half % 2)).astype(np.int16)  # chi(lam)
    table = np.empty((p, p), dtype=np.int16)
    rows = max(1, _SUM_BLOCK // p)
    for r0 in range(0, p, rows):
        r = slice(r0, min(r0 + rows, p))
        col = scale[r, None] * s
        col %= p
        v = base[1 + k[r, None] % 2, col]
        np.multiply(v, sign[r, None], out=table[r])
        table[r][v == SINGULAR] = SINGULAR  # a singular pair stays unsigned
    table[0] = base[0]  # r = 0 is no power of g: its own sums
    table.setflags(write=False)
    return table


def curve_traces(A, B, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(a_p, good) of the curves y^2 = x^3 + Ax + B at 5 <= p <= MAX_TRACE_PRIME.

    A and B are integers or integer arrays (broadcast together, any residue);
    a_p (int64) = 0 and good = False where the reduction is singular.  The
    character sum costs p per curve.  The census table costs about 4p^2 once
    but holds 2p^2 bytes in a cache of 256, so only a batch of at least p^2
    curves reads it, and a smaller batch takes the sum.  The choice depends
    on this call's arguments alone.
    """
    check_prime_bound(p)
    r, s = np.broadcast_arrays(
        np.asarray(A, dtype=np.int64) % p, np.asarray(B, dtype=np.int64) % p
    )
    del A, B  # frees a caller's gathered temporaries (sweep survivors) early
    if r.size >= p * p:
        a = trace_census_table(p)[r, s]
        good = a != SINGULAR
        return np.where(good, a, 0).astype(np.int64), good
    a, good = _character_sums(r.ravel(), s.ravel(), p)
    return a.reshape(r.shape), good.reshape(r.shape)


def batch_trace_census(p: int) -> dict[int, int]:
    """Counts {a: #{(r, s) nonsingular with a_{r,s}(p) = a}}; totals p^2 - p."""
    table = trace_census_table(p)
    vals = table[table != SINGULAR].astype(np.int64)
    bound = isqrt(4 * p)
    counts = np.bincount(vals + bound, minlength=2 * bound + 1)
    return {int(a - bound): int(n) for a, n in enumerate(counts) if n > 0}
