"""Frobenius traces over prime fields via the quadratic-character sum.

a_{r,s}(p) = -sum_x ((x^3 + rx + s)/p), so #E(F_p) = p + 1 - a.  A batch
trace at p comes from one of three sources, by its size n alone (see
curve_traces): the character sum over a cached Legendre table (p steps a
curve); a gather from twist_rows(p), three rows r = 0, 1, g of sums over all
s taken by FFT correlation, since every other r is a quadratic twist of r = 1
or r = g (O(p) memory, in a cache bounded in bytes); or, for n >= p^2, the
p x p census table, gathered from the same rows for that batch alone.  The
Deuring census counts the rows.  This module alone decides where a batch
trace comes from and how a singular reduction is marked.
"""

from math import isqrt

import numpy as np

from .errors import SingularReduction
from .primes import ByteLRU, check_ell, legendre_table, primes_up_to, primitive_root, unit_group
from .store import RECORD

#: sentinel in per-prime trace tables for singular (r, s)
SINGULAR = np.int16(np.iinfo(np.int16).min)

#: x^3 + rx + s (x, r, s < p) fits in int64 up to this p = floor((2^63 - 1)^(1/3))
MAX_TRACE_PRIME = 2_097_151

#: elements per block of the character-sum gather
_SUM_BLOCK = 1 << 16

#: curves per bit of p from which a curve_traces batch reads twist_rows.
#: Building the rows cost as much as the sums of about 60 curves at
#: p = 500-1000, 100 at p = 2^14-2^18 and 70 at p = 2^21 (2 vCPU VM)
_ROW_CURVES_PER_BIT = 8

#: most (curve, good prime) cells trace_table fills.  The trace command peaks
#: near 35.5 bytes a cell (41.2 MB at X = 3, 59.9 MB at X = 4 and 110.0 MB at
#: X = 5, bound 1000: 0.17M, 0.70M and 2.1M cells), so about 0.55 GB at the
#: limit, where the arrays kept need 29: int32 a_p, bool good, a 24-byte record
MAX_TRACE_CELLS = 15_000_000


def check_prime_bound(bound: int) -> None:
    """Raise ValueError unless 5 <= bound <= MAX_TRACE_PRIME: the one range of traced primes."""
    if not 5 <= bound <= MAX_TRACE_PRIME:
        raise ValueError(f"prime bound must be in [5, {MAX_TRACE_PRIME}], got {bound}")


def check_ell_and_bound(ell: int, bound: int) -> None:
    """check_ell, then check_prime_bound: the input of every trace below a prime bound mod ell."""
    check_ell(ell)
    check_prime_bound(bound)


def frobenius_trace(r: int, s: int, p: int) -> int:
    """Trace a of Frobenius for y^2 = x^3 + rx + s over F_p, 5 <= p <= MAX_TRACE_PRIME."""
    check_prime_bound(p)
    r %= p
    s %= p
    if not _nonsingular(r, s, p):
        raise SingularReduction(f"(r, s)=({r}, {s}) is singular mod {p}")
    chi = legendre_table(p)
    x = np.arange(p, dtype=np.int64)
    return int(-chi[(x * x * x + r * x + s) % p].sum(dtype=np.int64))


def good_primes(disc: int, bound: int, ell: int) -> list[int]:
    """Primes 5 <= p <= bound with p != ell and p not dividing disc."""
    return [p for p in primes_up_to(bound) if p >= 5 and p != ell and disc % p]


def check_trace_cells(n_curves: int, bound: int, ell: int) -> None:
    """Raise ValueError unless trace_table over n_curves curves fits MAX_TRACE_CELLS cells."""
    check_ell_and_bound(ell, bound)
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
    elements, summed over x in int64.
    """
    chi = legendre_table(p)
    x = np.arange(p, dtype=np.int64)
    x3 = x * x * x % p
    a = np.empty(r.size, dtype=np.int64)
    rows = max(1, _SUM_BLOCK // p)
    for i in range(0, r.size, rows):
        v = r[i:i + rows, None] * x
        v += x3
        v += s[i:i + rows, None]
        v %= p
        a[i:i + rows] = -chi[v].sum(axis=1, dtype=np.int64)
    good = _nonsingular(r, s, p)
    a[~good] = 0
    return a, good


def _nonsingular(r: np.ndarray, s: np.ndarray, p: int) -> np.ndarray:
    """4r^3 + 27s^2 != 0 mod p, for (broadcastable) residue arrays r, s."""
    return (4 * r * r % p * r + 27 * s * s) % p != 0


def _correlation_rows(p: int, g: int) -> np.ndarray:
    """int16 rows a_{r,s}(p) over all s for r = 0, 1, g (singular s as the sum gives them).

    a_{r,s} = -sum_y N_r(y) chi(y + s) with N_r(y) = #{x : x^3 + rx = y}: one
    bincount and one real FFT correlation per row, zero-padded to a power of
    two >= 2p so that the two halves of the linear correlation add up to the
    cyclic one, then rounded.  If any correlation lies 1/4 or more from its
    integer, the rows are 3p character sums instead, which are exact.
    """
    x = np.arange(p, dtype=np.int64)
    reps = np.array([0, 1, g], dtype=np.int64)
    x3 = x * x * x % p
    n = 1 << (2 * p - 1).bit_length()
    chi = np.fft.rfft(legendre_table(p), n)
    rows = np.empty((3, p), dtype=np.int16)
    for i, r in enumerate(reps.tolist()):
        f = np.fft.rfft(np.bincount((x3 + r * x) % p, minlength=p), n)
        np.conjugate(f, out=f)
        f *= chi
        corr = np.fft.irfft(f, n)
        corr = corr[:p] + corr[n - p:]
        a = np.rint(corr)
        if np.abs(corr - a).max() >= 0.25:
            break
        rows[i] = -a
    else:
        return rows
    a, _ = _character_sums(np.repeat(reps, p), np.tile(x, 3), p)
    return a.astype(np.int16).reshape(3, p)


@ByteLRU
def twist_rows(p: int) -> np.ndarray:
    """The int16 correlation rows for r = 0, 1 and g, the least primitive root mod p."""
    return _correlation_rows(p, primitive_root(p))


def _twist_traces(r: np.ndarray, s: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, good) for broadcastable residue arrays r, s mod p, read from twist_rows(p).

    (lam^2 r, lam^3 s) is the quadratic twist of (r, s) by lam, so
    a_{lam^2 r, lam^3 s} = chi(lam) a_{r,s}.  For r = g^k, lam = g^-(k // 2)
    sends r to g^(k mod 2), so a_{r,s} = (-1)^(k // 2) row_{g^(k mod 2)}[lam^3 s];
    r = 0 reads its own row at s.  The twist keeps 4r^3 + 27s^2 = 0 fixed,
    and a = 0 where it holds.
    """
    power, log = unit_group(p)
    k = log[r]
    half = k >> 1
    col = power[-3 * half % (p - 1)] * s
    col %= p
    a = twist_rows(p)[np.where(r == 0, 0, 1 + (k & 1)), col].astype(np.int64)
    np.negative(a, out=a, where=(half & 1).astype(bool))
    good = _nonsingular(r, s, p)
    a[~good] = 0
    return a, good


def _row_threshold(p: int) -> int:
    """Fewest curves a curve_traces batch at p has for twist_rows to pay off."""
    return _ROW_CURVES_PER_BIT * p.bit_length()


def trace_census_table(p: int) -> np.ndarray:
    """int16 table T[r, s] = a_{r,s}(p), with SINGULAR marking 4r^3+27s^2 = 0.

    Built afresh at each call and kept nowhere: gathered from twist_rows(p)
    by _twist_traces in slabs of rows holding about _SUM_BLOCK entries, so
    the int64 temporaries stay O(max(p, _SUM_BLOCK)) beside the int16 table.
    """
    check_prime_bound(p)
    table = np.empty((p, p), dtype=np.int16)
    s = np.arange(p, dtype=np.int64)
    rows = max(1, _SUM_BLOCK // p)
    for r0 in range(0, p, rows):
        r = np.arange(r0, min(r0 + rows, p))[:, None]
        a, good = _twist_traces(r, s, p)
        table[r0:r0 + rows] = np.where(good, a, SINGULAR)
    table.setflags(write=False)
    return table


def curve_traces(A, B, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(a_p, good) of the curves y^2 = x^3 + Ax + B at 5 <= p <= MAX_TRACE_PRIME.

    A and B are integers or integer arrays (broadcast together, any residue);
    a_p (int64) = 0 and good = False where the reduction is singular.  Three
    sources, chosen by this call's batch size n alone:

    - n >= p^2: the census table, 2p^2 bytes built for this batch alone;
    - n >= _row_threshold(p): a gather from twist_rows(p), three int16
      rows that cost three FFTs of length 2p to 4p to build and stay in a
      cache bounded by CACHE_BYTES;
    - otherwise the character sum, p steps per curve.
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
    if r.size >= _row_threshold(p):
        return _twist_traces(r, s, p)
    a, good = _character_sums(r.ravel(), s.ravel(), p)
    return a.reshape(r.shape), good.reshape(r.shape)


def batch_trace_census(p: int) -> dict[int, int]:
    """Counts {a: #{(r, s) nonsingular with a_{r,s}(p) = a}}; totals p^2 - p.

    From the twist rows in O(p) memory: row 0 over s != 0, and rows 1 and g
    over their nonsingular s, once for each twist r = g^k that _twist_traces
    reads from them: ceil((p - 1) / 4) times as a, floor((p - 1) / 4) as -a.
    The rows are built for this call and kept out of twist_rows' cache,
    which a census run would fill with rows it never reads again.
    """
    check_prime_bound(p)
    bound = isqrt(4 * p)
    g = primitive_root(p)
    rows = _correlation_rows(p, g).astype(np.int64) + bound  # |a| <= bound: a + bound indexes counts
    s = np.arange(p, dtype=np.int64)
    counts = np.bincount(rows[0, 1:], minlength=2 * bound + 1)
    for r, row in zip((1, g), rows[1:]):
        h = np.bincount(row[_nonsingular(r, s, p)], minlength=2 * bound + 1)
        counts += (p + 2) // 4 * h + (p - 1) // 4 * h[::-1]  # h[::-1] counts -a
    return {int(a - bound): int(n) for a, n in enumerate(counts) if n > 0}
