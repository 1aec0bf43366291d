"""Enumeration of elliptic curves y^2 = x^3 + Ax + B by naive height.

Curves are represented by integer pairs (A, B) with 4A^3 + 27B^2 != 0 and
no prime p with p^4 | A and p^6 | B, so each isomorphism class over Q
appears exactly once.  The height-X box is |A| <= X^2, |B| <= X^3.
Besides enumerating it, the module counts its curves in closed form and
unranks a position in lexicographic order without building the box.
"""

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterator

import numpy as np

from .errors import BadReduction, InvalidCurve
from .primes import primes_up_to
from .traces import MAX_TRACE_PRIME

#: most curves curve_box builds; a sweep over the box peaks near 80 bytes a
#: curve (605 MB for the 7.56M curves at X = 18), so about 0.8 GB at the limit
MAX_BOX_CURVES = 10**7

#: largest X count_curves takes: its loop runs over the squarefree d <= sqrt(X),
#: so X = 10^12 takes about 1 s and 10^13 about 3 s, and sqrt(X)-long sieves
#: at X = 10^18 would need GiBs
MAX_COUNT_HEIGHT = 10**12

#: largest X whose box indexes in int64: count_curves(4706) < 2^63 <= count_curves(4707)
MAX_INDEX_HEIGHT = 4706

#: largest X unranker takes: its row tables hold about 23 bytes for each of the 2X^2 + 1
#: rows (cold sieve --X-list X --samples 10 peaked at 73 MB at X = 1000, 188 MB at 2000)
MAX_UNRANK_HEIGHT = 1000


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps down from a power of two above it."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def is_minimal(A: int, B: int) -> bool:
    """True iff no prime p has both p^4 | A and p^6 | B; (0, 0) is non-minimal by convention.

    Such a p is at most |A|^(1/4) if A != 0 and |B|^(1/6) if B != 0.  A pair whose least
    root passes MAX_TRACE_PRIME, the largest sieve any command takes, is refused before the sieve.
    """
    if A == 0 and B == 0:
        return False
    cap = min(_iroot(abs(n), k) for n, k in ((A, 4), (B, 6)) if n)
    if cap > MAX_TRACE_PRIME:
        raise ValueError(f"testing ({A}, {B}) for minimality needs the primes up to {cap},"
                         f" more than {MAX_TRACE_PRIME}")
    return all(A % p**4 != 0 or B % p**6 != 0 for p in primes_up_to(cap))


@dataclass(frozen=True)
class CurveModel:
    A: int
    B: int

    def __post_init__(self) -> None:
        if discriminant(self) == 0:
            raise InvalidCurve(f"({self.A}, {self.B}) is singular")
        if not is_minimal(self.A, self.B):
            raise InvalidCurve(f"({self.A}, {self.B}) is not minimal")


def discriminant(c: CurveModel) -> int:
    return -16 * (4 * c.A**3 + 27 * c.B**2)


def height(c: CurveModel) -> int:
    return max(abs(c.A) ** 3, c.B**2)


def _check_height(X: int) -> None:
    if X < 1:
        raise ValueError("height bound X must be >= 1")


def enumerate_curves(X: int) -> Iterator[CurveModel]:
    """Every curve of the height-X box in (A, B) order, lazily from box_rows; box_size checks X now."""
    box_size(X)
    return (CurveModel(A, B) for A, row in box_rows(X) for B in row.tolist())


def box_rows(X: int) -> Iterator[tuple[int, np.ndarray]]:
    """(A, increasing array of the B with (A, B) a curve) for each A, increasing.

    Each row is row_curves over one shared array of every |B| <= X^3, made
    read-only because a row that drops nothing is that array itself.
    """
    _check_height(X)
    b = np.arange(-(X**3), X**3 + 1, dtype=np.int64)
    b.setflags(write=False)
    for A in range(-X * X, X * X + 1):
        yield A, row_curves(A, b, X)


def row_curves(A: int, b: np.ndarray, X: int) -> np.ndarray:
    """The B of the candidates b (|B| <= X^3, any order) with (A, B) a curve of the height-X box.

    Drops the singular B, those of the pairs (-3k^2, +-2k^3), (0, 0) included,
    and the non-minimal B, with p^4 | A and p^6 | B for a prime p <= sqrt(X):
    a larger p has p^4 > X^2 >= |A| and p^6 > X^3 >= |B|.  Returns b itself,
    not a copy, when A admits neither.
    """
    k = isqrt(max(-A, 0) // 3)
    if A == -3 * k * k:
        b = b[np.abs(b) != 2 * k**3]
    for p in primes_up_to(isqrt(X)):
        if A % p**4 == 0:
            b = b[b % p**6 != 0]
    return b


def box_size(X: int) -> int:
    """count_curves(X); ValueError if the box holds more than MAX_BOX_CURVES curves."""
    n = count_curves(X)
    if n > MAX_BOX_CURVES:
        raise ValueError(f"the height-{X} box has {n} curves, more than {MAX_BOX_CURVES}")
    return n


def curve_box(X: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (A, B) of all curves in the height-X box, lexicographic order.

    The batch form of enumerate_curves: both are built from box_rows.  A box
    of more than MAX_BOX_CURVES curves is rejected before anything is built.
    """
    box_size(X)
    a_chunks, b_chunks = [], []
    for A, sel in box_rows(X):
        a_chunks.append(np.full(len(sel), A, dtype=np.int64))
        b_chunks.append(sel)
    return np.concatenate(a_chunks), np.concatenate(b_chunks)


# -- closed-form box model ---------------------------------------------------
#
# Row A of the box holds the B in [-X^3, X^3] that no p^6 divides for any box
# prime p with p^4 | A, minus the singular B.  Inclusion-exclusion over the
# squarefree d whose primes all satisfy p^4 | A counts a row without a mask;
# such d have d^4 | A, so d <= sqrt(X) when A != 0.  The singular pairs are
# (0, 0) and (-3m^2, +-2m^3), and p^4 | 3m^2 with p^6 | 2m^3 exactly when
# p^2 | m, so those with m squarefree survive the p-condition and are removed
# by hand; 3m^2 <= X^2 already gives 2m^3 <= X^3.


def _mobius(n: int) -> np.ndarray:
    """mu(k) for k = 0..n (mu(0) = 0), sieved from primes_up_to(n)."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_up_to(n):
        mu[::p] *= -1
        mu[:: p * p] = 0
    return mu


def _sieve_terms(X: int) -> tuple[np.ndarray, np.ndarray]:
    """(d, mu(d)) over the squarefree d <= sqrt(X), d = 1 first."""
    mu = _mobius(isqrt(X))
    d = np.flatnonzero(mu)
    return d, mu[d]


def _singular_m(X: int) -> np.ndarray:
    """The m >= 1 whose singular pairs (-3m^2, +-2m^3) pass the p-condition."""
    mu = _mobius(isqrt(X * X // 3))
    return np.flatnonzero(mu)


def _squarefree_count(N: int) -> int:
    """#{squarefree 1 <= m <= N} = sum over d <= sqrt(N) of mu(d) floor(N / d^2)."""
    d, mu = _sieve_terms(N)
    return int((mu * (N // (d * d))).sum())


def count_curves(X: int) -> int:
    """#C(X) in closed form: the row counts of the box model, summed by d.

    Rows with d^4 | A number 2*floor(X^2/d^4) + 1, A = 0 included; the A = 0
    row also loses B = 0, which the sum gives weight sum(mu(d)).  The singular
    pairs are counted without listing their m, so memory stays O(sqrt(X)).
    X above MAX_COUNT_HEIGHT is refused before any work.
    """
    check_countable(X)
    a_bound, b_bound = X * X, X**3
    total = 0
    d, mu = _sieve_terms(X)
    for di, mi in zip(d.tolist(), mu.tolist()):
        total += mi * ((2 * (b_bound // di**6) + 1) * (2 * (a_bound // di**4) + 1) - 1)
    return total - 2 * _squarefree_count(isqrt(X * X // 3))


def check_countable(X: int) -> None:
    """Raise ValueError unless count_curves takes X: 1 <= X <= MAX_COUNT_HEIGHT."""
    _check_height(X)
    if X > MAX_COUNT_HEIGHT:
        raise ValueError(f"height bound X must be <= {MAX_COUNT_HEIGHT}, got {X}")


def check_unrankable(X: int) -> None:
    """Raise ValueError unless unranker takes X: a box indexable in int64, X <= MAX_UNRANK_HEIGHT."""
    _check_height(X)
    if X > MAX_INDEX_HEIGHT:
        raise ValueError(f"the height-{X} box is too large to index in int64")
    if X > MAX_UNRANK_HEIGHT:
        raise ValueError(f"height bound X must be <= {MAX_UNRANK_HEIGHT} to unrank, got {X}")


def _row_counts(X: int) -> np.ndarray:
    """N(A) = #{B : (A, B) in C(X)} for A = -X^2, ..., X^2."""
    a_bound, b_bound = X * X, X**3
    counts = np.zeros(2 * a_bound + 1, dtype=np.int64)
    d, mu = _sieve_terms(X)
    for di, mi in zip(d.tolist(), mu.tolist()):
        counts[a_bound % di**4 :: di**4] += mi * (2 * (b_bound // di**6) + 1)
    counts[a_bound] -= int(mu.sum())  # A = 0 loses B = 0
    counts[a_bound - 3 * _singular_m(X) ** 2] -= 2
    return counts


def unranker(X: int) -> Callable[[object], tuple[np.ndarray, np.ndarray]]:
    """unrank for one X: builds the O(X^2) row tables once, returns idx -> (A, B).

    Both coordinates are least fixed points of monotone maps, iterated from
    below.  The row: r <- (idx + D(r)) // (2X^3 + 1) from idx // (2X^3 + 1),
    D(r) the B excluded in rows <= r (written relative to ends[r]).  B in a
    row that excludes some: y <- lo + E(y) from lo = rank - X^3, E(y) the
    excluded B in [-X^3, y] by the box model's closed-form counts.  Up to
    X = 3000 a row moves at most 3 times and B takes at most 7 steps.
    """
    check_unrankable(X)
    n = count_curves(X)
    counts = _row_counts(X)
    ends = np.cumsum(counts)
    a_bound, b_bound = X * X, X**3
    width = 2 * b_bound + 1
    d, mu = _sieve_terms(X)
    zero_weight = int(mu.sum())  # the sum counts B = 0 at A = 0, never a curve
    d, mu = d[1:], mu[1:]  # d = 1 excludes nothing
    d4, d6 = d**4, d**6
    below = (-b_bound - 1) // d6
    m_of_row = np.zeros(len(counts), dtype=np.int64)
    m_sing = _singular_m(X)
    m_of_row[a_bound - 3 * m_sing**2] = m_sing

    def unrank_at(idx) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"curve index out of range [0, {n})")
        row = idx // width
        behind = np.flatnonzero(idx >= ends[row])  # the indices whose row is still too low
        while behind.size:
            r = row[behind] + 1 + (idx[behind] - ends[row[behind]]) // width
            row[behind] = r
            behind = behind[idx[behind] >= ends[r]]
        B = idx - (ends[row] - counts[row]) - b_bound  # exact in a row that excludes no B
        search = np.flatnonzero(counts[row] < width)
        A = row[search] - a_bound
        lo = B[search]
        weight = np.where(A[:, None] % d4 == 0, mu, 0)
        zero = np.where(A == 0, zero_weight, 0)
        m = m_of_row[row[search]]
        sing = m > 0

        def excluded(y: np.ndarray) -> np.ndarray:
            e = zero * (y >= 0) - (weight * (y[:, None] // d6 - below)).sum(axis=1)
            e[sing] += (y[sing] >= -2 * m[sing] ** 3).astype(np.int64) + (y[sing] >= 2 * m[sing] ** 3)
            return e

        y, nxt = lo, lo + excluded(lo)
        while (nxt != y).any():
            y, nxt = nxt, lo + excluded(nxt)
        B[search] = y
        return row - a_bound, B

    return unrank_at


def reduce_mod_p(c: CurveModel, p: int) -> tuple[int, int]:
    """(A mod p, B mod p) when p is a prime of good reduction.

    Raises BadReduction when p | disc(c); callers skip such primes.
    """
    if p < 5:
        raise ValueError("reduction only supported at primes p >= 5")
    if discriminant(c) % p == 0:
        raise BadReduction(f"p={p} divides disc({c.A}, {c.B})")
    return c.A % p, c.B % p
