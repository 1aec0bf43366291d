"""Hurwitz class numbers and the Deuring point-count identity.

H(n) is the weighted count of classes of positive-definite binary quadratic
forms of discriminant -n: the class of x^2 + y^2 counts 1/2, the class of
x^2 + xy + y^2 counts 1/3, everything else 1.  Values are held as the
integer 6*H(n) so all identities check exactly.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

import numpy as np

from .errors import InvalidDiscriminant, OutOfHasseRange
from .primes import check_ell, is_prime, legendre_table
from .traces import check_prime_bound, good_primes

#: most rows partial_sum_sweep builds: hurwitz peaks near 50 bytes a row beside the table
#: (317 MB for 5.7M rows at ell = 18917, bound 2000), so about 0.5 GB at the limit
MAX_SWEEP_ROWS = 10_000_000


@dataclass(frozen=True)
class HurwitzValue:
    n: int
    six_h: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.six_h, 6)


def _weight_six(a: int, b: int, c: int) -> int:
    # weight of the single reduced form (a, b, c), in sixths
    if a == b == c:
        return 2
    if b == 0 and a == c:
        return 3
    return 6


def hurwitz(n: int) -> HurwitzValue:
    """6*H(n) by direct enumeration of reduced forms |b| <= a <= c."""
    if n <= 0 or n % 4 in (1, 2):
        raise InvalidDiscriminant(f"n={n}: need n > 0 with n = 0 or 3 mod 4")
    six = 0
    b = n % 2  # b^2 = -n mod 4 forces the parity of b
    while b * b <= n // 3:
        m = b * b + n
        if m % 4 == 0:
            m //= 4
            a = max(b, 1)
            while a * a <= m:
                if m % a == 0:
                    c = m // a
                    # (a, -b, c) is a distinct class unless on the boundary
                    copies = 1 if (b == 0 or b == a or a == c) else 2
                    six += copies * _weight_six(a, b, c)
                a += 1
        b += 2
    return HurwitzValue(n, six)


def hurwitz_six_table(n_max: int) -> np.ndarray:
    """Array h6 with h6[n] = 6*H(n) for 0 < n <= n_max (0 elsewhere).

    For each reduced pair (a, b) with 3a^2 <= n_max, the n = 4ac - b^2 over
    c = a, a + 1, ... form the arithmetic progression of step 4a from
    4a^2 - b^2, so one in-place add on the strided slice h6[n::4a] counts
    every c at once, with no index array.  Only c = a carries an edge
    weight; every c > a counts 6, or 12 with the distinct class (a, -b, c).
    About n_max/6 Python-level steps, each one strided add of about
    n_max/4a entries, and no temporaries beside the table.
    """
    h6 = np.zeros(n_max + 1, dtype=np.int64)
    a = 1
    while 3 * a * a <= n_max:
        for b in range(a + 1):
            n = 4 * a * a - b * b  # c = a
            if n <= n_max:
                h6[n] += _weight_six(a, b, a)
                h6[n + 4 * a::4 * a] += 6 if b in (0, a) else 12
        a += 1
    h6.setflags(write=False)
    return h6


def deuring_count(p: int, a: int) -> int:
    """((p-1)/2) * H(4p - a^2): the number of nonsingular (r, s) mod p with trace a."""
    if a * a >= 4 * p:
        raise OutOfHasseRange(f"a={a} violates a^2 < 4p for p={p}")
    six = hurwitz(4 * p - a * a).six_h
    num = (p - 1) * six
    assert num % 12 == 0
    return num // 12


def mass_check(p: int) -> bool:
    """Sum of H(4p - a^2) over a^2 < 4p equals 2p (Deuring mass identity)."""
    bound = isqrt(4 * p - 1)
    total_six = sum(hurwitz(4 * p - a * a).six_h for a in range(-bound, bound + 1))
    return total_six == 12 * p


class PartialSums(NamedTuple):
    """Rows (p, d, t, S, main, err) as columns, S and main as reduced int pairs."""

    p: np.ndarray
    d: np.ndarray
    t: np.ndarray
    s_num: np.ndarray
    s_den: np.ndarray
    main_num: np.ndarray
    main_den: np.ndarray
    err: np.ndarray


def _partial_sums(ps: list[int], ell: int, table: np.ndarray) -> PartialSums:
    """The rows of every t mod ell for the increasing primes ps, table = 6H up to 4 max(ps).

    six[i, t] sums table[4p - a^2] over a^2 < 4p, a = t mod ell: one strided
    add per |a| over the primes p > a^2 / 4.  err = |six den - 12 p num| /
    (6 den) is one int64 true division, exact floats on both sides while
    12 p ell^2 < 2^53 (ell <= MAX_ELL), so it rounds as float(S - main) would.
    """
    p = np.array(ps, dtype=np.int32)
    six = np.zeros((len(ps), ell), dtype=np.int32)  # six <= 12p < 2^31
    for a in range(isqrt(4 * int(p[-1]) - 1) + 1 if ps else 0):
        first = bisect_right(ps, a * a // 4)  # 4p > a^2
        h = table[4 * p[first:] - a * a]
        six[first:, a % ell] += h
        if a:
            six[first:, -a % ell] += h
    d = p % ell
    t = np.arange(ell, dtype=np.int64)
    num = ell + legendre_table(ell)[(t * t - 4 * d[:, None]) % ell].astype(np.int64)
    den = np.int64(ell * ell - 1)  # delta(t, d, ell) = num / den, as in delta_density
    err = np.abs(six * den - 12 * p[:, None] * num) / (6 * den)
    err /= ell * np.array([q**0.5 for q in ps])[:, None]
    num *= 2 * p[:, None]  # main = 2p num / den, reduced in place
    g = np.gcd(num, den)
    num //= g
    den = den // g
    s_den = np.gcd(six, 6)
    six //= s_den
    np.floor_divide(6, s_den, out=s_den)
    return PartialSums(
        np.repeat(p, ell), np.repeat(d, ell), np.tile(np.arange(ell, dtype=np.int32), len(ps)),
        six.ravel(), s_den.ravel(), num.ravel(), den.ravel(), err.ravel(),
    )


def hurwitz_partial_sum(p: int, t: int, ell: int) -> tuple[Fraction, Fraction, float]:
    """(S, main, err) for the class-number sum over traces in one residue class.

    S = sum of H(4p - a^2) over a^2 < 4p with a = t mod ell (exact),
    main = 2 * delta(t, p mod ell, ell) * p, err = |S - main| / (ell * sqrt(p)).
    p must be a prime in the range of check_prime_bound, other than ell.
    """
    check_ell(ell)
    check_prime_bound(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == ell:
        raise ValueError(f"need p != ell, got p = ell = {p}")
    cols, i = _partial_sums([p], ell, hurwitz_six_table(4 * p)), t % ell
    return (Fraction(int(cols.s_num[i]), int(cols.s_den[i])),
            Fraction(int(cols.main_num[i]), int(cols.main_den[i])), float(cols.err[i]))


def census_vs_deuring(p: int, six_table: np.ndarray) -> list[tuple[int, int, int, bool]]:
    """Rows (a, census_count, deuring_count, match) for all |a| <= floor(2*sqrt(p)).

    deuring_count = ((p-1)/2) H(4p - a^2), read from six_table = hurwitz_six_table(n >= 4p).
    """
    from .traces import batch_trace_census

    census = batch_trace_census(p)
    bound = isqrt(4 * p - 1)
    a = np.arange(-bound, bound + 1)
    expected = (p - 1) * six_table[4 * p - a * a] // 12
    return [(a, census.get(a, 0), e, census.get(a, 0) == e)
            for a, e in zip(a.tolist(), expected.tolist())]


def partial_sum_sweep(ell: int, p_max: int) -> PartialSums:
    """Rows (p, d, t, S, main, err) for all t and all primes 5 <= p <= p_max, p != ell.

    Array work over one hurwitz_six_table(4 p_max), 32 bytes per unit of
    p_max; the rows come back as PartialSums columns in (p, t) order, 44
    bytes a row (p, d, t and S as int32, main as int64).  More than
    MAX_SWEEP_ROWS rows are refused before the table is built.
    """
    check_ell(ell)
    check_prime_bound(p_max)
    ps = good_primes(1, p_max, ell)
    rows = len(ps) * ell
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"summing {ell} residues at {len(ps)} primes fills {rows} rows, more than {MAX_SWEEP_ROWS}")
    return _partial_sums(ps, ell, hurwitz_six_table(4 * p_max))
