"""Empirical sieve statistics: pair counts, variance, and density decay.

The variance statistic averages (pi_pair - delta * pi)^2 over index pairs
into the box, every pair when they are few and seeded draws otherwise, via
integer moment sums, so V is always an exact rational.  The pairs are walked
in fixed blocks, and the sampled ones are unranked from their indices block
by block, so that path never builds the box and holds one block whatever
the sample size.  The density decay does not build it either: a CRT pattern
of the first primes' residues generates only the B that pass them, row by row,
in one walk over the largest box that counts every smaller box on the way.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .curves import CurveModel, check_countable, check_unrankable, count_curves, curve_box
from .curves import discriminant, row_curves, unranker
from .matgroup import delta_density
from .primes import check_ell, check_unit
from .traces import check_ell_and_bound, curve_traces, frobenius_trace, good_primes
from .traces import trace_census_table  # noqa: F401  perfbench/inprocess.py wraps this binding

#: above this many pairs the exhaustive pair set gives way to sampling
_EXHAUSTIVE_PAIR_LIMIT = 10**6

#: pairs per block of variance_stat: its draws and temporaries are a few
#: int64 and bool columns of this length.
#: Cold sieve --X-list 20,24 --samples 200000, its p = 11 rows still taken by FFT, peaked at
#: 36.7-36.8 MB with 2^11, 36.8-36.9 MB with 2^12, 37.3-37.5 MB with 2^13 and 37.5-37.7 MB with
#: 2^14 (36.2-36.5 MB at 2^12 by character sums); 2^11 was 20-40 % slower (2 vCPU VM)
_PAIR_BLOCK = 1 << 12

#: most draws variance_stat takes: over 10^5 draws one cost 0.46 us at X = 24, 2.5 us
#: at X = 200 and 10 us at X = 1000, the largest X unranked (2 vCPU VM), so the
#: limit is about 100 s of work
MAX_SAMPLES = 10**7

#: _verdict_kernel keeps one bool verdict table over all (A mod p, B mod p) for p
#: below this, read from the census table (for every p < 1000 they would hold 50 MB);
#: without them the benchmark's decay took 1.0 s instead of 0.23 s (2 vCPU VM)
_VERDICT_TABLE_PRIME = 200

#: largest X decay walks, a time budget: X = 90 took 9.8-14.6 s cold at ell 5, bound 100, for three curves,
#: about X^4 (2 vCPU VM); below 817, the largest X with 31 X^6 < 2^63 (4A^3 + 27B^2 in int64 over the box)
MAX_DECAY_HEIGHT = 90


def pair_delta(t1: int, t2: int, d: int, ell: int) -> Fraction:
    return delta_density(t1, d, ell) * delta_density(t2, d, ell)


def pi_count(X: int, d: int, ell: int) -> int:
    """Number of primes 5 <= p <= X with p != ell and p = d mod ell, those pi_pair counts over."""
    check_unit(d, ell)
    return len(_admissible_primes(X, d, ell))


def _admissible_primes(X: int, d: int, ell: int) -> list[int]:
    return [p for p in good_primes(1, X, ell) if p % ell == d % ell]


def pi_pair(e1: CurveModel, e2: CurveModel, X: int, t1: int, t2: int, d: int, ell: int) -> int:
    """Primes p <= X, p = d mod ell, good for both curves, with traces (t1, t2)."""
    check_unit(d, ell)
    return sum(
        1
        for p in good_primes(discriminant(e1) * discriminant(e2), X, ell)
        if p % ell == d % ell
        and frobenius_trace(e1.A, e1.B, p) % ell == t1 % ell
        and frobenius_trace(e2.A, e2.B, p) % ell == t2 % ell
    )


@dataclass(frozen=True)
class SieveStat:
    X: int
    delta: Fraction
    pi: int
    num_pairs: int
    exhaustive: bool
    V: Fraction

    @property
    def v_over_x(self) -> Fraction:
        return self.V / self.X


def _verdict_kernel(ell: int, bad: bool) -> Callable[..., np.ndarray]:
    """verdicts(A, B, p, residues): [a_p mod ell in residues], or bad where p divides the discriminant.

    A verdict depends on (A mod p, B mod p) alone.  Below _VERDICT_TABLE_PRIME the
    first ask of a prime and residue set builds one bool table over all of them
    from one curve_traces call (which reads the census table), kept as long as
    the kernel, and each ask is one gather; a larger prime costs one curve_traces call an ask.
    """
    tables: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}

    def traced(A, B, p: int, residues: tuple[int, ...]) -> np.ndarray:
        a_p, good = curve_traces(A, B, p)
        return np.where(good, np.isin(a_p % ell, residues), bad)

    def verdicts(A, B, p: int, residues: tuple[int, ...]) -> np.ndarray:
        if p >= _VERDICT_TABLE_PRIME:
            return traced(A, B, p, residues)
        table = tables.get((p, residues))
        if table is None:
            r = np.arange(p)
            table = tables[p, residues] = traced(r[:, None], r, p, residues).ravel()
        return table[A % p * p + B % p]

    return verdicts


def _match_columns(A, B, X: int, t: int, d: int, ell: int, verdicts) -> list[np.ndarray]:
    """Per admissible prime, [p good and t_p = t] over the curves, by verdicts = _verdict_kernel(ell, bad=False)."""
    return [verdicts(A, B, p, (t % ell,)) for p in _admissible_primes(X, d, ell)]


def _drawn_pairs(n: int, sample_size: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of sample_size seeded index pairs in [0, n), one block held at a time.

    The pairs are those of i1 = rng.integers(0, n, size=sample_size) followed by
    i2 = rng.integers(0, n, size=sample_size) from one default_rng(seed): a
    bounded draw in chunks continues the stream exactly where the chunk ended,
    so a second generator seeded alike and advanced past all of i1 yields i2.
    """
    sizes = [min(_PAIR_BLOCK, sample_size - lo) for lo in range(0, sample_size, _PAIR_BLOCK)]
    rng1, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in sizes:
        rng2.integers(0, n, size=k)
    for k in sizes:
        yield rng1.integers(0, n, size=k), rng2.integers(0, n, size=k)


def variance_stat(
    X: int,
    t1: int,
    t2: int,
    d: int,
    ell: int,
    sample_size: int,
    seed: int,
) -> SieveStat:
    """Mean of (pi_pair - delta*pi)^2 over C(X)^2, exact or Monte Carlo.

    Over index pairs (i1, i2): all n^2 of curve_box while n^2 <= _EXHAUSTIVE_PAIR_LIMIT,
    else sample_size seeded draws (all of i1, then i2; see _drawn_pairs).  The
    pairs are walked in blocks of _PAIR_BLOCK: each side of a block is unranked
    (through one unranker(X)) and matched alone by the call's one verdict kernel.
    A pair's pi_pair is k = sum_p x_p(E1) y_p(E2); V expands in sum(k) and sum(k^2), kept as ints.
    """
    check_ell(ell)
    delta = pair_delta(t1, t2, d, ell)  # rejects d = 0 mod ell
    if not 1 <= sample_size <= MAX_SAMPLES:
        raise ValueError(f"sample_size must be in [1, {MAX_SAMPLES}], got {sample_size}")
    check_unrankable(X)  # before any count or draw
    n = count_curves(X)
    pi = pi_count(X, d, ell)
    mean = delta * pi

    exhaustive = n * n <= _EXHAUSTIVE_PAIR_LIMIT
    if exhaustive:
        A, B = curve_box(X)
        num_pairs = n * n
        blocks = (np.divmod(np.arange(lo, min(lo + _PAIR_BLOCK, num_pairs)), n)
                  for lo in range(0, num_pairs, _PAIR_BLOCK))
        side = lambda i: (A[i], B[i])  # noqa: E731
    else:
        side = unranker(X)
        num_pairs = sample_size
        blocks = _drawn_pairs(n, sample_size, seed)
    verdicts = _verdict_kernel(ell, bad=False)
    sum_k = sum_k2 = 0
    for b1, b2 in blocks:
        k = np.zeros(len(b1), dtype=np.int64)
        for xc, yc in zip(_match_columns(*side(b1), X, t1, d, ell, verdicts),
                          _match_columns(*side(b2), X, t2, d, ell, verdicts)):
            k += xc & yc
        sum_k += int(k.sum())
        sum_k2 += int((k * k).sum())
    v = Fraction(sum_k2, num_pairs) - 2 * mean * Fraction(sum_k, num_pairs) + mean * mean
    return SieveStat(X, delta, pi, num_pairs, exhaustive, v)


def t_A_density_curve(
    a: CurveModel, X_values, ell: int, bound: int
) -> list[tuple[int, Fraction]]:
    """Per X, in input order, the fraction of C(X) whose traces mod ell match a's up to sign below bound.

    A curve passes at p when t_p = +-t_p(a) mod ell or p divides its
    discriminant, by one _verdict_kernel(ell, bad=True): a row's verdicts at p
    are one gather or one curve_traces call.  The head primes, the first
    targets whose product M stays within (2 X^3 + 1) // 8 at the largest X
    (so each class keeps at least 8 candidate B), give each row A by CRT the
    classes c mod M that pass them all, read from one table of the classes'
    verdicts per A mod p, and only the B = c mod M in [-X^3, X^3] are
    generated, of which row_curves keeps the curves.  The later primes then
    drop that row's survivors one by one.  Minimality and singularity do not
    depend on X, so the boxes nest: one walk over the largest box's rows
    counts each row's survivors for every X with |A| <= X^2 and |B| <= X^3.
    The denominators are count_curves(X), so no row of any box is built.
    """
    check_ell_and_bound(ell, bound)
    if bound < 50:
        raise ValueError("prime bound must be >= 50")
    X_values = list(X_values)
    for X in X_values:  # every X before the first row
        check_countable(X)
        if X > MAX_DECAY_HEIGHT:
            raise ValueError(f"height bound X must be <= {MAX_DECAY_HEIGHT}, got {X}")
    if not X_values:
        return []
    heights = np.array(X_values, dtype=np.int64)
    X_top = max(X_values)
    b_max = X_top**3
    targets = [(p, (ta := frobenius_trace(a.A, a.B, p) % ell, -ta % ell))  # +-t_p(a) mod ell
               for p in good_primes(discriminant(a), bound, ell)]
    head, M = 0, 1
    while head < len(targets) and M * targets[head][0] <= (2 * b_max + 1) // 8:
        M *= targets[head][0]
        head += 1
    verdicts = _verdict_kernel(ell, bad=True)
    head_verdicts = [(p, verdicts(np.arange(p)[:, None], np.arange(M), p, residues))
                     for p, residues in targets[:head]]
    per_class = np.arange(-(-(2 * b_max + 1) // M)) * M
    matched = np.zeros(len(heights), dtype=np.int64)
    for A in range(-X_top * X_top, X_top * X_top + 1):
        pattern = np.ones(M, dtype=bool)
        for p, by_class in head_verdicts:
            pattern &= by_class[A % p]
        c = np.flatnonzero(pattern)
        first = (c + b_max) % M - b_max  # the least B >= -X^3 in each class c
        b = first[:, None] + per_class
        b = row_curves(A, b[b <= b_max], X_top)
        for p, residues in targets[head:]:
            if not len(b):
                break
            b = b[verdicts(A, b, p, residues)]
        if len(b):  # most rows keep no curve
            matched += (abs(A) <= heights**2) * np.count_nonzero(np.abs(b)[:, None] <= heights**3, axis=0)
    return [(X, Fraction(int(m), count_curves(X))) for X, m in zip(X_values, matched)]


def zeta10() -> float:
    """zeta(10) by partial summation, until the tail bound N^-9 / 9 is <= 10^-16."""
    n, total = 1, 0.0
    while n ** -9 / 9 > 10.0 ** -16:
        total += n ** -10
        n += 1
    return total


def lead_constant() -> float:
    """C1 = 4 / zeta(10) in #C(X) ~ C1 X^5."""
    return 4.0 / zeta10()


def curve_count_check(X_values) -> list[tuple[int, int, float, float]]:
    """Rows (X, #C(X), C1*X^5, relative error); every X is checked before the first count."""
    X_values = list(X_values)
    for X in X_values:
        check_countable(X)
    c1 = lead_constant()
    counts = [(X, count_curves(X), c1 * X**5) for X in X_values]
    return [(X, count, main, abs(count / main - 1.0)) for X, count, main in counts]
