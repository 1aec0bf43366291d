import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from ellstab import sieve_stats, traces
from ellstab.curves import CurveModel, count_curves, curve_box, discriminant, enumerate_curves, unranker
from ellstab.galois_image import t_A_proxy_member
from ellstab.primes import primes_up_to
from ellstab.sieve_stats import (
    _PAIR_BLOCK,
    _admissible_primes,
    _drawn_pairs,
    _match_columns,
    curve_count_check,
    pair_delta,
    pi_count,
    pi_pair,
    t_A_density_curve,
    t_A_proxy_ratio,
    variance_stat,
    zeta10,
)
from ellstab.traces import SINGULAR, curve_traces, frobenius_trace, good_primes, trace_census_table


def test_pi_count_examples():
    assert pi_count(10, 1, 5) == 0
    assert pi_count(11, 1, 5) == 1
    assert pi_count(2, 2, 5) == 1


def test_pi_pair_same_curve_different_traces():
    e = CurveModel(1, 1)
    assert pi_pair(e, e, 100, 1, 2, 1, 5) == 0


def test_pi_pair_brute_force_oracle():
    e1, e2 = CurveModel(1, 0), CurveModel(0, 1)
    t1, t2, d = 2, 0, 2
    expected = 0
    for p in primes_up_to(100):
        if p < 5 or p == 5 or discriminant(e1) % p == 0 or discriminant(e2) % p == 0:
            continue
        if p % 5 != d:
            continue
        # independent per-prime point enumeration
        pts1 = sum(
            1
            for x in range(p)
            for y in range(p)
            if (y * y - x**3 - 1 * x - 0) % p == 0
        )
        pts2 = sum(
            1
            for x in range(p)
            for y in range(p)
            if (y * y - x**3 - 0 * x - 1) % p == 0
        )
        a1 = p + 1 - (pts1 + 1)
        a2 = p + 1 - (pts2 + 1)
        if a1 % 5 == t1 and a2 % 5 == t2:
            expected += 1
    assert pi_pair(e1, e2, 100, t1, t2, d, 5) == expected


def test_pi_pair_partition():
    e1, e2 = CurveModel(1, 1), CurveModel(-1, 0)
    X, d, ell = 60, 2, 5
    total = sum(
        pi_pair(e1, e2, X, t1, t2, d, ell) for t1 in range(ell) for t2 in range(ell)
    )
    good = [
        p
        for p in primes_up_to(X)
        if p >= 5
        and p != ell
        and p % ell == d
        and discriminant(e1) % p != 0
        and discriminant(e2) % p != 0
    ]
    assert total == len(good)
    assert all(
        pi_pair(e1, e2, X, t1, t2, d, ell) <= pi_count(X, d, ell)
        for t1 in range(ell)
        for t2 in range(ell)
    )


def brute_variance(X, t1, t2, d, ell):
    curves = list(enumerate_curves(X))
    delta = pair_delta(t1, t2, d, ell)
    mean = delta * pi_count(X, d, ell)
    total = Fraction(0)
    for e1 in curves:
        for e2 in curves:
            k = pi_pair(e1, e2, X, t1, t2, d, ell)
            total += (k - mean) ** 2
    return total / len(curves) ** 2


@pytest.mark.parametrize("params", [(2, 1, 2, 2, 5), (2, 0, 0, 2, 5)])
def test_exhaustive_variance_matches_brute_force(params):
    X, t1, t2, d, ell = params
    st = variance_stat(X, t1, t2, d, ell, sample_size=10, seed=1)
    assert st.exhaustive
    assert st.V == brute_variance(X, t1, t2, d, ell)


def test_exhaustive_pairs_match_pi_pair_where_primes_count(monkeypatch):
    # no box is both small enough for every pair and tall enough for an
    # admissible prime, so the pair set runs over 40 curves of the X = 20 box,
    # where p = 7 and 17 are admissible
    X, t1, t2, d, ell = 20, 1, 2, 2, 5
    A, B = unranker(X)(np.linspace(0, count_curves(X) - 1, 40).astype(np.int64))
    monkeypatch.setattr(sieve_stats, "count_curves", lambda X: len(A))
    monkeypatch.setattr(sieve_stats, "curve_box", lambda X: (A, B))
    st = variance_stat(X, t1, t2, d, ell, sample_size=10, seed=1)
    assert st.exhaustive and st.num_pairs == 40 * 40
    curves = [CurveModel(a, b) for a, b in zip(A.tolist(), B.tolist())]
    ks = [pi_pair(e1, e2, X, t1, t2, d, ell) for e1 in curves for e2 in curves]
    assert 0 < sum(ks) and max(ks) == 2
    mean = pair_delta(t1, t2, d, ell) * pi_count(X, d, ell)
    assert st.V == sum((k - mean) ** 2 for k in ks) / len(ks)


def test_variance_seed_determinism():
    a = variance_stat(8, 1, 2, 1, 5, 5000, 7)
    b = variance_stat(8, 1, 2, 1, 5, 5000, 7)
    assert a == b
    c = variance_stat(12, 1, 2, 1, 5, 5000, 7)
    assert c.num_pairs == 5000 and not c.exhaustive


def test_monte_carlo_estimates_exhaustive():
    # X=2 is exhaustive; force sampling through a larger X would change the
    # population, so instead check the estimator on the X=2 population directly
    X, t1, t2, d, ell = 2, 1, 2, 2, 5
    exact = variance_stat(X, t1, t2, d, ell, 10, 1).V
    # MC over the same population: emulate by averaging seeds at sample_size=2000
    import numpy as np

    from ellstab.curves import curve_box
    from ellstab.sieve_stats import _match_columns

    A, B = curve_box(X)
    n = len(A)
    x_cols = _match_columns(A, B, X, t1, d, ell)
    y_cols = _match_columns(A, B, X, t2, d, ell)
    mean = pair_delta(t1, t2, d, ell) * pi_count(X, d, ell)
    ests = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        i1 = rng.integers(0, n, 2000)
        i2 = rng.integers(0, n, 2000)
        k = np.zeros(2000, dtype=np.int64)
        for xc, yc in zip(x_cols, y_cols):
            k += xc[i1] & yc[i2]
        ests.append(
            Fraction(int((k * k).sum()), 2000)
            - 2 * mean * Fraction(int(k.sum()), 2000)
            + mean * mean
        )
    avg = sum(ests) / len(ests)
    assert abs(float(avg - exact)) < 0.05


def full_box_monte_carlo(X, t1, t2, d, ell, sample_size, seed):
    """Reference: the Monte Carlo V as computed before sampling came first.

    Builds the whole box and a column per admissible prime over it, with the
    discriminant test written out, then indexes the columns with the draws.
    """

    def columns(A, B, t):
        cols = []
        disc = -16 * (4 * A**3 + 27 * B**2)
        for p in _admissible_primes(X, d, ell):
            a_p = trace_census_table(p)[A % p, B % p]
            good = (a_p != SINGULAR) & (disc % p != 0)
            cols.append(good & (a_p.astype(np.int64) % ell == t % ell))
        return cols

    A, B = curve_box(X)
    n = len(A)
    x_cols, y_cols = columns(A, B, t1), columns(A, B, t2)
    rng = np.random.default_rng(seed)
    i1 = rng.integers(0, n, size=sample_size)
    i2 = rng.integers(0, n, size=sample_size)
    k = np.zeros(sample_size, dtype=np.int64)
    for xc, yc in zip(x_cols, y_cols):
        k += xc[i1] & yc[i2]
    mean = pair_delta(t1, t2, d, ell) * pi_count(X, d, ell)
    return (
        Fraction(int((k * k).sum()), sample_size)
        - 2 * mean * Fraction(int(k.sum()), sample_size)
        + mean * mean
    )


@pytest.mark.parametrize("X", [8, 12])
@pytest.mark.parametrize("seed", [1, 7, 20240101])
@pytest.mark.parametrize("t1, t2, d, ell", [(1, 2, 1, 5), (2, 3, 2, 5), (0, 3, 5, 7)])
def test_sampled_variance_equals_full_box_reference(X, seed, t1, t2, d, ell):
    st = variance_stat(X, t1, t2, d, ell, 20000, seed)
    assert not st.exhaustive
    assert st.V == full_box_monte_carlo(X, t1, t2, d, ell, 20000, seed)


@pytest.mark.parametrize("t1, t2, d, ell", [(1, 2, 1, 5), (0, 3, 2, 7)])
def test_sampled_pairs_match_scalar_oracle_at_X_100(t1, t2, d, ell):
    # the X=100 box has about 4e10 curves: only the sampled ones are unranked
    X, samples, seed = 100, 50, 11
    rng = np.random.default_rng(seed)
    i1 = rng.integers(0, count_curves(X), size=samples)
    i2 = rng.integers(0, count_curves(X), size=samples)
    (A1, B1), (A2, B2) = unranker(X)(i1), unranker(X)(i2)
    k = np.zeros(samples, dtype=np.int64)
    for xc, yc in zip(_match_columns(A1, B1, X, t1, d, ell), _match_columns(A2, B2, X, t2, d, ell)):
        k += xc & yc
    oracle = [
        pi_pair(CurveModel(a1, b1), CurveModel(a2, b2), X, t1, t2, d, ell)
        for a1, b1, a2, b2 in zip(A1.tolist(), B1.tolist(), A2.tolist(), B2.tolist())
    ]
    assert k.tolist() == oracle
    mean = pair_delta(t1, t2, d, ell) * pi_count(X, d, ell)
    expected = sum((Fraction(kk) - mean) ** 2 for kk in oracle) / samples
    assert variance_stat(X, t1, t2, d, ell, samples, seed).V == expected


@pytest.mark.parametrize("block", [1, 7, 1 << 15, 10**6])
def test_variance_does_not_depend_on_the_pair_block(block, monkeypatch):
    # sampled at X = 20 (admissible primes 7 and 17) and exhaustive at X = 1 and
    # over 40 curves of the X = 20 box; 300 and 1600 pairs leave a partial last block of 7
    X, t1, t2, d, ell = 20, 1, 2, 2, 5
    A, B = unranker(X)(np.linspace(0, count_curves(X) - 1, 40).astype(np.int64))
    small_box = {"count_curves": lambda X: len(A), "curve_box": lambda X: (A, B)}

    def stats():
        sampled = variance_stat(X, t1, t2, d, ell, 300, 20240101)
        tiny = variance_stat(1, 1, 2, 1, 5, 10, 1)
        with monkeypatch.context() as m:
            for name, fn in small_box.items():
                m.setattr(sieve_stats, name, fn)
            exhaustive = variance_stat(X, t1, t2, d, ell, 10, 1)
        return sampled, tiny, exhaustive

    expected = stats()
    assert [st.exhaustive for st in expected] == [False, True, True]
    assert expected[0].V != 0 and expected[2].V != 0
    monkeypatch.setattr(sieve_stats, "_PAIR_BLOCK", block)
    assert stats() == expected


def test_sampled_variance_holds_one_block_of_temporaries():
    # tracing all 200,000 pairs at once took 12.4 MB of tracemalloc peak, and
    # drawing them all at once 3.2 MB more
    variance_stat(24, 1, 2, 1, 5, 100, 1)  # caches: primes, Legendre tables, twist rows
    tracemalloc.start()
    try:
        st = variance_stat(24, 1, 2, 1, 5, 200000, 20240101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.num_pairs == 200000 and not st.exhaustive
    assert peak < 7 * 2**20


@pytest.mark.parametrize("n", [5, 2**32 - 1, 2**32, 2**32 + 1, 10**18])
@pytest.mark.parametrize("size", [1, _PAIR_BLOCK - 1, _PAIR_BLOCK + 1])
def test_blocked_draws_equal_one_draw_of_i1_then_one_of_i2(n, size):
    # numpy draws a bound n <= 2^32 from 32-bit halves and a larger one from 64-bit words
    rng = np.random.default_rng(20240101)
    i1, i2 = rng.integers(0, n, size=size), rng.integers(0, n, size=size)
    blocks = list(_drawn_pairs(n, size, 20240101))
    assert all(len(b1) == len(b2) <= _PAIR_BLOCK for b1, b2 in blocks)
    assert np.array_equal(np.concatenate([b1 for b1, _ in blocks]), i1)
    assert np.array_equal(np.concatenate([b2 for _, b2 in blocks]), i2)


def test_sampled_variance_memory_does_not_grow_with_the_samples():
    # drawing all of i1 and i2 at once held 16 bytes a sample: about +28 MB here
    variance_stat(24, 1, 2, 1, 5, 100, 1)  # caches: primes, Legendre tables, twist rows
    peaks = []
    for samples in (200_000, 2_000_000):
        tracemalloc.start()
        try:
            variance_stat(24, 1, 2, 1, 5, samples, 20240101)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20


@pytest.mark.parametrize("bound", [60, 400])
def test_proxy_ratio_matches_member_scan(bound, monkeypatch):
    # a census table costs O(p^3) and is read only for a batch of p^2 curves;
    # the rows of the X=2 box hold at most 17 curves, so none is read above 200
    requested = []
    census = traces.trace_census_table

    def spy(p):
        requested.append(p)
        return census(p)

    monkeypatch.setattr(traces, "trace_census_table", spy)
    a = CurveModel(-1, -1)
    X, ell = 2, 5
    curves = list(enumerate_curves(X))
    expected = sum(1 for e in curves if t_A_proxy_member(e, a, ell, bound))
    assert t_A_proxy_ratio(a, X, ell, bound) == Fraction(expected, len(curves))
    assert all(p < 200 for p in requested)


@pytest.mark.parametrize(
    "a, X, ell, bound",
    # (25, 125), the twist of (1, 1) by 5, matches with bad reduction at the traced prime 5
    [(CurveModel(-1, -1), 2, 5, 60), (CurveModel(-1, -1), 3, 5, 400), (CurveModel(1, 1), 5, 7, 60)],
    ids=["X2", "X3", "twist-by-5"],
)
def test_proxy_ratio_traces_each_residue_pair_once(a, X, ell, bound, monkeypatch):
    # a curve passes at p by (A mod p, B mod p) alone, so below the table
    # prime a verdict table traces all pairs of its prime in one broadcast
    # call and no pair twice; above it, and at every prime with no tables
    # (table prime 0), each row traces its survivors
    curve_traces = sieve_stats.curve_traces
    curves = list(enumerate_curves(X))
    expected = sum(1 for e in curves if t_A_proxy_member(e, a, ell, bound))
    for table_prime in (sieve_stats._VERDICT_TABLE_PRIME, 0):
        traced = []  # the (p, A mod p, B mod p) of each curve_traces call

        def spy(A, B, p):
            r, s = np.broadcast_arrays(np.asarray(A) % p, np.asarray(B) % p)
            traced.append(set(zip([p] * r.size, r.ravel().tolist(), s.ravel().tolist())))
            return curve_traces(A, B, p)

        monkeypatch.setattr(sieve_stats, "curve_traces", spy)
        monkeypatch.setattr(sieve_stats, "_VERDICT_TABLE_PRIME", table_prime)
        assert t_A_proxy_ratio(a, X, ell, bound) == Fraction(expected, len(curves))
        assert traced
        seen = set()
        for pairs in traced:
            pairs = {pair for pair in pairs if pair[0] < table_prime}
            assert not pairs & seen
            seen |= pairs


@lru_cache(maxsize=None)
def member_scan(a, ell, bound, X_max=5):
    """(A, B) of the curves of C(X_max) for which t_A_proxy_member(e, a) holds."""
    return [(e.A, e.B) for e in enumerate_curves(X_max) if t_A_proxy_member(e, a, ell, bound)]


@pytest.mark.parametrize("bound", [50, 60, 400])
@pytest.mark.parametrize("a, ell", [(CurveModel(-1, -1), 5), (CurveModel(1, 1), 7)],
                         ids=["a=(-1,-1)", "a=(1,1)"])
@pytest.mark.parametrize("X", [1, 2, 3, 4, 5])
def test_proxy_ratio_equals_the_member_scan(X, a, ell, bound):
    # rows of at most 2X^3 + 1 <= 251 B, shorter than the pattern period
    # M = 1001, so most residue classes hold no B of the box; C(X) is the
    # part of C(5) inside the height-X box
    members = [(A, B) for A, B in member_scan(a, ell, bound) if abs(A) <= X * X and abs(B) <= X**3]
    assert t_A_proxy_ratio(a, X, ell, bound) == Fraction(len(members), count_curves(X))


@pytest.mark.parametrize("table_prime", [0, 12, 1000], ids=["no-tables", "mixed", "tables"])
@pytest.mark.parametrize("bound", [60, 400])
@pytest.mark.parametrize("a, ell", [(CurveModel(-1, -1), 5), (CurveModel(1, 1), 7)],
                         ids=["a=(-1,-1)", "a=(1,1)"])
def test_proxy_ratio_verdict_tables_and_lazy_rows_agree(a, ell, bound, table_prime, monkeypatch):
    # below the table prime each target prime reads one bool table over all
    # (A mod p, B mod p); at 0 every prime traces each row's curves, at 12
    # the head primes below 12 (7 and 11, or 5 and 11) read tables and the
    # head prime 13 and all later ones trace, and at 1000 every prime reads a table
    monkeypatch.setattr(sieve_stats, "_VERDICT_TABLE_PRIME", table_prime)
    for X in range(1, 6):
        members = [(A, B) for A, B in member_scan(a, ell, bound)
                   if abs(A) <= X * X and abs(B) <= X**3]
        assert t_A_proxy_ratio(a, X, ell, bound) == Fraction(len(members), count_curves(X))


@pytest.mark.parametrize("a, ell", [(CurveModel(-1, -1), 5), (CurveModel(1, 1), 7)],
                         ids=["a=(-1,-1)", "a=(1,1)"])
def test_proxy_ratio_drops_singular_and_non_minimal_pairs(a, ell):
    # (-3, +-2) is singular, so it passes at every prime as bad reduction;
    # (16a.A, 64a.B) is a scaled by 2 (p^4 | A, p^6 | B), with a's traces
    # at every odd prime.  Neither is a curve of C(4), so neither is counted.
    scaled = (16 * a.A, 64 * a.B)
    for p in good_primes(discriminant(a), 60, ell):
        ta = frobenius_trace(a.A, a.B, p) % ell
        t, good = curve_traces([-3, -3, scaled[0]], [2, -2, scaled[1]], p)
        assert good.tolist() == [False, False, True] and t[2] % ell in (ta, -ta % ell)
    members = member_scan(a, ell, 60)
    assert scaled not in members and (a.A, a.B) in members
    fours = [(A, B) for A, B in members if abs(A) <= 16 and abs(B) <= 64]
    assert t_A_proxy_ratio(a, 4, ell, 60) == Fraction(len(fours), count_curves(4))


def test_density_curve_bounds_and_monotone_trend():
    a = CurveModel(-1, -1)
    rows = t_A_density_curve(a, [2, 5], 5, 100)
    for X, ratio in rows:
        assert 0 < ratio <= 1
        assert ratio >= Fraction(1, count_curves(X))  # a matches itself
    assert rows[1][1] <= rows[0][1]


def test_zeta10_and_count_check():
    assert abs(zeta10() - 1.0009945751278182) < 1e-12
    rows = curve_count_check([1, 2])
    assert rows[0][1] == 8
    assert rows[1][1] == 150
