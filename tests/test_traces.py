import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.ntheory.elliptic_curve import EllipticCurve

from ellstab import primes, traces
from ellstab.curves import count_curves, curve_box, discriminant, enumerate_curves
from ellstab.errors import SingularReduction
from ellstab.primes import legendre_table, primes_up_to, unit_group
from ellstab.store import RECORD
from ellstab.traces import (
    batch_trace_census,
    curve_traces,
    frobenius_trace,
    good_primes,
    trace_census_table,
    trace_table,
)

#: primes on both sides of 200, where sweeps' survivors stop paying for tables
ORACLE_PRIMES = [5, 31, 197, 199, 211, 223]

BRANCHES = ["table", "rows", "sum"]


def points_on_curve(r, s, p):
    """Brute-force affine point count of y^2 = x^3 + rx + s over F_p."""
    squares = {}
    for y in range(p):
        squares[y * y % p] = squares.get(y * y % p, 0) + 1
    return sum(squares.get((x**3 + r * x + s) % p, 0) for x in range(p))


def test_legendre_examples():
    # legendre_table against Euler's criterion a^((p-1)/2) mod p
    for p in primes_up_to(31):
        if p == 2:
            continue
        chi = legendre_table(p)
        assert chi.dtype == np.int8 and len(chi) == p
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            assert int(chi[a]) == (-1 if euler == p - 1 else euler)


def test_frobenius_trace_near_the_int64_limit():
    # both curves have CM and p = 2 mod 3, p = 3 mod 4, so both traces are 0
    p = 2_097_143
    assert frobenius_trace(0, 1, p) == 0
    assert frobenius_trace(1, 0, p) == 0
    with pytest.raises(ValueError):
        frobenius_trace(0, 1, 2_097_287)


def test_curve_traces_near_the_int64_limit():
    # the same two CM curves through the character sum of curve_traces
    a, good = curve_traces([0, 1], [1, 0], 2_097_143)
    assert a.tolist() == [0, 0] and good.tolist() == [True, True]
    with pytest.raises(ValueError):
        curve_traces(0, 1, 2_097_287)
    # raised before the p x p table (8.8 TB of int16) is allocated
    with pytest.raises(ValueError):
        trace_census_table(2_097_287)


def test_frobenius_trace_examples():
    assert frobenius_trace(1, 0, 5) == 2  # 4 affine points, a = 5 + 1 - 5
    assert frobenius_trace(0, 1, 5) == 0
    with pytest.raises(SingularReduction):
        frobenius_trace(-3, 2, 5)


@pytest.mark.parametrize("p", [p for p in primes_up_to(31) if p >= 5])
def test_trace_matches_point_enumeration_exhaustively(p):
    for r in range(p):
        for s in range(p):
            if (4 * r**3 + 27 * s * s) % p == 0:
                continue
            a = frobenius_trace(r, s, p)
            assert points_on_curve(r, s, p) + 1 == p + 1 - a
            assert a * a <= 4 * p


def spy_on_census_tables(mp):
    """Make trace_census_table record the primes it is asked for; returns the record."""
    requested = []
    census = traces.trace_census_table

    def spy(q):
        requested.append(q)
        return census(q)

    mp.setattr(traces, "trace_census_table", spy)
    return requested


def spy_on(mp, name):
    """Make traces.<name> record the primes it is asked for; returns the record."""
    requested = []
    fn = getattr(traces, name)

    def spy(q):
        requested.append(q)
        return fn(q)

    mp.setattr(traces, name, spy)
    return requested


#: batch sizes n (least, most) that each branch of curve_traces's rule takes at p
BRANCH_SIZES = {
    "table": lambda p: (p * p, None),
    "rows": lambda p: (traces._row_threshold(p), p * p - 1),
    "sum": lambda p: (1, traces._row_threshold(p) - 1),
}


def traces_through(branch, A, B, p):
    """curve_traces(A, B, p) through one branch of its per-call rule.

    The batch is cut into slices of at most the branch's largest size, and
    each slice is padded with copies of its first curve up to the branch's
    least size: p^2 curves read the census table, at least
    _row_threshold(p) but fewer than p^2 read twist_rows, fewer take the
    character sum.  Spies on trace_census_table and twist_rows check which
    one ran.  The result has the broadcast shape of A and B.
    """
    A, B = np.broadcast_arrays(np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64))
    shape, A, B = A.shape, A.ravel(), B.ravel()
    least, most = BRANCH_SIZES[branch](p)
    step = most or A.size
    parts = []
    with pytest.MonkeyPatch.context() as mp:
        census = spy_on_census_tables(mp)
        rows = spy_on(mp, "twist_rows")
        for i in range(0, A.size, step):
            a, b = A[i:i + step], B[i:i + step]
            fill = max(0, least - a.size)
            got = curve_traces(np.append(a, np.full(fill, a[0])), np.append(b, np.full(fill, b[0])), p)
            parts.append([x[:a.size] for x in got])
    a, good = (np.concatenate(x) for x in zip(*parts))
    assert census == ([p] if branch == "table" else [])
    if branch != "table":  # the table gathers from twist_rows once built
        assert rows == ([p] * len(parts) if branch == "rows" else [])
    return a.reshape(shape), good.reshape(shape)


def assert_curve_traces_match_point_counts(A, B, p):
    """Both branches of the cost rule against brute-force point counts."""
    expected = []
    for Ai, Bi in zip(*(x.tolist() for x in np.broadcast_arrays(A, B))):
        r, s = Ai % p, Bi % p
        singular = (4 * r**3 + 27 * s * s) % p == 0
        expected.append((0, False) if singular else (p - points_on_curve(r, s, p), True))
    for branch in BRANCHES:
        a, good = traces_through(branch, A, B, p)
        assert a.dtype == np.int64 and good.dtype == bool
        assert list(zip(a.tolist(), good.tolist())) == expected


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(ORACLE_PRIMES),
    st.lists(st.tuples(st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9)),
             min_size=1, max_size=12),
    st.lists(st.tuples(st.integers(0, 10**4), st.integers(-50, 50), st.integers(-50, 50)),
             min_size=1, max_size=4),
)
def test_curve_traces_match_point_counts(p, pairs, singular):
    # (-3m^2, 2m^3) is singular mod every p; i*p and j*p leave it unreduced
    pairs = pairs + [(-3 * m * m + i * p, 2 * m**3 + j * p) for m, i, j in singular]
    A, B = np.array(pairs, dtype=np.int64).T
    assert_curve_traces_match_point_counts(A, B, p)


def every_residue_pair(p):
    """All p^2 pairs mod p, as negative representatives."""
    r, s = np.divmod(np.arange(p * p), p)
    return r - 3 * p, s - 7 * p


@pytest.mark.parametrize(
    "A, B, p",
    [(*every_residue_pair(p), p) for p in (5, 31)]
    + [(-1, np.arange(-12, 13), p) for p in ORACLE_PRIMES],  # a scalar A broadcasts
)
def test_curve_traces_on_fixed_batches(A, B, p):
    assert_curve_traces_match_point_counts(A, B, p)


@pytest.mark.parametrize("p", [101, 2053, 10007])
def test_curve_traces_character_sums_equal_the_scalar_trace(p):
    # 40 curves are below _row_threshold(p), so the character sum gathers
    # chi at x^3 + rx + s mod p; the scalar frobenius_trace is the oracle
    assert 40 < traces._row_threshold(p)
    A, B = np.arange(-20, 20), np.arange(-20, 20) ** 3 + 5
    a, good = curve_traces(A, B, p)
    assert good.all()
    assert a.tolist() == [frobenius_trace(r, s, p) for r, s in zip(A.tolist(), B.tolist())]


def test_the_trace_source_depends_on_the_batch_size_alone(monkeypatch):
    # however many batches of p^2 - 1 curves came before, none reads the
    # O(p^3) table; a batch of p^2 curves does
    p = 211
    requested = spy_on_census_tables(monkeypatch)
    A, B = every_residue_pair(p)
    for _ in range(3):
        a, good = curve_traces(A[:-1], B[:-1], p)
    assert requested == []
    a_all, good_all = curve_traces(A, B, p)
    assert requested == [p]
    table = trace_census_table(p)
    assert np.array_equal(good_all, (table != traces.SINGULAR).ravel())
    assert np.array_equal(a_all, np.where(good_all, table.ravel(), 0))
    assert np.array_equal(good, good_all[:-1]) and np.array_equal(a, a_all[:-1])
    curve_traces(A[:10], B[:10], p)
    assert requested == [p]


def test_census_table_rows_on_both_sides_of_a_slab_seam():
    # p = 263 fills the table in two slabs of rows, the first ending at row 248
    p = 263
    assert traces._SUM_BLOCK // p == 249
    table = trace_census_table(p)
    for r in (0, 248, 249, 262):
        for s in range(p):
            if (4 * r**3 + 27 * s * s) % p == 0:
                assert table[r, s] == traces.SINGULAR
            else:
                assert table[r, s] == frobenius_trace(r, s, p)


def census_oracle(p):
    """The p x p table straight from _character_sums over the full grid."""
    r, s = np.divmod(np.arange(p * p, dtype=np.int64), p)
    a, good = traces._character_sums(r, s, p)
    return np.where(good, a, traces.SINGULAR).astype(np.int16).reshape(p, p)


@pytest.mark.parametrize("p", [p for p in primes_up_to(199) if p >= 5] + [211, 499])
def test_census_table_equals_the_full_grid_character_sums(p):
    # every row but 0, 1 and g is gathered through the twist orbits
    table = trace_census_table(p)
    assert table.dtype == np.int16 and not table.flags.writeable
    assert np.array_equal(table, census_oracle(p))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([p for p in primes_up_to(1000) if p >= 5]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(1, 10**6),
    st.integers(0, 10**4),
)
def test_quadratic_twist_multiplies_the_trace_by_chi(p, r, s, lam, m):
    # a_p(lam^2 r, lam^3 s) = chi(lam) a_p(r, s), and (lam^2 r, lam^3 s) is
    # singular iff (r, s) is; (-3m^2, 2m^3) adds a singular pair mod p
    assume(lam % p)
    r = np.array([r, -3 * m * m], dtype=np.int64) % p
    s = np.array([s, 2 * m**3], dtype=np.int64) % p
    a, good = traces._character_sums(r, s, p)
    lam %= p
    a_twist, good_twist = traces._character_sums(lam * lam * r % p, lam**3 * s % p, p)
    assert not good[1]
    assert good_twist.tolist() == good.tolist()
    chi = 1 if pow(lam, (p - 1) // 2, p) == 1 else -1  # Euler's criterion
    assert a_twist.tolist() == (chi * a).tolist()


@pytest.mark.parametrize("sentinel", [np.int16(-32767), np.int16(32767)])
def test_census_table_never_signs_the_singular_mark(monkeypatch, sentinel):
    # the int16 minimum is its own negative, so a negated SINGULAR would pass
    # unseen; with a sentinel whose negative differs it would not
    monkeypatch.setattr(traces, "SINGULAR", sentinel)
    for p in (5, 7, 13, 31, 101):
        r, s = np.divmod(np.arange(p * p), p)
        singular = ((4 * r**3 + 27 * s * s) % p == 0).reshape(p, p)
        table = trace_census_table(p)
        assert np.array_equal(table == sentinel, singular)
        assert np.array_equal(table, census_oracle(p))


def assert_twist_rows_match_character_sums(r, s, p):
    r, s = np.asarray(r, dtype=np.int64) % p, np.asarray(s, dtype=np.int64) % p
    a, good = traces._twist_traces(r, s, p)
    expected_a, expected_good = traces._character_sums(r, s, p)
    assert a.dtype == np.int64 and good.dtype == bool
    assert a.tolist() == expected_a.tolist() and good.tolist() == expected_good.tolist()


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([p for p in primes_up_to(1100) if p >= 5] + [4099, 65537]),
    st.lists(st.tuples(st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9)),
             min_size=1, max_size=40),
)
def test_twist_rows_equal_the_character_sums(p, pairs):
    # random pairs fall in both twist classes (r a square or not), with both
    # signs of chi(lam); the fixed batches below add r = 0, 1, g and s = 0
    r, s = np.array(pairs, dtype=np.int64).T
    assert_twist_rows_match_character_sums(r, s, p)


@pytest.mark.parametrize("p", [5, 7, 11, 199, 211, 997, 65537, 2_097_143])
def test_twist_rows_on_fixed_batches(p):
    # powers g^k for k = 0..5 and k = -1, zeros, singular pairs, and a few
    # random pairs; p = 2,097,143 is the largest traced prime
    power, _ = unit_group(p)
    g_powers = [int(power[k % (p - 1)]) for k in (0, 1, 2, 3, 4, 5, -1)]
    rng = np.random.default_rng(p)
    r = g_powers * 2 + [0, 0, 0, -3, -12] + rng.integers(0, p, 8).tolist()
    s = [0] * 7 + rng.integers(0, p, 7).tolist() + [0, 1, p - 1, 2, 16] + rng.integers(0, p, 8).tolist()
    assert_twist_rows_match_character_sums(r, s, p)


def test_twist_rows_fall_back_to_sums_when_the_fft_rounding_fails(monkeypatch):
    # each correlation adds two FFT outputs: 0.3 on each puts every sum 0.6
    # above its integer, where rounding alone would be off by one
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    for p in (67, 211):
        g = int(unit_group(p)[0][1])
        rows = traces._correlation_rows(p, g)
        s = np.arange(p)
        for i, r in enumerate((0, 1, g)):
            a, good = traces._character_sums(np.full(p, r), s, p)
            assert rows[i][good].tolist() == a[good].tolist()


@pytest.mark.parametrize("p", [5, 7, 11, 43, 47, 53])
def test_rows_below_the_fft_prime_are_sums_equal_to_the_ffts(p, monkeypatch):
    # below _FFT_PRIME the rows are character sums; with the FFT forced they
    # agree at every nonsingular s, the only entries any reader takes
    g = int(unit_group(p)[0][1])
    rows = traces._correlation_rows(p, g)
    monkeypatch.setattr(traces, "_FFT_PRIME", 0)
    fft_rows = traces._correlation_rows(p, g)
    s = np.arange(p)
    for i, r in enumerate((0, 1, g)):
        good = traces._nonsingular(r, s, p)
        assert rows[i][good].tolist() == fft_rows[i][good].tolist()


def test_rows_are_built_only_for_batches_at_the_threshold_at_the_top_prime(monkeypatch):
    # p = 2,097,143 with stand-ins for both sources: a batch one below the
    # threshold never asks for rows, a batch at it never takes the sum
    p = 2_097_143
    n = traces._row_threshold(p)
    assert n < 200
    cached = traces.twist_rows
    built, summed = spy_on(monkeypatch, "twist_rows"), []

    def sums(r, s, q):
        summed.append(r.size)
        return np.zeros(r.size, dtype=np.int64), np.ones(r.size, dtype=bool)

    monkeypatch.setattr(traces, "_character_sums", sums)
    monkeypatch.setattr(traces, "_correlation_rows", lambda q, g: np.zeros((3, q), dtype=np.int16))
    try:
        curve_traces(np.arange(n - 1), 1, p)
        assert summed == [n - 1] and built == []
        curve_traces(np.arange(n), 1, p)
        assert summed == [n - 1] and built == [p]
    finally:
        cached.cache_clear()  # drop the stand-in rows


def test_row_cache_stays_under_its_byte_bound_after_a_sweep_and_a_trace_table():
    from ellstab.galois_image import surjectivity_sweep

    traces.twist_rows.cache_clear()
    surjectivity_sweep(8, 17, 1000)
    trace_table(*curve_box(3), 1000, 5)
    held = traces.twist_rows.nbytes
    assert held == sum(rows.nbytes for rows in traces.twist_rows._held.values())
    assert 0 < held <= primes.CACHE_BYTES
    # three int16 rows a prime
    assert held <= 6 * sum(p for p in primes_up_to(1000))


def test_row_cache_drops_the_least_recently_used_past_its_bound(monkeypatch):
    # stand-in rows of 6p bytes, under a bound that holds 11 and 17 but not 13 too
    monkeypatch.setattr(primes, "CACHE_BYTES", 6 * (11 + 17))
    built = []
    monkeypatch.setattr(traces, "_correlation_rows",
                        lambda p, g: built.append(p) or np.zeros((3, p), dtype=np.int16))
    traces.twist_rows.cache_clear()
    try:
        for p in (11, 13, 11, 17):  # 17 drops 13, the least recently used
            traces.twist_rows(p)
        assert built == [11, 13, 17] and list(traces.twist_rows._held) == [11, 17]
        traces.twist_rows(11)
        traces.twist_rows(13)
        assert built == [11, 13, 17, 13]
    finally:
        traces.twist_rows.cache_clear()  # drop the stand-in rows


def test_a_legendre_scan_over_many_primes_holds_no_more_than_the_limit(monkeypatch):
    # the primes below 20000 sum to about 21 MB of int8 tables
    monkeypatch.setattr(primes, "CACHE_BYTES", 1 << 20)
    legendre_table.cache_clear()
    try:
        for p in primes_up_to(20000)[2:]:
            chi = legendre_table(p)
            assert legendre_table.nbytes <= 1 << 20
        assert legendre_table.nbytes == sum(a.nbytes for a in legendre_table._held.values())
        assert legendre_table(p) is chi  # the last one stays
    finally:
        legendre_table.cache_clear()


def test_an_array_past_the_limit_by_itself_is_returned_and_not_kept(monkeypatch):
    monkeypatch.setattr(primes, "CACHE_BYTES", 100)
    legendre_table.cache_clear()
    try:
        legendre_table(97)
        assert list(legendre_table._held) == [97]
        assert len(legendre_table(101)) == 101  # drops 97, then itself
        assert legendre_table.nbytes == 0 and not legendre_table._held
    finally:
        legendre_table.cache_clear()


@pytest.mark.parametrize("cache", [legendre_table, traces.twist_rows], ids=["legendre_table", "twist_rows"])
def test_cached_arrays_are_read_only_and_cache_clear_empties_the_cache(cache):
    p = 101
    a = cache(p)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 0
    assert cache(p) is a and cache.nbytes >= a.nbytes
    cache.cache_clear()
    assert cache.nbytes == 0 and not cache._held
    assert cache(p) is not a and np.array_equal(cache(p), a)


@settings(deadline=None, max_examples=20)
@given(
    st.sampled_from([p for p in primes_up_to(223) if p >= 5]),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6),
)
def test_traces_match_sympy_group_order(p, A, B):
    # an independent oracle: sympy's order counts the affine points, so the
    # group order is one more and a_p = p - order
    r, s = A % p, B % p
    assume((4 * r**3 + 27 * s * s) % p != 0)
    expected = p - EllipticCurve(r, s, modulus=p).order
    assert frobenius_trace(A, B, p) == expected
    for branch in BRANCHES:
        a, good = traces_through(branch, A, B, p)
        assert good.tolist() is True and a.tolist() == expected


def test_trace_cells_admit_the_X4_box_and_refuse_the_X10_box_at_bound_1000():
    traces.check_trace_cells(count_curves(4), 1000, 5)
    with pytest.raises(ValueError, match="more than"):
        traces.check_trace_cells(count_curves(10), 1000, 5)


def test_good_primes():
    # disc(1,1) = -16*31
    assert good_primes(-16 * 31, 40, 5) == [7, 11, 13, 17, 19, 23, 29, 37]
    assert good_primes(1, 13, 7) == [5, 11, 13]
    assert good_primes(1, 4, 5) == []


def test_trace_table_examples():
    recs = trace_table(1, 0, 10, 5)
    assert recs.dtype == RECORD
    assert len(recs) == 1
    ((A, B, p, a_p),) = recs.tolist()
    assert (A, B) == (1, 0)
    assert p == 7 and p % 5 == 2
    assert a_p == frobenius_trace(1, 0, 7)

    with pytest.raises(ValueError, match=r"prime bound must be in \[5, 2097151\], got 4"):
        trace_table(1, 1, 4, 5)


def test_trace_table_skips_bad_primes_and_ell():
    # disc(1,1) = -16*31
    recs = trace_table(1, 1, 40, 5)
    ps = recs["p"].tolist()
    assert 31 not in ps and 5 not in ps
    assert ps == sorted(ps)
    for p, a_p in zip(ps, recs["a_p"].tolist()):
        assert a_p * a_p <= 4 * p
        assert p % 5 != 0


@pytest.mark.parametrize("ell", [5, 7])
def test_trace_table_matches_per_curve_oracle(monkeypatch, ell):
    # every curve of the X <= 2 box; primes with p^2 <= 150 curves read census tables
    bound = 300
    requested = spy_on_census_tables(monkeypatch)
    got = trace_table(*curve_box(2), bound, ell).tolist()
    expected = [
        (c.A, c.B, p, frobenius_trace(c.A, c.B, p))
        for c in enumerate_curves(2)
        for p in good_primes(discriminant(c), bound, ell)
    ]
    assert got == expected
    assert requested == [p for p in (5, 7, 11) if p != ell]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23])
def test_census_totals_and_symmetry(p):
    census = batch_trace_census(p)
    assert sum(census.values()) == p * p - p
    bound = isqrt(4 * p)
    for a in census:
        assert a * a < 4 * p
        assert abs(a) <= bound
        assert census[a] == census[-a]


def test_census_small_brute_force():
    # independent brute force over all 25 pairs mod 5
    census = {}
    for r in range(5):
        for s in range(5):
            if (4 * r**3 + 27 * s * s) % 5 == 0:
                continue
            a = 5 + 1 - (points_on_curve(r, s, 5) + 1)
            census[a] = census.get(a, 0) + 1
    assert batch_trace_census(5) == census
    assert census[1] == 2


def table_census(p):
    """Counts of the non-SINGULAR entries of the p x p census table, the oracle."""
    table = trace_census_table(p)
    values, counts = np.unique(table[table != traces.SINGULAR], return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def test_census_from_the_rows_equals_the_census_table_below_1000():
    for p in primes_up_to(1000)[2:]:
        assert batch_trace_census(p) == table_census(p), p


def test_census_builds_no_table_and_holds_o_p_memory(monkeypatch):
    # the p x p table at p = 5003 alone would be 50 MB of int16
    p = 5003
    requested = spy_on_census_tables(monkeypatch)
    traces.twist_rows.cache_clear()
    tracemalloc.start()
    try:
        census = batch_trace_census(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert requested == []
    assert peak < 2 << 20
    assert sum(census.values()) == p * p - p
    assert trace_census_table(5) is not trace_census_table(5)  # kept nowhere
