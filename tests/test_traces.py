from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstab.curves import CurveModel
from ellstab.errors import SingularReduction
from ellstab.primes import primes_up_to
from ellstab.traces import (
    batch_trace_census,
    curve_traces,
    frobenius_trace,
    good_primes,
    legendre_table,
    trace_table,
)

#: primes on both sides of the census-table cap of 200
ORACLE_PRIMES = [5, 31, 197, 199, 211, 223]


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


def assert_curve_traces_match_point_counts(A, B, p):
    a, good = curve_traces(A, B, p)
    assert a.dtype == np.int64 and good.dtype == bool
    A, B = np.broadcast_arrays(A, B)
    for Ai, Bi, ai, gi in zip(A.tolist(), B.tolist(), a.tolist(), good.tolist()):
        r, s = Ai % p, Bi % p
        if (4 * r**3 + 27 * s * s) % p == 0:
            assert (ai, gi) == (0, False)
        else:
            assert gi and ai == p - points_on_curve(r, s, p)


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


def test_good_primes():
    # disc(1,1) = -16*31
    assert good_primes(-16 * 31, 40, 5) == [7, 11, 13, 17, 19, 23, 29, 37]
    assert good_primes(1, 13, 7) == [5, 11, 13]
    assert good_primes(1, 4, 5) == []


def test_trace_table_examples():
    recs = trace_table(CurveModel(1, 0), 10, 5)
    assert len(recs) == 1
    (rec,) = recs
    assert rec.p == 7 and rec.d == 2 and rec.t == rec.a_p % 5
    assert rec.a_p == frobenius_trace(1, 0, 7)

    assert trace_table(CurveModel(1, 1), 4, 5) == []


def test_trace_table_skips_bad_primes_and_ell():
    # disc(1,1) = -16*31
    recs = trace_table(CurveModel(1, 1), 40, 5)
    ps = [r.p for r in recs]
    assert 31 not in ps and 5 not in ps
    assert ps == sorted(ps)
    for r in recs:
        assert r.a_p * r.a_p <= 4 * r.p
        assert r.d == r.p % 5 != 0


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
