import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

from ellstab import class_numbers, traces
from ellstab.class_numbers import (
    census_vs_deuring,
    deuring_count,
    hurwitz,
    hurwitz_partial_sum,
    hurwitz_six_table,
    mass_check,
    partial_sum_sweep,
)
from ellstab.errors import InvalidDiscriminant, OutOfHasseRange
from ellstab.matgroup import delta_density
from ellstab.primes import MAX_ELL, is_prime, primes_up_to
from ellstab.traces import batch_trace_census
from record_helpers import fraction_rows


def test_hurwitz_examples():
    assert hurwitz(3).value == Fraction(1, 3)
    assert hurwitz(4).value == Fraction(1, 2)
    assert hurwitz(23).value == 3
    assert hurwitz(19).value == 1
    assert hurwitz(20).value == 2


def test_hurwitz_rejects_bad_discriminants():
    for n in (0, -4, 1, 2, 5, 6):
        with pytest.raises(InvalidDiscriminant):
            hurwitz(n)


def test_six_h_integrality():
    for n in range(1, 400):
        if n % 4 in (0, 3):
            assert hurwitz(n).six_h >= 2


def test_table_matches_direct_enumeration():
    table = hurwitz_six_table(600)
    for n in range(1, 601):
        if n % 4 in (0, 3):
            assert int(table[n]) == hurwitz(n).six_h
        else:
            assert int(table[n]) == 0


# 6*H(n) where a reduced form sits on an edge: (a, a, a) weighs 2 sixths, (a, 0, a) 3
EDGE_SIX_H = {3: 2, 4: 3, 12: 8, 16: 9, 27: 8, 48: 20, 75: 14, 100: 15}


def test_table_edge_weights():
    table = hurwitz_six_table(100)
    for n, six_h in EDGE_SIX_H.items():
        assert hurwitz(n).six_h == six_h
        assert int(table[n]) == six_h


@pytest.mark.parametrize("m", [3, 4, 48, 187, 196, 599, 1000])
def test_table_prefix_consistency(m):
    # 187 = 4*7^2 - 3^2 and 196 = 4*7^2: m ends on a reduced form with c = a
    big = hurwitz_six_table(1000)
    assert hurwitz_six_table(m).tolist() == big[: m + 1].tolist()


@pytest.mark.parametrize("n_max", [5, 13, 47, 187])
def test_table_matches_scalar_hurwitz_where_a_c_range_is_empty(n_max):
    # at 13 and 187 some reduced pair has 4a^2 - b^2 > n_max >= 3a^2, so no c:
    # (2, 0) and (2, 1) at 13, (7, 0), (7, 1) and (7, 2) at 187; 5 and 47 have none
    table = hurwitz_six_table(n_max)
    assert table.tolist() == [0] + [
        hurwitz(n).six_h if n % 4 in (0, 3) else 0 for n in range(1, n_max + 1)
    ]


def sweep_by_scalar_hurwitz(ell, p_max):
    rows = []
    for p in primes_up_to(p_max):
        if p < 5 or p == ell:
            continue
        bound = isqrt(4 * p - 1)
        for t in range(ell):
            six = sum(
                hurwitz(4 * p - a * a).six_h
                for a in range(-bound, bound + 1)
                if (a - t) % ell == 0
            )
            s = Fraction(six, 6)
            main = 2 * delta_density(t, p % ell, ell) * p
            rows.append((p, p % ell, t, s, main, abs(float(s - main)) / (ell * p**0.5)))
    return rows


@pytest.mark.parametrize("ell", [5, 7, 13, 37])
def test_sweep_matches_scalar_hurwitz(ell):
    # covers primes p < ell; binning by -a mod ell would pass too: H(4p - a^2) is even in a
    assert fraction_rows(partial_sum_sweep(ell, 400)) == sweep_by_scalar_hurwitz(ell, 400)


@pytest.mark.parametrize("ell", [5, 7])
def test_sweep_rows_equal_the_fraction_rows_at_2000(ell):
    # the sweep builds S, main and err from integers; the oracle subtracts
    # Fractions, so each err float must agree bit for bit
    rows, expected = fraction_rows(partial_sum_sweep(ell, 2000)), sweep_by_scalar_hurwitz(ell, 2000)
    assert [row[:5] for row in rows] == [row[:5] for row in expected]
    assert [row[5].hex() for row in rows] == [row[5].hex() for row in expected]


@pytest.mark.parametrize("ell", [11, 101, 1009])
def test_sweep_main_and_err_follow_delta_density(ell):
    # main = 2 delta(t, p mod ell, ell) p, err = |S - main| / (ell sqrt p) as Fractions would give
    for p, d, t, s, main, err in fraction_rows(partial_sum_sweep(ell, 60)):
        assert main == 2 * delta_density(t, d, ell) * p
        assert err.hex() == (abs(float(s - main)) / (ell * p**0.5)).hex()


@pytest.mark.parametrize("ell", [5, 7, 13])
def test_partial_sums_main_term_is_2p_delta_density_at_every_trace_and_unit(ell):
    # _partial_sums and delta_density read one numerator, ell + chi(t^2 - 4d)
    ps = traces.good_primes(1, 400, ell)
    rows = fraction_rows(class_numbers._partial_sums(ps, ell, hurwitz_six_table(4 * ps[-1])))
    assert {(d, t) for _, d, t, *_ in rows} == {(d, t) for d in range(1, ell) for t in range(ell)}
    for p, d, t, _, main, _ in rows:
        assert main == 2 * p * delta_density(t, d, ell)


def test_sweep_memory_grows_with_its_rows_not_with_ell_squared():
    # the ell^2 densities of every (t, d) are never built: about 53 bytes a row beside the table
    ell, bound = 1009, 100
    tracemalloc.start()
    try:
        rows = len(partial_sum_sweep(ell, bound).p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 23 * ell
    assert peak < 64 * rows + 8 * (4 * bound + 1) + (1 << 16)


def test_max_ell_keeps_err_one_exact_division_at_every_prime_bound():
    # the largest prime with 12 p ell^2 < 2^53 for every traced prime p
    assert is_prime(MAX_ELL)
    assert 12 * traces.MAX_TRACE_PRIME * MAX_ELL**2 < 2**53
    next_prime = next(q for q in range(MAX_ELL + 1, 2 * MAX_ELL) if is_prime(q))
    assert 12 * traces.MAX_TRACE_PRIME * next_prime**2 >= 2**53


def test_sweep_row_limit_admits_ell_5_and_7_at_the_largest_prime_bound():
    # hurwitz --ell 18917 --prime-bound 2097151 is refused (tests/test_cli.py); these are not
    for ell in (5, 7):
        assert ell * len(traces.good_primes(1, traces.MAX_TRACE_PRIME, ell)) <= class_numbers.MAX_SWEEP_ROWS


def test_deuring_examples():
    assert deuring_count(5, 1) == 2
    assert deuring_count(5, 0) == 4
    with pytest.raises(OutOfHasseRange):
        deuring_count(5, 5)


@pytest.mark.parametrize("p", [p for p in primes_up_to(47) if p >= 5])
def test_deuring_matches_census(p):
    census = batch_trace_census(p)
    bound = isqrt(4 * p - 1)
    for a in range(-bound, bound + 1):
        assert deuring_count(p, a) == census.get(a, 0)
    assert all(match for _, _, _, match in census_vs_deuring(p, hurwitz_six_table(4 * p)))


@pytest.mark.parametrize("p", [5, 7, 97, 101, 199])
def test_mass_check(p):
    assert mass_check(p)


def test_partial_sum_partition():
    # summing S over all residues t recovers the full mass 2p
    for p in (11, 101, 1009):
        total = sum(hurwitz_partial_sum(p, t, 5)[0] for t in range(5))
        assert total == 2 * p


def test_partial_sum_reports_error():
    s, main, err = hurwitz_partial_sum(11, 0, 5)
    assert s == 6 and err >= 0
    assert main == 2 * Fraction(5 + 1, 24) * 11
    with pytest.raises(ValueError, match="need p != ell"):
        hurwitz_partial_sum(5, 0, 5)


@pytest.mark.parametrize("p", [1, 4, 9, 25])
def test_partial_sum_rejects_a_p_that_is_not_a_prime_of_at_least_5(p, monkeypatch):
    calls = []
    monkeypatch.setattr(class_numbers, "hurwitz_six_table", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="prime bound must be in|p must be prime"):
        hurwitz_partial_sum(p, 0, 5)
    assert calls == []


@pytest.mark.parametrize("p", [5, 7, 97, 199, 997])
def test_census_reads_deuring_from_one_shared_table(p):
    # one table up to 4 * 1000 serves every p <= 1000 of a census run
    census = batch_trace_census(p)
    bound = isqrt(4 * p - 1)
    expected = [(a, census.get(a, 0), deuring_count(p, a), census.get(a, 0) == deuring_count(p, a))
                for a in range(-bound, bound + 1)]
    assert census_vs_deuring(p, hurwitz_six_table(4 * 1000)) == expected
    assert census_vs_deuring(p, hurwitz_six_table(4 * p)) == expected
    assert all(match for *_, match in expected)


def test_census_keeps_its_rows_out_of_the_twist_row_cache():
    traces.twist_rows.cache_clear()
    cached = traces.twist_rows(101)
    for p in (97, 101, 103, 4001):
        batch_trace_census(p)
    assert list(traces.twist_rows._held) == [101] and traces.twist_rows(101) is cached
