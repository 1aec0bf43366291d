import tracemalloc
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from ellstab import curves, traces
from ellstab.curves import (
    CurveModel,
    _row_counts,
    _sieve_terms,
    _singular_m,
    _squarefree_count,
    count_curves,
    curve_box,
    discriminant,
    enumerate_curves,
    height,
    is_minimal,
    reduce_mod_p,
    row_curves,
    unranker,
)
from ellstab.errors import BadReduction, InvalidCurve
from ellstab.primes import primes_up_to


def brute_force_box(X):
    """Independent re-implementation: filter the full box directly."""
    out = []
    for A in range(-X * X, X * X + 1):
        for B in range(-(X**3), X**3 + 1):
            if 4 * A**3 + 27 * B * B == 0:
                continue
            bad = False
            p = 2
            while p**4 <= abs(A) or (A == 0 and p**6 <= abs(B)):
                if A % p**4 == 0 and B % p**6 == 0:
                    bad = True
                    break
                p += 1
            if not bad:
                out.append((A, B))
    return out


def test_is_minimal_examples():
    assert is_minimal(16, 64) is False
    assert is_minimal(1, 1) is True
    assert is_minimal(0, 64) is False
    assert is_minimal(0, 0) is False
    assert is_minimal(32, 64) is False  # 2^4 | 32 and 2^6 | 64
    assert is_minimal(16, 32) is True  # 2^6 does not divide 32


def minimal_by_factoring(A, B):
    """Oracle for is_minimal: the primes of one nonzero coefficient, by sympy's factorint."""
    if A == 0 and B == 0:
        return False
    n, e = (A, 4) if A else (B, 6)
    return not any(k >= e and A % p**4 == 0 and B % p**6 == 0 for p, k in factorint(n).items())


@st.composite
def prime_power_pairs(draw):
    """(A, B), each 0 a quarter of the time, else +-m p^e with one p for both, e <= 12."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))

    def coefficient():
        if draw(st.integers(0, 3)) == 0:
            return 0
        return draw(st.sampled_from([1, -1])) * draw(st.integers(1, 10**6)) * p ** draw(st.integers(0, 12))

    return coefficient(), coefficient()


@settings(max_examples=400, deadline=None)
@given(prime_power_pairs())
def test_is_minimal_matches_factoring(pair):
    assert is_minimal(*pair) == minimal_by_factoring(*pair)


def test_is_minimal_tries_the_primes_up_to_the_least_root(monkeypatch):
    # p^4 | A needs p <= |A|^(1/4), p^6 | B needs p <= |B|^(1/6): exact integer roots
    asked = []
    monkeypatch.setattr(curves, "primes_up_to", lambda n: asked.append(n) or primes_up_to(n))
    for A, B in [(7**4, 0), (7**4 - 1, 0), (0, 2**6 * 5**6), (0, 2**6 * 5**6 - 1),
                 (10**41 + 1, 1), (-(10**12), 10**18 + 1), (5**4, -(5**6))]:
        is_minimal(A, B)
    assert asked == [7, 6, 10, 9, 1, 1000, 5]


def test_is_minimal_refuses_a_root_past_the_largest_sieve(monkeypatch):
    asked = []
    monkeypatch.setattr(curves, "primes_up_to", lambda n: asked.append(n) or ())
    cap = traces.MAX_TRACE_PRIME
    assert is_minimal(0, (cap + 1) ** 6 - 1) and asked == [cap]
    with pytest.raises(ValueError, match=rf"^testing \(0, {(cap + 1) ** 6}\) for minimality needs the"
                                         rf" primes up to {cap + 1}, more than {cap}$"):
        is_minimal(0, (cap + 1) ** 6)
    assert asked == [cap]


def test_discriminant_and_height():
    assert discriminant(CurveModel(1, 0)) == -64
    assert discriminant(CurveModel(0, 1)) == -432
    assert height(CurveModel(1, 1)) == 1
    assert height(CurveModel(2, 3)) == 9
    assert height(CurveModel(-3, 1)) == 27


def test_singular_pair_rejected():
    with pytest.raises(InvalidCurve):
        CurveModel(-3, 2)
    with pytest.raises(InvalidCurve):
        CurveModel(0, 0)


def test_non_minimal_pair_rejected():
    with pytest.raises(InvalidCurve):
        CurveModel(16, 64)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_curves(1)) == 8
    assert sum(1 for _ in enumerate_curves(2)) == 150


@pytest.mark.parametrize("X", [1, 2, 3, 4])
def test_enumeration_matches_brute_force(X):
    got = [(c.A, c.B) for c in enumerate_curves(X)]
    assert got == brute_force_box(X)
    # lexicographic and invariant-clean by construction of CurveModel
    assert got == sorted(got)


def scalar_row(A, b):
    """The B of b, in order, with (A, B) nonsingular and minimal, one pair at a time."""
    return [B for B in b if 4 * A**3 + 27 * B * B != 0 and is_minimal(A, B)]


@pytest.mark.parametrize("X", [1, 2, 3, 4, 5, 6])
def test_row_curves_is_the_scalar_rule_on_every_row(X):
    b = np.arange(-(X**3), X**3 + 1, dtype=np.int64)
    for A in range(-X * X, X * X + 1):
        assert row_curves(A, b, X).tolist() == scalar_row(A, b.tolist()), A


@pytest.mark.parametrize("X", [1, 2, 3, 4, 5, 6, 12])
def test_row_curves_is_the_scalar_rule_on_random_candidates(X):
    # candidates in any order, as t_A_density_curve's CRT classes come
    rng = np.random.default_rng(X)
    row = np.arange(-(X**3), X**3 + 1, dtype=np.int64)
    for A in range(-X * X, X * X + 1):
        b = rng.permutation(row)[: rng.integers(0, min(len(row), 200) + 1)]
        assert row_curves(A, b, X).tolist() == scalar_row(A, b.tolist()), A


def test_box_rows_share_one_read_only_candidate_row():
    rows = dict(curves.box_rows(3))
    clean = [rows[A] for A in (1, 2, 5)]  # neither -3k^2 nor divisible by 2^4 or 3^4
    assert all(np.shares_memory(r, clean[0]) and len(r) == 55 for r in clean)
    with pytest.raises(ValueError, match="read-only"):
        clean[0][0] = 7
    b = np.arange(-27, 28, dtype=np.int64)
    assert row_curves(1, b, 3) is b
    assert rows[-3].tolist() == [B for B in b.tolist() if abs(B) != 2]
    assert rows[0].tolist() == [B for B in b.tolist() if B != 0]


@pytest.mark.parametrize("X", [1, 2, 3, 5])
def test_count_and_box_agree_with_enumeration(X):
    n = sum(1 for _ in enumerate_curves(X))
    assert count_curves(X) == n
    A, B = curve_box(X)
    assert len(A) == n
    assert list(zip(A.tolist(), B.tolist())) == [(c.A, c.B) for c in enumerate_curves(X)]


def test_count_monotone_and_near_asymptotic():
    counts = {X: count_curves(X) for X in (10, 20, 30)}
    assert counts[10] <= counts[20] <= counts[30]
    c1 = 4 / 1.0009945751278182  # 4/zeta(10)
    rel = {X: abs(counts[X] / (c1 * X**5) - 1) for X in counts}
    assert rel[30] < rel[20] < rel[10]


@pytest.mark.parametrize("X", range(1, 9))
def test_unrank_every_index_reproduces_curve_box(X):
    A, B = curve_box(X)
    uA, uB = unranker(X)(np.arange(len(A)))
    assert uA.tolist() == A.tolist()
    assert uB.tolist() == B.tolist()


@lru_cache(maxsize=None)
def enumerated(X):
    return [(c.A, c.B) for c in enumerate_curves(X)]


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6).flatmap(lambda X: st.tuples(
    st.just(X), st.lists(st.integers(0, len(enumerated(X)) - 1), min_size=1, max_size=20))))
def test_unrank_matches_enumeration_at_random_indices(case):
    X, idx = case
    A, B = unranker(X)(idx)
    assert list(zip(A.tolist(), B.tolist())) == [enumerated(X)[i] for i in idx]


def bisection_unrank(X, idx):
    """Oracle: unrank by searchsorted on the row ends and, in rows that
    exclude some B, a bisection on the closed-form count of valid B <= y."""
    assert count_curves(X) <= np.iinfo(np.int64).max
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    counts = _row_counts(X)
    ends = np.cumsum(counts)
    if idx.size and (idx.min() < 0 or idx.max() >= ends[-1]):
        raise ValueError(f"curve index out of range [0, {int(ends[-1])})")
    row = np.searchsorted(ends, idx, side="right")
    rank = idx - (ends[row] - counts[row])
    b_bound = X**3
    B = rank - b_bound
    excluded = 2 * b_bound + 1 - counts[row]
    search = np.flatnonzero(excluded > 0)
    A = row[search] - X * X
    lo, rank = B[search], rank[search]
    hi = lo + excluded[search]
    d, mu = _sieve_terms(X)
    d6 = d**6
    weight = np.where(A[:, None] % d**4 == 0, mu, 0)
    zero_weight = np.where(A == 0, mu.sum(), 0)
    m_of_row = np.zeros(len(counts), dtype=np.int64)
    m_sing = _singular_m(X)
    m_of_row[X * X - 3 * m_sing**2] = m_sing
    m = m_of_row[row[search]]
    while (lo < hi).any():
        mid = (lo + hi) // 2
        below = (weight * (mid[:, None] // d6 - (-b_bound - 1) // d6)).sum(axis=1)
        below -= zero_weight * (mid >= 0)
        below -= np.where(m > 0, (mid >= -2 * m**3).astype(np.int64) + (mid >= 2 * m**3), 0)
        enough = below > rank
        hi = np.where(enough, mid, hi)
        lo = np.where(enough, lo, mid + 1)
    B[search] = lo
    return row - X * X, B


@pytest.mark.parametrize("X", [*range(1, 13), 20, 24, 100, 1000])
def test_unrank_matches_the_bisection_at_row_boundaries_and_random_indices(X):
    # ends - 1 and ends are the last curve of each row and the first of the next
    n = count_curves(X)
    ends = np.cumsum(_row_counts(X))
    idx = np.concatenate([ends - 1, ends[:-1], np.random.default_rng(X).integers(0, n, 20_000)])
    A, B = unranker(X)(idx)
    oA, oB = bisection_unrank(X, idx)
    assert np.array_equal(A, oA) and np.array_equal(B, oB)


def test_one_unranker_serves_every_call():
    X = 24
    u = unranker(X)
    idx = np.random.default_rng(0).integers(0, count_curves(X), 5_000)
    for part in np.array_split(idx, 7):
        assert all(map(np.array_equal, u(part), bisection_unrank(X, part)))
    assert [a.size for a in u([])] == [0, 0]


@pytest.mark.parametrize(
    "X, n",
    [(10, 401_782), (17, 5_684_070), (20, 12_803_796), (24, 31_847_116), (30, 97_158_786)],
)
def test_count_curves_known_values(X, n):
    assert count_curves(X) == n


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 300))
def test_count_curves_is_the_sum_of_row_counts(X):
    counts = _row_counts(X)
    assert len(counts) == 2 * X * X + 1
    assert count_curves(X) == int(counts.sum())
    assert (counts >= 0).all()
    assert _squarefree_count(isqrt(X * X // 3)) == len(_singular_m(X))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 40), st.one_of(st.integers(-(2**63), -1), st.integers(0, 10**12)))
def test_unrank_rejects_out_of_range_indices(X, i):
    n = count_curves(X)
    if 0 <= i < n:
        i += n
    with pytest.raises(ValueError):
        unranker(X)([0, i])


def test_count_curves_counts_the_singular_m_without_listing_them():
    # about 3.5e8 squarefree m <= 10^9 / sqrt(3): a list of them would take GiBs
    tracemalloc.start()
    try:
        n = count_curves(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert abs(n / (4 / 1.0009945751278182 * 10**45) - 1) < 1e-12


def test_bad_height_rejected():
    for fn in (count_curves, curve_box, lambda X: unranker(X)([0])):
        with pytest.raises(ValueError):
            fn(0)


def test_the_index_height_is_the_last_box_that_indexes_in_int64():
    top = np.iinfo(np.int64).max
    assert count_curves(curves.MAX_INDEX_HEIGHT) <= top < count_curves(curves.MAX_INDEX_HEIGHT + 1)


@pytest.mark.parametrize("X, message", [
    (curves.MAX_UNRANK_HEIGHT + 1,
     f"height bound X must be <= {curves.MAX_UNRANK_HEIGHT} to unrank, got {curves.MAX_UNRANK_HEIGHT + 1}"),
    (curves.MAX_INDEX_HEIGHT + 1,
     f"the height-{curves.MAX_INDEX_HEIGHT + 1} box is too large to index in int64"),
])
def test_unranker_refuses_a_height_past_its_limits_before_any_table(X, message, monkeypatch):
    calls = []
    monkeypatch.setattr(curves, "_row_counts", lambda *args: calls.append(args))
    monkeypatch.setattr(curves, "count_curves", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"^{message}$"):
        unranker(X)
    assert calls == []


def test_curve_box_stops_at_its_curve_limit(monkeypatch):
    # the check counts in closed form, so a rejected box is never built
    monkeypatch.setattr(curves, "MAX_BOX_CURVES", 150)
    assert len(curve_box(2)[0]) == 150
    with pytest.raises(ValueError, match="^the height-3 box has 1042 curves, more than 150$"):
        curve_box(3)
    monkeypatch.setattr(curves, "box_rows", lambda X: pytest.fail("box_rows ran"))
    with pytest.raises(ValueError):
        curve_box(3)


def test_reduce_mod_p():
    assert reduce_mod_p(CurveModel(1, 0), 5) == (1, 0)
    with pytest.raises(ValueError):
        reduce_mod_p(CurveModel(1, 0), 2)
    # disc(1,1) = -16*31; good reduction at 431
    assert reduce_mod_p(CurveModel(1, 1), 431) == (1, 1)
    with pytest.raises(BadReduction):
        reduce_mod_p(CurveModel(1, 1), 31)
