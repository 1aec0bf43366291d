import hashlib
import re
from itertools import combinations
from math import factorial, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstab import galois_image, traces
from ellstab.curves import CurveModel, curve_box
from ellstab.galois_image import (
    MEMBER,
    SURJECTIVE_PROVEN,
    UNDETERMINED,
    FieldSpec,
    _has_cm,
    _witnesses,
    classify_image,
    surjectivity_sweep,
    t_A_proxy_member,
    t_kl_member,
)
from ellstab.class_numbers import hurwitz_partial_sum, partial_sum_sweep
from ellstab.matgroup import delta_density
from ellstab.primes import MAX_ELL, unit_group
from ellstab.sieve_stats import t_A_density_curve, variance_stat
from ellstab.traces import frobenius_trace, trace_table


def test_cm_controls_stay_undetermined():
    v = classify_image(CurveModel(1, 0), 5, 2000)
    assert v.status == UNDETERMINED
    assert v.witnesses["nonsplit"] is None
    v = classify_image(CurveModel(0, 1), 5, 2000)
    assert v.status == UNDETERMINED
    assert v.witnesses["split"] is None
    for A, B in ((1, 0), (0, 1)):
        assert classify_image(CurveModel(A, B), 37, 1000).status == UNDETERMINED


def test_generic_curve_proven():
    v = classify_image(CurveModel(1, 1), 5, 1000)
    assert v.status == SURJECTIVE_PROVEN
    for key in ("split", "nonsplit", "exceptional"):
        assert v.witnesses[key] is not None


def test_witness_primes_reproduce_their_class():
    v = classify_image(CurveModel(1, 1), 5, 1000)
    p = v.witnesses["split"]
    t = frobenius_trace(1, 1, p) % 5
    disc = (t * t - 4 * (p % 5)) % 5
    assert t != 0 and disc in (1, 4)  # nonzero squares mod 5
    p = v.witnesses["nonsplit"]
    t = frobenius_trace(1, 1, p) % 5
    disc = (t * t - 4 * (p % 5)) % 5
    assert t != 0 and disc in (2, 3)


def test_monotone_in_bound():
    v_small = classify_image(CurveModel(1, 1), 5, 200)
    v_large = classify_image(CurveModel(1, 1), 5, 2000)
    if v_small.status == SURJECTIVE_PROVEN:
        assert v_large.status == SURJECTIVE_PROVEN
        for key in ("split", "nonsplit", "exceptional"):
            assert v_large.witnesses[key] == v_small.witnesses[key]


def test_t_kl_member():
    assert t_kl_member(CurveModel(1, 1), 5, FieldSpec(2), 1000) == MEMBER
    assert t_kl_member(CurveModel(1, 1), 5, FieldSpec(10), 1000) == UNDETERMINED
    assert (
        t_kl_member(CurveModel(1, 1), 5, FieldSpec(6, galois_closure_degree=12), 1000)
        == MEMBER
    )
    assert (
        t_kl_member(CurveModel(1, 1), 5, FieldSpec(10, galois_closure_degree=20), 1000)
        == UNDETERMINED
    )
    assert t_kl_member(CurveModel(1, 0), 5, FieldSpec(2), 1000) == UNDETERMINED


def test_t_A_proxy():
    a = CurveModel(1, 0)
    assert t_A_proxy_member(a, a, 5, 200)
    # (4, 0) is the quadratic twist of (1, 0) by 2
    assert t_A_proxy_member(CurveModel(4, 0), a, 5, 200)
    assert t_A_proxy_member(a, CurveModel(4, 0), 5, 200)
    assert not t_A_proxy_member(CurveModel(1, 1), a, 5, 200)


def test_sweep_matches_per_curve_classification():
    res = surjectivity_sweep(2, 5, 1000)
    assert res.total == 150
    for i in range(res.total):
        c = CurveModel(int(res.A[i]), int(res.B[i]))
        expected = classify_image(c, 5, 1000).status == SURJECTIVE_PROVEN
        assert bool(res.proven_mask[i]) == expected


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(0)
    with pytest.raises(ValueError):
        FieldSpec(4, galois_closure_degree=6)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_field_spec_accepts_every_transitive_group_order(n):
    # the Galois group of a degree-n field's closure is a transitive subgroup of S_n
    from sympy.combinatorics import galois

    groups = getattr(galois, f"S{n}TransitiveSubgroups")
    orders = {g.get_perm_group().order() for g in groups}
    assert n in orders and factorial(n) in orders
    for g in orders:
        assert FieldSpec(n, g).galois_closure_degree == g
    refused = [g for g in range(n, 2 * factorial(n) + 1, n) if factorial(n) % g]
    for g in refused:
        with pytest.raises(ValueError, match=rf"must divide {n}!"):
            FieldSpec(n, g)


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 17, 37])
def test_witness_flags_match_their_definitions(ell):
    ts = np.arange(ell)
    for d in range(1, ell):
        arrays = _witnesses(ts, d, ell)
        for t in range(ell):
            euler = pow(t * t - 4 * d, (ell - 1) // 2, ell)  # Euler's criterion
            chi = -1 if euler == ell - 1 else euler
            u = t * t * pow(d, -1, ell) % ell
            expected = (
                t != 0 and chi == 1,
                t != 0 and chi == -1,
                t != 0 and u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % ell != 0,
            )
            assert tuple(bool(f) for f in _witnesses(t, d, ell)) == expected
            assert tuple(bool(f[t]) for f in arrays) == expected
            # the flag depends on t mod ell only
            assert tuple(bool(f) for f in _witnesses(t - 3 * ell, d, ell)) == expected


def _generates_units_by_closure(ds, ell):
    """Breadth-first closure of ds in (Z/ell)^x; True iff it is the whole group."""
    seen, frontier = {1}, {1}
    while frontier:
        frontier = {x * d % ell for x in frontier for d in ds} - seen
        seen |= frontier
    return len(seen) == ell - 1


def _generates_units_by_logs(ds, ell):
    log = unit_group(ell)[1]
    g = ell - 1
    for d in ds:
        g = gcd(g, log[d])
    return g == 1


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_log_gcd_matches_closure_on_every_subset(ell):
    units = range(1, ell)
    for k in range(ell):
        for ds in combinations(units, k):
            assert _generates_units_by_logs(ds, ell) == _generates_units_by_closure(ds, ell)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([17, 37, 41, 97]).flatmap(
    lambda ell: st.tuples(st.just(ell), st.sets(st.integers(1, ell - 1), max_size=4))))
def test_log_gcd_matches_closure_on_drawn_subsets(case):
    ell, ds = case
    assert _generates_units_by_logs(ds, ell) == _generates_units_by_closure(ds, ell)


@pytest.mark.parametrize("ell", [7, 13, 37])
def test_sweep_matches_classify_image_across_both_trace_sources(ell, monkeypatch):
    # bound 1000 runs primes where the survivors read census tables and
    # primes where they take the character sum
    requested = []
    census = traces.trace_census_table

    def spy(p):
        requested.append(p)
        return census(p)

    monkeypatch.setattr(traces, "trace_census_table", spy)
    res = surjectivity_sweep(3, ell, 1000)
    assert requested and max(requested) < 997
    for i in range(res.total):
        c = CurveModel(int(res.A[i]), int(res.B[i]))
        expected = classify_image(c, ell, 1000).status == SURJECTIVE_PROVEN
        assert bool(res.proven_mask[i]) == expected
    assert 0 < res.proven < res.total


@pytest.mark.parametrize("ell", [-5, 0, 1, 3, 4, 9, 25, MAX_ELL + 2, 1_000_000_007])
def test_bad_ell_is_rejected_everywhere(ell):
    # an ell above MAX_ELL is refused before its tables mod ell are built
    message = f"ell must be <= {MAX_ELL}, got {ell}" if ell > MAX_ELL else f"ell must be a prime >= 5, got {ell}"
    c = CurveModel(1, 1)
    calls = [
        lambda: classify_image(c, ell, 100),
        lambda: surjectivity_sweep(1, ell, 100),
        lambda: t_kl_member(c, ell, FieldSpec(2), 100),
        lambda: trace_table(c.A, c.B, 100, ell),
        lambda: delta_density(1, 1, ell),
        lambda: t_A_proxy_member(c, c, ell, 100),
        lambda: t_A_density_curve(c, [1], ell, 100),
        lambda: variance_stat(8, 1, 2, 1, ell, 100, 1),
        lambda: hurwitz_partial_sum(11, 1, ell),
        lambda: partial_sum_sweep(ell, 100),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("bound", [-5, 0, 4, traces.MAX_TRACE_PRIME + 1])
def test_bad_prime_bound_is_rejected_everywhere(bound):
    c = CurveModel(1, 1)
    calls = [
        lambda: classify_image(c, 5, bound),
        lambda: surjectivity_sweep(1, 5, bound),
        lambda: t_kl_member(c, 5, FieldSpec(2), bound),
        lambda: trace_table(c.A, c.B, bound, 5),
        lambda: t_A_proxy_member(c, c, 5, bound),
        lambda: t_A_density_curve(c, [1], 5, bound),
        lambda: partial_sum_sweep(5, bound),
        lambda: frobenius_trace(c.A, c.B, bound),
        lambda: traces.curve_traces(c.A, c.B, bound),
        lambda: traces.trace_census_table(bound),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^prime bound must be in \[5, 2097151\], got {bound}$"):
            call()


#: the 13 rational CM j-invariants, written out apart from galois_image.CM_J
RATIONAL_CM_J = {0, 1728, -3375, 8000, -32768, 54000, 287496, -884736, -12288000,
                 16581375, -884736000, -147197952000, -262537412640768000}


def _j_is_cm(A: int, B: int) -> bool:
    num, den = 6912 * A**3, 4 * A**3 + 27 * B * B
    return num % den == 0 and num // den in RATIONAL_CM_J


def test_cm_detector_matches_the_j_invariant_over_the_X_10_box():
    A, B = curve_box(10)
    expected = [_j_is_cm(a, b) for a, b in zip(A.tolist(), B.tolist())]
    assert _has_cm(A, B).tolist() == expected
    assert sum(expected) == 2168


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 17, 37])
def test_cm_curves_are_never_proven(ell):
    # a CM image lies in a Cartan normalizer, so no split and nonsplit pair
    A, B = curve_box(4)
    cm = [(a, b) for a, b in zip(A.tolist(), B.tolist()) if _j_is_cm(a, b)]
    assert len(cm) > 100 and any(a * b for a, b in cm)  # CM j other than 0, 1728
    # witnesses only accumulate with the bound, so Undetermined at 1000 holds below it too
    for a, b in cm:
        assert classify_image(CurveModel(a, b), ell, 1000).status == UNDETERMINED


def _spy_has_cm(monkeypatch) -> list[int]:
    """The batch sizes of every _has_cm call that surjectivity_sweep makes."""
    screened = []

    def spy(A, B):
        screened.append(len(A))
        return _has_cm(A, B)

    monkeypatch.setattr(galois_image, "_has_cm", spy)
    return screened


@pytest.mark.parametrize("X, ell, bound, proven", [
    (3, 13, 1000, 968),
    (6, 7, 1000, 31_062),
    (8, 17, 1000, 130_926),
    (10, 5, 1000, 399_560),
    (3, 5, 7, 0),  # p = 7 alone: the census table serves every prime, so no CM step
])
def test_sweep_drops_cm_at_most_once_and_proves_the_pinned_counts(monkeypatch, X, ell, bound, proven):
    screened = _spy_has_cm(monkeypatch)
    assert surjectivity_sweep(X, ell, bound).proven == proven
    assert len(screened) <= 1


def test_sweep_tests_cm_once_on_the_survivors_not_the_box(monkeypatch):
    # the X = 10 box holds 401,782 curves; CM is tested where the census table stops
    screened = _spy_has_cm(monkeypatch)
    surjectivity_sweep(10, 5, 1000)
    assert len(screened) == 1 and screened[0] < 10_000


@pytest.mark.parametrize("X, ell, total, proven, digest", [
    (8, 17, 132_066, 130_926, "9ffbe09a823a8593cc23b8dcc959d3e90c2ee9cde724ef2e0a88b6ef98111b74"),
    (3, 37, 1_042, 970, "becf7812f6d2e8bd628bd1624dc93df343b348b76e3d817aa1316706a3b03432"),
])
def test_sweep_pinned_at_bound_1000(X, ell, total, proven, digest):
    res = surjectivity_sweep(X, ell, 1000)
    assert (res.total, res.proven) == (total, proven)
    assert hashlib.sha256(res.proven_mask.tobytes()).hexdigest() == digest
