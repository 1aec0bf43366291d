from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstab.curves import CurveModel
from ellstab.galois_image import (
    MEMBER,
    SURJECTIVE_PROVEN,
    UNDETERMINED,
    FieldSpec,
    _unit_logs,
    _witnesses,
    classify_image,
    surjectivity_sweep,
    t_A_proxy_member,
    t_kl_member,
)
from ellstab.matgroup import delta_density, kronecker_mod_ell
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


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 17, 37])
def test_witness_flags_match_their_definitions(ell):
    ts = np.arange(ell)
    for d in range(1, ell):
        arrays = _witnesses(ts, d, ell)
        for t in range(ell):
            chi = kronecker_mod_ell(t * t - 4 * d, ell)
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
    log = _unit_logs(ell)
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
def test_sweep_matches_classify_image_across_both_trace_sources(ell):
    # bound 1000 runs primes below and above the census-table cap of 200
    res = surjectivity_sweep(3, ell, 1000)
    for i in range(res.total):
        c = CurveModel(int(res.A[i]), int(res.B[i]))
        expected = classify_image(c, ell, 1000).status == SURJECTIVE_PROVEN
        assert bool(res.proven_mask[i]) == expected
    assert 0 < res.proven < res.total


@pytest.mark.parametrize("ell", [-5, 1, 3, 4, 9, 25])
def test_bad_ell_is_rejected_everywhere(ell):
    c = CurveModel(1, 1)
    calls = [
        lambda: classify_image(c, ell, 100),
        lambda: surjectivity_sweep(1, ell, 100),
        lambda: t_kl_member(c, ell, FieldSpec(2), 100),
        lambda: trace_table(c, 100, ell),
        lambda: delta_density(1, 1, ell),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="prime >= 5"):
            call()
