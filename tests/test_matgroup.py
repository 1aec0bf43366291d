import random
from fractions import Fraction
from itertools import product

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from ellstab import matgroup
from ellstab.errors import BudgetExceeded
from ellstab.matgroup import (
    _h1_by_cocycles,
    count_trace_det,
    delta_density,
    find_tau0,
    find_tau1,
    full_gl2,
    full_sl2,
    generate_subgroup,
    gl2_generators,
    gl2_order,
    h1_vanishes,
    is_irreducible,
    mat_det,
    no_abelian_ell_quotient,
    sl2_generators,
    sl2_order,
)


def test_delta_density_examples():
    assert delta_density(0, 1, 5) == Fraction(1, 4)
    assert delta_density(1, 1, 5) == Fraction(1, 6)


def test_count_trace_det_examples():
    assert count_trace_det(0, 1, 5) == 30
    assert count_trace_det(1, 1, 5) == 20
    assert sum(count_trace_det(t, 1, 5) for t in range(5)) == sl2_order(5)
    with pytest.raises(BudgetExceeded):
        count_trace_det(0, 1, 17)


@pytest.mark.parametrize("ell", [5, 7])
def test_delta_matches_exhaustive_count(ell):
    for d in range(1, ell):
        assert sum(delta_density(t, d, ell) for t in range(ell)) == 1
        for t in range(ell):
            assert delta_density(t, d, ell) == Fraction(
                count_trace_det(t, d, ell), sl2_order(ell)
            )


def test_closure_sizes():
    assert generate_subgroup([], 5).order == 1
    assert full_sl2(5).order == sl2_order(5) == 120
    assert full_gl2(5).order == gl2_order(5) == 480
    assert full_gl2(7).order == gl2_order(7)


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_full_groups_are_the_closures_of_their_generators(ell):
    # full_gl2 and full_sl2 are built by determinant; the criteria read their generators
    for full, gens in ((full_gl2, gl2_generators), (full_sl2, sl2_generators)):
        G = full(ell)
        assert G.generators == tuple(gens(ell))
        assert generate_subgroup(G.generators, ell).elements == G.elements


def test_full_gl2_refuses_before_it_enumerates(monkeypatch):
    monkeypatch.setattr(matgroup.np, "indices", lambda *args, **kwargs: pytest.fail("enumerated"))
    with pytest.raises(BudgetExceeded, match=r"^exhaustive GL2 enumeration limited to ell <= 13$"):
        full_gl2(17)
    with pytest.raises(ValueError, match="ell must be prime"):
        full_gl2(9)


def test_closure_budget(monkeypatch):
    monkeypatch.setattr(matgroup, "MAX_GROUP_ORDER", 3)
    with pytest.raises(BudgetExceeded, match="closure exceeds budget 3"):
        generate_subgroup([(1, 1, 0, 1)], 5)
    monkeypatch.setattr(matgroup, "MAX_GROUP_ORDER", 5)
    assert generate_subgroup([(1, 1, 0, 1)], 5).order == 5


def test_irreducibility():
    assert is_irreducible(full_sl2(5))
    borel = generate_subgroup([(1, 1, 0, 1), (2, 0, 0, 3)], 5)
    assert not is_irreducible(borel)
    assert not is_irreducible(generate_subgroup([], 5))


def test_h1_examples():
    assert h1_vanishes(full_gl2(5)) is True
    assert _h1_by_cocycles(full_gl2(5)) is True
    assert h1_vanishes(generate_subgroup([], 5)) is True
    uni = generate_subgroup([(1, 1, 0, 1)], 5)
    assert h1_vanishes(uni) is False
    assert _h1_by_cocycles(uni) is False


def test_h1_methods_agree_on_random_subgroups():
    rng = random.Random(20240317)
    checked = 0
    while checked < 20:
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = tuple(rng.randrange(5) for _ in range(4))
            if mat_det(g, 5) != 0:
                gens.append(g)
        if not gens:
            continue
        G = generate_subgroup(gens, 5)
        direct = _h1_by_cocycles(G)
        assert h1_vanishes(G) == direct
        if (4, 0, 0, 4) in G:
            assert direct is True  # fast path must never disagree with the solver
        checked += 1


@pytest.mark.parametrize("ell, solved", [(5, 68), (7, 58)])
def test_h1_vanishes_on_every_subgroup_of_order_prime_to_ell(ell, solved):
    # an oracle sharing no code with the solver: when ell does not divide |G|,
    # cor o res = |G| is invertible, so H^1(G, F_ell^2) embeds in H^1(1, F_ell^2) = 0.
    # `solved` of the coprime draws lack -1, so h1_vanishes answers by the solver too
    rng = random.Random(ell)
    coprime_without_minus_one = 0
    for _ in range(400):
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = (0, 0, 0, 0)
            while not mat_det(g, ell):
                g = tuple(rng.randrange(ell) for _ in range(4))
            gens.append(g)
        G = generate_subgroup(gens, ell)
        if G.order % ell == 0:
            continue
        assert _h1_by_cocycles(G) is True, gens
        assert h1_vanishes(G) is True, gens
        coprime_without_minus_one += (ell - 1, 0, 0, ell - 1) not in G
    assert coprime_without_minus_one == solved


def test_no_abelian_ell_quotient():
    assert no_abelian_ell_quotient(full_sl2(5)) is True
    assert no_abelian_ell_quotient(generate_subgroup([(1, 1, 0, 1)], 5)) is False
    assert no_abelian_ell_quotient(generate_subgroup([(4, 0, 0, 4)], 5)) is True


def on_the_plane(g, ell):
    """g acting on F_ell^2, the vector (x, y) as the point x*ell + y."""
    a, b, c, d = g
    return Permutation([(a * x + b * y) % ell * ell + (c * x + d * y) % ell
                        for x in range(ell) for y in range(ell)])


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11])
def test_no_abelian_ell_quotient_matches_sympys_derived_subgroup(ell):
    # random subgroups, every second one upper triangular so that some have
    # an abelian ell-quotient; sympy computes [H, H] of the faithful action
    rng = random.Random(ell)
    for i in range(16):
        gens, k = [], rng.randint(1, 3)
        while len(gens) < k:
            a, b, c, d = (rng.randrange(ell) for _ in range(4))
            g = (a, b, c * (i % 2), d)
            if mat_det(g, ell):
                gens.append(g)
        H = generate_subgroup(gens, ell)
        P = PermutationGroup([on_the_plane(g, ell) for g in gens])
        assert P.order() == H.order
        quotient = H.order // P.derived_subgroup().order()
        assert no_abelian_ell_quotient(H) == (quotient % ell != 0), gens


def test_tau_witnesses():
    H = full_sl2(5)
    tau0 = find_tau0(H)
    a, b, c, d = tau0
    assert ((a - 1) * (d - 1) - b * c) % 5 != 0
    tau1 = find_tau1(H)
    a, b, c, d = tau1
    m = ((a - 1) % 5, b, c, (d - 1) % 5)
    assert (m[0] * m[3] - m[1] * m[2]) % 5 == 0 and any(m)

    uni = generate_subgroup([(1, 1, 0, 1)], 5)
    assert find_tau0(uni) is None
    minus = generate_subgroup([(4, 0, 0, 4)], 5)
    assert find_tau0(minus) == (4, 0, 0, 4)
    assert find_tau1(minus) is None
    assert find_tau1(generate_subgroup([], 5)) is None


def test_group_orders_divide_gl2():
    rng = random.Random(99)
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = tuple(rng.randrange(7) for _ in range(4))
            if mat_det(g, 7) != 0:
                gens.append(g)
        G = generate_subgroup(gens, 7)
        assert gl2_order(7) % G.order == 0
