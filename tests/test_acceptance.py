"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import random
from fractions import Fraction
from math import isqrt

from ellstab.class_numbers import deuring_count, hurwitz, partial_sum_sweep
from ellstab.cli import main as cli_main
from ellstab.curves import CurveModel, count_curves, enumerate_curves
from ellstab.errors import ConflictingEntry, ConflictingRank, CorruptFile, ParseError
from ellstab.galois_image import (
    SURJECTIVE_PROVEN,
    FieldSpec,
    classify_image,
    surjectivity_sweep,
)
from ellstab.ingest import load_rank_csv
from ellstab.matgroup import (
    _h1_by_cocycles,
    count_trace_det,
    delta_density,
    find_tau0,
    find_tau1,
    full_gl2,
    full_sl2,
    generate_subgroup,
    h1_vanishes,
    is_irreducible,
    mat_det,
    no_abelian_ell_quotient,
    sl2_order,
)
from ellstab.primes import primes_up_to
from ellstab.sieve_stats import lead_constant, t_A_density_curve, variance_stat
from ellstab.stability import SATISFIED, check_ds
from ellstab.store import TraceCache, load, merge, save
from ellstab.traces import batch_trace_census
from record_helpers import records_of


def report(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_deuring_exactness():
    ok = True
    for p in primes_up_to(97):
        if p < 5:
            continue
        census = batch_trace_census(p)
        bound = isqrt(4 * p - 1)
        for a in range(-bound, bound + 1):
            if deuring_count(p, a) != census.get(a, 0):
                ok = False
    report(1, "Deuring exactness p <= 97", ok)


def test_criterion_2_mass_identity():
    ok = True
    for p in primes_up_to(200):
        if p < 5:
            continue
        bound = isqrt(4 * p - 1)
        six_total = sum(hurwitz(4 * p - a * a).six_h for a in range(-bound, bound + 1))
        if six_total != 12 * p:
            ok = False
        if p <= 97:
            if sum(batch_trace_census(p).values()) != p * p - p:
                ok = False
    report(2, "mass identity p <= 200", ok)


def test_criterion_3_delta_oracle():
    ok = True
    for ell in (5, 7, 11, 13):
        for d in range(1, ell):
            if sum(delta_density(t, d, ell) for t in range(ell)) != 1:
                ok = False
            for t in range(ell):
                if delta_density(t, d, ell) != Fraction(
                    count_trace_det(t, d, ell), sl2_order(ell)
                ):
                    ok = False
    report(3, "delta density vs exhaustive GL2 counts", ok)


def test_criterion_4_hurwitz_partial_sums():
    cols = partial_sum_sweep(5, 2000)
    errs = list(zip(cols.p.tolist(), cols.err.tolist()))
    ok = all(err < 10 for _, err in errs)
    dyadic = [(125, 250), (250, 500), (500, 1000), (1000, 2001)]
    maxima = []
    for lo, hi in dyadic:
        window = [err for p, err in errs if lo <= p < hi]
        maxima.append(max(window))
    ok = ok and all(b <= a for a, b in zip(maxima, maxima[1:]))
    print(f"  dyadic max errors: {[round(m, 4) for m in maxima]}")
    report(4, "Hurwitz partial sums bounded, no increasing trend", ok)


def test_criterion_5_curve_counting():
    c1 = lead_constant()
    ok = count_curves(1) == 8 and count_curves(2) == 150
    rel10 = abs(count_curves(10) / (c1 * 10**5) - 1)
    rel30 = abs(count_curves(30) / (c1 * 30**5) - 1)
    ok = ok and rel30 < 0.05 and rel30 < rel10
    print(f"  rel error X=10: {rel10:.5f}, X=30: {rel30:.5f}")
    report(5, "curve counting against C1*X^5", ok)


def test_criterion_6_cohomology_oracle():
    ok = h1_vanishes(full_gl2(5)) and _h1_by_cocycles(full_gl2(5))
    uni = generate_subgroup([(1, 1, 0, 1)], 5)
    ok = ok and not _h1_by_cocycles(uni)
    rng = random.Random(20240317)
    checked = 0
    while checked < 20:
        gens = [
            g
            for g in (
                tuple(rng.randrange(5) for _ in range(4))
                for _ in range(rng.randint(1, 2))
            )
            if mat_det(g, 5) != 0
        ]
        if not gens:
            continue
        G = generate_subgroup(gens, 5)
        if h1_vanishes(G) != _h1_by_cocycles(G):
            ok = False
        checked += 1
    report(6, "H^1 fast path vs cocycle solver", ok)


def test_criterion_7_stability_predicates():
    ok = True
    for ell in (5, 7):
        H = full_sl2(ell)
        ok = ok and is_irreducible(H)
        ok = ok and no_abelian_ell_quotient(H)
        ok = ok and find_tau0(H) is not None
        ok = ok and find_tau1(H) is not None
    rep = check_ds(CurveModel(1, 1), FieldSpec(2), 5, 1000)
    ok = ok and rep.ds_verdict == SATISFIED
    report(7, "stability predicate suite on SL2", ok)


def test_criterion_8_image_classification():
    cm1 = classify_image(CurveModel(1, 0), 5, 10**4)
    cm2 = classify_image(CurveModel(0, 1), 5, 10**4)
    ok = cm1.status != SURJECTIVE_PROVEN and cm1.witnesses["nonsplit"] is None
    ok = ok and cm2.status != SURJECTIVE_PROVEN and cm2.witnesses["split"] is None
    res = surjectivity_sweep(10, 5, 10**3)
    print(f"  proven fraction at X=10: {res.fraction:.4f}")
    ok = ok and res.fraction >= 0.9
    report(8, "image classification controls and density", ok)


def test_criterion_9_variance_statistic():
    stats = {
        X: variance_stat(X, 1, 2, 1, 5, sample_size=10**5, seed=20240101)
        for X in (8, 12, 16)
    }
    for X, st in stats.items():
        print(f"  X={X}: V={float(st.V):.6f} V/X={float(st.v_over_x):.6f}")
    baseline = stats[8].v_over_x
    ok = all(st.v_over_x <= 3 * baseline for st in stats.values())
    # deterministic rerun reproduces identical values
    rerun = variance_stat(16, 1, 2, 1, 5, sample_size=10**5, seed=20240101)
    ok_det = rerun == stats[16]
    report(9, "variance bounded relative to V(8)/8; deterministic", ok and ok_det)


def test_criterion_10_t_A_decay():
    a = next(enumerate_curves(1))  # first enumerated curve, (-1, -1)
    rows = t_A_density_curve(a, [5, 10, 15, 20], 5, 100)
    ratios = {X: float(r) for X, r in rows}
    ok = ratios[20] <= ratios[5]
    xs = [math.log(X) for X, _ in rows]
    ys = [math.log(float(r)) for _, r in rows]
    n = len(xs)
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
        n * sum(x * x for x in xs) - sum(xs) ** 2
    )
    print(f"  ratios: {ratios}, fitted exponent: {slope:.2f}")
    ok = ok and slope < 0
    report(10, "trace-twin proxy density decays", ok)


def test_criterion_11_store_ingest_contracts(tmp_path):
    ok = True
    c1 = TraceCache(records_of({(1, 1, 7): -4, (-1, 0, 11): 0}), height_bound=2, prime_bound=50)
    path = tmp_path / "t.etrc"
    save(c1, path)
    ok = ok and load(path).entries == c1.entries
    c2 = TraceCache(records_of({(2, 3, 13): 2}))
    c3 = TraceCache(records_of({(0, 1, 7): -1}))
    ok = ok and merge(c1, TraceCache()).entries == c1.entries
    ok = ok and merge(c1, c2).entries == merge(c2, c1).entries
    ok = ok and (
        merge(merge(c1, c2), c3).entries == merge(c1, merge(c2, c3)).entries
    )
    conflict = TraceCache(records_of({(1, 1, 7): 2}))
    try:
        merge(c1, conflict)
        ok = False
    except ConflictingEntry:
        pass
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 1
    path.write_bytes(bytes(raw))
    try:
        load(path)
        ok = False
    except CorruptFile:
        pass
    ranks = tmp_path / "r.csv"
    ranks.write_text("A,B,rank\n")
    ok = ok and len(load_rank_csv(ranks)) == 0
    ranks.write_text("A,B,rank\n1,1,?\n")
    try:
        load_rank_csv(ranks)
        ok = False
    except ParseError:
        pass
    ranks.write_text("A,B,rank\n1,0,0\n1,0,1\n")
    try:
        load_rank_csv(ranks)
        ok = False
    except ConflictingRank:
        pass
    report(11, "store and ingest contracts", ok)


def test_criterion_9_byte_determinism(capsys):
    args = [
        "sieve",
        "--X-list",
        "8,12,16",
        "--ell",
        "5",
        "--t1",
        "1",
        "--t2",
        "2",
        "--d",
        "1",
        "--samples",
        "100000",
        "--seed",
        "20240101",
    ]
    assert cli_main(list(args)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(args)) == 0
    second = capsys.readouterr().out
    report("9b", "sieve CLI byte determinism", first == second)
