"""Command-line front end.

Every subcommand writes machine-readable rows to stdout and diagnostics to
stderr; identical arguments (and seed, where sampling is involved) produce
identical bytes.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from math import isqrt

from . import class_numbers, galois_image, ingest, sieve_stats, stability, store
from .curves import CurveModel, box_rows, box_size, check_unrankable, curve_box, enumerate_curves
from .errors import EllstabError
from .galois_image import FieldSpec
from .matgroup import count_trace_det, delta_density, sl2_order
from .primes import check_ell, primes_up_to
from .traces import batch_trace_census, check_prime_bound, check_trace_cells, trace_table


#: rows that cmd_hurwitz formats and writes at once; chunks of 4096 rows
#: peaked about 1 MB higher (hurwitz --ell 5 --prime-bound 20000)
_ROW_CHUNK = 1 << 8


def _fmt_frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def cmd_enumerate(args) -> int:
    box_size(args.X)  # a box too large to list is refused before the header
    if args.format == "csv":
        sys.stdout.write("A,B\n")
    for A, row in box_rows(args.X):
        head, end = (f'{{"A": {A}, "B": ', "}\n") if args.format == "json" else (f"{A},", "\n")
        sys.stdout.write("".join(f"{head}{B}{end}" for B in row.tolist()))
    return 0


def cmd_trace(args) -> int:
    if args.cache and os.path.isdir(args.cache):
        raise IsADirectoryError(f"the cache file {args.cache} is a directory")
    if args.cache and not os.path.isdir(os.path.dirname(os.path.abspath(args.cache))):
        raise FileNotFoundError(f"no directory for the cache file {args.cache}")
    check_trace_cells(box_size(args.X), args.prime_bound, args.ell)
    A, B = curve_box(args.X)
    records = trace_table(A, B, args.prime_bound, args.ell)
    if args.cache:
        store.save(store.TraceCache(records, args.X, args.prime_bound), args.cache)
        print(f"saved {len(records)} records", file=sys.stderr)
    store.write_csv(records, sys.stdout)
    return 0


def cmd_census(args) -> int:
    check_prime_bound(args.prime_bound)
    six_table = class_numbers.hurwitz_six_table(4 * args.prime_bound)
    print("p,a,census,deuring,match")
    ok = True
    for p in primes_up_to(args.prime_bound):
        if p < 5:
            continue
        for a, got, expected, match in class_numbers.census_vs_deuring(p, six_table):
            ok &= match
            print(f"{p},{a},{got},{expected},{int(match)}")
    return 0 if ok else 1


def cmd_hurwitz(args) -> int:
    cols = class_numbers.partial_sum_sweep(args.ell, args.prime_bound)
    print("p,d,t,S,main,normalized_error")
    for i in range(0, len(cols.p), _ROW_CHUNK):
        sys.stdout.write("".join(
            f"{p},{d},{t},{sn}/{sd},{mn}/{md},{err:.6f}\n"
            for p, d, t, sn, sd, mn, md, err in zip(*(c[i:i + _ROW_CHUNK].tolist() for c in cols))
        ))
    return 0


def cmd_delta(args) -> int:
    ell = args.ell
    check_ell(ell)
    rows = [(t, d, delta_density(t, d, ell), count_trace_det(t, d, ell))
            for d in range(1, ell) for t in range(ell)]
    print("ell,t,d,delta,count,sl2_order,match")
    ok = True
    for t, d, delta, count in rows:
        match = delta == Fraction(count, sl2_order(ell))
        ok &= match
        print(f"{ell},{t},{d},{_fmt_frac(delta)},{count},{sl2_order(ell)},{int(match)}")
    return 0 if ok else 1


def cmd_image(args) -> int:
    if args.X is not None:
        res = galois_image.surjectivity_sweep(args.X, args.ell, args.prime_bound)
        print(
            json.dumps(
                {
                    "X": res.X,
                    "ell": res.ell,
                    "prime_bound": res.bound,
                    "total": res.total,
                    "proven": res.proven,
                    "fraction": round(res.fraction, 6),
                }
            )
        )
        return 0
    if args.A is None or args.B is None:
        raise ValueError("image needs --X, or both --A and --B")
    c = CurveModel(args.A, args.B)
    v = galois_image.classify_image(c, args.ell, args.prime_bound)
    print(
        json.dumps(
            {
                "A": c.A,
                "B": c.B,
                "ell": args.ell,
                "status": v.status,
                "witnesses": v.witnesses,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_stability(args) -> int:
    stability.check_box_curves(args.X)
    K = FieldSpec(args.degree, args.closure_degree)
    ranks = ingest.load_rank_csv(args.ranks).ranks if args.ranks else {}
    curves = list(enumerate_curves(args.X))
    rank1_ds = 0
    members = 0
    satisfied = 0
    for c in curves:
        rep = stability.check_ds(c, K, args.ell, args.prime_bound)
        if rep.t_kl == galois_image.MEMBER:
            members += 1
        if rep.ds_verdict == stability.SATISFIED:
            satisfied += 1
            if ranks.get((c.A, c.B)) == 1:
                rank1_ds += 1
        print(
            json.dumps(
                {
                    "A": c.A,
                    "B": c.B,
                    "ell": args.ell,
                    "t_kl": rep.t_kl,
                    "conditions": list(rep.conditions),
                    "ds_verdict": rep.ds_verdict,
                },
                sort_keys=True,
            )
        )
    print(
        f"X,ell,members,ds_satisfied,rank1_ds,total\n"
        f"{args.X},{args.ell},{members},{satisfied},{rank1_ds},{len(curves)}",
        file=sys.stderr,
    )
    if args.ranks:
        print(
            "note: rank-1 density is conditional on finiteness of Sha(E/Q)",
            file=sys.stderr,
        )
    return 0


def cmd_sieve(args) -> int:
    for X in args.X_list:  # every X before the first draw
        check_unrankable(X)
    stats = [
        sieve_stats.variance_stat(X, args.t1, args.t2, args.d, args.ell, args.samples, args.seed)
        for X in args.X_list
    ]
    print("X,ell,t1,t2,d,delta,pi,V,V_over_X")
    for st in stats:
        print(
            f"{st.X},{args.ell},{args.t1},{args.t2},{args.d},"
            f"{_fmt_frac(st.delta)},{st.pi},{_fmt_frac(st.V)},{_fmt_frac(st.v_over_x)}"
        )
    return 0


def cmd_decay(args) -> int:
    a = CurveModel(args.A, args.B)
    rows = sieve_stats.t_A_density_curve(a, args.X_list, args.ell, args.prime_bound)
    print("X,matched_ratio")
    for X, ratio in rows:
        print(f"{X},{_fmt_frac(ratio)}")
    return 0


def cmd_countcheck(args) -> int:
    rows = sieve_stats.curve_count_check(args.X_list)
    print("X,count,main_term,relative_error")
    for X, count, main, err in rows:
        print(f"{X},{count},{main:.3f},{err:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ellstab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("enumerate", cmd_enumerate, help="enumerate curves by height")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("trace", cmd_trace, help="compute trace tables into a cache")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--prime-bound", type=int, required=True)
    p.add_argument("--cache")

    p = add("census", cmd_census, help="Deuring census verification sweep")
    p.add_argument("--prime-bound", type=int, required=True)

    p = add("hurwitz", cmd_hurwitz, help="Hurwitz partial-sum sweep")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--prime-bound", type=int, required=True)

    p = add("delta", cmd_delta, help="trace-det density table with oracle check")
    p.add_argument("--ell", type=int, required=True)

    p = add("image", cmd_image, help="mod-ell image classification")
    p.add_argument("--A", type=int)
    p.add_argument("--B", type=int)
    p.add_argument("--X", type=int)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--prime-bound", type=int, required=True)

    p = add("stability", cmd_stability, help="DS reports and S_{K,ell} census")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--prime-bound", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--closure-degree", type=int)
    p.add_argument("--ranks")

    p = add("sieve", cmd_sieve, help="pair-count variance statistic")
    p.add_argument("--X-list", type=_parse_int_list, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("decay", cmd_decay, help="trace-twin proxy density decay")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--X-list", type=_parse_int_list, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--prime-bound", type=int, required=True)

    p = add("countcheck", cmd_countcheck, help="curve count vs C1*X^5")
    p.add_argument("--X-list", type=_parse_int_list, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (EllstabError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
