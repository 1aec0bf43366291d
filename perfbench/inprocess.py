"""The traced run: in-process replay of every workload, layer probes and oracles.

The replay calls ``ellstab.cli.main`` with each workload's argv.  Before each
command every ``functools`` cache in the package is cleared, so each command
starts as cold as it does in its own process.  Spans come from wrappers
installed at the module bindings where the public functions are called
(tracing.py); nothing under ``src/`` changes.

Per-layer times are self times summed over a function's spans (or the total
of a hot function's calls) across the whole replay.  Probes and oracles run
with the wrappers removed:

- galois_image stages, after each ``image --X`` command while the census
  tables are warm: stage 1 is ``surjectivity_sweep`` at prime bound 199;
  stage 2 is the sweep at the command's full bound minus stage 1.  Survivors,
  newly proven curves and the yield (proven in stage 2 / stage-1 survivors)
  are summed over both sweeps.
- classify_image on the seeded X=10 sample, timed per call, must agree with
  the X=10, ell=5 sweep's proven_mask on every sampled curve.
- ``store.load`` of the cache file the ``trace`` command wrote must equal the
  cache it saved; its median over three loads is ``store.load_s``.
- every ``curve_box`` result must have ``count_curves`` curves.
- ``ingest.load_rank_csv`` must return the ranks the benchmark wrote.
- every replayed stdout must equal the child process's stdout byte for byte,
  and so must stderr where it carries a result (``Command.check_stderr``).

Every binding the tracer wraps must exist, and every span or hot function a
per-layer metric reads must have been recorded: a renamed or moved function
fails a check instead of reading as zero time.
"""

import contextlib
import io
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import ellstab  # noqa: E402
from ellstab import (  # noqa: E402
    class_numbers,
    cli,
    galois_image,
    ingest,
    sieve_stats,
    stability,
    store,
    traces,
)

import workloads as wl  # noqa: E402
from tracing import Tracer, self_time_by_name  # noqa: E402

STAGE1_BOUND = 199

#: per-layer metric -> span name; the value is the summed self time
SPAN_METRICS = {
    "curves.curve_box_s": "curves.curve_box",
    "curves.count_curves_s": "curves.count_curves",
    "traces.trace_table_s": "traces.trace_table",
    "sieve_stats.variance_stat_s": "sieve_stats.variance_stat",
    "sieve_stats.t_A_density_curve_s": "sieve_stats.t_A_density_curve",
    "sieve_stats.curve_count_check_s": "sieve_stats.curve_count_check",
    "class_numbers.hurwitz_six_table_s": "class_numbers.hurwitz_six_table",
    "class_numbers.partial_sum_sweep_s": "class_numbers.partial_sum_sweep",
    "class_numbers.census_vs_deuring_s": "class_numbers.census_vs_deuring",
    "matgroup.full_gl2_s": "matgroup.full_gl2",
    "stability.check_ds_s": "stability.check_ds",
    "store.save_s": "store.save",
    "ingest.load_rank_csv_s": "ingest.load_rank_csv",
}

#: per-layer metric -> hot function; the value is the total time of its calls
HOT_METRICS = {
    "curves.enumerate_curves_s": "curves.enumerate_curves",
    "traces.census_tables_s": "traces.trace_census_table",
    "traces.frobenius_trace_s": "traces.frobenius_trace",
}


@dataclass
class Record:
    """What the wrappers' result hooks saw during the replay."""

    box_sizes: list[tuple[int, int]] = field(default_factory=list)  # (X, curves) per curve_box
    trace_records: int = 0
    saved: list[tuple[object, str]] = field(default_factory=list)  # (cache, path) per store.save
    census_tables_built: int = 0
    rank_tables: list[dict] = field(default_factory=list)  # ranks per load_rank_csv


@dataclass
class Result:
    tracer: Tracer
    metrics: dict
    checks: dict[str, bool]


def package_caches() -> list:
    """cache_clear of every functools cache bound in the package's modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "ellstab" and not name.startswith("ellstab."):
            continue
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                found[id(obj)] = clear
    return list(found.values())


def install(tracer: Tracer, rec: Record) -> list[str]:
    """Wrap the public functions at their call sites; returns the bindings not found."""

    def box(args, kwargs, result):
        rec.box_sizes.append((args[0] if args else kwargs["X"], len(result[0])))

    def table(args, kwargs, result):
        rec.trace_records += len(result)

    def saved(args, kwargs, result):
        rec.saved.append((args[0], str(args[1])))

    def ranks(args, kwargs, result):
        rec.rank_tables.append(result.ranks)

    missing = []
    for mod, attr, name, mode, hook in [
        (cli, "enumerate_curves", "curves.enumerate_curves", "iter", None),
        (cli, "trace_table", "traces.trace_table", "span", table),
        (galois_image, "curve_box", "curves.curve_box", "span", box),
        (sieve_stats, "curve_box", "curves.curve_box", "span", box),
        (sieve_stats, "count_curves", "curves.count_curves", "span", None),
        (galois_image, "trace_census_table", "traces.trace_census_table", "hot", None),
        (sieve_stats, "trace_census_table", "traces.trace_census_table", "hot", None),
        (traces, "trace_census_table", "traces.trace_census_table", "hot", None),
        (galois_image, "frobenius_trace", "traces.frobenius_trace", "hot", None),
        (sieve_stats, "frobenius_trace", "traces.frobenius_trace", "hot", None),
        (traces, "frobenius_trace", "traces.frobenius_trace", "hot", None),
        (traces, "batch_trace_census", "traces.batch_trace_census", "span", None),
        (galois_image, "surjectivity_sweep", "galois_image.surjectivity_sweep", "span", None),
        (galois_image, "classify_image", "galois_image.classify_image", "span", None),
        (stability, "t_kl_member", "galois_image.t_kl_member", "span", None),
        (sieve_stats, "variance_stat", "sieve_stats.variance_stat", "span", None),
        (sieve_stats, "t_A_density_curve", "sieve_stats.t_A_density_curve", "span", None),
        (sieve_stats, "curve_count_check", "sieve_stats.curve_count_check", "span", None),
        (class_numbers, "hurwitz_six_table", "class_numbers.hurwitz_six_table", "span", None),
        (class_numbers, "partial_sum_sweep", "class_numbers.partial_sum_sweep", "span", None),
        (class_numbers, "census_vs_deuring", "class_numbers.census_vs_deuring", "span", None),
        (stability, "full_gl2", "matgroup.full_gl2", "span", None),
        (stability, "full_sl2", "matgroup.full_sl2", "span", None),
        (stability, "check_ds", "stability.check_ds", "span", None),
        (store, "save", "store.save", "span", saved),
        (ingest, "load_rank_csv", "ingest.load_rank_csv", "span", ranks),
    ]:
        if not tracer.install(mod, attr, name, mode, hook):
            missing.append(f"{mod.__name__}.{attr}")
    return missing


def run_cli(argv) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this command, not the whole run
            traceback.print_exc(file=sys.__stderr__)
            code = -1
    return code, out.getvalue().encode(), err.getvalue().encode()


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


# -- probes --------------------------------------------------------------


@dataclass
class Stages:
    stage1_s: float = 0.0
    stage2_s: float = 0.0
    survivors: int = 0
    stage2_proven: int = 0


def sweep_probe(X: int, ell: int, bound: int, stages: Stages):
    """Warm stage-1 and full sweeps; returns the full sweep's result."""
    t1, first = timed(galois_image.surjectivity_sweep, X, ell, STAGE1_BOUND)
    t_full, full = timed(galois_image.surjectivity_sweep, X, ell, bound)
    stages.stage1_s += t1
    stages.stage2_s += t_full - t1
    stages.survivors += first.total - first.proven
    stages.stage2_proven += full.proven - first.proven
    return full


def classify_oracle(full, sample, ell: int, bound: int) -> tuple[bool, list[float]]:
    """classify_image on each sampled curve agrees with the sweep's proven_mask."""
    width = int(full.B.max()) - int(full.B.min()) + 1
    keys = full.A * width + full.B
    ok = True
    times = []
    for A, B in sample:
        i = int(np.searchsorted(keys, A * width + B))
        if i >= len(keys) or keys[i] != A * width + B:
            return False, times
        t, v = timed(galois_image.classify_image, ellstab.CurveModel(A, B), ell, bound)
        times.append(t)
        ok &= (v.status == galois_image.SURJECTIVE_PROVEN) == bool(full.proven_mask[i])
    return ok, times


def store_oracle(cache, path: str) -> tuple[bool, list[float]]:
    times, loaded = [], None
    for _ in range(3):
        t, loaded = timed(store.load, path)
        times.append(t)
    same = (
        loaded.entries == cache.entries
        and loaded.height_bound == cache.height_bound
        and loaded.prime_bound == cache.prime_bound
    )
    return same, times


def sweep_args(argv) -> tuple[int, int, int] | None:
    """(X, ell, bound) of an ``image --X`` sweep command, else None."""
    if argv[0] != "image" or "--X" not in argv:
        return None
    return tuple(int(argv[argv.index(flag) + 1]) for flag in ("--X", "--ell", "--prime-bound"))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


# -- the traced run --------------------------------------------------------


def traced_run(run_id: str, inp: wl.Inputs, cli_invs: dict, setup_s: float) -> Result:
    tracer = Tracer(run_id)
    rec = Record()
    caches = package_caches()
    census_cache = getattr(traces.trace_census_table, "cache_info", None)
    checks: dict[str, bool] = {}
    stages = Stages()
    classify_times: list[float] = []
    load_times: list[float] = []
    sample = wl.sample_curves(inp.seed)
    traced_wall = untraced_wall = 0.0
    n_cmds = 0

    missing = install(tracer, rec)
    for binding in missing:
        checks[f"binding {binding} exists"] = False
    try:
        for invs in cli_invs.values():
            for inv in invs:
                cmd = inv.cmd
                for clear in caches:
                    clear()
                span = tracer.begin(f"cli.{cmd.sub}")
                t, (code, stdout, stderr) = timed(run_cli, cmd.argv)
                tracer.end(span)
                traced_wall += t
                untraced_wall += inv.wall_s
                n_cmds += 1
                if census_cache is not None:
                    rec.census_tables_built += census_cache().misses
                checks[f"replay {cmd.key}: exit 0"] = code == 0
                checks[f"replay {cmd.key}: stdout equals the CLI's"] = stdout == inv.stdout
                if cmd.check_stderr:
                    checks[f"replay {cmd.key}: stderr equals the CLI's"] = stderr == inv.stderr

                sweep = sweep_args(cmd.argv)
                if sweep is not None:
                    tracer.uninstall()
                    full = sweep_probe(*sweep, stages)
                    X, ell, bound = sweep
                    if X == wl.SAMPLE_X:
                        ok, classify_times = classify_oracle(full, sample, ell, bound)
                        checks["classify_image agrees with proven_mask on the sample"] = ok
                    install(tracer, rec)
    finally:
        tracer.uninstall()

    if census_cache is None:  # no cache: every call builds a table
        built = tracer.hot.get("traces.trace_census_table")
        rec.census_tables_built = built.calls if built else 0
    for cache, path in rec.saved:
        ok, load_times = store_oracle(cache, path)
        checks["store.load(store.save(c)) equals the trace cache"] = ok
    checks["load_rank_csv returns the ranks written"] = bool(rec.rank_tables) and all(
        r == inp.ranks for r in rec.rank_tables
    )
    counted = {X: sieve_stats.count_curves(X) for X, _ in rec.box_sizes}
    checks["curve_box sizes equal count_curves"] = bool(rec.box_sizes) and all(
        n == counted[X] for X, n in rec.box_sizes
    )

    recorded = {s.name for s in tracer.spans}
    for name in SPAN_METRICS.values():
        checks[f"span {name} recorded"] = name in recorded
    for name in HOT_METRICS.values():
        checks[f"hot calls of {name} recorded"] = name in tracer.hot
    selfs = self_time_by_name(tracer.spans)
    metrics = {m: {"value": selfs.get(name, 0.0), "unit": "s"} for m, name in SPAN_METRICS.items()}
    for m, name in HOT_METRICS.items():
        h = tracer.hot.get(name)
        metrics[m] = {"value": h.total_s if h else 0.0, "unit": "s"}
    frob = tracer.hot.get("traces.frobenius_trace")
    yield_ = stages.stage2_proven / stages.survivors if stages.survivors else 0.0
    save_bytes = sum(os.path.getsize(path) for _, path in rec.saved)
    metrics.update({
        "curves.box_curves": {"value": sum(n for _, n in rec.box_sizes), "unit": "count"},
        "traces.census_tables_built": {"value": rec.census_tables_built, "unit": "count"},
        "traces.trace_records": {"value": rec.trace_records, "unit": "count"},
        "traces.frobenius_trace_calls": {"value": frob.calls if frob else 0, "unit": "count"},
        "galois_image.stage1_s": {"value": stages.stage1_s, "unit": "s"},
        "galois_image.stage2_s": {"value": stages.stage2_s, "unit": "s"},
        "galois_image.stage1_survivors": {"value": stages.survivors, "unit": "count"},
        "galois_image.stage2_proven": {"value": stages.stage2_proven, "unit": "count"},
        "galois_image.stage2_yield": {"value": yield_, "unit": "ratio"},
        "galois_image.classify_image_s": {"value": statistics.median(classify_times) if classify_times else 0.0, "unit": "s"},
        "galois_image.classify_image_p90_s": {"value": p90(classify_times) if len(classify_times) > 1 else 0.0, "unit": "s"},
        "store.bytes": {"value": save_bytes, "unit": "bytes"},
        "store.load_s": {"value": statistics.median(load_times) if load_times else 0.0, "unit": "s"},
        "tracing.overhead_s": {
            "value": traced_wall - (untraced_wall - n_cmds * setup_s), "unit": "s"},
    })
    return Result(tracer, metrics, checks)
