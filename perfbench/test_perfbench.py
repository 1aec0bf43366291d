"""Tests of the benchmark itself: metric names, span arithmetic, output checks."""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, Tracer, self_time_by_name, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_workloads_match_the_benchmark_file():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(wl.WORKLOADS)


def test_span_and_hot_metrics_are_listed():
    inprocess = pytest.importorskip("inprocess")
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(inprocess.SPAN_METRICS) <= per_layer
    assert set(inprocess.HOT_METRICS) <= per_layer


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0, "r", hot_child_s=1.0),
        Span(1, 0, "a", 1.0, 4.0, "r"),
        Span(2, 1, "leaf", 2.0, 3.0, "r"),
        Span(3, 0, "b", 5.0, 7.0, "r", hot_child_s=0.5),
        Span(4, None, "a", 20.0, 22.0, "r"),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 2.0}
    assert self_time_by_name(spans) == {"root": 4.0, "a": 4.0, "leaf": 1.0, "b": 1.5}


def test_tracer_charges_hot_calls_to_the_enclosing_span():
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    hot = tracer.wrap(lambda: None, "hot", hot=True)
    outer = tracer.wrap(lambda: [hot(), hot()], "outer")
    outer()
    # clock: outer begins 0, hot 1-2, hot 3-4, outer ends 5
    assert tracer.hot["hot"].calls == 2
    assert tracer.hot["hot"].total_s == 2.0
    assert self_time_by_name(tracer.spans) == {"outer": 3.0}


def test_iter_wrapper_times_each_item_and_yields_all():
    tracer = Tracer("t")
    gen = tracer.wrap_iter(lambda n: (i for i in range(n)), "gen")
    assert list(gen(3)) == [0, 1, 2]
    assert tracer.hot["gen"].calls == 4  # three items and the final StopIteration


def test_a_missing_binding_is_reported(monkeypatch):
    inprocess = pytest.importorskip("inprocess")
    monkeypatch.delattr(inprocess.cli, "trace_table")
    tracer = Tracer("t")
    try:
        missing = inprocess.install(tracer, inprocess.Record())
    finally:
        tracer.uninstall()
    assert missing == ["ellstab.cli.trace_table"]


def test_install_replaces_and_restores_a_binding():
    class Mod:
        @staticmethod
        def f(x):
            return x + 1

    tracer = Tracer("t")
    original = Mod.f
    assert tracer.install(Mod, "f", "mod.f")
    assert not tracer.install(Mod, "missing", "mod.missing")
    assert Mod.f(1) == 2 and tracer.spans[0].name == "mod.f"
    tracer.uninstall()
    assert Mod.f is original


def _invocation(cmd, stdout, exit_code=0, stderr=b""):
    return run.Invocation(cmd, 1.0, 1.0, 1024, exit_code, stdout, stderr)


GOOD = b"X,count\n1,8\n"
CMD = wl.Command("w/count", "count", ("count",))
SEEDED = wl.Command("w/sample", "sample", ("sample",), seeded=True)
SUMMARY = wl.Command("w/summary", "summary", ("summary",), check_stderr=True)
GOLDEN = {
    "seed": 1,
    "stdout_sha256": {
        CMD.key: hashlib.sha256(GOOD).hexdigest(),
        SEEDED.key: hashlib.sha256(b"1,2,3,4\n").hexdigest(),
        SUMMARY.key: hashlib.sha256(GOOD).hexdigest(),
    },
    "seed_independent_sha256": {
        SEEDED.key: hashlib.sha256(wl.seed_independent(SEEDED, b"1,2,3,4\n")).hexdigest(),
    },
    "stderr_sha256": {
        SUMMARY.key: hashlib.sha256(b"total,3\n").hexdigest(),
    },
}


def test_corrupted_stdout_makes_failed_frac_positive():
    checker = run.Checker(GOLDEN, seed=1)
    good = checker.check(_invocation(CMD, GOOD))
    bad = checker.check(_invocation(CMD, GOOD.replace(b"8", b"9")))
    assert good.problem is None
    assert bad.problem is not None
    assert run.failed_fraction([good]) == 0
    assert run.failed_fraction([good, bad]) == 0.5


def test_exit_status_and_traceback_fail():
    checker = run.Checker(GOLDEN, seed=1)
    assert checker.check(_invocation(CMD, GOOD, exit_code=1)).problem
    tb = b"Traceback (most recent call last):\n  ...\n"
    assert checker.check(_invocation(CMD, GOOD, stderr=tb)).problem


def test_seeded_output_away_from_the_default_seed():
    checker = run.Checker(GOLDEN, seed=2)
    # another seed may change the sampled columns, but not the fixed ones
    assert checker.check(_invocation(SEEDED, b"1,2,9,9\n")).problem is None
    assert checker.check(_invocation(SEEDED, b"1,2,9,9\n")).problem is None
    assert checker.check(_invocation(SEEDED, b"1,2,8,8\n")).problem  # not repeatable
    assert run.Checker(GOLDEN, seed=2).check(_invocation(SEEDED, b"1,5,9,9\n")).problem


def test_stderr_summary_is_checked():
    checker = run.Checker(GOLDEN, seed=1)
    assert checker.check(_invocation(SUMMARY, GOOD, stderr=b"total,3\n")).problem is None
    assert checker.check(_invocation(SUMMARY, GOOD, stderr=b"total,4\n")).problem
    # away from the default seed it must still repeat within the run
    checker = run.Checker(GOLDEN, seed=2)
    assert checker.check(_invocation(SUMMARY, GOOD, stderr=b"total,4\n")).problem is None
    assert checker.check(_invocation(SUMMARY, GOOD, stderr=b"total,5\n")).problem


def test_spawn_reports_the_childs_own_usage(tmp_path):
    code = "import sys; print('ok'); sys.exit(3)"
    wall, cpu, rss_kb, exit_code = run.spawn(
        [sys.executable, "-c", code], {}, tmp_path / "out", tmp_path / "err"
    )
    assert exit_code == 3
    assert (tmp_path / "out").read_bytes() == b"ok\n"
    assert wall > 0 and cpu >= 0 and rss_kb > 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    ranks = wl.write_rank_csv(5, tmp_path / "a.csv")
    wl.write_rank_csv(5, tmp_path / "b.csv")
    wl.write_rank_csv(6, tmp_path / "c.csv")
    a = (tmp_path / "a.csv").read_text()
    assert a == (tmp_path / "b.csv").read_text() != (tmp_path / "c.csv").read_text()
    assert a.startswith("A,B,rank\n")
    rows = [tuple(map(int, line.split(","))) for line in a.splitlines()[1:]]
    assert {(A, B): r for A, B, r in rows} == ranks
    n = len(ranks)
    box = sum(wl.in_box(A, B, 3) for A in range(-9, 10) for B in range(-27, 28))
    assert box / 3 < n < 2 * box / 3  # about half of the X=3 box
    assert wl.sample_curves(5) == wl.sample_curves(5) != wl.sample_curves(6)
    assert len(wl.sample_curves(5)) == wl.SAMPLE_SIZE


def test_box_membership_matches_the_package():
    curves = pytest.importorskip("ellstab.curves")
    for X in (1, 2, 3, 4):
        mine = sum(
            wl.in_box(A, B, X)
            for A in range(-X * X, X * X + 1)
            for B in range(-(X**3), X**3 + 1)
        )
        assert mine == curves.count_curves(X)


def test_sequence_total_takes_each_commands_median_repetition():
    def inv(wall):
        return run.Invocation(CMD, wall, wall / 2, 1024, 0, GOOD, b"")

    seqs = [[inv(1.0), inv(5.0)], [inv(2.0), inv(3.0)], [inv(1.5), inv(4.0)]]
    assert run.sum_of_medians(seqs, "wall_s") == 5.5
    assert run.sum_of_medians(seqs, "cpu_s") == 2.75
