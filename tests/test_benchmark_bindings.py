"""The benchmark's contract with the package, checked in the test suite.

The traced benchmark run wraps package functions at their module bindings,
and every command's stdout must match perfbench/golden.json.  A refactor
that drops or renames a binding, or changes a byte of any workload's output,
fails here rather than only in a benchmark run.
"""

import hashlib
import importlib
import json
from pathlib import Path

from ellstab import cli, curves, galois_image, store, traces
from ellstab.primes import legendre_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inprocess = importlib.import_module("inprocess")
    tracer = inprocess.Tracer("bindings")
    try:
        missing = inprocess.install(tracer, inprocess.Record())
    finally:
        tracer.uninstall()
    assert missing == []
    assert cli.trace_table is traces.trace_table


def test_the_traced_replay_clears_the_per_prime_array_caches(monkeypatch):
    # each replayed command starts cold only if these clear functions are found
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inprocess = importlib.import_module("inprocess")
    clears = inprocess.package_caches()
    assert legendre_table.cache_clear in clears
    assert traces.twist_rows.cache_clear in clears
    legendre_table(101)
    for clear in clears:  # as the replay does before each command
        clear()
    assert legendre_table.nbytes == 0


def test_the_classify_oracle_agrees_with_a_small_sweep(monkeypatch):
    # the oracle builds curves as ellstab.CurveModel, outside the traced bindings
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inprocess = importlib.import_module("inprocess")
    full = galois_image.surjectivity_sweep(2, 5, 100)
    sample = [(int(full.A[i]), int(full.B[i])) for i in (0, len(full.A) // 2, len(full.A) - 1)]
    ok, times = inprocess.classify_oracle(full, sample, 5, 100)
    assert ok is True and len(times) == 3


def test_the_store_oracle_accepts_a_saved_trace_cache(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inprocess = importlib.import_module("inprocess")
    cache = store.TraceCache(traces.trace_table(*curves.curve_box(1), 50, 5), 1, 50)
    path = tmp_path / "c.etrc"
    store.save(cache, path)
    assert inprocess.store_oracle(cache, str(path))[0] is True


def test_box_stats_stdout_matches_the_golden_digests(monkeypatch, capsys):
    # the five box_stats commands at the golden seed, run in-process; golden.json is only read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    commands = workloads.box_stats(workloads.Inputs(golden["seed"], None, None, {}))
    assert [cmd.sub for cmd in commands] == ["sieve", "decay", "countcheck", "census", "hurwitz"]
    for cmd in commands:
        assert cli.main(list(cmd.argv)) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == golden["stdout_sha256"][cmd.key], cmd.key


def test_per_curve_outputs_match_the_golden_digests(monkeypatch, capsys, tmp_path):
    # the four per_curve commands at the golden seed, run in-process, with the
    # rank CSV and the trace cache under tmp_path; golden.json is only read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    seed, ranks_csv = golden["seed"], tmp_path / "ranks.csv"
    ranks = workloads.write_rank_csv(seed, ranks_csv)
    commands = workloads.per_curve(workloads.Inputs(seed, ranks_csv, tmp_path / "traces.etrc", ranks))
    assert [cmd.sub for cmd in commands] == ["image", "image", "trace", "stability"]
    for cmd in commands:
        assert cli.main(list(cmd.argv)) == 0
        out = capsys.readouterr()
        assert hashlib.sha256(out.out.encode()).hexdigest() == golden["stdout_sha256"][cmd.key], cmd.key
        if cmd.check_stderr:
            assert hashlib.sha256(out.err.encode()).hexdigest() == golden["stderr_sha256"][cmd.key], cmd.key


def test_the_traced_commands_record_every_span_and_hot_function(monkeypatch, tmp_path):
    # every per_curve and box_stats command, replayed in-process under the
    # benchmark's wrappers as the traced run does; a refactor that stops calling
    # a traced function (stability.check_ds, say) fails here, not only in --trace 1
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inprocess = importlib.import_module("inprocess")
    workloads = importlib.import_module("workloads")
    seed, ranks_csv = json.loads((PERFBENCH / "golden.json").read_text())["seed"], tmp_path / "ranks.csv"
    inp = workloads.Inputs(seed, ranks_csv, tmp_path / "traces.etrc",
                           workloads.write_rank_csv(seed, ranks_csv))
    tracer = inprocess.Tracer("bindings")
    try:
        assert inprocess.install(tracer, inprocess.Record()) == []
        for make in workloads.WORKLOADS.values():
            for cmd in make(inp):
                for clear in inprocess.package_caches():
                    clear()
                assert inprocess.run_cli(cmd.argv)[0] == 0, cmd.key
    finally:
        tracer.uninstall()
    assert set(inprocess.SPAN_METRICS.values()) <= {span.name for span in tracer.spans}
    assert set(inprocess.HOT_METRICS.values()) <= set(tracer.hot)
