"""The traced benchmark run wraps package functions at their module bindings.

A refactor that drops or renames one of them fails here, in the test suite,
rather than only as a failed check in a traced benchmark run.
"""

import importlib
from pathlib import Path

from ellstab import cli, curves, store, traces

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


def test_clearing_the_package_caches_clears_the_cost_rule_count(monkeypatch):
    # the replay clears them between commands, so each starts as cold as a process
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inprocess = importlib.import_module("inprocess")
    traces.curve_traces(1, 1, 211)
    assert traces._traced(211) == [1]
    for clear in inprocess.package_caches():
        clear()
    assert traces._traced(211) == [0]


def test_the_store_oracle_accepts_a_saved_trace_cache(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inprocess = importlib.import_module("inprocess")
    cache = store.TraceCache(traces.trace_table(*curves.curve_box(1), 50, 5), 1, 50)
    path = tmp_path / "c.etrc"
    store.save(cache, path)
    assert inprocess.store_oracle(cache, str(path))[0] is True
