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


def test_the_store_oracle_accepts_a_saved_trace_cache(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inprocess = importlib.import_module("inprocess")
    cache = store.TraceCache(traces.trace_table(*curves.curve_box(1), 50, 5), 1, 50)
    path = tmp_path / "c.etrc"
    store.save(cache, path)
    assert inprocess.store_oracle(cache, str(path))[0] is True
