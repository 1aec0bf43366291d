import contextlib
import hashlib
import json
import os
import resource
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import ellstab
from ellstab import class_numbers, cli, primes, sieve_stats, traces
from ellstab.cli import main
from ellstab.curves import discriminant, enumerate_curves
from ellstab.primes import primes_up_to
from ellstab.store import RECORD, load
from ellstab.traces import frobenius_trace, good_primes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--X", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A,B"
    assert len(lines) == 9
    assert lines[1] == "-1,-1"


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--X", "1", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {"A": -1, "B": -1}
    assert len(rows) == 8


def test_countcheck(capsys):
    code, out, _ = run(capsys, "countcheck", "--X-list", "1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "X,count,main_term,relative_error"
    assert lines[1].startswith("1,8,")
    assert lines[2].startswith("2,150,")


def test_delta_table(capsys):
    code, out, _ = run(capsys, "delta", "--ell", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 20  # header + 4 d-values x 5 traces
    assert all(line.endswith(",1") for line in lines[1:])


def test_census(capsys):
    code, out, _ = run(capsys, "census", "--prime-bound", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,a,census,deuring,match"
    assert all(line.endswith(",1") for line in lines[1:])
    assert any(line.startswith("5,1,2,2,") for line in lines)


def test_census_holds_no_rows_and_one_hurwitz_table(monkeypatch):
    # with every prime's twist rows kept in the row cache and one scalar
    # hurwitz call per trace, bound 2000 peaked at 2.5 MB of tracemalloc
    tables = []
    monkeypatch.setattr(class_numbers, "hurwitz", lambda n: pytest.fail("scalar hurwitz called"))
    real_table = class_numbers.hurwitz_six_table
    monkeypatch.setattr(class_numbers, "hurwitz_six_table", lambda n: tables.append(n) or real_table(n))
    traces.twist_rows.cache_clear()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["census", "--prime-bound", "2000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert tables == [8000] and traces.twist_rows.nbytes == 0
    assert peak < 1.5 * 2**20


def test_image_single_curve(capsys):
    code, out, _ = run(
        capsys, "image", "--A", "1", "--B", "0", "--ell", "5", "--prime-bound", "200"
    )
    assert code == 0
    row = json.loads(out)
    assert row["status"] == "Undetermined"
    assert row["witnesses"]["nonsplit"] is None


def test_image_sweep(capsys):
    code, out, _ = run(capsys, "image", "--X", "2", "--ell", "5", "--prime-bound", "500")
    assert code == 0
    row = json.loads(out)
    assert row["total"] == 150
    assert 0 < row["proven"] <= 150


def test_trace_writes_cache(capsys, tmp_path):
    path = tmp_path / "c.etrc"
    code, out, _ = run(
        capsys,
        "trace",
        "--X",
        "1",
        "--ell",
        "5",
        "--prime-bound",
        "20",
        "--cache",
        str(path),
    )
    assert code == 0
    cache = load(path)
    assert len(cache.entries) > 0
    assert out.splitlines()[0] == "A,B,p,a_p"


def per_curve_trace_output(X, ell, bound):
    """stdout and cache file of `trace` as one frobenius_trace call per curve and
    prime, put into a dict and packed one record at a time with struct."""
    entries = {}
    for c in enumerate_curves(X):
        for p in good_primes(discriminant(c), bound, ell):
            entries[(c.A, c.B, p)] = frobenius_trace(c.A, c.B, p)
    rows = sorted(entries.items())
    stdout = "A,B,p,a_p\n" + "".join(f"{A},{B},{p},{a}\n" for (A, B, p), a in rows)
    meta = json.dumps({"height_bound": X, "prime_bound": bound}, sort_keys=True).encode()
    block = b"".join(struct.pack("<qqIi", A, B, p, a) for (A, B, p), a in rows)
    checksum = hashlib.blake2b(block, digest_size=8).digest()
    head = b"ETRC" + bytes([1]) + struct.pack("<I", len(meta)) + meta
    return stdout, head + struct.pack("<Q", len(rows)) + block + checksum


@pytest.mark.parametrize("ell", [5, 7])
def test_trace_output_equals_the_per_curve_loop(capsys, tmp_path, ell):
    path = tmp_path / "c.etrc"
    code, out, err = run(
        capsys, "trace", "--X", "2", "--ell", str(ell), "--prime-bound", "300", "--cache", str(path)
    )
    stdout, cache_file = per_curve_trace_output(2, ell, 300)
    assert code == 0
    assert out == stdout
    assert path.read_bytes() == cache_file
    assert err == f"saved {len(stdout.splitlines()) - 1} records\n"


def test_trace_allocates_at_most_five_times_its_record_bytes(tmp_path):
    # the record array, the (curves x primes) tables it comes from and save's
    # byte copy fit in 5x; a per-record Python object would not
    path = tmp_path / "c.etrc"
    argv = ["trace", "--X", "3", "--ell", "5", "--prime-bound", "1000", "--cache", str(path)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak <= 5 * RECORD.itemsize * len(load(path).records)


def test_trace_rejects_a_prime_bound_above_the_traced_limit_before_any_work(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(traces, "curve_traces", lambda *args: calls.append(args))
    code, out, err = run(capsys, "trace", "--X", "1", "--ell", "5", "--prime-bound", "2200000")
    assert code == 2
    assert out == ""
    assert err == f"ValueError: prime bound must be in [5, {traces.MAX_TRACE_PRIME}], got 2200000\n"
    assert calls == []


def test_sieve_deterministic_bytes(capsys):
    args = (
        "sieve",
        "--X-list",
        "8,12",
        "--ell",
        "5",
        "--t1",
        "1",
        "--t2",
        "2",
        "--d",
        "1",
        "--samples",
        "2000",
        "--seed",
        "11",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_decay(capsys):
    code, out, _ = run(
        capsys,
        "decay",
        "--A",
        "-1",
        "--B",
        "-1",
        "--X-list",
        "2,3",
        "--ell",
        "5",
        "--prime-bound",
        "60",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "X,matched_ratio"
    assert len(lines) == 3


def test_hurwitz_subcommand(capsys):
    code, out, _ = run(capsys, "hurwitz", "--ell", "5", "--prime-bound", "30")
    assert code == 0
    assert out.splitlines()[0] == "p,d,t,S,main,normalized_error"


@pytest.mark.parametrize(
    "ell, bound, message",
    [
        ("4", "100", "ell must be a prime >= 5, got 4"),
        ("9", "100", "ell must be a prime >= 5, got 9"),
        ("5", "-5", "prime bound must be in [5, "),
        ("5", "3", "prime bound must be in [5, "),
        ("5", str(traces.MAX_TRACE_PRIME + 1), "prime bound must be in [5, "),
        ("18919", "100", "ell must be <= 18917, got 18919"),
        ("18917", str(traces.MAX_TRACE_PRIME), "summing 18917 residues at 155608 primes fills "),
    ],
)
def test_bad_hurwitz_input_exits_2_before_any_table(capsys, monkeypatch, ell, bound, message):
    calls = []
    monkeypatch.setattr(class_numbers, "hurwitz_six_table", lambda *args: calls.append(args))
    code, out, err = run(capsys, "hurwitz", "--ell", ell, "--prime-bound", bound)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"ValueError: {message}")
    assert "Traceback" not in err
    assert calls == []


def test_stability_subcommand(capsys, tmp_path):
    ranks = tmp_path / "ranks.csv"
    ranks.write_text("A,B,rank\n-1,-1,1\n")
    code, out, err = run(
        capsys,
        "stability",
        "--X",
        "1",
        "--ell",
        "5",
        "--prime-bound",
        "300",
        "--degree",
        "2",
        "--ranks",
        str(ranks),
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 8
    assert "members" in err


@pytest.mark.parametrize(
    "ranks, rank1_ds",
    [
        ({(-1, -1): 1, (-1, 1): 0, (1, -1): 2, (-1, 0): 1, (0, 1): 1}, 1),
        ({(-1, -1): 1, (1, 1): 1, (-1, 1): 2, (1, -1): 0, (1, 0): 1, (0, -1): 0}, 2),
        ({(-1, 0): 1, (1, 0): 1, (0, -1): 1, (0, 1): 1}, 0),
        (None, 0),
    ],
    ids=["one-rank-1-one-unlisted", "two-rank-1", "rank-1-undetermined-only", "no-ranks"],
)
def test_stability_summary_counts_only_rank_1_satisfied_curves(capsys, tmp_path, ranks, rank1_ds):
    # in the X = 1 box at ell = 5 the four (+-1, +-1) are Satisfied and the
    # CM curves (+-1, 0) and (0, +-1) Undetermined; a Satisfied curve of rank
    # 0 or 2, or with no listed rank, and an Undetermined one of rank 1 never count
    argv = ["stability", "--X", "1", "--ell", "5", "--prime-bound", "300", "--degree", "2"]
    if ranks is not None:
        path = tmp_path / "ranks.csv"
        path.write_text("A,B,rank\n" + "".join(f"{A},{B},{r}\n" for (A, B), r in ranks.items()))
        argv += ["--ranks", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    satisfied = [(row["A"], row["B"]) for row in rows if row["ds_verdict"] == "Satisfied"]
    assert len(rows) == 8 and satisfied == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert err.splitlines()[:2] == ["X,ell,members,ds_satisfied,rank1_ds,total", f"1,5,4,4,{rank1_ds},8"]


def test_error_exit_code(capsys, tmp_path):
    missing_ok = tmp_path / "bad.csv"
    missing_ok.write_text("A,B,rank\n0,0,1\n")
    code, _, err = run(
        capsys,
        "stability",
        "--X",
        "1",
        "--ell",
        "5",
        "--prime-bound",
        "100",
        "--degree",
        "2",
        "--ranks",
        str(missing_ok),
    )
    assert code == 2
    assert err.startswith("InvalidCurve:")


@pytest.mark.parametrize(
    "argv",
    [
        ("image", "--A", "1", "--B", "1", "--ell", "4", "--prime-bound", "100"),
        ("image", "--A", "1", "--B", "1", "--ell", "9", "--prime-bound", "100"),
        ("image", "--X", "2", "--ell", "6", "--prime-bound", "100"),
        ("trace", "--X", "1", "--ell", "6", "--prime-bound", "100"),
    ],
)
def test_bad_ell_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("ValueError: ell must be a prime >= 5")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("image", "--A", "1", "--ell", "5", "--prime-bound", "100"), "image needs --X"),
        (("image", "--ell", "5", "--prime-bound", "100"), "image needs --X"),
        (("image", "--X", "2", "--ell", "5", "--prime-bound", "3"),
         "prime bound must be in [5, 2097151], got 3"),
        (("image", "--A", "1", "--B", "1", "--ell", "5", "--prime-bound", "3"),
         "prime bound must be in [5, 2097151], got 3"),
    ],
)
def test_bad_image_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"ValueError: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        ("stability", "--X", "1", "--ell", "5", "--prime-bound", "100", "--degree", "2",
         "--ranks", "{tmp}/missing.csv"),
        ("trace", "--X", "1", "--ell", "5", "--prime-bound", "20", "--cache", "{tmp}/nodir/x.etrc"),
    ],
    ids=["missing-ranks", "cache-in-missing-dir"],
)
def test_unopenable_files_exit_2(capsys, monkeypatch, tmp_path, argv):
    calls = []
    monkeypatch.setattr(cli, "trace_table", lambda *args: calls.append(args))
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("FileNotFoundError: ")
    assert calls == []  # the cache path fails before any trace work


def test_trace_rejects_a_cache_directory_before_any_work(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "trace_table", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "curve_box", lambda *args: calls.append(args))
    code, out, err = run(capsys, "trace", "--X", "2", "--ell", "5", "--prime-bound", "100",
                         "--cache", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"IsADirectoryError: the cache file {tmp_path} is a directory\n"
    assert calls == []


BOUND_RANGE = f"ValueError: prime bound must be in [5, {traces.MAX_TRACE_PRIME}], got"
BAD_ELL = "ValueError: ell must be a prime >= 5, got"
BAD_HEIGHT = "ValueError: height bound X must be >= 1"
BIG_BOX = "ValueError: the height-40 box has 409322108 curves, more than 10000000"
HUGE_BOX = ("ValueError: the height-100000 box has 39960256524727810750988628 curves, "
            "more than 10000000")
TRACE_CELLS = ("ValueError: tracing 401782 curves below 1000 fills 66294030 cells, "
               f"more than {traces.MAX_TRACE_CELLS}")
BIG_ELL = f"ValueError: ell must be <= {primes.MAX_ELL}, got"
SWEEP_ROWS = (f"ValueError: summing {primes.MAX_ELL} residues at 155608 primes fills "
              f"{155608 * primes.MAX_ELL} rows, more than {class_numbers.MAX_SWEEP_ROWS}")
DECAY_HEIGHT = f"ValueError: height bound X must be <= {sieve_stats.MAX_DECAY_HEIGHT}, got"
UNSIEVABLE = "ValueError: testing ({}, {}) for minimality needs the primes up to"
CURVE = ("--A", "-1", "--B", "-1")
STABILITY = ("--X", "1", "--ell", "5", "--prime-bound", "100")
SIEVE = ("--X-list", "8", "--t1", "1", "--t2", "2", "--d", "1", "--samples", "100", "--seed", "1")


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("decay", *CURVE, "--X-list", "2", "--ell", "4", "--prime-bound", "60"),
                     f"{BAD_ELL} 4", id="decay-ell-4"),
        pytest.param(("decay", *CURVE, "--X-list", "2", "--ell", "0", "--prime-bound", "60"),
                     f"{BAD_ELL} 0", id="decay-ell-0"),
        pytest.param(("sieve", *SIEVE, "--ell", "0"), f"{BAD_ELL} 0", id="sieve-ell-0"),
        pytest.param(("sieve", *SIEVE, "--ell", "4"), f"{BAD_ELL} 4", id="sieve-ell-4"),
        pytest.param(("sieve", "--X-list", "24", "--ell", "5", "--t1", "1", "--t2", "2", "--d", "1",
                      "--samples", "99999999999999", "--seed", "1"),
                     "ValueError: sample_size must be in [1, 10000000], got 99999999999999",
                     id="sieve-samples-99999999999999"),
        pytest.param(("stability", "--X", "1", "--ell", "13", "--prime-bound", "100", "--degree", "2",
                      "--closure-degree", "0"),
                     "ValueError: galois closure degree must be >= n = 2, got 0",
                     id="stability-closure-degree-0"),
        pytest.param(("stability", "--X", "1", "--ell", "13", "--prime-bound", "100", "--degree", "2",
                      "--closure-degree", "-2"),
                     "ValueError: galois closure degree must be >= n = 2, got -2",
                     id="stability-closure-degree--2"),
        pytest.param(("stability", *STABILITY, "--degree", "6", "--closure-degree", "42"),
                     "ValueError: galois closure degree must divide 6!, got 42",
                     id="stability-degree-6-closure-degree-42"),
        pytest.param(("stability", *STABILITY, "--degree", "4", "--closure-degree", "48"),
                     "ValueError: galois closure degree must divide 4!, got 48",
                     id="stability-degree-4-closure-degree-48"),
        pytest.param(("stability", *STABILITY, "--degree", "6", "--closure-degree", "1440"),
                     "ValueError: galois closure degree must divide 6!, got 1440",
                     id="stability-degree-6-closure-degree-1440"),
        pytest.param(("stability", *STABILITY, "--degree", "6", "--closure-degree", str(6 * 10**39)),
                     f"ValueError: galois closure degree must divide 6!, got {6 * 10**39}",
                     id="stability-degree-6-closure-degree-40-digits"),
        pytest.param(("stability", *STABILITY, "--degree", str(10**40), "--closure-degree", str(10**40)),
                     f"ValueError: field degree must be <= 10000 with a galois closure degree, got {10**40}",
                     id="stability-degree-10^40-closure-degree-10^40"),
        pytest.param(("image", "--A", "0", "--B", "1", "--ell", "5", "--prime-bound", "2097152"),
                     f"{BOUND_RANGE} 2097152", id="image-curve-bound-2097152"),
        pytest.param(("image", "--A", "0", "--B", "1", "--ell", "5", "--prime-bound", "3000000"),
                     f"{BOUND_RANGE} 3000000", id="image-curve-bound-3000000"),
        pytest.param(("image", "--X", "2", "--ell", "5", "--prime-bound", "2097152"),
                     f"{BOUND_RANGE} 2097152", id="image-box-bound-2097152"),
        pytest.param(("decay", *CURVE, "--X-list", "2", "--ell", "5", "--prime-bound", "2097152"),
                     f"{BOUND_RANGE} 2097152", id="decay-bound-2097152"),
        pytest.param(("decay", *CURVE, "--X-list", "2", "--ell", "5", "--prime-bound", "49"),
                     "ValueError: prime bound must be >= 50", id="decay-bound-49"),
        pytest.param(("census", "--prime-bound", "2097152"), f"{BOUND_RANGE} 2097152",
                     id="census-bound-2097152"),
        pytest.param(("census", "--prime-bound", "4"), f"{BOUND_RANGE} 4", id="census-bound-4"),
        pytest.param(("trace", "--X", "1", "--ell", "5", "--prime-bound", "4"),
                     f"{BOUND_RANGE} 4", id="trace-bound-4"),
        pytest.param(("stability", "--X", "1", "--ell", "5", "--prime-bound", "2097152",
                      "--degree", "2"), f"{BOUND_RANGE} 2097152", id="stability-bound-2097152"),
        pytest.param(("delta", "--ell", "4"), f"{BAD_ELL} 4", id="delta-ell-4"),
        pytest.param(("delta", "--ell", "0"), f"{BAD_ELL} 0", id="delta-ell-0"),
        pytest.param(("delta", "--ell", "17"),
                     "BudgetExceeded: exhaustive GL2 enumeration limited to ell <= 13",
                     id="delta-ell-17"),
        pytest.param(("countcheck", "--X-list", "1,0"), BAD_HEIGHT, id="countcheck-X-1,0"),
        pytest.param(("enumerate", "--X", "0"), BAD_HEIGHT, id="enumerate-csv-X-0"),
        pytest.param(("enumerate", "--X", "0", "--format", "json"), BAD_HEIGHT,
                     id="enumerate-json-X-0"),
        pytest.param(("enumerate", "--X", "40"), BIG_BOX, id="enumerate-csv-X-40"),
        pytest.param(("enumerate", "--X", "40", "--format", "json"), BIG_BOX,
                     id="enumerate-json-X-40"),
        pytest.param(("enumerate", "--X", "100000"), HUGE_BOX, id="enumerate-csv-X-100000"),
        pytest.param(("enumerate", "--X", "100000", "--format", "json"), HUGE_BOX,
                     id="enumerate-json-X-100000"),
        pytest.param(("image", "--X", "40", "--ell", "5", "--prime-bound", "100"), BIG_BOX,
                     id="image-X-40"),
        pytest.param(("trace", "--X", "40", "--ell", "5", "--prime-bound", "100"), BIG_BOX,
                     id="trace-X-40"),
        pytest.param(("decay", *CURVE, "--X-list", "5,818", "--ell", "5", "--prime-bound", "100"),
                     f"{DECAY_HEIGHT} 818", id="decay-X-818"),
        pytest.param(("decay", *CURVE, "--X-list", f"5,{sieve_stats.MAX_DECAY_HEIGHT + 1}", "--ell", "5",
                      "--prime-bound", "100"), f"{DECAY_HEIGHT} {sieve_stats.MAX_DECAY_HEIGHT + 1}",
                     id="decay-X-past-the-time-budget"),
        pytest.param(("image", "--A", "0", "--B", str(10**40), "--ell", "5", "--prime-bound", "100"),
                     f"{UNSIEVABLE.format(0, 10**40)} 4641588, more than {traces.MAX_TRACE_PRIME}",
                     id="image-curve-B-10^40"),
        pytest.param(("image", "--A", str(10**40), "--B", "0", "--ell", "5", "--prime-bound", "100"),
                     f"{UNSIEVABLE.format(10**40, 0)} {10**10}, more than {traces.MAX_TRACE_PRIME}",
                     id="image-curve-A-10^40"),
        pytest.param(("decay", "--A", "0", "--B", str(10**40), "--X-list", "5", "--ell", "5",
                      "--prime-bound", "100"),
                     f"{UNSIEVABLE.format(0, 10**40)} 4641588, more than {traces.MAX_TRACE_PRIME}",
                     id="decay-curve-B-10^40"),
        pytest.param(("decay", *CURVE, "--X-list", "20,0", "--ell", "5", "--prime-bound", "100"),
                     BAD_HEIGHT, id="decay-X-20,0"),
        pytest.param(("trace", "--X", "10", "--ell", "5", "--prime-bound", "1000"), TRACE_CELLS,
                     id="trace-X-10-bound-1000"),
        pytest.param(("stability", "--X", "12", "--ell", "13", "--prime-bound", "1000",
                      "--degree", "2"),
                     "ValueError: the height-12 box has 998004 curves, more than the 100000"
                     " checked one by one", id="stability-X-12"),
        pytest.param(("sieve", "--X-list", "100000", "--ell", "5", "--t1", "1", "--t2", "2",
                      "--d", "1", "--samples", "10", "--seed", "1"),
                     "ValueError: the height-100000 box is too large to index in int64",
                     id="sieve-X-100000"),
        pytest.param(("countcheck", "--X-list", "10," + str(10**15)),
                     f"ValueError: height bound X must be <= {10**12}, got {10**15}",
                     id="countcheck-X-10^15"),
        pytest.param(("countcheck", "--X-list", str(10**18)),
                     f"ValueError: height bound X must be <= {10**12}, got {10**18}",
                     id="countcheck-X-10^18"),
        pytest.param(("image", "--A", "1", "--B", "1", "--ell", "1000000007", "--prime-bound", "10"),
                     f"{BIG_ELL} 1000000007", id="image-curve-ell-1000000007"),
        pytest.param(("image", "--X", "2", "--ell", "1000000007", "--prime-bound", "100"),
                     f"{BIG_ELL} 1000000007", id="image-box-ell-1000000007"),
        pytest.param(("sieve", *SIEVE, "--ell", "1000000007"), f"{BIG_ELL} 1000000007",
                     id="sieve-ell-1000000007"),
        pytest.param(("delta", "--ell", "1000000007"), f"{BIG_ELL} 1000000007",
                     id="delta-ell-1000000007"),
        pytest.param(("decay", *CURVE, "--X-list", "2", "--ell", "1000000007", "--prime-bound", "60"),
                     f"{BIG_ELL} 1000000007", id="decay-ell-1000000007"),
        pytest.param(("hurwitz", "--ell", "2097143", "--prime-bound", "10"), f"{BIG_ELL} 2097143",
                     id="hurwitz-ell-2097143"),
        pytest.param(("hurwitz", "--ell", str(primes.MAX_ELL), "--prime-bound", str(traces.MAX_TRACE_PRIME)),
                     SWEEP_ROWS, id="hurwitz-ell-18917-bound-2097151"),
    ],
)
def test_bad_input_exits_2_with_one_line_and_no_output(capsys, argv, message):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert out == ""
    assert err == message + "\n"


def test_trace_refuses_more_cells_than_its_limit_before_the_box(capsys, monkeypatch):
    # 401,782 curves at 165 primes would need about 4 GB
    calls = []
    monkeypatch.setattr(traces, "curve_traces", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "curve_box", lambda *args: calls.append(args))
    code, out, err = run(capsys, "trace", "--X", "10", "--ell", "5", "--prime-bound", "1000")
    assert code == 2
    assert out == ""
    assert err == TRACE_CELLS + "\n"
    assert calls == []


def test_decay_refuses_a_height_past_int64_before_any_trace(capsys, monkeypatch):
    # from X = 818 on, 4A^3 + 27B^2 can pass 2^63 inside the box; the time budget
    # MAX_DECAY_HEIGHT refuses such X, and many below them, before any trace
    calls = []
    monkeypatch.setattr(sieve_stats, "curve_traces", lambda *args: calls.append(args))
    monkeypatch.setattr(sieve_stats, "frobenius_trace", lambda *args: calls.append(args))
    code, out, err = run(capsys, "decay", *CURVE, "--X-list", "5,818", "--ell", "5",
                         "--prime-bound", "100")
    assert code == 2
    assert out == ""
    assert err == f"{DECAY_HEIGHT} 818\n"
    assert calls == []


def test_decay_checks_every_height_before_any_count(capsys, monkeypatch):
    # X = 20's ratio was once computed before X = 0 was refused
    calls = []
    monkeypatch.setattr(sieve_stats, "count_curves", lambda *args: calls.append(args))
    code, out, err = run(capsys, "decay", *CURVE, "--X-list", "20,0", "--ell", "5",
                         "--prime-bound", "100")
    assert (code, out, err) == (2, "", BAD_HEIGHT + "\n")
    assert calls == []


def test_decay_with_no_heights_prints_only_the_header(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(sieve_stats, "row_curves", lambda *args: calls.append(args))
    code, out, err = run(capsys, "decay", *CURVE, "--X-list", "", "--ell", "5", "--prime-bound", "100")
    assert (code, out, err) == (0, "X,matched_ratio\n", "")
    assert calls == []


@pytest.mark.parametrize("ell, bound, message", [
    ("17", "1000", "ValueError: ell must be one of (5, 7, 11, 13)"),
    ("5", "3", f"{BOUND_RANGE} 3"),
])
def test_stability_refuses_a_bad_ell_or_bound_before_the_box(capsys, monkeypatch, ell, bound, message):
    # the X = 7 box (67,930 curves) was once built before the refusal
    calls = []
    monkeypatch.setattr(cli, "enumerate_curves", lambda *args: calls.append(args))
    code, out, err = run(capsys, "stability", "--X", "7", "--ell", ell, "--prime-bound", bound,
                         "--degree", "2")
    assert (code, out, err) == (2, "", message + "\n")
    assert calls == []


def test_countcheck_refuses_a_height_past_its_limit_before_any_count(capsys, monkeypatch):
    # counting X = 10^12 first took about 1 s before the refusal
    calls = []
    monkeypatch.setattr(sieve_stats, "count_curves", lambda *args: calls.append(args))
    code, out, err = run(capsys, "countcheck", "--X-list", f"10,{10**12 + 1}")
    assert code == 2
    assert out == ""
    assert err == f"ValueError: height bound X must be <= {10**12}, got {10**12 + 1}\n"
    assert calls == []


def test_sieve_refuses_a_height_past_the_unrank_limit_before_any_count(capsys, monkeypatch):
    # the unrank tables at X = 2000 took the sieve to 188 MB
    calls = []
    monkeypatch.setattr(sieve_stats, "count_curves", lambda *args: calls.append(args))
    monkeypatch.setattr(sieve_stats, "unranker", lambda *args: calls.append(args))
    monkeypatch.setattr(sieve_stats, "curve_box", lambda *args: calls.append(args))
    code, out, err = run(capsys, "sieve", "--X-list", "20,2000", "--ell", "5", "--t1", "1",
                         "--t2", "2", "--d", "1", "--samples", "10", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "ValueError: height bound X must be <= 1000 to unrank, got 2000\n"
    assert calls == []


def test_coefficients_too_large_to_sieve_exit_2_in_1_gb_of_address_space(tmp_path):
    # is_minimal once sieved up to |A|^(1/4), or |B|^(1/4) when A = 0: 10^10 for each
    # of these, which ended in a MemoryError traceback under a 2 GB limit.  Now
    # (10^41 + 1, 1) needs no sieve (p^6 | 1 for no p) and (0, 10^40) is refused
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    accepted, refused = tmp_path / "accepted.csv", tmp_path / "refused.csv"
    accepted.write_text(f"A,B,rank\n{10**41 + 1},1,1\n")
    refused.write_text(f"A,B,rank\n-1,-1,1\n0,{10**40},1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ellstab.__file__).parents[1]))
    big = ("--A", "0", "--B", str(10**40))
    message = f"{UNSIEVABLE.format(0, 10**40)} 4641588, more than {traces.MAX_TRACE_PRIME}\n"
    for argv, code in [
        (("image", *big, "--ell", "5", "--prime-bound", "100"), 2),
        (("decay", *big, "--X-list", "5", "--ell", "5", "--prime-bound", "100"), 2),
        (("stability", *STABILITY, "--degree", "2", "--ranks", str(refused)), 2),
        (("stability", *STABILITY, "--degree", "2", "--ranks", str(accepted)), 0),
    ]:
        proc = subprocess.run([sys.executable, "-m", "ellstab.cli", *argv], capture_output=True,
                              text=True, env=env, preexec_fn=limit, timeout=60)
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert (proc.stdout, proc.stderr) == ("", message)
        else:
            assert "Traceback" not in proc.stderr


def test_census_at_bound_2500_runs_in_1_gb_of_address_space():
    # the census counts three O(p) rows a prime; p x p tables kept between
    # primes once ran out of memory here
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(ellstab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ellstab.cli", "census", "--prime-bound", "2500"],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "p,a,census,deuring,match"
    assert {int(row.split(",")[0]) for row in rows} == set(primes_up_to(2500)[2:])
    assert all(row.endswith(",1") for row in rows)
