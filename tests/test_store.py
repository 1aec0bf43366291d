import hashlib
import io
import json
import struct
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstab import store
from ellstab.errors import ConflictingEntry, CorruptFile
from ellstab.store import RECORD, TraceCache, export_csv, load, merge, save
from record_helpers import records_of

INT64 = st.integers(-(2**63), 2**63 - 1)
BOUNDS = st.none() | st.integers(1, 10**6)


@st.composite
def entries(draw, keys=st.tuples(INT64, INT64, st.integers(0, 2**32 - 1))):
    """{(A, B, p): a_p} over the whole range of each field, with a_p^2 <= 4p."""
    out = {}
    for key in draw(st.lists(keys, max_size=30, unique=True)):
        h = isqrt(4 * key[2])
        out[key] = draw(st.integers(-h, h))
    return out


@st.composite
def agreeing_caches(draw):
    """Three caches whose entries are drawn from one {(A, B, p): a_p} map."""
    truth = draw(entries())
    keys = sorted(truth)
    return [
        TraceCache(
            records_of(
                {k: truth[k] for k in draw(st.lists(st.sampled_from(keys), unique=True))}
                if keys
                else {}
            ),
            draw(BOUNDS),
            draw(BOUNDS),
        )
        for _ in range(3)
    ]


def same(c1, c2):
    return (c1.entries, c1.height_bound, c1.prime_bound) == (
        c2.entries,
        c2.height_bound,
        c2.prime_bound,
    )


@pytest.fixture
def fixture_caches():
    c1 = TraceCache(records_of({(1, 1, 7): -4, (-1, 0, 11): 0}), height_bound=2, prime_bound=50)
    c2 = TraceCache(records_of({(2, 3, 13): 2}), height_bound=3, prime_bound=50)
    c3 = TraceCache(records_of({(0, 1, 7): -1}))
    return c1, c2, c3


def raw_file(records: np.ndarray, meta: bytes = b"{}") -> bytes:
    """A cache file written field by field, with no check on meta or records."""
    block = records.tobytes()
    head = b"ETRC" + bytes([1]) + struct.pack("<I", len(meta)) + meta
    checksum = hashlib.blake2b(block, digest_size=8).digest()
    return head + struct.pack("<Q", len(records)) + block + checksum


def test_round_trip(tmp_path, fixture_caches):
    c1, _, _ = fixture_caches
    path = tmp_path / "traces.etrc"
    save(c1, path)
    loaded = load(path)
    assert loaded.entries == c1.entries
    assert loaded.height_bound == c1.height_bound
    assert loaded.prime_bound == c1.prime_bound


def test_hasse_enforced_on_construction():
    with pytest.raises(ValueError):
        TraceCache(records_of({(1, 1, 7): 6}))


def test_merge_algebra(fixture_caches):
    c1, c2, c3 = fixture_caches
    empty = TraceCache()
    assert merge(c1, empty).entries == c1.entries
    assert merge(empty, c1).entries == c1.entries
    assert merge(c1, c2).entries == merge(c2, c1).entries
    left = merge(merge(c1, c2), c3)
    right = merge(c1, merge(c2, c3))
    assert left.entries == right.entries
    assert left.height_bound == right.height_bound
    assert left.prime_bound == right.prime_bound


def test_merge_conflict(fixture_caches):
    c1, _, _ = fixture_caches
    other = TraceCache(records_of({(1, 1, 7): 2}))
    with pytest.raises(ConflictingEntry):
        merge(c1, other)


def test_merge_idempotent_overlap(fixture_caches):
    c1, _, _ = fixture_caches
    assert merge(c1, c1).entries == c1.entries


def test_checksum_detects_corruption(tmp_path, fixture_caches):
    c1, _, _ = fixture_caches
    path = tmp_path / "traces.etrc"
    save(c1, path)
    raw = bytearray(path.read_bytes())
    raw[-12] ^= 0xFF  # flip a bit inside the record block
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFile):
        load(path)


def test_bad_magic_and_truncation(tmp_path, fixture_caches):
    c1, _, _ = fixture_caches
    path = tmp_path / "traces.etrc"
    save(c1, path)
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CorruptFile):
        load(path)
    path.write_bytes(raw[:-5])
    with pytest.raises(CorruptFile):
        load(path)


def test_csv_export(tmp_path, fixture_caches):
    c1, _, _ = fixture_caches
    path = tmp_path / "traces.csv"
    export_csv(c1, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "A,B,p,a_p"
    assert lines[1:] == ["-1,0,11,0", "1,1,7,-4"]


def test_csv_rows_cross_chunk_seams(tmp_path, monkeypatch):
    monkeypatch.setattr(store, "_CSV_CHUNK", 2)
    cache = TraceCache(records_of({(A, -A, 7): A % 5 - 2 for A in range(-3, 2)}))
    path = tmp_path / "traces.csv"
    export_csv(cache, path)
    rows = [f"{A},{B},{p},{a}" for (A, B, p), a in sorted(cache.entries.items())]
    assert path.read_text().splitlines() == ["A,B,p,a_p", *rows]


def f_string_csv(records) -> str:
    """The CSV as one f-string per record: the oracle for write_csv."""
    rows = zip(*(records[name].tolist() for name in RECORD.names))
    return "A,B,p,a_p\n" + "".join(f"{A},{B},{p},{a}\n" for A, B, p, a in rows)


def csv_case(n):
    """n records cycling through negative, zero and extreme fields."""
    big = 2**63 - 1
    A = [-big, big, -1, 0, 7, -(10**12)]
    B = [big, -big, 0, -5, 3, 10**12]
    p = [2_097_143, 5, 7, 2_097_143, 11, 997]
    a = [-2896, 0, -4, 2896, 1, -63]
    i = np.arange(n)
    out = np.empty(n, dtype=RECORD)
    for name, column, index in zip(RECORD.names, (A, B, p, a), (i, i // 2, i // 3, 5 * i)):
        out[name] = np.array(column)[index % 6]  # each column its own cycle
    return out


@pytest.mark.parametrize("n", [0, 1, 6, store._CSV_CHUNK - 1, store._CSV_CHUNK, store._CSV_CHUNK + 1])
def test_write_csv_equals_the_f_string_rows(n):
    records = csv_case(n)
    out = io.StringIO()
    store.write_csv(records, out)
    assert out.getvalue() == f_string_csv(records)


@settings(deadline=None, max_examples=50)
@given(entries(), BOUNDS, BOUNDS)
def test_round_trip_property(tmp_path_factory, e, height_bound, prime_bound):
    path = tmp_path_factory.mktemp("rt") / "traces.etrc"
    cache = TraceCache(records_of(e), height_bound, prime_bound)
    save(cache, path)
    loaded = load(path)
    assert same(loaded, cache)
    assert list(loaded.entries) == sorted(cache.entries)
    raw = path.read_bytes()
    save(loaded, path)
    assert path.read_bytes() == raw


@settings(deadline=None, max_examples=50)
@given(agreeing_caches())
def test_merge_laws_property(caches):
    a, b, c = caches
    assert same(merge(a, b), merge(b, a))
    assert same(merge(merge(a, b), c), merge(a, merge(b, c)))
    assert same(merge(a, a), a)


@settings(deadline=None, max_examples=50)
@given(entries().filter(bool), st.data())
def test_merge_raises_on_any_disagreement(e, data):
    key = data.draw(st.sampled_from(sorted(e)))
    h = isqrt(4 * key[2])
    other = data.draw(st.integers(-h, h).filter(lambda a: a != e[key]))
    c1, c2 = TraceCache(records_of(e)), TraceCache(records_of({key: other}))
    for args in ((c1, c2), (c2, c1)):
        with pytest.raises(ConflictingEntry):
            merge(*args)


@pytest.mark.parametrize(
    "key, a_p",
    [
        ((2**63, 0, 7), 0),
        ((0, -(2**63) - 1, 7), 0),
        ((0, 0, -1), 0),
        ((0, 0, 2**32), 0),
        ((0, 0, 7), 2**31),
        ((0, 0, 7), -(2**31) - 1),
    ],
)
def test_save_rejects_values_outside_their_fields(key, a_p):
    # a cache holds RECORDs, so such a value stops before any cache or file exists
    with pytest.raises(OverflowError):
        records_of({(1, 1, 7): -4, key: a_p})


def test_load_names_the_first_record_outside_the_hasse_bound(tmp_path):
    path = tmp_path / "traces.etrc"
    records = records_of({(1, 1, 7): -4, (2, 0, 7): 6, (2, 1, 7): 9, (3, 0, 7): 0})
    path.write_bytes(raw_file(records))
    with pytest.raises(CorruptFile, match="Hasse violation in record 1$"):
        load(path)


def test_construction_checks_hasse_and_key_order():
    records = np.array([(1, 1, 7, -4), (2, 3, 13, 2)], dtype=RECORD)
    cache = TraceCache(records, 2, 50)
    assert same(cache, TraceCache(records_of({(1, 1, 7): -4, (2, 3, 13): 2}), 2, 50))
    records["a_p"][1] = 8
    with pytest.raises(ValueError, match="Hasse violation in record 1$"):
        TraceCache(records)
    with pytest.raises(ValueError, match="record 1 is out of"):
        TraceCache(np.array([(1, 1, 7, -4)] * 2, dtype=RECORD))
    with pytest.raises(ValueError, match="record 1 is out of"):
        TraceCache(np.array([(1, 1, 11, 0), (1, 1, 7, -4)], dtype=RECORD))
    with pytest.raises(TypeError):
        TraceCache(records.astype([("A", "<i8"), ("B", "<i8"), ("p", "<i8"), ("a_p", "<i8")]))


def test_every_proper_prefix_is_corrupt(tmp_path, fixture_caches):
    c1, _, _ = fixture_caches
    path = tmp_path / "traces.etrc"
    save(c1, path)
    raw = path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(CorruptFile):
            load(path)


@pytest.mark.parametrize(
    "meta",
    [
        b"[1]",
        b"null",
        b'"bounds"',
        b'{"height_bound": 1.5, "prime_bound": null}',
        b'{"height_bound": 2, "prime_bound": "50"}',
        b'{"height_bound": true, "prime_bound": 50}',
        b'{"height_bound": [2], "prime_bound": 50}',
        b"[" * 100_000,
    ],
)
def test_load_rejects_metadata_other_than_int_or_null_bounds(tmp_path, meta):
    path = tmp_path / "traces.etrc"
    records = records_of({(1, 1, 7): -4})
    path.write_bytes(raw_file(records, meta))
    with pytest.raises(CorruptFile, match="bad metadata"):
        load(path)
    path.write_bytes(raw_file(records, json.dumps({"height_bound": 2}).encode()))
    loaded = load(path)
    assert (loaded.height_bound, loaded.prime_bound) == (2, None)


def test_load_rejects_records_out_of_key_order(tmp_path):
    path = tmp_path / "traces.etrc"
    records = records_of({(1, 1, 7): -4, (2, 0, 7): 0, (2, 1, 7): 1})
    path.write_bytes(raw_file(records[[0, 2, 1]]))
    with pytest.raises(CorruptFile, match="record 2 is out of"):
        load(path)
    path.write_bytes(raw_file(records[[0, 1, 1, 2]]))
    with pytest.raises(CorruptFile, match="record 2 is out of"):
        load(path)
