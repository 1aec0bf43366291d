"""Disk cache for computed Frobenius traces.

A cache is one numpy array of RECORD (A: i64, B: i64, p: u32, a_p: i32,
little-endian), the dtype traces.trace_table returns, in strictly increasing
(A, B, p) order.  Single-file binary format: magic, version byte, a
little-endian u32 length prefix plus JSON metadata, a u64 record count, the
record array's bytes, and an 8-byte blake2b checksum of that block.  load
rejects a file that is cut short or padded, whose metadata is not an object
of int-or-null bounds, that fails its checksum, or that holds a record
outside the Hasse bound or out of key order.  Files are immutable; merging is
a pure function over loaded caches.
"""

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConflictingEntry, CorruptFile

MAGIC = b"ETRC"
VERSION = 1

#: one trace record, as stored on disk and as returned by traces.trace_table
RECORD = np.dtype([("A", "<i8"), ("B", "<i8"), ("p", "<u4"), ("a_p", "<i4")])

#: records per write of write_csv: a chunk's object cells, their list and the
#: joined text stay under 1 MB, so writing adds nothing to trace's peak
#: (1 << 15 added 3 MB at X = 3)
_CSV_CHUNK = 1 << 13


def _checksum(block: bytes | memoryview) -> bytes:
    return hashlib.blake2b(block, digest_size=8).digest()


def _combine_bound(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)


def _key_order(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per neighbouring pair of records: does the (A, B, p) key go up, and does it repeat."""
    lo, hi = records[:-1], records[1:]
    up, tie = np.zeros(len(lo), dtype=bool), np.ones(len(lo), dtype=bool)
    for name in ("A", "B", "p"):
        up |= tie & (lo[name] < hi[name])
        tie &= lo[name] == hi[name]
    return up, tie


@dataclass(frozen=True, eq=False)
class TraceCache:
    """RECORDs in strictly increasing (A, B, p) order, each within the Hasse bound."""

    records: np.ndarray = field(default_factory=lambda: np.empty(0, RECORD))
    height_bound: int | None = None
    prime_bound: int | None = None

    def __post_init__(self):
        r = self.records
        if r.dtype != RECORD or r.ndim != 1:
            raise TypeError(f"records must be a 1-D array of {RECORD}")
        a = r["a_p"].astype(np.int64)
        bad = np.flatnonzero(a * a > 4 * r["p"].astype(np.int64))
        if bad.size:
            raise ValueError(f"Hasse violation in record {bad[0]}")
        bad = np.flatnonzero(~_key_order(r)[0])
        if bad.size:
            raise ValueError(f"record {bad[0] + 1} is out of (A, B, p) order")

    @property
    def entries(self) -> dict[tuple[int, int, int], int]:
        """{(A, B, p): a_p}, built on each read; perfbench's store oracle compares these."""
        r = self.records
        keys = zip(r["A"].tolist(), r["B"].tolist(), r["p"].tolist())
        return dict(zip(keys, r["a_p"].tolist()))


def write_csv(records: np.ndarray, fh) -> None:
    """Write RECORDs to the text file fh as `A,B,p,a_p` CSV rows under a header.

    Per chunk and column, only the distinct values are formatted (with the
    separator that follows them); one gather spreads them over the rows, and
    the chunk is written as one join of its cells in row-major order.
    """
    fh.write("A,B,p,a_p\n")
    for i in range(0, len(records), _CSV_CHUNK):
        chunk = records[i : i + _CSV_CHUNK]
        cells = np.empty((len(chunk), len(RECORD.names)), dtype=object)
        for j, (name, sep) in enumerate(zip(RECORD.names, ",,,\n")):
            values, index = np.unique(chunk[name], return_inverse=True)
            cells[:, j] = np.array([f"{v}{sep}" for v in values.tolist()], dtype=object)[index]
        fh.write("".join(cells.ravel().tolist()))


def save(cache: TraceCache, path: str | Path) -> None:
    meta = json.dumps(
        {"height_bound": cache.height_bound, "prime_bound": cache.prime_bound},
        sort_keys=True,
    ).encode()
    records = cache.records.tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<Q", len(cache.records)))
        fh.write(records)
        fh.write(_checksum(records))


def _bounds(meta) -> tuple[int | None, int | None]:
    """height_bound and prime_bound of a metadata object, each an int or None."""
    if not isinstance(meta, dict):
        raise ValueError("metadata is not a JSON object")
    bounds = meta.get("height_bound"), meta.get("prime_bound")
    if any(b is not None and type(b) is not int for b in bounds):
        raise ValueError(f"bounds {bounds} are not ints or null")
    return bounds


def load(path: str | Path) -> TraceCache:
    data = memoryview(Path(path).read_bytes())
    if data[:4] != MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    try:
        version, meta_len = struct.unpack_from("<BI", data, 4)
        off = 9 + meta_len
        (count,) = struct.unpack_from("<Q", data, off)
    except struct.error as exc:
        raise CorruptFile(f"{path}: truncated header") from exc
    if version != VERSION:
        raise CorruptFile(f"{path}: unsupported version {version}")
    try:
        height_bound, prime_bound = _bounds(json.loads(bytes(data[9:off])))
    except (ValueError, RecursionError) as exc:  # json raises RecursionError on deep nesting
        raise CorruptFile(f"{path}: bad metadata: {exc}") from exc
    off += 8
    block_len = count * RECORD.itemsize
    if len(data) != off + block_len + 8:
        raise CorruptFile(f"{path}: truncated or padded record block")
    block = data[off : off + block_len]
    if _checksum(block) != data[off + block_len :]:
        raise CorruptFile(f"{path}: checksum mismatch")
    try:
        return TraceCache(np.frombuffer(block, dtype=RECORD), height_bound, prime_bound)
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from exc


def merge(c1: TraceCache, c2: TraceCache) -> TraceCache:
    """Union of two caches; any key disagreement is an upstream bug."""
    records = np.unique(np.concatenate([c1.records, c2.records]))  # sorted, exact repeats dropped
    clash = np.flatnonzero(_key_order(records)[1])
    if clash.size:
        A, B, p, old = records[clash[0]].tolist()
        raise ConflictingEntry(f"{(A, B, p)}: {old} != {records['a_p'][clash[0] + 1]}")
    return TraceCache(
        records,
        _combine_bound(c1.height_bound, c2.height_bound),
        _combine_bound(c1.prime_bound, c2.prime_bound),
    )


def export_csv(cache: TraceCache, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        write_csv(cache.records, fh)
