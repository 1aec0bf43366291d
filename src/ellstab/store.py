"""Disk cache for computed Frobenius traces.

Single-file binary format: magic, version byte, a little-endian u32 length
prefix plus JSON metadata, a u64 record count, sorted fixed-width RECORDs
(A: i64, B: i64, p: u32, a_p: i32, little-endian), and an 8-byte blake2b
checksum of the record block.  The record block is read and written as one
numpy array of RECORD, the dtype traces.trace_table returns.  Files are
immutable; merging is a pure function over loaded caches.
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

#: records per write of write_csv
_CSV_CHUNK = 1 << 15


def _checksum(block: bytes) -> bytes:
    return hashlib.blake2b(block, digest_size=8).digest()


def _combine_bound(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)


def _hasse_violation(records: np.ndarray) -> int | None:
    """Index of the first record with a_p^2 > 4p, or None."""
    a = records["a_p"].astype(np.int64)
    bad = np.flatnonzero(a * a > 4 * records["p"].astype(np.int64))
    return int(bad[0]) if bad.size else None


def _entries(records: np.ndarray) -> dict[tuple[int, int, int], int]:
    keys = zip(records["A"].tolist(), records["B"].tolist(), records["p"].tolist())
    return dict(zip(keys, records["a_p"].tolist()))


@dataclass
class TraceCache:
    entries: dict[tuple[int, int, int], int] = field(default_factory=dict)
    height_bound: int | None = None
    prime_bound: int | None = None

    @classmethod
    def from_records(
        cls, records: np.ndarray, height_bound: int | None = None, prime_bound: int | None = None
    ) -> "TraceCache":
        """A cache of RECORDs with distinct (A, B, p), each checked as put checks it."""
        i = _hasse_violation(records)
        if i is not None:
            raise ValueError(
                f"a_p={records['a_p'][i]} violates the Hasse bound at p={records['p'][i]}"
            )
        entries = _entries(records)
        if len(entries) != len(records):
            raise ValueError("records repeat an (A, B, p) key")
        return cls(entries, height_bound, prime_bound)

    def put(self, A: int, B: int, p: int, a_p: int) -> None:
        if a_p * a_p > 4 * p:
            raise ValueError(f"a_p={a_p} violates the Hasse bound at p={p}")
        key = (A, B, p)
        old = self.entries.get(key)
        if old is not None and old != a_p:
            raise ConflictingEntry(f"{key}: {old} != {a_p}")
        self.entries[key] = a_p

    def get(self, A: int, B: int, p: int) -> int | None:
        return self.entries.get((A, B, p))

    def records(self) -> np.ndarray:
        """The entries as RECORDs in (A, B, p) order; a value outside its field raises."""
        e = self.entries
        rows = ((A, B, p, e[A, B, p]) for A, B, p in sorted(e))  # sorts keys, not items
        return np.fromiter(rows, dtype=RECORD, count=len(e))


def write_csv(records: np.ndarray, fh) -> None:
    """Write RECORDs to the text file fh as `A,B,p,a_p` CSV rows under a header."""
    fh.write("A,B,p,a_p\n")
    for i in range(0, len(records), _CSV_CHUNK):
        chunk = records[i : i + _CSV_CHUNK]
        cols = (chunk[name].tolist() for name in RECORD.names)
        fh.write("".join(f"{A},{B},{p},{a}\n" for A, B, p, a in zip(*cols)))


def save(cache: TraceCache, path: str | Path) -> None:
    meta = json.dumps(
        {"height_bound": cache.height_bound, "prime_bound": cache.prime_bound},
        sort_keys=True,
    ).encode()
    records = cache.records().tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<Q", len(cache.entries)))
        fh.write(records)
        fh.write(_checksum(records))


def load(path: str | Path) -> TraceCache:
    data = Path(path).read_bytes()
    if len(data) < 4 + 1 + 4 or data[:4] != MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    if data[4] != VERSION:
        raise CorruptFile(f"{path}: unsupported version {data[4]}")
    off = 5
    (meta_len,) = struct.unpack_from("<I", data, off)
    off += 4
    try:
        meta = json.loads(data[off : off + meta_len])
    except ValueError as exc:
        raise CorruptFile(f"{path}: bad metadata") from exc
    off += meta_len
    (count,) = struct.unpack_from("<Q", data, off)
    off += 8
    block_len = count * RECORD.itemsize
    if len(data) != off + block_len + 8:
        raise CorruptFile(f"{path}: truncated or padded record block")
    block = data[off : off + block_len]
    if _checksum(block) != data[off + block_len :]:
        raise CorruptFile(f"{path}: checksum mismatch")
    records = np.frombuffer(block, dtype=RECORD)
    i = _hasse_violation(records)
    if i is not None:
        raise CorruptFile(f"{path}: Hasse violation in record {i}")
    return TraceCache(
        _entries(records), height_bound=meta.get("height_bound"), prime_bound=meta.get("prime_bound")
    )


def merge(c1: TraceCache, c2: TraceCache) -> TraceCache:
    """Union of two caches; any key disagreement is an upstream bug."""
    out = TraceCache(
        entries=dict(c1.entries),
        height_bound=_combine_bound(c1.height_bound, c2.height_bound),
        prime_bound=_combine_bound(c1.prime_bound, c2.prime_bound),
    )
    for key, a in c2.entries.items():
        old = out.entries.get(key)
        if old is not None and old != a:
            raise ConflictingEntry(f"{key}: {old} != {a}")
        out.entries[key] = a
    return out


def export_csv(cache: TraceCache, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        write_csv(cache.records(), fh)
