"""Deterministic row hashing for sketch keys and the per-row invariant.

The reference's contract is "bring your own strong hash": ``add_raw`` takes a
caller-hashed signed 64-bit value (reference: python_hll/hll.py:226-230,
README.rst:38-46; mmh3 is suggested but unavailable offline and the golden
vectors feed ``add_raw`` directly, so hash choice does not affect conformance).

Two hash families:

* :func:`sha256_hex` / :func:`sha256_raw64` — the BASELINE per-row invariant
  (``sha256(content)`` equality vs the reference) and the raw value used for
  content sketches: first 8 digest bytes, big-endian, as signed int64.
  Both derive from :func:`sha256_digests`, which hashes each row straight
  from the Arrow offsets and data buffers.  That is the engine's one per-row
  loop, used only where the invariant demands sha256.  It holds the GIL:
  CPython's hashlib releases it only for inputs of at least 2,048 bytes
  (``HASHLIB_GIL_MINSIZE``), far above a typical source file row.
* :func:`hash64_table` — the fast path for every other key: polars' vectorized
  64-bit xxhash over one column or a struct of columns (~60M rows/s/core),
  deterministic for a fixed seed; :func:`hash64_keys` hashes several keys
  of one batch from one frame.
* :func:`splitmix64` — numpy-vectorized integer mixer (Steele et al. 2014,
  public domain constants) for derived hash streams (MinHash permutations,
  count-min rows, Bloom probes).
"""

from __future__ import annotations

import binascii
import hashlib

import numpy as np
import polars as pl
import pyarrow as pa

DEFAULT_SEED = 0x9E3779B9


#: Arrow types whose rows :func:`sha256_digests` hashes from the buffers,
#: with the numpy dtype of their offsets
_OFFSET_DTYPES = {
    pa.string(): np.int32,
    pa.binary(): np.int32,
    pa.large_string(): np.int64,
    pa.large_binary(): np.int64,
}


def _utf8(v) -> bytes:
    if v is None:
        return b""
    return v.encode("utf-8", "surrogatepass") if isinstance(v, str) else v


def _buffer_digests(values: pa.Array) -> bytes:
    """sha256 of each row of a string/binary array, read from its buffers."""
    n = len(values)
    if n == 0:
        return b""
    _, offsets_buf, data_buf = values.buffers()
    offsets = np.frombuffer(offsets_buf, dtype=_OFFSET_DTYPES[values.type])
    offsets = offsets[values.offset : values.offset + n + 1]
    lo = offsets[:-1]
    hi = offsets[1:]
    if values.null_count:
        # a null slot may still span bytes; hash it as empty
        hi = np.where(np.asarray(values.is_valid()), hi, lo)
    data = memoryview(data_buf if data_buf is not None else b"")
    sha256 = hashlib.sha256
    return b"".join([sha256(data[a:b]).digest() for a, b in zip(lo.tolist(), hi.tolist())])


def sha256_digests(values: pa.Array | pa.ChunkedArray | list[str]) -> bytes:
    """sha256 of every row, concatenated: ``32 * len(values)`` bytes.

    A null row hashes as the empty string.  String and binary columns (and
    their ``large_`` variants) are hashed straight from the Arrow offsets
    and data buffers, with no per-row Python ``str``; a dictionary column
    is decoded first.  Other Arrow types and Python lists hash ``str`` rows
    as UTF-8 and ``bytes`` rows as they are."""
    if isinstance(values, pa.ChunkedArray):
        return b"".join([sha256_digests(c) for c in values.chunks])
    if isinstance(values, pa.Array):
        if pa.types.is_dictionary(values.type):
            values = values.cast(values.type.value_type)
        if values.type in _OFFSET_DTYPES:
            return _buffer_digests(values)
        values = values.to_pylist()
    return b"".join([hashlib.sha256(_utf8(v)).digest() for v in values])


def digests_raw64(digests: bytes) -> np.ndarray:
    """Signed int64 per 32-byte digest: its first 8 bytes, big-endian."""
    return np.frombuffer(digests, dtype=">i8")[::4].astype(np.int64)


def digests_hex(digests: bytes) -> pa.Array:
    """Arrow string column of the lowercase hex of each 32-byte digest,
    built from one ``hexlify`` with no per-row Python ``str``."""
    n = len(digests) // 32
    offsets = np.arange(0, 64 * (n + 1), 64, dtype=np.int64)
    hexes = pa.LargeStringArray.from_buffers(
        n, pa.py_buffer(offsets), pa.py_buffer(binascii.hexlify(digests))
    )
    return hexes.cast(pa.string())


def sha256_hex(values: pa.Array | pa.ChunkedArray | list[str]) -> list[str]:
    """Hex sha256 digest per row (the BASELINE.json per-row invariant);
    None for a null row."""
    hexes = digests_hex(sha256_digests(values)).to_pylist()
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        if not values.null_count:
            return hexes
        valid = np.asarray(values.is_valid()).tolist()
    else:
        valid = [v is not None for v in values]
    return [h if ok else None for h, ok in zip(hexes, valid)]


def sha256_raw64(values: pa.Array | pa.ChunkedArray | list[str]) -> np.ndarray:
    """Signed int64 raw values for HLL adds: first 8 bytes of sha256(value),
    big-endian.  Nulls hash as the empty string."""
    return digests_raw64(sha256_digests(values))


def hash64_table(
    table: pa.Table | pa.RecordBatch, cols: list[str], seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Vectorized signed-int64 hash of one or more columns of an Arrow batch.

    Multi-column keys hash the column struct, so ``("repo", "commit")`` is a
    composite key with no separator-collision hazard.
    """
    return hash64_keys(table, [(cols, seed)])[0]


def hash64_keys(
    table: pa.Table | pa.RecordBatch, keys: list[tuple[list[str], int]]
) -> list[np.ndarray]:
    """:func:`hash64_table` of several ``(cols, seed)`` keys of one batch,
    from one polars frame: the batch converts once and one ``select``
    evaluates every key's hash expression."""
    if isinstance(table, pa.RecordBatch):
        table = pa.Table.from_batches([table])
    cols = list(dict.fromkeys(c for key, _ in keys for c in key))
    exprs = [
        (pl.col(key[0]) if len(key) == 1 else pl.struct(key)).hash(seed=seed).alias(f"h{i}")
        for i, (key, seed) in enumerate(keys)
    ]
    out = pl.from_arrow(table.select(cols)).select(exprs)
    return [out[f"h{i}"].to_numpy().view(np.int64) for i in range(len(keys))]


_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (vectorized)."""
    z = x.astype(np.uint64, copy=True)
    z += _SM_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM_M1
    z = (z ^ (z >> np.uint64(27))) * _SM_M2
    return z ^ (z >> np.uint64(31))
