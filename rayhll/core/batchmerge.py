"""Vectorized many-group sketch merging.

Counterpart of :mod:`rayhll.core.batchbuild` for the reduce side: merge the
partial sketches of MANY groups in one call.  Used by the bucketed grouped
aggregation (`rayhll.ray_agg`): partials are hash-bucketed so each reduce
task receives thousands of (group, sketch) rows, and per-group / per-blob
Python overhead would dominate a naive loop.

Fast path: partial sketches from the build stage are overwhelmingly EXPLICIT
(small groups).  Their value words are decoded for the WHOLE batch directly
from the Arrow binary column's offsets/values buffers (one fancy-indexing
gather — no per-blob ``bytes`` objects), then every all-EXPLICIT group is
merged by one re-run of the grouped builder: union of EXPLICIT sets == set
union of raw values (reference: python_hll/hll.py:662-665), and the
builder's sorted dedup IS that union.  Groups containing any probabilistic
sketch fall back to the faithful ``HllSketch.union`` loop.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rayhll.core.batchbuild import build_grouped_sketches
from rayhll.core.hlltype import HllType
from rayhll.core.serde import from_bytes
from rayhll.core.settings import HllSettings

_HEADER = 3


def _column_parts(col) -> tuple[np.ndarray, np.ndarray]:
    """(byte offsets int64[n+1], data uint8[]) of a binary Array/ChunkedArray."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.cast(pa.large_binary())
    all_offsets = np.frombuffer(col.buffers()[1], dtype=np.int64)
    # account for a sliced array (non-zero array offset)
    offsets = all_offsets[col.offset : col.offset + len(col) + 1]
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    return offsets, data


def blob_cardinality(blob: bytes) -> int:
    t = blob[0] & 0x0F
    if t == HllType.EMPTY:
        return 0
    if t == HllType.EXPLICIT:
        return (len(blob) - _HEADER) // 8
    return from_bytes(blob).cardinality()


def merge_grouped_blobs(
    settings: HllSettings, codes: np.ndarray, col
) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
    """Merge sketch blobs per group code.

    :param codes: int group code per input row.
    :param col: the blobs — a pyarrow binary (Chunked)Array, or a list of
        ``bytes`` (converted).
    :returns: (unique codes ascending, first input row index per code,
        merged blob per code).
    """
    codes = np.ascontiguousarray(codes)
    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        col = pa.array(col, type=pa.binary())
    offsets, data = _column_parts(col)
    starts = offsets[:-1]
    lengths = offsets[1:] - starts
    types = data[starts] & 0x0F  # vectorized header-byte gather

    is_explicit = types == int(HllType.EXPLICIT)
    is_empty = types == int(HllType.EMPTY)
    explicit_like = is_explicit | is_empty

    uniq, inv = np.unique(codes, return_inverse=True)
    first_idx = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_idx, inv, np.arange(len(codes), dtype=np.int64))
    group_all_explicit = np.ones(len(uniq), dtype=bool)
    np.logical_and.at(group_all_explicit, inv, explicit_like)

    merged: list[bytes | None] = [None] * len(uniq)

    # ---- fast path: decode every EXPLICIT word in one gather, then one
    # grouped build over (group, value) pairs
    fast_rows = group_all_explicit[inv] & is_explicit
    if fast_rows.any():
        f = np.flatnonzero(fast_rows)
        counts = (lengths[f] - _HEADER) // 8
        word_row = np.repeat(f, counts)  # source row of every word
        word_base = np.repeat(starts[f] + _HEADER, counts)
        within = np.arange(len(word_row), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        byte_idx = (word_base + within * 8)[:, None] + np.arange(8, dtype=np.int64)
        words = (
            data[byte_idx]
            .reshape(-1, 8)
            .copy()
            .view(">i8")
            .ravel()
            .astype(np.int64)
        )
        sub_uniq, _, _, sub_blobs = build_grouped_sketches(
            settings, inv[word_row], words
        )
        for g, blob in zip(sub_uniq.tolist(), sub_blobs):
            merged[g] = blob

    # all-EMPTY (or empty-EXPLICIT) groups: keep the first blob verbatim
    need = np.flatnonzero(group_all_explicit)
    for g in need:
        if merged[g] is None:
            i = int(first_idx[g])
            merged[g] = data[starts[i] : offsets[i + 1]].tobytes()

    # ---- faithful path: groups with probabilistic members
    slow_rows = np.flatnonzero(~group_all_explicit[inv])
    if len(slow_rows):
        acc_by_group: dict[int, "object"] = {}
        for i in slow_rows.tolist():
            blob = data[starts[i] : offsets[i + 1]].tobytes()
            g = int(inv[i])
            sk = from_bytes(blob)
            if g in acc_by_group:
                acc_by_group[g].union(sk)
            else:
                acc_by_group[g] = sk
        for g, sk in acc_by_group.items():
            merged[g] = sk.to_bytes()

    return uniq, first_idx, merged  # type: ignore[return-value]
