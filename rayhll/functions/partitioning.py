"""Canonical co-locating-bucket fanout sizing for groupby reduce stages.

Every ``groupby(bucket).map_groups`` stage whose reduce input scales with
the RAW row count (dedup hash rows, sessionization events, curation key
rows, join sides) sizes its fanout here: explicit values win, ``None``
auto-targets :data:`TARGET_ROWS_PER_TASK` rows per reduce task so no task
OOMs at 100-TB inputs however vectorized its kernel.  Stages whose reduce
input is combiner-bounded (per-batch top-k cuts) keep small fixed fanouts
instead — auto-sizing from raw rows would over-provision them.
"""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

#: target rows per reduce task (~tens of MB for compact key rows)
TARGET_ROWS_PER_TASK = 2_000_000


def buckets_for_rows(
    n: int, rows_per_input_row: float = 1.0, floor: int = 64, cap: int = 1 << 20
) -> int:
    """Power-of-two fanout targeting ``TARGET_ROWS_PER_TASK`` rows/task."""
    want = max(1, int(np.ceil(n * rows_per_input_row / TARGET_ROWS_PER_TASK)))
    return max(floor, min(cap, 1 << (want - 1).bit_length()))


def resolve_num_buckets(
    ds,
    num_buckets,
    rows_per_input_row: float = 1.0,
    floor: int = 64,
    approx_rows: int | None = None,
) -> int:
    """Explicit ``num_buckets`` wins (validated); ``None`` auto-sizes from
    the dataset's METADATA row count (``_meta_count`` — available for
    un-transformed reads/ranges, the normal call shape, and never executes
    the plan).  Transformed inputs have no metadata count; callers that
    know an approximate input size anyway (an upstream read's count, a
    post-filter estimate) pass it as ``approx_rows`` and sizing proceeds
    from that.  With neither, the fanout falls back to ``floor`` — correct
    but potentially far too coarse at scale, so the fallback WARNS
    (auto-sizing must never silently double-execute an upstream pipeline
    to find out; pass ``num_buckets`` or ``approx_rows`` there)."""
    if num_buckets is not None:
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        return int(num_buckets)
    try:
        n = ds._meta_count()
    except Exception:
        n = None
    if not n:
        if approx_rows:
            return buckets_for_rows(approx_rows, rows_per_input_row, floor=floor)
        logger.warning(
            "resolve_num_buckets: input has no metadata row count (transformed "
            "dataset?) and no approx_rows hint - falling back to the floor "
            "fanout of %d reduce buckets.  At large inputs this under-splits "
            "the reduce; pass num_buckets or approx_rows.",
            floor,
        )
        return floor
    return buckets_for_rows(n, rows_per_input_row, floor=floor)
