"""The two-pass range prefix: an exact global running sum over a corpus in
``(key, id)`` order, with no task holding the corpus.

1. The compact projection is materialized once and counted.
2. One stats pass reads each block: <= 64 strided keys (the boundary
   sample, independent of block size), the id null count and the minimum
   weight.  The driver checks both, then cuts key ranges at the sample's
   quantiles (``np.unique`` drops bounds that collapse on repeated keys).
3. A per-range weight-sum pass and a driver exclusive prefix give each
   range its global offset.
4. The projection exchanges ONCE, co-located per range: each range sorts
   by ``(key, id)`` and the caller's ``finish`` adds its offset.

Equal ids have equal keys (the key is the id or a function of it), so
they land in one range, adjacent after its sort: the duplicate check
there is exact.  Callers: ``pipelines/packing.pack_sequences`` (key = id,
weight = token count) and ``pipelines/shuffle.shuffle_manifest`` (key =
seeded sha256 of the id, one per row).

An empty projection holds no block, so no type: both callers wrap their
``finish`` in :func:`with_known_id_type`, which types the id column of the
zero-row table from the input, when Ray knows it without running the plan.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

__all__ = ["range_prefix", "with_known_id_type"]


def range_prefix(
    proj,
    id_col: str,
    key_col: str,
    weight_col: str | None,
    finish: Callable[[pa.Table, int], pa.Table],
    target_rows_per_range: int,
    max_ranges: int,
    stats_out: dict | None = None,
):
    """Dataset of ``finish(sorted_range, offset)`` over every key range.

    ``proj`` holds ``id_col``, ``key_col`` and ``weight_col`` (an int64
    column of non-negative weights; ``None`` weighs every row 1).  Each
    range reaches ``finish`` sorted by ``(key_col, id_col)``, with
    ``offset`` = the total weight of every row before it in that order.
    ``finish`` must give its typed output for a zero-row input, which is
    what an empty ``proj`` returns.

    Raises ``ValueError`` on a null id or a negative weight (on the driver)
    and on a duplicate id (from the range reduce).  ``stats_out`` receives
    ``n_ranges`` and the per-range weight totals ``range_totals``."""
    import ray.data as rd

    proj = proj.materialize()
    total_rows = proj.count()
    if total_rows == 0:  # no block reached the projection: no schema either
        empty = {c: pa.nulls(0) for c in (id_col, key_col)}
        if weight_col is not None:
            empty[weight_col] = pa.array([], type=pa.int64())
        return rd.from_arrow(finish(pa.table(empty), 0))
    num_ranges = int(min(max_ranges, max(1, -(-total_rows // target_rows_per_range))))

    def weights(batch: pa.Table) -> np.ndarray | None:
        return None if weight_col is None else batch.column(weight_col).to_numpy()

    def block_stats(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        w = weights(batch)
        return pa.table(
            {
                "_k": [keys[:: max(1, len(keys) // 64)]],
                "_nulls": [batch.column(id_col).null_count],
                "_min": [0 if w is None else int(w.min(initial=0))],
            }
        )

    stats = proj.map_batches(block_stats, batch_format="pyarrow", batch_size=None).to_pandas()
    nulls = int(stats["_nulls"].sum())
    if nulls:
        raise ValueError(f"{id_col!r} has {nulls} null ids")
    if stats["_min"].min() < 0:
        # one negative weight would shift every later offset
        raise ValueError(f"weight_col {weight_col!r} has negative weights")
    sampled = np.sort(np.concatenate(stats["_k"].tolist()))
    qpos = (np.arange(1, num_ranges) * len(sampled)) // num_ranges
    bounds = np.unique(sampled[qpos])  # range r = keys in [bounds[r-1], bounds[r])
    n_ranges = len(bounds) + 1

    def ranges(batch: pa.Table) -> np.ndarray:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        return np.searchsorted(bounds, keys, side="right").astype(np.int64)

    def range_sums(batch: pa.Table) -> pa.Table:
        sums = np.bincount(ranges(batch), weights=weights(batch), minlength=n_ranges)
        return pa.table({"_sum": [sums.astype(np.int64)]})

    sums = proj.map_batches(range_sums, batch_format="pyarrow", batch_size=None).to_pandas()
    range_totals = np.sum(sums["_sum"].tolist(), axis=0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(range_totals)[:-1]))
    if stats_out is not None:
        stats_out["n_ranges"] = n_ranges
        stats_out["range_totals"] = range_totals.tolist()

    def attach_range(batch: pa.Table) -> pa.Table:
        return batch.append_column("_r", pa.array(ranges(batch), type=pa.int64()))

    order = [(c, "ascending") for c in dict.fromkeys((key_col, id_col))]

    def reduce_range(tbl: pa.Table) -> pa.Table:
        r = int(tbl.column("_r")[0].as_py())
        tbl = tbl.drop_columns(["_r"]).sort_by(order)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        dup = np.flatnonzero(ids[1:] == ids[:-1])
        if len(dup):
            raise ValueError(f"{id_col!r} has duplicate ids, e.g. {ids[dup[0]]!r}")
        return finish(tbl, int(offsets[r]))

    return (
        proj.map_batches(attach_range, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_r")
        .map_groups(reduce_range, batch_format="pyarrow")
    )


def with_known_id_type(finish: Callable[[pa.Table, int], pa.Table], ds, id_col: str):
    """``finish`` for :func:`range_prefix` over a projection of ``ds`` that
    keeps ``id_col``: a null-typed ``id_col`` (the zero-row table of an
    empty input) is cast to ``id_col``'s type in ``ds`` first.  The type is
    read from ``ds.schema(fetch_if_missing=False)``, else from the blocks a
    ``from_arrow`` or materialized ``ds`` already holds (Ray's schema skips
    zero-row blocks); when neither knows it, ``finish`` is returned as is."""
    from ray.data._internal.logical.interfaces import SourceOperator

    schema = ds.schema(fetch_if_missing=False)
    dag = ds._logical_plan.dag
    if schema is None and isinstance(dag, SourceOperator):
        schema = next((b.schema for b in dag.output_data() or () if b.schema is not None), None)
    id_type = None if schema is None else dict(zip(schema.names, schema.types)).get(id_col)
    if not isinstance(id_type, pa.DataType):
        return finish

    def typed(tbl: pa.Table, offset: int) -> pa.Table:
        ids = tbl.column(id_col)
        if pa.types.is_null(ids.type):
            tbl = tbl.set_column(tbl.column_names.index(id_col), id_col, ids.cast(id_type))
        return finish(tbl, offset)

    return typed
