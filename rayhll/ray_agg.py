"""High-level Ray Data API: approximate-distinct as a mergeable UDAF.

Three entry styles (SURVEY.md §2.5 "Aggregations"):

* :func:`approx_distinct` — global distinct count of one or more key columns;
  partial sketches per block, merged into one, finalize.
* :func:`grouped_approx_distinct` — distinct per group:
  ``map_batches`` pre-aggregation (one sketch row per group per block) →
  one merge per group.
* :func:`HllDistinct` — a ``ray.data.aggregate.AggregateFn`` so the sketch
  composes with Ray's own aggregate machinery:
  ``ds.groupby(k).aggregate(HllDistinct(on="col"))``.

The first two, and the sketch-family aggregations below, reduce through
``stages.build.reduce``: plain Ray tasks merge the partial rows in one
slice per CPU by group hash, each group in one call, with no Ray Data
exchange.  The partials are fixed-size sketch rows, not input rows, so a
merge task's load is bounded by #groups × #blocks, not by the hottest
group's row count.

Over a bare ``read_parquet`` whose read tasks each hold at most one build
batch (or fill the CPUs) they start no Ray Data execution, and a grouped
result comes materialized (``stages.build._direct_plan``).

All exchanges are storage-spec v1.0.0 bytes, so any stage's output is
readable by postgresql-hll / java-hll and by every other stage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import pyarrow as pa

from ray.data.aggregate import AggregateFn

from rayhll.core.batchbuild import group_codes
from rayhll.core.serde import from_bytes
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch
from rayhll.functions import hashing
from rayhll.stages import build as build_stage
from rayhll.stages.build import (
    ESTIMATE_COL,
    GHASH_COL,
    SKETCH_COL,
    BuildPartials,
)

if TYPE_CHECKING:  # pragma: no cover
    import ray.data


#: Sketch settings that keep every group in the exact EXPLICIT representation
#: up to 2^17 distinct values (expthresh=18 — reference: python_hll/hll.py:106-117).
#: Used by the oracle-gated correctness queries, where estimates must equal
#: exact COUNT(DISTINCT); benchmark pipelines use probabilistic DEFAULT.
EXACT_MODE = HllSettings(11, 5, expthresh=18)


def build_partials(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    group_cols: list[str] | tuple[str, ...] = (),
    settings: HllSettings | None = None,
    hash_method: str = "fast",
    batch_size: int | None = 262144,
    concurrency=None,
    ignore_nulls: bool = True,
) -> "ray.data.Dataset":
    """Collapse input rows to partial-sketch rows (see stages.build).

    ``ignore_nulls`` (default, SQL semantics): rows whose key tuple contains
    a NULL contribute nothing to the distinct count.  Raises ``ValueError``
    on the driver for an unknown ``hash_method``, empty ``key_cols``, or
    ``sha256`` over more than one key."""
    build_stage.check_build_args(key_cols, hash_method)
    fn_args = dict(
        key_cols=key_cols,
        group_cols=group_cols,
        settings=settings,
        hash_method=hash_method,
        ignore_nulls=ignore_nulls,
    )
    kwargs = dict(
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    if concurrency is not None:
        # actor-pool form: settings construction amortized across batches
        return ds.map_batches(
            BuildPartials,
            fn_constructor_kwargs=fn_args,
            concurrency=concurrency,
            **kwargs,
        )
    return ds.map_batches(BuildPartials(**fn_args), **kwargs)


def tree_merge(partials: "ray.data.Dataset") -> "ray.data.Dataset":
    """Merge partial-sketch rows down to one row (a one-row dataset; its
    ``sketch`` is ``b""`` with ``rows_in`` 0 when there are no partials).

    The partials run when this is called, and one task merges all of them
    in one call (``stages.build.merge_to_row``)."""
    import ray.data as rd

    return rd.from_arrow(build_stage.merge_to_row(partials, build_stage.merge_sketch_rows))


def approx_distinct_sketch(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    settings: HllSettings | None = None,
    hash_method: str = "fast",
    **kwargs,
) -> HllSketch:
    """Global sketch over ``key_cols``; returns the merged HllSketch
    (an EMPTY sketch for an empty dataset)."""
    partials = build_partials(
        ds, key_cols, settings=settings, hash_method=hash_method, **kwargs
    )
    merged = build_stage.merge_to_row(partials, build_stage.merge_sketch_rows)
    blob = merged.column(SKETCH_COL)[0].as_py()
    if not blob:
        return HllSketch(settings or HllSettings(11, 5))
    return from_bytes(blob)


def approx_distinct(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    settings: HllSettings | None = None,
    hash_method: str = "fast",
    **kwargs,
) -> int:
    """Global approximate distinct count of ``key_cols``."""
    return approx_distinct_sketch(
        ds, key_cols, settings=settings, hash_method=hash_method, **kwargs
    ).cardinality()


def grouped_approx_distinct(
    ds: "ray.data.Dataset",
    group_cols: list[str],
    key_cols: list[str],
    settings: HllSettings | None = None,
    hash_method: str = "fast",
    batch_size: int | None = 262144,
    concurrency=None,
    include_sketch: bool = False,
    ignore_nulls: bool = True,
) -> "ray.data.Dataset":
    """Distinct-per-group dataset: ``group_cols... , estimate:int64, rows_in``
    (plus ``sketch`` when ``include_sketch``).

    The build runs when this is called (``stages.build.merge_grouped``),
    and the result is a dataset over the merge tasks' output; an empty
    input gives zero rows.  The partials (one row per group per input
    block) are sliced by group hash, not by raw group key, so each merge
    task merges thousands of groups vectorized and per-group Python
    overhead never dominates; a hot group costs O(#blocks) fixed-size
    sketch rows."""
    partials = build_partials(
        ds,
        key_cols,
        group_cols=group_cols,
        settings=settings,
        hash_method=hash_method,
        batch_size=batch_size,
        concurrency=concurrency,
        ignore_nulls=ignore_nulls,
    )
    merger = build_stage.make_bucket_merger(
        list(group_cols), [SKETCH_COL], [ESTIMATE_COL], include_sketch=include_sketch
    )
    return build_stage.merge_grouped(partials, merger)


def aggregate_family(ds: "ray.data.Dataset", build_partial, family_cls):
    """Generic distributed aggregation for any sketch family
    (rayhll.sketches.base.Sketch): ``build_partial(batch) -> bytes`` per
    block, then one merge task folds them in order with the family's
    associative ``merge`` (``stages.build.merge_to_row``).  Returns the
    merged sketch object; raises ``ValueError`` when the input has no rows,
    since no partial then says which sketch to build."""

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"blob": pa.array([build_partial(batch)], type=pa.binary())})

    def merge_blobs(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            raise ValueError("aggregate_family: the input has no rows to build a sketch from")
        acc = None
        for b in batch.column("blob"):
            sk = family_cls.from_bytes(b.as_py())
            if acc is None:
                acc = sk
            else:
                acc.merge(sk)
        return pa.table({"blob": pa.array([acc.to_bytes()], type=pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    merged = build_stage.merge_to_row(partials, merge_blobs)
    return family_cls.from_bytes(merged.column("blob")[0].as_py())


def grouped_aggregate_family(
    ds: "ray.data.Dataset",
    group_cols: list[str],
    build_partial,
    family_cls,
    finalize=None,
) -> "ray.data.Dataset":
    """Grouped aggregation for any sketch family: ``build_partial(sub_batch)
    -> bytes`` per (batch, group), merge per group, optional
    ``finalize(sketch) -> dict[str, value]`` columns.

    Same merge as the HLL path (``stages.build.merge_grouped``): the build
    runs when this is called, and merge tasks take one family blob per
    (block, group), sliced by group hash, never input rows.  An empty input
    gives zero rows with the group columns (and ``blob`` when ``finalize``
    is None)."""
    import numpy as np

    from rayhll.functions.hashing import hash64_table

    def partials(batch: pa.Table) -> pa.Table:
        ghash = hash64_table(batch, group_cols, seed=0xFA71)
        uniq, first_idx, inv = np.unique(ghash, return_index=True, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(len(uniq)))
        blobs = []
        sorted_batch = batch.take(pa.array(order))
        for g in range(len(uniq)):
            lo = bounds[g]
            hi = bounds[g + 1] if g + 1 < len(uniq) else len(batch)
            blobs.append(build_partial(sorted_batch.slice(lo, hi - lo)))
        out = batch.select(group_cols).take(pa.array(first_idx))
        out = out.append_column("blob", pa.array(blobs, type=pa.binary()))
        return build_stage.with_group_hash(out, uniq)

    merge_bucket = _make_blob_merge_bucket(group_cols, family_cls, "blob", finalize)
    p = ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
    return build_stage.merge_grouped(p, merge_bucket)


def _make_blob_merge_bucket(group_cols, family_cls, blob_col, finalize):
    """The shared reduce half of the family aggregations: merge every
    group's blobs (group identity = 64-bit hash, the documented collision
    contract; one slice or all of them) and emit one blob-or-finalized row
    per group."""

    def merge_bucket(tbl: pa.Table) -> pa.Table:
        if not tbl.num_rows:
            out = build_stage.empty_groups(tbl, group_cols)
            if finalize is None:
                out = out.append_column(blob_col, pa.array([], type=pa.binary()))
            return out
        uniq, inv, first_idx = group_codes(tbl.column(GHASH_COL).to_numpy())
        merged: list = [None] * len(uniq)
        for i, blob in enumerate(tbl.column(blob_col)):
            g = int(inv[i])
            sk = family_cls.from_bytes(blob.as_py())
            if merged[g] is None:
                merged[g] = sk
            else:
                merged[g].merge(sk)
        out = tbl.select(group_cols).take(pa.array(first_idx))
        if finalize is None:
            return out.append_column(
                blob_col, pa.array([m.to_bytes() for m in merged], type=pa.binary())
            )
        cols: dict[str, list] = {}
        for m in merged:
            for k, v in finalize(m).items():
                cols.setdefault(k, []).append(v)
        for k, vals in cols.items():
            out = out.append_column(k, pa.array(vals))
        return out

    return merge_bucket


def grouped_merge_family(
    ds: "ray.data.Dataset",
    group_cols: list[str],
    family_cls,
    blob_col: str = "blob",
    finalize=None,
) -> "ray.data.Dataset":
    """Merge EXISTING family-blob rows per group (the second half of
    :func:`grouped_aggregate_family`, for pipelines that already hold
    per-partial blobs — e.g. sliding windows replicating per-step sketches
    into the windows they serve).  Runs ``ds`` when called; merge tasks take
    only the blob rows, sliced by group hash (``stages.build.merge_grouped``)."""
    from rayhll.functions.hashing import hash64_table

    def key_hash(batch: pa.Table) -> pa.Table:
        gh = hash64_table(batch, group_cols, seed=0xFA71)
        return build_stage.with_group_hash(batch, gh)

    merge_bucket = _make_blob_merge_bucket(group_cols, family_cls, blob_col, finalize)
    keyed = ds.map_batches(key_hash, batch_format="pyarrow", zero_copy_batch=True)
    return build_stage.merge_grouped(keyed, merge_bucket)


class HllDistinct(AggregateFn):
    """``ray.data`` AggregateFn: approximate COUNT(DISTINCT on).

    Accumulates whole Arrow blocks vectorized; the aggregate state is an
    ``HllSketch`` (pickled between stages by Ray), merged with the
    associative union.  ``finalize`` yields the integer estimate.
    """

    def __init__(
        self,
        on: str,
        settings: HllSettings | None = None,
        alias_name: str | None = None,
        hash_method: str = "fast",
    ):
        settings = settings or HllSettings(11, 5)

        def _raw(block):
            if not isinstance(block, pa.Table):
                block = pa.Table.from_pandas(block)
            # SQL semantics: COUNT(DISTINCT on) ignores NULL rows
            if block.column(on).null_count:
                block = block.filter(pa.compute.is_valid(block.column(on)))
            if hash_method == "sha256":
                return hashing.sha256_raw64(block.column(on))
            return hashing.hash64_table(block, [on])

        # The aggregate state crosses stage boundaries as storage-spec bytes
        # (Arrow binary-friendly, interop-readable), not pickled objects.
        def accumulate_block(agg: bytes, block) -> bytes:
            sk = from_bytes(agg)
            sk.add_batch(_raw(block))
            return sk.to_bytes()

        def merge(a: bytes, b: bytes) -> bytes:
            sk = from_bytes(a)
            sk.union(from_bytes(b))
            return sk.to_bytes()

        super().__init__(
            init=lambda k: HllSketch(settings).to_bytes(),
            merge=merge,
            accumulate_block=accumulate_block,
            finalize=lambda a: from_bytes(a).cardinality(),
            name=alias_name or f"approx_distinct({on})",
        )


__all__ = [
    "EXACT_MODE",
    "ESTIMATE_COL",
    "SKETCH_COL",
    "HllDistinct",
    "approx_distinct",
    "approx_distinct_sketch",
    "build_partials",
    "grouped_approx_distinct",
    "tree_merge",
]
