"""map_batches stages that build partial HLL sketches, and the one
co-location reduce every sketch aggregation merges them with (and every
near-dup pair family and exact dedup reduces its keyed rows with).

The engine's shape (SURVEY.md §2.5, §7.3): the sketch *is* the aggregate, so
the wide operation is tiny by construction —

* ``BuildPartials`` (this module) runs inside ``ds.map_batches(...,
  batch_format="pyarrow", zero_copy_batch=True)`` and collapses each input
  batch to at most one fixed-size serialized sketch row per group seen in the
  batch.  Per-batch work is vectorized: one hash pass, one register-update
  pass (``np.maximum.at``), one serialization.
* :func:`reduce` merges those rows, and every sketch merge goes through it
  (:func:`merge_grouped`, :func:`merge_to_row`, the checkpointed flagship).
  They are O(#blocks × #groups-per-block) rows of ~1.3 KiB each (at
  log2m=11, regwidth=5), never the input rows.  Each producer task runs
  over one of at most B contiguous runs of about equal bytes (more when a
  run would exceed :data:`PRODUCER_BYTES`; of the read tasks of a direct
  plan, of partial blocks, or of partial files) and returns its partial
  rows in B slices by ``GHASH_COL % B``, B the CPUs Ray has; one plain Ray
  merge task per slice merges that slice's rows of every
  producer in one call.  A lone producer merges its own rows.  No Ray Data
  exchange runs, and no partial row reaches the driver.  The slicing
  column is the caller's (``GHASH_COL`` for every sketch merge) and so is
  the slice count (:func:`colocate`): ``pipelines.dedup`` slices keyed rows
  by ``key % S`` into S bucket tasks, then their pairs by ``id_a % B``.
* A plan that is exactly a ``Datasource`` read and then this library's own
  maps runs as plain Ray tasks, each reading and mapping one run of read
  tasks in order, when that loses no parallelism (:func:`_direct_plan`);
  any other plan runs through Ray Data.
  A direct ``read_parquet`` decodes only the columns its first map declares
  in ``input_columns`` (``None``: every column), unless the read has an
  explicit ``schema=`` or a ``_block_udf`` (:func:`_projected`); a kept
  column some files lack is NULL in their rows, as in Ray Data's unified
  blocks.  The read batches keep their row boundaries, so the partials do
  not change.
* Every merge is the associative union (reference semantics:
  python_hll/hll.py:491-691) of :mod:`rayhll.core.batchmerge`, straight
  from the serialized bytes: ``make_bucket_merger`` merges many groups'
  sketches at once, and :func:`merge_rows` (``merge_sketch_rows``) merges
  all rows as one group.

Every stage output is a pure function of (block contents, settings), so Ray
task retries are idempotent — a retried block reproduces the identical
partial sketch (register max is order-independent and duplicate-insensitive).
"""

from __future__ import annotations

import copy
import functools
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa

from rayhll.core import batchbuild, batchmerge
from rayhll.core.serde import settings_from_bytes
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch
from rayhll.functions import hashing

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

SKETCH_COL = "sketch"
ROWS_COL = "rows_in"

#: Group-identity contract: the 64-bit xxhash of the group columns
#: (``GHASH_COL``) IS the group identity end-to-end (build → slice →
#: merge).  Two distinct group-key tuples colliding in 64 bits would
#: silently merge under the first tuple's label.  Expected collisions are
#: ~G²/2^65 for G groups (birthday bound): ~5e-8 at 1M groups, ~0.05 at 1B
#: groups — acceptable for approximate aggregation (the estimates are already
#: ±1.04/√m); the bound is pinned by
#: tests/test_ray_pipelines.py::test_group_hash_collision_contract.  Pipelines
#: needing exactness at ≥10^10 groups should groupby the raw key columns
#: instead (grouped_approx_distinct carries the group values on every row, so
#: the reduce could compare them; the hash is kept for shuffle compactness).
ESTIMATE_COL = "estimate"
GHASH_COL = "_ghash"
GROUP_HASH_SEED = 0x5EED_6800
# Input bytes one reduce producer reads at most (:func:`producer_count`; Ray
# runs a CPU's worth at a time, so memory does not grow with the input): its
# keyed rows are this times its maps' growth, about 18x for MinHash bands.
PRODUCER_BYTES = 128 << 20


def with_group_hash(table: pa.Table, ghash: np.ndarray) -> pa.Table:
    """``table`` with each row's group hash ``ghash`` appended as
    ``GHASH_COL``: what the merge keys on and the producers slice by."""
    return table.append_column(GHASH_COL, pa.array(ghash, type=pa.int64()))


def check_build_args(key_cols, hash_method: str) -> None:
    """Raise ``ValueError`` for a build that cannot hash its keys."""
    if hash_method not in ("fast", "sha256"):
        raise ValueError(f"unknown hash_method {hash_method!r}")
    if not key_cols:
        raise ValueError("key_cols must name at least one column")
    if hash_method == "sha256" and len(key_cols) != 1:
        raise ValueError("sha256 hashing supports exactly one key column")


class BuildPartials:
    """Actor-pool callable: input Arrow batch -> one partial-sketch row per
    group present in the batch (a single global row when ``group_cols`` is
    empty).

    Stateful setup (settings validation, derived constants) happens once per
    actor in ``__init__``; ``__call__`` does only vectorized per-batch work.
    """

    def __init__(
        self,
        key_cols: list[str] | tuple[str, ...],
        group_cols: list[str] | tuple[str, ...] = (),
        settings: HllSettings | None = None,
        hash_method: str = "fast",
        seed: int = hashing.DEFAULT_SEED,
        ignore_nulls: bool = True,
    ):
        check_build_args(key_cols, hash_method)
        self.settings = settings or HllSettings(11, 5)
        self.key_cols = list(key_cols)
        self.group_cols = list(group_cols)
        self.hash_method = hash_method
        self.seed = seed
        #: SQL semantics (default): rows whose key tuple contains a NULL
        #: contribute nothing to the distinct count — COUNT(DISTINCT col)
        #: ignores NULLs (and Spark's multi-arg variant ignores any-null
        #: tuples).  False = count NULL as one distinct value per column
        #: combination (the pre-r2 behavior).
        self.ignore_nulls = ignore_nulls

    @property
    def input_columns(self) -> list[str]:
        """The columns a batch must hold: the key and group columns."""
        return self.key_cols + self.group_cols

    def _raw64(self, batch: pa.Table) -> np.ndarray:
        if self.hash_method == "sha256":
            return hashing.sha256_raw64(batch.column(self.key_cols[0]))
        return hashing.hash64_table(batch, self.key_cols, seed=self.seed)

    def _valid_mask(self, batch: pa.Table) -> np.ndarray | None:
        """Bool mask of rows whose key tuple has no NULL (None = all valid)."""
        if not self.ignore_nulls:
            return None
        import pyarrow.compute as pc

        mask: np.ndarray | None = None
        for c in self.key_cols:
            col = batch.column(c)
            if col.null_count == 0:
                continue
            m = pc.is_valid(col).to_numpy(zero_copy_only=False)
            mask = m if mask is None else (mask & m)
        return mask

    def __call__(self, batch: pa.Table) -> pa.Table:
        raw = self._raw64(batch)
        valid = self._valid_mask(batch)
        if not self.group_cols:
            sk = HllSketch(self.settings)
            sk.add_batch(raw if valid is None else raw[valid])
            return pa.table(
                {
                    SKETCH_COL: pa.array([sk.to_bytes()], type=pa.binary()),
                    ROWS_COL: pa.array([len(batch)], type=pa.int64()),
                }
            )
        # Vectorized within-batch grouping: one composite hash of the group
        # columns -> codes; all per-group sketches built in one pass
        # (rayhll.core.batchbuild), python loop only over threshold-crossing
        # groups.
        ghash = hashing.hash64_table(batch, self.group_cols, seed=GROUP_HASH_SEED)
        uniq, first_idx, counts, sketches = batchbuild.build_grouped_column(
            self.settings, ghash, raw, valid=valid
        )
        out = batch.select(self.group_cols).take(pa.array(first_idx))
        out = out.append_column(SKETCH_COL, sketches)
        out = out.append_column(ROWS_COL, pa.array(counts, type=pa.int64()))
        # carry the group hash: the reduce slices and merges by it
        return with_group_hash(out, uniq)


def merge_sketch_rows(batch: pa.Table) -> pa.Table:
    """Merge every sketch row of a batch into one row (the global merge step).
    Settings travel inside the serialized header, so this stage needs none."""
    return merge_rows(batch, [SKETCH_COL])


def merge_rows(batch: pa.Table, sketch_cols: list[str]) -> pa.Table:
    """All rows of ``batch`` as one row: each of ``sketch_cols`` merged as
    one group by ``batchmerge.merge_grouped_columns``, under the settings in
    its first blob's header, and ``ROWS_COL`` summed.  No rows merge to
    ``b""`` sketches and ``rows_in`` 0."""
    if not batch.num_rows:
        out = {c: pa.array([b""], type=pa.binary()) for c in sketch_cols}
        return pa.table({**out, ROWS_COL: pa.array([0], type=pa.int64())})
    cols = [batch.column(c) for c in sketch_cols]
    settings = [settings_from_bytes(col[0].as_py()) for col in cols]
    codes = np.zeros(batch.num_rows, dtype=np.int64)
    _, _, _, merged = batchmerge.merge_grouped_columns(settings, codes, cols)
    rows_in = 0
    if ROWS_COL in batch.column_names:
        rows_in = int(pa.compute.sum(batch.column(ROWS_COL)).as_py() or 0)
    out = dict(zip(sketch_cols, merged))
    return pa.table({**out, ROWS_COL: pa.array([rows_in], type=pa.int64())})


def make_bucket_merger(
    group_cols: list[str],
    sketch_cols: list[str] = (SKETCH_COL,),
    estimate_cols: list[str] | None = None,
    include_sketch: bool = True,
):
    """Build the reduce fn for the grouped aggregation.

    Receives ALL partial rows of one slice (many groups) and merges
    and estimates every group's sketches vectorized, grouping the rows once
    for all sketch columns (``rayhll.core.batchmerge.merge_grouped_columns``).
    Emits one row per group: group cols, merged sketch(es), integer
    estimate(s), summed rows.
    """
    estimate_cols = estimate_cols or [
        ESTIMATE_COL if c == SKETCH_COL else f"estimate_{c}" for c in sketch_cols
    ]

    def merge_bucket(tbl: pa.Table) -> pa.Table:
        if not tbl.num_rows:
            out = empty_groups(tbl, group_cols)
            for sc, ec in zip(sketch_cols, estimate_cols):
                if include_sketch:
                    out = out.append_column(sc, pa.array([], type=pa.binary()))
                out = out.append_column(ec, pa.array([], type=pa.int64()))
            return out.append_column(ROWS_COL, pa.array([], type=pa.int64()))
        cols = [tbl.column(sc) for sc in sketch_cols]
        settings = [settings_from_bytes(col[0].as_py()) for col in cols]
        _, first_idx, inv, merged = batchmerge.merge_grouped_columns(
            settings, tbl.column(GHASH_COL).to_numpy(), cols
        )
        out = tbl.select(group_cols).take(pa.array(first_idx))
        for sc, ec, s, col in zip(sketch_cols, estimate_cols, settings, merged):
            if include_sketch:
                out = out.append_column(sc, col)
            out = out.append_column(ec, pa.array(batchmerge.cardinalities(s, col), type=pa.int64()))
        rows = np.bincount(inv, weights=tbl.column(ROWS_COL).to_numpy()).astype(np.int64)
        return out.append_column(ROWS_COL, pa.array(rows, type=pa.int64()))

    return merge_bucket


def empty_groups(tbl: pa.Table, group_cols: list[str]) -> pa.Table:
    """Zero-row ``group_cols`` of ``tbl``; a column ``tbl`` lacks (no partial
    row was ever built, so no block carries a schema) is typed null."""
    return pa.table(
        {
            c: pa.array([], type=tbl.schema.field(c).type if c in tbl.column_names else pa.null())
            for c in group_cols
        }
    )


def merge_grouped(partials: "ray.data.Dataset", merger) -> "ray.data.Dataset":
    """Grouped merge: one row per group, ``merger`` keyed on ``GHASH_COL``
    (:func:`reduce` of the :func:`producers` of ``partials`` in one slice per
    CPU).  The plan up to the partials runs when this is called; the result
    is a materialized dataset over the blocks the merge tasks return."""
    slices = avail_cpus()
    return dataset_of(reduce(producers(partials, slices), merger, slices, GHASH_COL))


def merge_to_row(partials: "ray.data.Dataset", merge) -> pa.Table:
    """Global merge: the one row ``merge`` returns for all partial rows, in
    one call (:func:`reduce` in one slice); only that row is fetched to the
    driver."""
    import ray

    [(ref, _)] = reduce(producers(partials, 1), merge, 1, None)
    return ray.get(ref)


def producers(ds: "ray.data.Dataset", slices: int) -> list:
    """The :func:`reduce` jobs that yield the rows of ``ds`` for ``slices``
    slices: :func:`_direct_jobs`, else one split task per contiguous
    :func:`runs` of the blocks with rows, :func:`producer_count` of
    ``min(slices, B)`` (the driver holds only their refs and metadata)."""
    cpus = avail_cpus()
    jobs = _direct_jobs(ds, cpus)
    if jobs is None:
        blocks = [
            (ref, md)
            for bundle in ds.iter_internal_ref_bundles()
            for ref, md in bundle.blocks
            if md.num_rows != 0
        ]
        sizes = [md.size_bytes for _, md in blocks]
        cut = runs(blocks, sizes, producer_count(sizes, min(slices, cpus)))
        jobs = [(_concat, [ref for ref, _ in run], {}) for run in cut]
    return jobs


def reduce(jobs: list, merge, slices: int, key: str | None) -> list:
    """The one co-location reduce: ``(block ref, BlockMetadataWithSchema)``
    of each table ``merge`` returns; the driver holds only metadata.

    The producers are :func:`colocate`'s; one merge task per slice then
    calls ``merge`` once on that slice's rows of every producer, in producer
    order, so the rows of each ``key`` value meet in one call; it starts as
    soon as its slices exist.  A lone producer merges its own rows.  A merge
    of no rows (``merge`` of a column-less empty table) is returned only
    when every merge is one."""
    import ray

    task = _task()
    if len(jobs) == 1:
        [(make, args, options)] = jobs
        outs = [task.options(num_returns=2, **options).remote(1, None, merge, make, *args)]
    else:
        outs = [
            task.options(num_returns=2).remote(1, None, merge, _concat, *refs)
            for refs in colocate(jobs, slices, key)
        ]
    metas = ray.get([out[-1] for out in outs])
    merged = [(out[0], meta[0]) for out, meta in zip(outs, metas)]
    return [(ref, meta) for ref, meta in merged if meta.num_rows] or merged[:1]


def colocate(jobs: list, slices: int, key: str | None) -> list[list]:
    """Per slice, the refs of every producer's rows in it, in producer
    order.  Each job ``(make, args, options)`` is one plain Ray task (a
    producer: one run of read tasks, blocks or files) whose table
    ``make(*args)`` comes back in ``slices`` slices by ``key % slices``."""
    task = _task()
    outs = [
        task.options(num_returns=slices + 1, **options).remote(slices, key, None, make, *args)
        for make, args, options in jobs
    ]
    return [[out[s] for out in outs] for s in range(slices)]


def producer_count(sizes: list, n: int) -> int:
    """``n``, or more when ``n`` producers over items of ``sizes`` bytes (a
    ``None`` size counts as 0) would read over :data:`PRODUCER_BYTES` each."""
    return max(n, -(-sum(size or 0 for size in sizes) // PRODUCER_BYTES))


def runs(items: list, sizes: list, n: int) -> list[list]:
    """``items`` cut into at most ``n`` contiguous, non-empty runs of about
    equal total ``sizes`` (a ``None`` size counts as 0), in order: each cut
    falls at the item boundary nearest to its share of the total."""
    if not items:
        return []
    cum = np.concatenate([[0], np.cumsum([(size or 0) + 1 for size in sizes])])
    share = cum[-1] * np.arange(1, n) / n
    above = np.searchsorted(cum, share)
    cuts = np.where(cum[above] - share <= share - cum[above - 1], above, above - 1)
    bounds = np.unique(np.concatenate([[0], cuts, [len(items)]]))
    return [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


@functools.cache
def _task():
    import ray

    return ray.remote(_produce)


def _produce(slices: int, key: str | None, merge, make, *args) -> tuple:
    """The table ``make(*args)`` in ``slices`` slices by ``key``, or
    ``merge`` of its rows when given; then the list of their metadata."""
    from ray.data.block import BlockMetadataWithSchema

    table = make(*args)
    parts = _sliced(table, slices, key) if merge is None else [merge(_concat(table))]
    return (*parts, [BlockMetadataWithSchema.from_block(part) for part in parts])


def _sliced(table: pa.Table, slices: int, key: str | None) -> list[pa.Table]:
    """``table``'s rows by ``key % slices`` (over the int64 column's uint64
    view), each slice in table order; all in slice 0 when ``table`` has no
    ``key`` column (a global merge, or no rows)."""
    if slices == 1 or key not in table.column_names:
        return [table] + [table.slice(0, 0)] * (slices - 1)
    slot = table.column(key).to_numpy().view(np.uint64) % np.uint64(slices)
    order = np.argsort(slot, kind="stable")
    bounds = np.searchsorted(slot[order], np.arange(slices + 1, dtype=np.uint64))
    table = table.take(order)  # one take: over many chunks each take joins them again
    return [table.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _concat(*blocks) -> pa.Table:
    """The rows of ``blocks`` in order, as one Arrow table; column-less
    when none has rows."""
    from ray.data.block import BlockAccessor

    tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables, promote_options="default") if tables else pa.table({})


def avail_cpus() -> int:
    """The CPUs Ray has for this job (inside a placement group, its share):
    the grouped merge's slice count, and the direct path's bound."""
    import ray
    from ray.data._internal.util import _estimate_avail_cpus

    return max(1, _estimate_avail_cpus(ray.util.get_current_placement_group()))


def _direct_plan(ds: "ray.data.Dataset"):
    """``(read, maps)`` when ``ds`` is exactly a ``Datasource`` read (default
    scheduling, no concurrency cap), then only uncapped task-pool pyarrow
    ``map_batches`` with no args whose callable is defined in ``rayhll``,
    else None.  A caller's ``map_batches`` UDF thus runs in Ray Data, but a
    caller's ``build_partial`` runs inside the library's map, directly.
    The first map's ``input_columns`` (absent or ``None``: all) bound what
    :func:`_direct_jobs` reads of a Parquet source."""
    from ray.data._internal.compute import TaskPoolStrategy
    from ray.data._internal.logical.operators.map_operator import MapBatches
    from ray.data._internal.logical.operators.read_operator import Read
    from ray.data.datasource import Datasource

    maps, op = [], ds._logical_plan.dag
    while type(op) is MapBatches:
        args = (op._fn_args, op._fn_kwargs, op._fn_constructor_args, op._fn_constructor_kwargs)
        if (
            op._compute != TaskPoolStrategy()
            or op._batch_format != "pyarrow"
            or any(args + (op._ray_remote_args, op._ray_remote_args_fn))
            or not getattr(op._fn, "__module__", "").startswith("rayhll.")
        ):
            return None
        maps.append(op)
        op = op.input_dependencies[0]
    default_args = {"scheduling_strategy": ds.context.scheduling_strategy}
    if maps and type(op) is Read and isinstance(op._datasource_or_legacy_reader, Datasource):
        if op._concurrency is None and op._ray_remote_args == default_args:
            return op, maps[::-1]
    return None


def _direct_jobs(ds: "ray.data.Dataset", cpus: int):
    """The producers of a :func:`_direct_plan` that :func:`_keeps_parallelism`
    on ``cpus`` CPUs as :func:`reduce` jobs, else None: the read tasks Ray
    Data would launch, cut into at most ``cpus`` contiguous :func:`runs` of
    about equal bytes, one task per run, which reads and maps each of its read
    tasks in order (:func:`_read_and_map`).  So each group's rows still
    reach its merge in read-task order.  The read tasks come from the
    source as :func:`_projected` to the first map's ``input_columns``; their
    count, metadata and batch rows are the unprojected read's."""
    plan = _direct_plan(ds)
    if plan is None:
        return None
    from ray.data._internal.util import _autodetect_parallelism

    read, maps = plan
    ctx, source = ds.context, read._datasource_or_legacy_reader
    n, _, _ = _autodetect_parallelism(
        read._parallelism, ctx.target_max_block_size, ctx, source, read._mem_size
    )
    columns = getattr(maps[0]._fn, "input_columns", None)
    read_tasks = _projected(source, columns).get_read_tasks(n)
    if not _keeps_parallelism(read_tasks, maps[0]._batch_size, ctx, cpus):
        return None
    chain = [(op._fn, op._batch_size) for op in maps]
    sizes = [rt.metadata.size_bytes for rt in read_tasks]
    return [
        (_read_and_map, (ctx, run, chain), read._ray_remote_args)
        for run in runs(read_tasks, sizes, producer_count(sizes, cpus))
    ]


def _projected(source, columns):
    """``source`` reading only the read's own columns that are in
    ``columns``, in the read's order: a shallow copy of a
    ``ParquetDatasource`` with its file columns (those some file holds) and
    hive partition columns (by Ray's own rule, from the first file)
    narrowed.  Without ``columns=`` on the read, its columns are every
    file's (by the prefetched file metadata), unified as Ray Data unifies
    blocks.  When some file lacks a kept file column, the files are read as
    the kept columns' unified schema, so that file's rows hold NULL in it,
    as in Ray Data's unified blocks.  ``source`` itself when ``columns`` is
    None, the source is not Parquet, the read has an explicit ``schema=``
    (files are read as that schema) or a ``_block_udf`` (it may read any
    column), a file's metadata is missing, the file schemas do not unify,
    nothing would be left out and every file holds every column, or a file
    lacks a kept column and the read has both ``columns=`` and a
    ``filter=``.  A file lacking a kept column under a ``filter=`` (which may
    name a column outside the kept ones) without ``columns=`` keeps every
    column, all read through the files' unified schema.  The sampled read
    batch size and the file metadata are kept, so every read task yields
    the same rows in the same batches."""
    from ray import cloudpickle
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource,
        _infer_data_and_partition_columns,
    )

    if (
        columns is None
        or type(source) is not ParquetDatasource
        or source._read_schema is not None
        or source._block_udf is not None
        or not source._pq_fragments
        or len(source._metadata) < len(source._pq_fragments)
        or any(getattr(md, "schema_pickled", None) is None for md in source._metadata)
    ):
        return source
    pickled = dict.fromkeys(md.schema_pickled for md in source._metadata)
    files = [cloudpickle.loads(schema) for schema in pickled]
    schema = source._inferred_schema
    if source._data_columns is None:
        try:
            schema = pa.unify_schemas([schema, *files])
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            return source
    names = [c for c in schema.names if c in set(columns)]
    held = set().union(*(f.names for f in files))
    data = [c for c in names if c in held]
    lacking = any(c not in f.names for f in files for c in data)
    if lacking and source._to_batches_kwargs.get("filter") is not None:
        if source._data_columns is not None:
            return source
        names = schema.names
        data = [c for c in names if c in held]
    if len(names) == len(schema.names) and not lacking:
        return source
    out = copy.copy(source)
    out._data_columns, out._partition_columns = data, []
    if source._partitioning is not None:
        first = source._pq_fragments[0].deserialize()
        _, out._partition_columns = _infer_data_and_partition_columns(
            names, first, source._partitioning
        )
    if lacking:
        out._read_schema = pa.schema([schema.field(c) for c in data])
    out._inferred_schema = pa.schema([schema.field(c) for c in names], schema.metadata)
    return out


def _keeps_parallelism(read_tasks, batch_size, ctx, cpus: int) -> bool:
    """Whether mapping each read task whole keeps the CPUs as busy as Ray Data,
    which maps a read task's output in tasks of ``batch_size`` rows (of one
    block, split to twice the CPUs, when None): each read task's metadata
    shows at most ``batch_size`` rows (or ``ctx.target_min_block_size``
    bytes, Ray Data's smallest read block), or the read tasks fill the
    ``cpus`` CPUs."""
    if batch_size is None:
        sizes, bound = [rt.metadata.size_bytes for rt in read_tasks], ctx.target_min_block_size
    else:
        sizes, bound = [rt.metadata.num_rows for rt in read_tasks], batch_size
    if all(size is not None and size <= bound for size in sizes):
        return True
    return len(read_tasks) >= cpus


def _read_and_map(ctx, read_tasks, chain) -> pa.Table:
    """The blocks of each of ``read_tasks`` in turn through ``chain``'s
    ``(fn, batch_size)`` maps, batched per read task as ``map_batches``
    does, under ``ctx``."""
    from ray.data import DataContext

    prev = DataContext.get_current()
    DataContext._set_current(ctx)
    try:
        tables = []
        for read_task in read_tasks:
            blocks = read_task()
            for fn, batch_size in chain:
                blocks = _mapped(fn, blocks, batch_size)
            tables.extend(blocks)
        return _concat(*tables)
    finally:
        DataContext._set_current(prev)


def _mapped(fn, blocks, batch_size):
    from ray.data._internal.block_batching.util import blocks_to_batches
    from ray.data.block import BlockAccessor

    for batch in blocks_to_batches(iter(blocks), batch_size=batch_size):
        yield fn(BlockAccessor.for_block(batch.data).to_batch_format("pyarrow"))


def dataset_of(blocks) -> "ray.data.Dataset":
    """A materialized dataset over computed ``(block ref,
    BlockMetadataWithSchema)`` pairs, built the way ``Dataset.materialize``
    builds its result: no task runs."""
    from ray.data import DataContext
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.dataset import MaterializedDataset

    ctx = DataContext.get_current()
    bundles = [
        RefBundle(((ref, md.metadata),), owns_blocks=False, schema=md.schema) for ref, md in blocks
    ]
    plan = ExecutionPlan(DatasetStats(metadata={}, parent=None), ctx)
    ds = MaterializedDataset(plan, LogicalPlan(InputData(input_data=bundles), ctx))
    ds._plan.execute()  # marks the plan executed, as materialize does
    return ds
