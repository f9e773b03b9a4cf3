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
* A plan that is exactly a plain ``read_parquet`` and then this library's
  own maps runs as plain Ray tasks when that loses no parallelism
  (:func:`_direct_plan`, :func:`_direct_jobs`); any other plan runs
  through Ray Data.  A direct producer gets the file paths of the
  source's own read tasks and the first map's ``input_columns``
  (``None``: every column), and reads its files with polars, one batch at
  a time, straight into the frames a :class:`FrameBuild` hashes
  (:func:`read_batches`): no Ray read task and no Arrow-to-polars copy.
  The batches are those ``map_batches`` over Ray's read would make, so the
  partials do not change; a kept column some files lack is NULL in their
  rows, as in Ray Data's unified blocks.  A read the frame reader does not
  reproduce exactly (not on the local filesystem, ``schema=``,
  ``filter=``, ``include_paths``, a column type outside strings, binary,
  integers, floats, bool, dates, timestamps and lists of them, ...) runs
  in Ray Data (:func:`_parquet_files`); hive partition values are filled
  in from the paths, as Ray Data fills them.
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

import functools
from typing import TYPE_CHECKING

import numpy as np
import polars as pl
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
#: polars' Arrow export with the offset types Arrow kernels and
#: ``hashing.sha256_digests`` read (``large_string``, not string views)
OLDEST = pl.CompatLevel.oldest()


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


class FrameBuild:
    """A build that hashes a polars frame: the base of the library's maps
    that read only their ``input_columns`` (``None``: every column).

    :meth:`build` makes the partial rows of one batch: a direct read's
    polars frame as it was read, with the read's Arrow ``types``
    (:func:`read_batches`).  ``__call__`` takes an Arrow batch (the Ray
    Data path), converts its input columns to a frame once and builds it
    typed by its own schema, so both paths run one build."""

    input_columns: list[str] | None = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        names = batch.column_names
        if self.input_columns is not None:
            names = [c for c in dict.fromkeys(self.input_columns) if c in set(names)]
        return self.build(pl.from_arrow(batch.select(names)), batch.schema)

    def build(self, frame: pl.DataFrame, types: pa.Schema) -> pa.Table:
        raise NotImplementedError


def sha256_raw64(values: pl.Series) -> np.ndarray:
    """``hashing.sha256_raw64`` of a frame's column, read back as Arrow
    32,768 rows at a time, so the copy is never a whole large batch's."""
    parts = [
        hashing.sha256_raw64(values.slice(lo, 32768).to_arrow(compat_level=OLDEST))
        for lo in range(0, len(values), 32768)
    ]
    return np.concatenate(parts) if parts else np.empty(0, np.int64)


def frame_rows(frame: pl.DataFrame, cols: list[str], rows: np.ndarray, types: pa.Schema) -> pa.Table:
    """The ``rows`` of ``frame``'s ``cols`` as an Arrow table, each column
    cast to its type in ``types``, with its metadata (the groups' values in
    the partial rows, as ``batch.select(cols).take(rows)`` gives them)."""
    out = frame.select(pl.col(cols).gather(rows)).to_arrow(compat_level=OLDEST)
    return out.cast(pa.schema([types.field(c) for c in cols], types.metadata))


class BuildPartials(FrameBuild):
    """Actor-pool callable: input batch -> one partial-sketch row per group
    present in the batch (a single global row when ``group_cols`` is empty).

    Stateful setup (settings validation, derived constants) happens once per
    actor in ``__init__``; a call does only vectorized per-batch work.
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

    def _valid_mask(self, frame: pl.DataFrame) -> np.ndarray | None:
        """Bool mask of rows whose key tuple has no NULL (None = all valid)."""
        nulls = [c for c in self.key_cols if frame[c].null_count()] if self.ignore_nulls else []
        if not nulls:
            return None
        return frame.select(pl.all_horizontal(pl.col(nulls).is_not_null())).to_series().to_numpy()

    def build(self, frame: pl.DataFrame, types: pa.Schema) -> pa.Table:
        keys = [] if self.hash_method == "sha256" else [(self.key_cols, self.seed)]
        if self.group_cols:
            keys.append((self.group_cols, GROUP_HASH_SEED))
        hashes = hashing.hash64_keys(frame, keys)
        if self.hash_method == "sha256":
            raw = sha256_raw64(frame[self.key_cols[0]])
        else:
            raw = hashes[0]
        valid = self._valid_mask(frame)
        if not self.group_cols:
            sk = HllSketch(self.settings)
            sk.add_batch(raw if valid is None else raw[valid])
            return pa.table(
                {
                    SKETCH_COL: pa.array([sk.to_bytes()], type=pa.binary()),
                    ROWS_COL: pa.array([frame.height], type=pa.int64()),
                }
            )
        # Vectorized within-batch grouping: one composite hash of the group
        # columns -> codes; all per-group sketches built in one pass
        # (rayhll.core.batchbuild), python loop only over threshold-crossing
        # groups.
        uniq, first_idx, counts, sketches = batchbuild.build_grouped_column(
            self.settings, hashes[-1], raw, valid=valid
        )
        out = frame_rows(frame, self.group_cols, first_idx, types)
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
) -> "BucketMerger":
    """Build the reduce fn for the grouped aggregation (:class:`BucketMerger`)."""
    return BucketMerger(group_cols, sketch_cols, estimate_cols, include_sketch)


class BucketMerger:
    """The reduce fn of the grouped aggregation, a module-level callable (a
    merge task unpickles it by reference, with no closure to serialize).

    Receives ALL partial rows of one slice (many groups) and merges
    and estimates every group's sketches vectorized, grouping the rows once
    for all sketch columns (``rayhll.core.batchmerge.merge_grouped_columns``).
    Emits one row per group: group cols, merged sketch(es), integer
    estimate(s), summed rows.
    """

    def __init__(self, group_cols, sketch_cols, estimate_cols, include_sketch):
        self.group_cols = list(group_cols)
        self.sketch_cols = list(sketch_cols)
        self.estimate_cols = estimate_cols or [
            ESTIMATE_COL if c == SKETCH_COL else f"estimate_{c}" for c in sketch_cols
        ]
        self.include_sketch = include_sketch

    def __call__(self, tbl: pa.Table) -> pa.Table:
        pairs = list(zip(self.sketch_cols, self.estimate_cols))
        if not tbl.num_rows:
            out = empty_groups(tbl, self.group_cols)
            for sc, ec in pairs:
                if self.include_sketch:
                    out = out.append_column(sc, pa.array([], type=pa.binary()))
                out = out.append_column(ec, pa.array([], type=pa.int64()))
            return out.append_column(ROWS_COL, pa.array([], type=pa.int64()))
        cols = [tbl.column(sc) for sc in self.sketch_cols]
        settings = [settings_from_bytes(col[0].as_py()) for col in cols]
        _, first_idx, inv, merged = batchmerge.merge_grouped_columns(
            settings, tbl.column(GHASH_COL).to_numpy(), cols
        )
        out = tbl.select(self.group_cols).take(pa.array(first_idx))
        for (sc, ec), s, col in zip(pairs, settings, merged):
            if self.include_sketch:
                out = out.append_column(sc, col)
            out = out.append_column(ec, pa.array(batchmerge.cardinalities(s, col), type=pa.int64()))
        rows = np.bincount(inv, weights=tbl.column(ROWS_COL).to_numpy()).astype(np.int64)
        return out.append_column(ROWS_COL, pa.array(rows, type=pa.int64()))


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
    cpus = avail_cpus()
    return dataset_of(reduce(producers(partials, cpus, cpus), merger, cpus, GHASH_COL))


def merge_to_row(partials: "ray.data.Dataset", merge) -> pa.Table:
    """Global merge: the one row ``merge`` returns for all partial rows, in
    one call (:func:`reduce` in one slice); only that row is fetched to the
    driver."""
    import ray

    [(ref, _)] = reduce(producers(partials, 1), merge, 1, None)
    return ray.get(ref)


def producers(ds: "ray.data.Dataset", slices: int, cpus: int | None = None) -> list:
    """The :func:`reduce` jobs that yield the rows of ``ds`` for ``slices``
    slices: :func:`_direct_jobs`, else one split task per contiguous
    :func:`runs` of the blocks with rows, :func:`producer_count` of
    ``min(slices, B)`` (the driver holds only their refs and metadata).
    B is ``cpus``, else :func:`avail_cpus`."""
    cpus = cpus or avail_cpus()
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
    """The rows of ``blocks`` in order, as one Arrow table, each column
    typed as its types in the blocks unify (``string`` and ``large_string``
    partials of two files' groups: ``large_string``); column-less when none
    has rows."""
    from ray.data.block import BlockAccessor

    tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables, promote_options="permissive") if tables else pa.table({})


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
    """The producers of a :func:`_direct_plan` whose read
    :func:`_parquet_files` reproduces and that :func:`_keeps_parallelism` on
    ``cpus`` CPUs, as :func:`reduce` jobs, else None.  The read tasks are
    the source's own (``get_read_tasks``: its file grouping and order, row
    counts and sizes), cut into at most ``cpus`` contiguous :func:`runs` of
    about equal bytes, one task per run (:func:`_read_and_build`), so each
    group's rows still reach its merge in read-task order.  A job's
    arguments are plain data: per read task, its columns' Arrow types and
    per file its path, the kept columns it holds and its kept hive
    partition values."""
    plan = _direct_plan(ds)
    if plan is None:
        return None
    from ray.data._internal.util import _autodetect_parallelism

    read, maps = plan
    ctx, source = ds.context, read._datasource_or_legacy_reader
    files = _parquet_files(source, getattr(maps[0]._fn, "input_columns", None))
    if files is None:
        return None
    files, kept = files
    n, _, _ = _autodetect_parallelism(
        read._parallelism, ctx.target_max_block_size, ctx, source, read._mem_size
    )
    metas = [task.metadata for task in source.get_read_tasks(n)]
    tasks = []
    for paths in ([str(path) for path in md.input_files] for md in metas):
        schema = _task_schema([files[path][0] for path in paths], kept)
        if schema is None:
            return None
        tasks.append((schema, [(path, *files[path][1:]) for path in paths]))
    rows, sizes = [md.num_rows for md in metas], [md.size_bytes for md in metas]
    if not _keeps_parallelism(rows, sizes, maps[0]._batch_size, ctx, cpus):
        return None
    chain = [(op._fn, op._batch_size) for op in maps]
    # pyarrow's own default when Ray sampled no batch size
    read_rows = int(source._default_read_batch_size_rows or 2**17)
    return [
        (_read_and_build, (ctx, run, read_rows, chain), read._ray_remote_args)
        for run in runs(tasks, sizes, producer_count(sizes, cpus))
    ]


def _frame_type(t: pa.DataType) -> bool:
    """Whether a column of Arrow type ``t`` reads into polars as it converts
    from Arrow, and back unchanged: strings, binary, integers, floats, bool,
    dates, timestamps, and lists of them (an embedding's
    ``fixed_size_list<float>``)."""
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        return _frame_type(t.value_type)
    return (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
        or pa.types.is_integer(t)
        or pa.types.is_float32(t)
        or pa.types.is_float64(t)
        or pa.types.is_boolean(t)
        or pa.types.is_date32(t)
        or (pa.types.is_timestamp(t) and t.unit != "s")
    )


def _parquet_files(source, columns):
    """``(files, kept)`` for a Parquet read of local files: per file path,
    the fields of the kept columns it has, the kept columns it holds, and
    the values of the kept hive partition columns it does not hold (which
    Ray Data adds after the file's columns); and the kept columns' schema
    (each typed as the first file that has it types it).  The kept columns
    are the read's (``columns=``, else those some file holds, then the
    partition columns) that ``columns`` names (every one when None), in
    the read's order.
    None when the read is one the frame reader does not reproduce exactly,
    so it runs in Ray Data: not Parquet; not on the local filesystem;
    ``schema=``, ``_block_udf``, ``include_paths`` or any ``to_batches``
    option (``filter=``); missing file metadata; files of different
    partition columns; a kept column of a type :func:`_frame_type`
    refuses, or one no file has; or every column kept from files whose
    columns differ."""
    import pyarrow.fs as pafs
    from ray import cloudpickle
    from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
    from ray.data.datasource.partitioning import PathPartitionParser

    if (
        type(source) is not ParquetDatasource
        or not isinstance(source._filesystem, pafs.LocalFileSystem)
        or source._read_schema is not None
        or source._block_udf is not None
        or source._include_paths
        or source._to_batches_kwargs
        or not source._pq_paths
        or len(source._metadata) < len(source._pq_paths)
        or any(getattr(md, "schema_pickled", None) is None for md in source._metadata)
    ):
        return None
    parts = [{}] * len(source._pq_paths)
    if source._partitioning is not None:
        parts = [PathPartitionParser(source._partitioning)(path) for path in source._pq_paths]
        if source._partition_columns is not None:
            parts = [{k: v for k, v in p.items() if k in source._partition_columns} for p in parts]
        if any(list(p) != list(parts[0]) for p in parts):
            return None
    pickled = dict.fromkeys(md.schema_pickled for md in source._metadata)
    unpickled = {schema: cloudpickle.loads(schema) for schema in pickled}
    schemas = [unpickled[md.schema_pickled] for md in source._metadata]
    if source._data_columns is not None:
        names = source._data_columns
    elif columns is None:
        if any(schema.names != schemas[0].names for schema in schemas):
            return None
        names = schemas[0].names
    else:
        names = list(dict.fromkeys(c for schema in schemas for c in schema.names))
    names = list(dict.fromkeys([*names, *parts[0]]))
    kept = [c for c in names if columns is None or c in set(columns)]
    held = [pa.schema([s.field(c) for c in kept if c in s.names]) for s in schemas]
    fills = [{k: v for k, v in p.items() if k in kept and k not in s.names} for p, s in zip(parts, schemas)]
    typed = [  # a partition value's type is the one Ray Data's fill_column infers
        pa.schema([*schema, *(pa.field(k, pa.infer_type([v])) for k, v in fill.items())])
        for schema, fill in zip(held, fills)
    ]
    fields = [field for schema in typed for field in schema]
    if not all(_frame_type(f.type) for f in fields) or {f.name for f in fields} != set(kept):
        return None
    first = {}
    for f in fields:
        first.setdefault(f.name, pa.field(f.name, f.type))
    files = [(schema, names.names, fill) for schema, names, fill in zip(typed, held, fills)]
    return dict(zip(source._pq_paths, files)), pa.schema([first[c] for c in kept])


def _task_schema(schemas: list, kept: pa.Schema):
    """The Arrow types of one read task's rows, in ``kept``'s order: each
    column's type in the task's file ``schemas`` (``kept``'s, for a column
    none of them holds, whose rows are NULL), or None when two of them type
    a column differently."""
    types = {}
    for field in (f for schema in schemas for f in schema):
        if types.setdefault(field.name, field).type != field.type:
            return None
    return pa.schema([types.get(field.name, field) for field in kept])


def _keeps_parallelism(rows: list, sizes: list, batch_size, ctx, cpus: int) -> bool:
    """Whether mapping each read task whole keeps the CPUs as busy as Ray Data,
    which maps a read task's output in tasks of ``batch_size`` rows (of one
    block, split to twice the CPUs, when None): each read task's ``rows``
    are at most ``batch_size`` (its ``sizes`` at most
    ``ctx.target_min_block_size`` bytes, Ray Data's smallest read block, when
    None), or the read tasks fill the ``cpus`` CPUs."""
    bounded, bound = (sizes, ctx.target_min_block_size) if batch_size is None else (rows, batch_size)
    return all(size <= bound for size in bounded) or len(rows) >= cpus


def _read_and_build(ctx, tasks: list, read_rows: int, chain) -> pa.Table:
    """The rows of each read task of ``tasks`` in turn, read one batch at a
    time (:func:`read_batches`) and mapped through ``chain``'s ``(fn,
    batch_size)`` maps as ``map_batches`` maps one read task's rows, under
    ``ctx``.  A :class:`FrameBuild` takes each batch as it is, with the
    task's Arrow types; any other map gets it as an Arrow table of those
    types."""
    from ray.data import DataContext

    prev = DataContext.get_current()
    DataContext._set_current(ctx)
    try:
        (first, batch_size), rest = chain[0], chain[1:]
        tables = []
        for schema, files in tasks:
            blocks = []
            for frame in read_batches(files, schema, batch_size, read_rows):
                blocks.append(_call(first, frame, schema))
                del frame  # the next batch is read with this one freed
            for fn, size in rest:
                blocks = [fn(batch) for batch in _batches(blocks, size)]
            tables.extend(blocks)
        return _concat(*tables)
    finally:
        DataContext._set_current(prev)


def read_batches(files: list, schema: pa.Schema, batch_size, read_rows: int | None = None):
    """The rows of ``files`` (each a local Parquet file's path, the columns
    of ``schema`` read from it, None: all, and the values of those it
    holds none of, its hive partition values) as polars frames of
    ``schema``'s columns, batched as ``map_batches`` batches one read task
    of them: ``batch_size`` rows at a time across the files, or at None
    ``read_rows`` rows at a time within each row group.  Each batch is read
    when the one before it has been taken (:func:`read_piece`), so only one
    is held."""
    import pyarrow.parquet as pq

    dtypes = pl.from_arrow(schema.empty_table()).schema
    pieces, held = [], 0
    for path, columns, fills in files:
        columns = schema.names if columns is None else list(columns)
        meta = pq.read_metadata(path)
        if batch_size is None:
            start = 0
            for group in (meta.row_group(i).num_rows for i in range(meta.num_row_groups)):
                for lo in range(start, start + group, read_rows):
                    rows = min(read_rows, start + group - lo)
                    yield read_piece(path, columns, fills, lo, rows, dtypes)
                start += group
            continue
        lo = 0
        while lo < meta.num_rows:
            rows = min(batch_size - held, meta.num_rows - lo)
            pieces.append(read_piece(path, columns, fills, lo, rows, dtypes))
            held, lo = held + rows, lo + rows
            if held == batch_size:
                yield pl.concat(pieces) if len(pieces) > 1 else pieces[0]
                pieces, held = [], 0
    if pieces:
        yield pl.concat(pieces) if len(pieces) > 1 else pieces[0]


def read_piece(path: str, columns: list, fills: dict, start: int, rows: int, dtypes) -> pl.DataFrame:
    """Rows ``start`` to ``start + rows`` of the Parquet file at ``path``,
    decoding only its ``columns``, as a frame of ``dtypes`` (a polars
    schema): another column is its value in ``fills``, else NULL, and a
    column polars reads as another type than it converts from Arrow
    (``date64``, stored as days) is cast to the converted type."""
    frame = pl.DataFrame()  # selecting no column would read no row
    if columns:
        scan = pl.scan_parquet(path, hive_partitioning=False, glob=False)
        frame = scan.select(columns).slice(start, rows).collect()
    absent = [pl.repeat(fills.get(c), rows, dtype=dtypes[c]).alias(c) for c in dtypes if c not in columns]
    frame = frame.with_columns(absent).select(list(dtypes))
    return frame if frame.schema == dtypes else frame.cast(dtypes)


def _call(fn, frame: "pl.DataFrame", schema: pa.Schema) -> pa.Table:
    """``fn`` of one batch of the direct read: the frame itself for a
    :class:`FrameBuild`, else the Arrow table of ``schema`` it holds."""
    if isinstance(fn, FrameBuild):
        return fn.build(frame, schema)
    return fn(frame.to_arrow(compat_level=OLDEST).cast(schema))


def _batches(blocks: list, batch_size) -> list:
    """``blocks`` as ``map_batches`` batches them: each non-empty block
    when ``batch_size`` is None, else ``batch_size`` rows at a time."""
    if batch_size is None:
        return [block for block in blocks if block.num_rows]
    table = _concat(*blocks)
    return [table.slice(lo, batch_size) for lo in range(0, table.num_rows, batch_size)]


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
