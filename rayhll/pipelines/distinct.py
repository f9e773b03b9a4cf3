"""Flagship pipeline: distinct-count sketches over the source-code table.

The BASELINE north-star job: over a Parquet table ``(repo, path, commit,
lang, content)``, estimate distinct ``content``, ``path`` and ``(repo,
commit)`` — globally and per ``(repo, lang)`` group.  :class:`HashStage`
appends the per-row ``sha256(content)`` invariant for callers that want
that column; the flagships do not return it.

Stage layout (Ray-Data-native; over a bare ``read_parquet`` stage 1 may
run fused with each read task instead, see ``stages.build.producers``):

1. :class:`MultiKeyBuild` — a ``map_batches`` callable (both flagships pass
   an instance, so it runs as tasks), zero-copy Arrow in: per batch, per
   group, three partial sketches (content / path / repo+commit) over one
   grouping of the batch (``batchbuild.build_grouped_columns``); emits one
   fixed-size row per (batch, group).  With ``hash_content`` the content
   sketch adds the first 8 bytes of each row's sha256 (the invariant hash,
   computed once per row, in this map); else the fast vectorized hash.
2. ``stages.build.merge_grouped`` (``merge_to_row`` for the global variant,
   whose rows merge as one group) — merges partial sketches per group in
   ``core.batchmerge``, grouping the partial rows once for the three sketch
   columns.  The partials are sketch rows
   (~4 KiB per group per block), so a pathological repo costs O(#blocks)
   sketch rows, never O(rows).  Plain Ray merge tasks, one per CPU, each
   merge the groups whose hash falls in their slice
   (``stages.build.reduce``); a lone producer merges its own rows.
3. finalize — integer estimates per key (``batchmerge.cardinalities``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rayhll.core import batchbuild, batchmerge
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch
from rayhll.functions import hashing
from rayhll.stages import build as build_stage

GROUP_COLS = ("repo", "lang")
KEYS = ("content", "path", "repo_commit")
SKETCH_COLS = tuple(f"sketch_{k}" for k in KEYS)
EST_COLS = tuple(f"est_distinct_{k}" for k in KEYS)


class HashStage:
    """Append ``content_sha256`` (hex) + ``content_raw64`` (int64) columns.

    Null contract: a NULL ``content`` hashes as the empty string (the
    sha256 invariant is defined over UTF-8 bytes, and the flagship treats
    null ≡ b"" — one distinct value).  This differs from the SQL-aligned
    ``ignore_nulls`` default of the generic ``ray_agg`` paths, where NULL
    keys contribute nothing; the flagship's digest column is a per-row
    invariant and must exist for every row."""

    @property
    def input_columns(self) -> None:
        """Every column: the batch passes through to the next map."""
        return None

    def __call__(self, batch: pa.Table) -> pa.Table:
        digests = hashing.sha256_digests(batch.column("content"))
        batch = batch.append_column("content_sha256", hashing.digests_hex(digests))
        raw = hashing.digests_raw64(digests)
        return batch.append_column("content_raw64", pa.array(raw, type=pa.int64()))


class MultiKeyBuild:
    """One partial-sketch row per (batch, group) with all three key sketches.

    ``content`` uses the precomputed ``content_raw64`` column when present
    (:class:`HashStage` output), else the first 8 bytes of its sha256 with
    ``hash_content`` (the same raw values, with a NULL hashed as b""), else
    the fast vectorized hash.  A NULL ``content_raw64`` (a row of a file
    without the column, in blocks unified with one that has it) is absent:
    that row gets its sha256 value, the one :class:`HashStage` writes.
    """

    def __init__(
        self,
        settings: HllSettings | None = None,
        grouped: bool = True,
        hash_content: bool = False,
    ):
        self.settings = settings or HllSettings(11, 5)
        self.grouped = grouped
        self.hash_content = hash_content

    @property
    def input_columns(self) -> list[str]:
        """The columns a batch may be read from: the group columns when
        grouped, the three keys' columns and ``content_raw64``."""
        group = list(GROUP_COLS) if self.grouped else []
        return group + ["path", "repo", "commit", "content", "content_raw64"]

    def _hashes(self, batch: pa.Table) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
        """The three keys' raw values and the group hash (``None`` when
        ungrouped); every polars hash comes from one frame."""
        keys = {"path": ["path"], "repo_commit": ["repo", "commit"]}
        raws = {}
        if "content_raw64" in batch.column_names:
            raws["content"] = _content_raw64(batch)
        elif self.hash_content:
            raws["content"] = hashing.sha256_raw64(batch.column("content"))
        else:
            keys["content"] = ["content"]
        seeded = [(cols, hashing.DEFAULT_SEED) for cols in keys.values()]
        if self.grouped:
            seeded.append((list(GROUP_COLS), 0x6E0))
        hashes = hashing.hash64_keys(batch, seeded)
        raws.update(zip(keys, hashes))
        return raws, hashes[-1] if self.grouped else None

    def _sketch_row(self, raws: dict[str, np.ndarray], sel: np.ndarray | slice) -> list[bytes]:
        out = []
        for k in KEYS:
            sk = HllSketch(self.settings)
            sk.add_batch(raws[k][sel])
            out.append(sk.to_bytes())
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        raws, ghash = self._hashes(batch)
        if not self.grouped:
            blobs = self._sketch_row(raws, slice(None))
            cols = {c: pa.array([b], type=pa.binary()) for c, b in zip(SKETCH_COLS, blobs)}
            cols["rows_in"] = pa.array([len(batch)], type=pa.int64())
            return pa.table(cols)
        uniq, first_idx, counts, cols = batchbuild.build_grouped_columns(
            self.settings, ghash, [raws[k] for k in KEYS]
        )
        out = batch.select(list(GROUP_COLS)).take(pa.array(first_idx))
        for c, col in zip(SKETCH_COLS, cols):
            out = out.append_column(c, col)
        out = out.append_column("rows_in", pa.array(counts, type=pa.int64()))
        return build_stage.with_group_hash(out, uniq)


def _content_raw64(batch: pa.Table) -> np.ndarray:
    """``content_raw64`` as int64, each NULL replaced by the sha256 raw
    value of that row's ``content``."""
    import pyarrow.compute as pc

    col = batch.column("content_raw64")
    if not col.null_count:
        return col.to_numpy()
    absent = col.is_null().to_numpy(zero_copy_only=False)
    raw = pc.fill_null(col.cast(pa.int64()), 0).to_numpy().copy()
    raw[absent] = hashing.sha256_raw64(batch.column("content").filter(pa.array(absent)))
    return raw


def merge_partials_block(batch: pa.Table) -> pa.Table:
    """Merge step for the ungrouped variant: all rows to one row."""
    return build_stage.merge_rows(batch, list(SKETCH_COLS))


def flagship_grouped(
    ds,
    settings: HllSettings | None = None,
    batch_size: int | None = 262144,
    concurrency=None,
    include_sketches: bool = False,
    hash_content: bool = True,
):
    """Per-(repo, lang) distinct estimates for all three keys.

    Returns a Dataset with columns ``repo, lang, est_distinct_content,
    est_distinct_path, est_distinct_repo_commit, rows_in`` (plus the three
    serialized sketch columns when ``include_sketches``).  The build runs
    when this is called; the Dataset holds the blocks the merge tasks
    return (``stages.build.merge_grouped``)."""
    kwargs = dict(batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    build = dict(settings=settings, grouped=True, hash_content=hash_content)
    if concurrency is not None:
        partials = ds.map_batches(
            MultiKeyBuild, fn_constructor_kwargs=build, concurrency=concurrency, **kwargs
        )
    else:
        partials = ds.map_batches(MultiKeyBuild(**build), **kwargs)
    merger = build_stage.make_bucket_merger(
        list(GROUP_COLS),
        list(SKETCH_COLS),
        list(EST_COLS),
        include_sketch=include_sketches,
    )
    return build_stage.merge_grouped(partials, merger)


def flagship_global(
    ds,
    settings: HllSettings | None = None,
    batch_size: int | None = 262144,
    hash_content: bool = True,
) -> pa.Table:
    """Global distinct estimates for the three keys; one-row Arrow table
    (zeros for an empty input).  One task merges all partials in one call
    and the driver fetches its row (``stages.build.merge_to_row``)."""
    partials = ds.map_batches(
        MultiKeyBuild(settings=settings, grouped=False, hash_content=hash_content),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    row = build_stage.merge_to_row(partials, merge_partials_block)
    blobs = [row.column(sc)[0].as_py() for sc in SKETCH_COLS]
    # an empty input merges to b"" blobs, whose estimates are 0
    settings = settings or HllSettings(11, 5)
    ests = batchmerge.cardinalities(settings, blobs) if all(blobs) else [0] * len(blobs)
    cols = {ec: pa.array([e], type=pa.int64()) for ec, e in zip(EST_COLS, ests)}
    return pa.table({**cols, "rows_in": row.column("rows_in")})
