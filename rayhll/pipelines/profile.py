"""Dataset profiling: distinct-count estimates for every column in ONE pass.

A schema-profiling operator: each batch builds one sketch per profiled
column (all vectorized), emitting #columns fixed-size rows keyed by the
column name; ``stages.build.merge_grouped`` merges them per column like any
grouped sketch aggregation (in merge tasks sliced by column-name hash, and
built in plain tasks fused with the read over a bare ``read_parquet``).  At
100 TB this reads the data once and merges #blocks × #columns KB-rows — the
way a data catalog populates per-column cardinality stats.
"""

from __future__ import annotations

import pyarrow as pa

from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch
from rayhll.functions import hashing
from rayhll.stages import build as build_stage


class ProfileBuild:
    """map_batches callable: one (column, sketch, rows_in) row per column of
    ``columns`` (each of the batch's own columns when None), with the
    column's group hash for ``stages.build.make_bucket_merger``."""

    def __init__(self, columns: list[str] | None, settings: HllSettings | None = None):
        self.columns = list(columns) if columns else None
        self.settings = settings or HllSettings(11, 5)

    @property
    def input_columns(self) -> list[str] | None:
        """``columns``; ``None`` (every column) when profiling them all."""
        return self.columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        columns = batch.column_names if self.columns is None else self.columns
        blobs = []
        for c in columns:
            sk = HllSketch(self.settings)
            sk.add_batch(hashing.hash64_table(batch, [c]))
            blobs.append(sk.to_bytes())
        out = pa.table(
            {
                "col_name": pa.array(columns, type=pa.string()),
                build_stage.SKETCH_COL: pa.array(blobs, type=pa.binary()),
                build_stage.ROWS_COL: pa.array([len(batch)] * len(columns), type=pa.int64()),
            }
        )
        ghash = hashing.hash64_table(out, ["col_name"], seed=build_stage.GROUP_HASH_SEED)
        return build_stage.with_group_hash(out, ghash)


def profile_distinct(ds, columns: list[str] | None = None, settings: HllSettings | None = None):
    """Per-column distinct estimates: Dataset ``(col_name, distinct_est,
    rows_in)``, over ``columns`` or every column of the data.  The build runs
    when this is called (``stages.build.merge_grouped``)."""
    partials = ds.map_batches(
        ProfileBuild(columns, settings), batch_format="pyarrow", zero_copy_batch=True
    )
    merger = build_stage.make_bucket_merger(
        ["col_name"], estimate_cols=["distinct_est"], include_sketch=False
    )
    return build_stage.merge_grouped(partials, merger)
