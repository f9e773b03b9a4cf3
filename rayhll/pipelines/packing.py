"""Sequence-packing manifest: the GPT-style concat-and-chunk layout —
every document's tokens land at a deterministic offset in the single
global token stream (ordered by ``id_col``), which fixed-length training
sequences then chunk.  The manifest row ``(doc_id, n_tokens, tok_start,
seq_first, seq_last)`` tells a training loader exactly which sequences a
document touches (and, by difference, where sequence boundaries fall
inside it) WITHOUT materializing any token stream — packing becomes a
metadata join instead of a data movement.

Shape — the global running sum is the whole problem (a sequential
recurrence over the corpus), solved with the same two-pass prefix pattern
as ``functions/sample.token_budget_sample``:

1. ONE tokenize pass projects the corpus to compact ``(id, n_tokens)``
   rows (16 B/row), materialized once;
2. a bounded boundary pass (<= 64 sampled ids per block, independent of
   block size) picks id-range quantiles sized so no reduce task holds
   more than ``target_rows_per_range`` rows;
3. an exact per-range token-sum pass (tiny ``(range, sum)`` rows) plus a
   driver-side exclusive prefix gives every range its global offset;
4. the projection exchanges ONCE, co-located per range: local sort by id
   + cumsum + the range offset = every document's exact ``tok_start``.

All outputs are integers, so the DuckDB mirror (windowed ``SUM ... ROWS
UNBOUNDED PRECEDING``) matches hash-exactly.

Input contract: ``id_col`` is UNIQUE and non-null (the global order IS
the pack order; ties would make the layout ambiguous).

reference: no counterpart in /root/reference (python-hll is sketch-only);
builder-brief training-data-pipeline requirement.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from rayhll.pipelines.text import TOKEN_PATTERN

__all__ = ["pack_sequences"]


def pack_sequences(
    ds,
    seq_len: int,
    text_col: str = "text",
    id_col: str = "doc_id",
    weight_col: str | None = None,
    token_pattern: str = TOKEN_PATTERN,
    target_rows_per_range: int = 1_000_000,
    max_ranges: int = 4096,
    stats_out: dict | None = None,
):
    """Packing manifest for fixed-length sequences of ``seq_len`` tokens.

    Returns a Dataset of ``(id_col, n_tokens, tok_start, seq_first,
    seq_last)`` rows — ``tok_start`` is the document's offset in the
    global token stream (documents concatenated in ``id_col`` order),
    ``seq_first``/``seq_last`` the first/last training sequence its
    tokens occupy (null for empty documents).  ``weight_col`` names a
    precomputed token-count column to skip the tokenize (any non-negative
    int works — the operator packs generic weights; a negative weight
    raises ``ValueError``)."""
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        if weight_col is not None:
            n = batch.column(weight_col).to_numpy().astype(np.int64)
        else:
            texts = pl.from_arrow(batch.column(text_col).combine_chunks())
            n = (
                texts.to_frame("t")
                .select(
                    pl.col("t")
                    .fill_null("")
                    .str.count_matches(token_pattern)
                    .cast(pl.Int64)
                )["t"]
                .to_numpy()
            )
        return pa.table({id_col: ids, "_n": pa.array(n, type=pa.int64())})

    proj = ds.map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    total_rows = proj.count()
    if weight_col is not None and total_rows and proj.min("_n") < 0:
        # one negative weight would shift every later tok_start
        raise ValueError(f"pack_sequences: weight_col {weight_col!r} has negative weights")
    if total_rows == 0:
        return proj.map_batches(
            lambda t: pa.table(
                {
                    id_col: t.column(id_col),
                    "n_tokens": pa.array([], type=pa.int64()),
                    "tok_start": pa.array([], type=pa.int64()),
                    "seq_first": pa.array([], type=pa.int64()),
                    "seq_last": pa.array([], type=pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    num_ranges = int(min(max_ranges, max(1, -(-total_rows // target_rows_per_range))))

    # bounded boundary sample: <= 64 ids per block regardless of block size
    def sample_ids(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        stride = max(1, len(ids) // 64)
        return pa.table({id_col: pa.array(ids[::stride])})

    sampled = np.sort(
        proj.map_batches(sample_ids, batch_format="pyarrow", batch_size=None)
        .to_pandas()[id_col]
        .to_numpy()
    )
    if num_ranges > 1:
        qpos = (np.arange(1, num_ranges) * len(sampled)) // num_ranges
        bounds = np.unique(sampled[qpos])  # range r = ids in [bounds[r-1], bounds[r])
    else:
        bounds = np.empty(0, dtype=sampled.dtype)
    n_ranges = len(bounds) + 1

    def range_sums(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        n = batch.column("_n").to_numpy()
        r = np.searchsorted(bounds, ids, side="right")
        sums = np.bincount(r, weights=n, minlength=n_ranges).astype(np.int64)
        return pa.table(
            {
                "_r": pa.array(np.arange(n_ranges, dtype=np.int64)),
                "_sum": pa.array(sums, type=pa.int64()),
            }
        )

    per_block = proj.map_batches(range_sums, batch_format="pyarrow", batch_size=None).to_pandas()
    range_totals = np.zeros(n_ranges, dtype=np.int64)
    np.add.at(range_totals, per_block["_r"].to_numpy(), per_block["_sum"].to_numpy())
    offsets = np.concatenate(([0], np.cumsum(range_totals)[:-1]))
    if stats_out is not None:
        stats_out["n_ranges"] = n_ranges
        stats_out["range_totals"] = range_totals.tolist()

    def attach_range(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        r = np.searchsorted(bounds, ids, side="right").astype(np.int64)
        return batch.append_column("_r", pa.array(r, type=pa.int64()))

    def pack_range(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy()
        n = tbl.column("_n").to_numpy()
        r = int(tbl.column("_r")[0].as_py())
        order = np.argsort(ids, kind="stable")
        ids_s, n_s = ids[order], n[order]
        tok_start = int(offsets[r]) + np.cumsum(n_s) - n_s
        has = n_s > 0
        seq_first = np.where(has, tok_start // seq_len, -1)
        seq_last = np.where(has, (tok_start + n_s - 1) // seq_len, -1)
        return pa.table(
            {
                id_col: pa.array(ids_s),
                "n_tokens": pa.array(n_s, type=pa.int64()),
                "tok_start": pa.array(tok_start, type=pa.int64()),
                "seq_first": pa.array(
                    np.where(has, seq_first, 0), type=pa.int64(),
                    mask=~has,
                ),
                "seq_last": pa.array(
                    np.where(has, seq_last, 0), type=pa.int64(), mask=~has
                ),
            }
        )

    return (
        proj.map_batches(attach_range, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_r")
        .map_groups(pack_range, batch_format="pyarrow")
    )
