"""Sequence-packing manifest: the GPT-style concat-and-chunk layout —
every document's tokens land at a deterministic offset in the single
global token stream (ordered by ``id_col``), which fixed-length training
sequences then chunk.  The manifest row ``(doc_id, n_tokens, tok_start,
seq_first, seq_last)`` tells a training loader exactly which sequences a
document touches (and, by difference, where sequence boundaries fall
inside it) WITHOUT materializing any token stream — packing becomes a
metadata join instead of a data movement.

``tok_start`` is a global running sum of token counts in id order: ONE
tokenize pass projects the corpus to compact ``(id, n_tokens)`` rows
(16 B/row), and :func:`rayhll.stages.prefix.range_prefix` (key = id,
weight = token count) gives each document its exclusive prefix.

All outputs are integers, so the DuckDB mirror (windowed ``SUM ... ROWS
UNBOUNDED PRECEDING``) matches hash-exactly.

Input contract: ``id_col`` is UNIQUE and non-null (the global order IS
the pack order; ties would make the layout ambiguous); a null or
duplicate id raises ``ValueError``.

reference: no counterpart in /root/reference (python-hll is sketch-only);
builder-brief training-data-pipeline requirement.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from rayhll.pipelines.text import TOKEN_PATTERN
from rayhll.stages.prefix import range_prefix, with_known_id_type

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
    w = weight_col or "_n"  # range_prefix's negative-weight error names it

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        if weight_col is not None:
            n = batch.column(weight_col).to_numpy().astype(np.int64)
        else:
            texts = pl.from_arrow(batch.column(text_col).combine_chunks())
            n = texts.fill_null("").str.count_matches(token_pattern).cast(pl.Int64).to_numpy()
        return pa.table({id_col: ids, w: pa.array(n, type=pa.int64())})

    def pack_range(tbl: pa.Table, offset: int) -> pa.Table:
        n = tbl.column(w).to_numpy()
        tok_start = offset + np.cumsum(n) - n
        empty = n == 0
        return pa.table(
            {
                id_col: tbl.column(id_col),
                "n_tokens": pa.array(n, type=pa.int64()),
                "tok_start": pa.array(tok_start, type=pa.int64()),
                "seq_first": pa.array(tok_start // seq_len, type=pa.int64(), mask=empty),
                "seq_last": pa.array((tok_start + n - 1) // seq_len, type=pa.int64(), mask=empty),
            }
        )

    return range_prefix(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        id_col,
        id_col,
        w,
        with_known_id_type(pack_range, ds, id_col),
        target_rows_per_range,
        max_ranges,
        stats_out,
    )
