"""Exact duplicate-span detection: contiguous token runs repeated across
documents (the ExactSubstr corpus-hygiene signal of Lee et al. 2021,
"Deduplicating Training Data Makes Language Models Better", at token-gram
granularity): every position whose ``gram``-token window also occurs in at
least ``min_docs`` distinct documents is marked, and overlapping/adjacent
marked windows merge into maximal spans ``[span_start, span_end)`` (token
indices).  Span REMOVAL is downstream policy — this operator returns the
span table; cut/keep/drop decisions join back on ``id_col``.

Two engine shapes, identical outputs (pinned by tests):

* ``method="join"`` (default) — no driver materialization and no cap:
  ONE gram-bucketed exchange of ``(gram64, doc, pos)`` rows (≈24 B/token
  — the honest cost of exact-substring dedup without a broadcastable dup
  set) where duplicate detection and position marking CO-LOCATE per
  bucket, then a doc-bucketed exchange of only the marked positions
  (sparse) for the span merge.  The corpus tokenizes ONCE; measured 2×
  the broadcast method's steady-state throughput single-node
  (PERF_NOTES #39).
* ``method="broadcast"`` — pass 1 finds the duplicated-gram set with the
  :mod:`rayhll.pipelines.crossdup`-style exchange of DISTINCT
  ``(gram, doc)`` pairs (in-map per-doc dedup, one gram-bucketed reduce);
  the resulting gram-hash set is collected driver-side (BOUNDED: at most
  ``max_broadcast_grams`` — the same contract as the dedup prefilter's
  ``PREFILTER_MAX_IDS``), range-partition-sharded and broadcast (one
  ``ray.put`` per shard, read zero-copy by every task — the
  :mod:`rayhll.pipelines.decontam` membership machinery), and pass 2
  streams the corpus with ZERO shuffle: gram+position kernel, sharded
  ``searchsorted`` membership, in-map span merge.  Pays a second
  tokenize pass, so it loses single-node; it wins when the exchange is
  the bottleneck (network-bound clusters: 16 B dedup'd pair rows vs
  24 B position rows and no second exchange), when the dup-gram set is
  REUSED across incremental corpus updates, or when spans must stream
  out co-partitioned with the input docs.

Gram-hash equality equals token-sequence equality modulo 2^-64 collisions
(the documented exact-dedup tolerance); duplication is CROSS-document
(``min_docs`` DISTINCT docs — a gram repeated only within one document is
not marked), matching the SQL oracle's ``COUNT(DISTINCT doc_id)``.

reference: no counterpart in /root/reference (python-hll is sketch-only);
builder-brief training-data-pipeline requirement.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import polars as pl
import pyarrow as pa
import ray

from rayhll.functions.hashing import splitmix64
from rayhll.pipelines.dedup import check_integer_ids
from rayhll.pipelines.decontam import _is_hit, _shard_shift
from rayhll.pipelines.text import TOKEN_PATTERN, token_gram_hashes

__all__ = ["duplicate_spans", "cut_spans"]

#: driver-side collection bound for the broadcast method's dup-gram set
#: (8 B/gram -> ~256 MB of object store at the cap)
MAX_BROADCAST_GRAMS = 32_000_000


def _grams_with_positions(texts: pl.Series, gram: int, token_pattern: str):
    """(doc_idx, pos, grams): flattened gram-hash stream with each gram's
    0-based token start position inside its document (doc-major order)."""
    valid_lens, grams = token_gram_hashes(texts, gram, token_pattern)
    doc_idx = np.repeat(np.arange(len(valid_lens), dtype=np.int64), valid_lens)
    doc_starts = np.concatenate(([0], np.cumsum(valid_lens)[:-1]))
    pos = np.arange(len(grams), dtype=np.int64) - np.repeat(doc_starts, valid_lens)
    return doc_idx, pos, grams


def _merge_spans(doc: np.ndarray, pos: np.ndarray, gram: int):
    """Merge marked gram positions (sorted by (doc, pos)) into maximal
    spans: a new span starts when the document changes or the gap to the
    previous marked position exceeds ``gram`` (window [p, p+gram) neither
    overlaps nor abuts [q, q+gram) when p - q > gram)."""
    if len(doc) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    brk = np.empty(len(doc), dtype=bool)
    brk[0] = True
    brk[1:] = (doc[1:] != doc[:-1]) | ((pos[1:] - pos[:-1]) > gram)
    starts = np.flatnonzero(brk)
    ends = np.concatenate((starts[1:], [len(doc)])) - 1
    return doc[starts], pos[starts], pos[ends] + gram


def _shard_sorted(grams: np.ndarray, num_shards: int) -> list[np.ndarray]:
    """Range-partition a SORTED uint64 gram array by top hash bits (the
    decontam shard layout, so ``_is_hit`` serves both operators)."""
    if num_shards < 1 or num_shards & (num_shards - 1):
        raise ValueError(f"num_shards must be a power of two, got {num_shards}")
    if num_shards == 1:
        return [grams]
    edges = np.arange(1, num_shards, dtype=np.uint64) << _shard_shift(num_shards)
    return np.split(grams, np.searchsorted(grams, edges))


def _dup_gram_dataset(
    ds, text_col: str, id_col: str, gram: int, min_docs: int,
    num_buckets: int, token_pattern: str
):
    """Pass 1 of the broadcast method: the distinct gram hashes appearing
    in >= ``min_docs`` distinct documents, as a Dataset of ``_g`` rows
    (one gram-bucketed exchange of DISTINCT (gram, doc) pairs)."""

    def explode_distinct_pairs(batch: pa.Table) -> pa.Table:
        texts = pl.from_arrow(batch.column(text_col).combine_chunks())
        doc_idx, _, grams = _grams_with_positions(texts, gram, token_pattern)
        if len(grams):
            # DISTINCT (doc, gram) within the batch: doc-salted single-key
            # argsort (the crossdup kernel) — repeated grams inside one
            # doc ship once
            salt = splitmix64(
                np.arange(int(doc_idx[-1]) + 1, dtype=np.uint64)
                * np.uint64(2654435769)
            )
            salted = splitmix64(grams ^ salt[doc_idx])
            order = np.argsort(salted)
            s = salted[order]
            keep = order[np.concatenate(([True], s[1:] != s[:-1]))]
            doc_idx, grams = doc_idx[keep], grams[keep]
        ids = batch.column(id_col).to_numpy()
        bucket = (grams % np.uint64(num_buckets)).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[doc_idx]),
                "_g": pa.array(grams.view(np.int64), type=pa.int64()),
                "_bucket": pa.array(bucket, type=pa.int64()),
            }
        )

    def dup_grams(tbl: pa.Table) -> pa.Table:
        g = tbl.column("_g").to_numpy()
        order = np.argsort(g, kind="stable")
        gs = g[order]
        first = np.concatenate(([True], gs[1:] != gs[:-1]))
        starts = np.flatnonzero(first)
        run_lens = np.diff(np.concatenate((starts, [len(gs)])))
        # pairs are distinct per doc -> run length == distinct doc count
        return pa.table({"_g": pa.array(gs[starts[run_lens >= min_docs]])})

    pairs = ds.map_batches(
        explode_distinct_pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    return pairs.groupby("_bucket").map_groups(dup_grams, batch_format="pyarrow")


class _SpanMarkStage:
    """Actor-pool stage for the broadcast method's single corpus pass:
    shard refs are ``ray.get`` ONCE per actor in ``__init__`` (zero-copy
    object-store views), each batch runs the gram+position kernel, the
    sharded membership search and the in-map span merge."""

    def __init__(self, shard_refs, text_col, id_col, gram, token_pattern):
        self.shards = [ray.get(r) for r in shard_refs]
        self.text_col = text_col
        self.id_col = id_col
        self.gram = gram
        self.token_pattern = token_pattern

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = pl.from_arrow(batch.column(self.text_col).combine_chunks())
        doc_idx, pos, grams = _grams_with_positions(
            texts, self.gram, self.token_pattern
        )
        hit = _is_hit(grams, self.shards)
        # doc-major generation order == sorted by (doc, pos) already
        d_span, s_start, s_end = _merge_spans(
            doc_idx[hit], pos[hit], self.gram
        )
        ids = batch.column(self.id_col).to_numpy()
        return pa.table(
            {
                self.id_col: pa.array(ids[d_span]),
                "span_start": pa.array(s_start, type=pa.int64()),
                "span_end": pa.array(s_end, type=pa.int64()),
            }
        )


def duplicate_spans(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    gram: int = 8,
    min_docs: int = 2,
    method: str = "join",
    num_buckets: int | None = None,
    num_shards: int = 1,
    max_broadcast_grams: int = MAX_BROADCAST_GRAMS,
    token_pattern: str = TOKEN_PATTERN,
    concurrency=None,
):
    """Maximal cross-document duplicate token spans per document.

    Returns a Dataset of ``(id_col, span_start, span_end)`` rows — token
    indices, end-exclusive; documents with no duplicated window produce no
    rows.  Input contract, for both methods: ``id_col`` is an integer
    column and UNIQUE (one row per document — the same contract as
    :func:`rayhll.pipelines.crossdup.cross_doc_duplication`); another id
    type raises ``ValueError`` at entry.

    ``method="broadcast"`` raises ``ValueError`` when the duplicated-gram
    set exceeds ``max_broadcast_grams`` (switch to ``method="join"`` —
    unbounded, one positions exchange).  ``num_shards`` (power of two)
    splits the broadcast across that many ``ray.put`` objects for sets
    past the single-object comfort zone."""
    from rayhll.functions.partitioning import resolve_num_buckets

    if min_docs < 2:
        raise ValueError("min_docs must be >= 2 (cross-document duplication)")
    ds = check_integer_ids(ds, id_col, "duplicate_spans")
    if method == "broadcast":
        # pairs exchange carries ~distinct-grams-per-doc rows per input row
        buckets = resolve_num_buckets(ds, num_buckets, rows_per_input_row=50.0)
        dup = _dup_gram_dataset(
            ds, text_col, id_col, gram, min_docs, buckets, token_pattern
        ).materialize()
        n_dup = dup.count()
        if n_dup > max_broadcast_grams:
            raise ValueError(
                f"duplicated-gram set has {n_dup} grams > max_broadcast_grams="
                f"{max_broadcast_grams}; use method='join' (no driver "
                "materialization) or raise the cap"
            )
        if n_dup:
            arr = np.sort(
                dup.to_pandas()["_g"].to_numpy().view(np.uint64)
            )
        else:
            warnings.warn("duplicate_spans: no duplicated grams found")
            arr = np.empty(0, dtype=np.uint64)
        refs = [ray.put(s) for s in _shard_sorted(arr, num_shards)]
        if concurrency is None:
            # the span pass is tokenize-bound: let the pool scale to the
            # cluster (a fixed (1, 8) cap starves it on wide nodes)
            n_cpu = int(ray.cluster_resources().get("CPU", 8))
            concurrency = (1, max(8, n_cpu))
        return ds.map_batches(
            _SpanMarkStage,
            batch_format="pyarrow",
            zero_copy_batch=True,
            fn_constructor_args=(refs, text_col, id_col, gram, token_pattern),
            concurrency=concurrency,
        )
    if method != "join":
        raise ValueError(f"unknown method {method!r}")

    # join method: positions exchange (~tokens-per-doc rows per input row)
    buckets = resolve_num_buckets(ds, num_buckets, rows_per_input_row=100.0)

    def explode_positions(batch: pa.Table) -> pa.Table:
        texts = pl.from_arrow(batch.column(text_col).combine_chunks())
        doc_idx, pos, grams = _grams_with_positions(texts, gram, token_pattern)
        ids = batch.column(id_col).to_numpy()
        bucket = (grams % np.uint64(buckets)).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[doc_idx]),
                "_p": pa.array(pos, type=pa.int64()),
                "_g": pa.array(grams.view(np.int64), type=pa.int64()),
                "_bucket": pa.array(bucket, type=pa.int64()),
            }
        )

    def mark_dup_positions(tbl: pa.Table) -> pa.Table:
        g = tbl.column("_g").to_numpy()
        d = tbl.column(id_col).to_numpy()
        p = tbl.column("_p").to_numpy()
        order = np.lexsort((d, g))
        gs, ds_, ps = g[order], d[order], p[order]
        new_g = np.concatenate(([True], gs[1:] != gs[:-1]))
        new_gd = new_g | np.concatenate(([True], ds_[1:] != ds_[:-1]))
        starts = np.flatnonzero(new_g)
        run_lens = np.diff(np.concatenate((starts, [len(gs)])))
        # positions are NOT per-doc deduped here, so count distinct docs
        # per gram run via the (gram, doc) change flags
        n_docs = np.add.reduceat(new_gd, starts)
        marked = np.repeat(n_docs >= min_docs, run_lens)
        dd, pp = ds_[marked], ps[marked]
        dbucket = (
            splitmix64(dd.astype(np.uint64)) % np.uint64(buckets)
        ).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(dd),
                "_p": pa.array(pp, type=pa.int64()),
                "_dbucket": pa.array(dbucket, type=pa.int64()),
            }
        )

    def merge_bucket(tbl: pa.Table) -> pa.Table:
        d = tbl.column(id_col).to_numpy()
        p = tbl.column("_p").to_numpy()
        order = np.lexsort((p, d))
        d_span, s_start, s_end = _merge_spans(d[order], p[order], gram)
        return pa.table(
            {
                id_col: pa.array(d_span),
                "span_start": pa.array(s_start, type=pa.int64()),
                "span_end": pa.array(s_end, type=pa.int64()),
            }
        )

    positions = ds.map_batches(
        explode_positions, batch_format="pyarrow", zero_copy_batch=True
    )
    marked = positions.groupby("_bucket").map_groups(
        mark_dup_positions, batch_format="pyarrow"
    )
    return marked.groupby("_dbucket").map_groups(
        merge_bucket, batch_format="pyarrow"
    )


class _CutStage:
    """Actor-pool span application: the (sparse, by the dedup contract)
    span table broadcasts as CSR arrays ``ray.get`` once per actor; docs
    WITHOUT spans pass through byte-identical with zero per-row work, and
    only spanned docs pay a per-doc regex re-tokenization to map token
    spans to char offsets (a bounded loop over the sparse hit set)."""

    def __init__(self, refs, text_col, id_col, token_pattern):
        self.ids, self.offsets, self.starts, self.ends = [ray.get(r) for r in refs]
        self.text_col = text_col
        self.id_col = id_col
        self.pattern = re.compile(token_pattern)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy()
        n_cut = np.zeros(len(ids), dtype=np.int64)
        if len(self.ids):
            idx = np.searchsorted(self.ids, ids)
            idx_c = np.minimum(idx, len(self.ids) - 1)
            has = self.ids[idx_c] == ids
        else:
            has = np.zeros(len(ids), dtype=bool)
        if not has.any():
            return batch.append_column("n_cut_tokens", pa.array(n_cut))
        texts = batch.column(self.text_col).to_pylist()
        for i in np.flatnonzero(has):
            t = texts[i] or ""
            toks = list(self.pattern.finditer(t))
            j0 = int(self.offsets[idx[i]])
            j1 = int(self.offsets[idx[i] + 1])
            pieces, prev, cut = [], 0, 0
            for s, e in zip(self.starts[j0:j1], self.ends[j0:j1]):
                s, e = int(s), min(int(e), len(toks))
                if s >= len(toks) or e <= s:
                    continue
                # cut the span's tokens plus the trailing inter-token gap
                # (up to the next kept token), so splices never leave a
                # doubled separator; a span ending at the last token cuts
                # to that token's end, preserving any trailing text
                cs = toks[s].start()
                ce = toks[e].start() if e < len(toks) else toks[e - 1].end()
                pieces.append(t[prev:cs])
                prev = ce
                cut += e - s
            pieces.append(t[prev:])
            texts[i] = "".join(pieces)
            n_cut[i] = cut
        col_idx = batch.schema.get_field_index(self.text_col)
        out = batch.set_column(
            col_idx, self.text_col, pa.array(texts, type=pa.string())
        )
        return out.append_column("n_cut_tokens", pa.array(n_cut))


def cut_spans(
    ds,
    spans,
    text_col: str = "text",
    id_col: str = "doc_id",
    token_pattern: str = TOKEN_PATTERN,
    max_broadcast_spans: int = MAX_BROADCAST_GRAMS,
    concurrency=None,
):
    """Apply a :func:`duplicate_spans` table to the corpus: remove each
    ``[span_start, span_end)`` token range from its document's text (the
    ExactSubstr CUT policy).  Returns the input dataset with ``text_col``
    spliced and an ``n_cut_tokens`` column appended; documents without
    spans pass through byte-identical.

    ``token_pattern`` MUST match the one the spans were computed with —
    token indices are mapped back to char offsets by re-tokenizing only
    the (sparse) spanned documents.  The span table is collected
    driver-side (BOUNDED by ``max_broadcast_spans`` — spans are sparse by
    the dedup contract) and broadcast once as CSR arrays."""
    mat = spans.materialize()
    n = mat.count()
    if n > max_broadcast_spans:
        raise ValueError(
            f"span table has {n} rows > max_broadcast_spans="
            f"{max_broadcast_spans}; cut in id-partitioned batches or raise "
            "the cap"
        )
    if n:
        df = mat.to_pandas()
        d = df[id_col].to_numpy()
        s = df["span_start"].to_numpy()
        e = df["span_end"].to_numpy()
        order = np.lexsort((s, d))
        d, s, e = d[order], s[order], e[order]
        uids, first = np.unique(d, return_index=True)
        offsets = np.concatenate((first, [len(d)])).astype(np.int64)
    else:
        uids = np.empty(0, dtype=np.int64)
        offsets = np.zeros(1, dtype=np.int64)
        s = e = np.empty(0, dtype=np.int64)
    refs = [ray.put(a) for a in (uids, offsets, s, e)]
    if concurrency is None:
        concurrency = (1, max(8, int(ray.cluster_resources().get("CPU", 8))))
    return ds.map_batches(
        _CutStage,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_constructor_args=(refs, text_col, id_col, token_pattern),
        concurrency=concurrency,
    )
