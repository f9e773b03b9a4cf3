"""DSIR-style importance resampling (Xie et al. 2023, "Data Selection
for Language Models via Importance Resampling"): select raw-corpus
documents whose hashed n-gram distribution looks like a TARGET corpus —
the standard "make the pretraining mix look like Wikipedia+books"
data-selection shape.

Three composable stages, each in the engine's cheapest legal shape:

* :func:`hashed_ngram_counts` — the corpus's hashed n-gram bucket
  histogram (the hashing trick IS the DSIR feature space, so bucket
  collisions are part of the estimator, not an error).  Fixed-size
  int64[num_buckets] partials per block, tree-merged by
  :func:`rayhll.ray_agg.aggregate_family` — ZERO shuffle, driver
  receives exactly one vector regardless of corpus size.
* :func:`dsir_log_weights` — per-document importance log-weight
  ``sum over grams of log p_target(bucket) - log p_raw(bucket)``
  (Laplace-smoothed), against ONE broadcast log-ratio vector — a
  stateless zero-shuffle map.
* :func:`dsir_select` — the top-k manifest: ``mode="topk"`` takes the
  k highest weights deterministically (ties by id); ``mode="gumbel"``
  adds seeded Gumbel noise (``-log(-log(u))`` with ``u`` derived from
  ``splitmix64(id_hash ^ seed)``) so the selection SAMPLES
  proportionally to the softmax of weights (the paper's resampling),
  reproducibly — rerun-identical, no RNG state.  Per-block partial
  top-k cuts (<= k rows leave any block) merge in one final task; k is
  a manifest (selection lists are driver-scale by contract — raise
  ``max_k`` deliberately for larger manifests).

reference: no counterpart in /root/reference (python-hll is sketch-only);
builder-brief training-data-pipeline requirement (data mixing /
selection).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from rayhll.functions.hashing import splitmix64
from rayhll.pipelines.dedup import check_integer_ids
from rayhll.pipelines.text import TOKEN_PATTERN, token_gram_hashes, token_hash_stream

__all__ = [
    "hashed_ngram_counts",
    "dsir_log_weights",
    "dsir_select",
]

#: selection manifests are collected into one merge task; 16M rows of
#: (id, weight, key) is ~384 MB — the same driver comfort zone as the
#: dedup prefilter caps
MAX_SELECT_K = 16_000_000


def _gram_stream(batch: pa.Table, text_col: str, gram: int, token_pattern: str):
    texts = pl.from_arrow(batch.column(text_col).combine_chunks())
    if gram == 1:
        return token_hash_stream(texts, token_pattern)
    return token_gram_hashes(texts, gram, token_pattern)


class _BucketCounts:
    """int64 bucket-histogram sketch for aggregate_family: fixed-size,
    associative merge by elementwise add."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts

    def merge(self, other: "_BucketCounts") -> None:
        self.counts = self.counts + other.counts

    def to_bytes(self) -> bytes:
        return self.counts.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "_BucketCounts":
        return cls(np.frombuffer(data, dtype=np.int64).copy())


def hashed_ngram_counts(
    ds,
    text_col: str = "text",
    num_buckets: int = 65536,
    gram: int = 1,
    token_pattern: str = TOKEN_PATTERN,
) -> np.ndarray:
    """The corpus's hashed ``gram``-gram bucket histogram
    (int64[num_buckets], driver-side)."""
    from rayhll.ray_agg import aggregate_family

    if num_buckets < 2:
        raise ValueError("num_buckets must be >= 2")

    def build(batch: pa.Table) -> bytes:
        _, grams = _gram_stream(batch, text_col, gram, token_pattern)
        counts = np.bincount(
            (grams % np.uint64(num_buckets)).astype(np.int64), minlength=num_buckets
        ).astype(np.int64)
        return counts.tobytes()

    return aggregate_family(ds, build, _BucketCounts).counts


def dsir_log_weights(
    ds,
    target_counts: np.ndarray,
    raw_counts: np.ndarray,
    text_col: str = "text",
    id_col: str = "doc_id",
    gram: int = 1,
    token_pattern: str = TOKEN_PATTERN,
    smoothing: float = 1.0,
):
    """Per-document importance log-weights against broadcast histograms.

    Returns a Dataset of ``(id_col, n_grams, log_weight)`` rows —
    ``log_weight = sum_g log p_t(bucket(g)) - log p_r(bucket(g))`` with
    Laplace ``smoothing`` on both distributions (documents with no grams
    get weight 0.0 and ``n_grams`` 0).

    Pick ``smoothing`` so the smoothing MASS (``num_buckets x
    smoothing``) stays well under the smaller corpus's gram count —
    above it both distributions flatten toward uniform and the weights
    lose (or even invert) their signal.  The default 1.0 suits
    web-scale histograms; small calibration corpora want 1e-3 or a
    smaller ``num_buckets``."""
    import ray

    if len(target_counts) != len(raw_counts):
        raise ValueError("target/raw histograms must share num_buckets")
    if smoothing <= 0:
        raise ValueError("smoothing must be > 0 (unseen buckets)")
    num_buckets = len(target_counts)
    t = target_counts.astype(np.float64) + smoothing
    r = raw_counts.astype(np.float64) + smoothing
    log_ratio = (np.log(t) - np.log(t.sum())) - (np.log(r) - np.log(r.sum()))
    ratio_ref = ray.put(log_ratio)

    def weigh(batch: pa.Table) -> pa.Table:
        lr = ray.get(ratio_ref)  # per-worker deserialization cache
        lengths, grams = _gram_stream(batch, text_col, gram, token_pattern)
        bucket = (grams % np.uint64(num_buckets)).astype(np.int64)
        per_gram = lr[bucket]
        # per-doc segment sums via reduceat (NOT a cumsum difference):
        # identical documents must get BIT-IDENTICAL weights regardless
        # of their position in the batch, so ties resolve by id
        # deterministically — cumsum cancellation breaks that at ~1e-13
        starts = np.cumsum(lengths) - lengths
        if len(lengths):
            # sentinel 0.0 so empty docs (start == total grams) index a
            # real slot instead of clipping (clipping would steal the
            # previous doc's last gram)
            pg = np.append(per_gram, 0.0)
            logw = np.add.reduceat(pg, starts)
            logw[lengths == 0] = 0.0
        else:
            logw = np.zeros(0, dtype=np.float64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_grams": pa.array(lengths, type=pa.int64()),
                "log_weight": pa.array(logw, type=pa.float64()),
            }
        )

    return ds.map_batches(weigh, batch_format="pyarrow", zero_copy_batch=True)


def dsir_select(
    weights,
    k: int,
    id_col: str = "doc_id",
    weight_col: str = "log_weight",
    mode: str = "topk",
    seed: int = 0,
    max_k: int | None = None,
):
    """Select ``k`` rows from a weights Dataset.

    ``mode="topk"``: the k largest ``weight_col`` values, ties broken by
    ascending ``id_col`` (fully deterministic).  ``mode="gumbel"``: the
    Gumbel-top-k trick — key = weight + Gumbel(hash(id, seed)) — which
    draws k documents WITHOUT replacement with probability proportional
    to ``exp(weight)`` (Vieira 2014), reproducibly.  Returns the
    selected rows of ``weights`` (all columns) plus ``_sel_key``.

    ``id_col`` must be an integer column: other ids (``"7"``, ``1.0``)
    raise ``ValueError`` (``dedup.check_integer_ids``), where they used to
    be cast to int64 for the Gumbel keys.
    """
    if mode not in ("topk", "gumbel"):
        raise ValueError(f"mode={mode!r} not in ('topk', 'gumbel')")
    cap = MAX_SELECT_K if max_k is None else int(max_k)
    if not (1 <= k <= cap):
        raise ValueError(f"k must be in [1, {cap}] (raise max_k deliberately)")
    weights = check_integer_ids(weights, id_col, "dsir_select")

    def key_of(batch: pa.Table) -> np.ndarray:
        w = batch.column(weight_col).to_numpy().astype(np.float64)
        if mode == "topk":
            return w
        ids = batch.column(id_col).cast(pa.int64()).to_numpy()
        seed_mix = np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        h = splitmix64(ids.astype(np.uint64) ^ seed_mix)
        u = (h.astype(np.float64) + 0.5) / 2.0**64
        return w - np.log(-np.log(u))

    def partial_topk(batch: pa.Table) -> pa.Table:
        key = key_of(batch)
        n = len(key)
        out = batch.append_column("_sel_key", pa.array(key, type=pa.float64()))
        if n <= k:
            return out
        keep = np.argpartition(-key, k - 1)[:k]
        return out.take(pa.array(np.sort(keep)))

    def merge_topk(tbl: pa.Table) -> pa.Table:
        key = tbl.column("_sel_key").to_numpy()
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        # descending key, ascending id on ties — deterministic manifest
        order = np.lexsort((ids, -key))[:k]
        return tbl.take(pa.array(order))

    # batch_size=None: the partial cut must see WHOLE blocks — with the
    # default ~1k-row batches a batch smaller than k is never trimmed and
    # the merge task would receive the whole corpus.  Merge input is
    # bounded by min(k, block_rows) x blocks.
    return (
        weights.map_batches(
            partial_topk,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=None,
        )
        .repartition(1)
        .map_batches(merge_topk, batch_format="pyarrow", batch_size=None)
    )
