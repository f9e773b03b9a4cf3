"""DSIR importance resampling: histogram exactness vs a python recount,
log-weight exactness vs numpy, deterministic top-k / Gumbel-top-k
selection, and the guard rails."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from rayhll.pipelines.dsir import (
    dsir_log_weights,
    dsir_select,
    hashed_ngram_counts,
)
from rayhll.pipelines.text import token_hash_stream

import polars as pl


def _ds(texts, ids=None):
    rows = [
        {"doc_id": (ids[i] if ids else i), "text": t} for i, t in enumerate(texts)
    ]
    return rd.from_arrow(pa.Table.from_pylist(rows)).repartition(3)


def _buckets(texts, nb):
    _, h = token_hash_stream(pl.Series(texts))
    return np.bincount((h % np.uint64(nb)).astype(np.int64), minlength=nb)


def test_counts_match_recount(ray_session):
    texts = [f"tok{i % 7} tok{i % 5} shared" for i in range(50)]
    nb = 1024
    got = hashed_ngram_counts(_ds(texts), num_buckets=nb)
    want = _buckets(texts, nb)
    assert (got == want).all()
    assert got.sum() == 3 * 50


def test_log_weights_match_numpy(ray_session):
    rng = np.random.default_rng(4)
    raw_texts = [
        " ".join(f"w{rng.integers(30)}" for _ in range(rng.integers(1, 20)))
        for _ in range(80)
    ] + [""]
    target_texts = [" ".join(f"w{rng.integers(10)}" for _ in range(15))] * 20
    nb = 512
    tc = _buckets(target_texts, nb)
    rc = _buckets(raw_texts, nb)
    got = (
        dsir_log_weights(_ds(raw_texts), tc, rc)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    t = tc + 1.0
    r = rc + 1.0
    lr = (np.log(t) - np.log(t.sum())) - (np.log(r) - np.log(r.sum()))
    _, h = token_hash_stream(pl.Series(raw_texts))
    lens, _ = token_hash_stream(pl.Series(raw_texts))
    per_doc, pos = [], 0
    lens = lens  # per-doc counts
    for n in lens:
        b = (h[pos : pos + n] % np.uint64(nb)).astype(np.int64)
        per_doc.append(lr[b].sum())
        pos += n
    assert np.allclose(got["log_weight"].to_numpy(), per_doc, atol=1e-9)
    assert got["n_grams"].tolist() == lens.tolist()
    # empty doc: zero grams, zero weight
    assert got["log_weight"].iloc[-1] == 0.0 and got["n_grams"].iloc[-1] == 0


def test_topk_deterministic_with_ties(ray_session):
    w = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([5, 1, 2, 3, 4], type=pa.int64()),
                "log_weight": pa.array([1.0, 1.0, 3.0, 1.0, 2.0], type=pa.float64()),
            }
        )
    ).repartition(2)
    got = dsir_select(w, 3).to_pandas()
    # 3.0, 2.0, then the 1.0 tie resolved by smallest id
    assert got["doc_id"].tolist() == [2, 4, 1]


def test_gumbel_reproducible_and_seeded(ray_session):
    texts = [f"a{i} b{i} c{i}" for i in range(200)]
    nb = 256
    tc = _buckets(texts[:20], nb)
    rc = _buckets(texts, nb)
    w = dsir_log_weights(_ds(texts), tc, rc).materialize()
    s1 = dsir_select(w, 20, mode="gumbel", seed=7).to_pandas()["doc_id"]
    s2 = dsir_select(w, 20, mode="gumbel", seed=7).to_pandas()["doc_id"]
    s3 = dsir_select(w, 20, mode="gumbel", seed=8).to_pandas()["doc_id"]
    assert s1.tolist() == s2.tolist()
    assert s1.tolist() != s3.tolist()
    assert len(set(s1)) == 20


def test_end_to_end_selects_target_like(ray_session):
    # raw docs mix good/noise; target is pure good -> selection must be
    # exactly the docs with the most good tokens
    raw = [
        " ".join(["good"] * (i % 11) + ["noise"] * 5) for i in range(60)
    ]
    target = ["good good good good"] * 10
    nb = 4096
    tc = hashed_ngram_counts(_ds(target), num_buckets=nb)
    rc = hashed_ngram_counts(_ds(raw), num_buckets=nb)
    # smoothing mass (num_buckets * smoothing) must stay well under the
    # corpus token mass or the distributions flatten to uniform and the
    # signal inverts (documented in dsir_log_weights)
    w = dsir_log_weights(_ds(raw), tc, rc, smoothing=1e-3)
    got = dsir_select(w, 10).to_pandas()["doc_id"].tolist()
    n_good = np.array([i % 11 for i in range(60)])
    want = sorted(range(60), key=lambda i: (-n_good[i], i))[:10]
    assert got == want


def test_validation(ray_session):
    ds = _ds(["a b"])
    with pytest.raises(ValueError, match="num_buckets"):
        hashed_ngram_counts(ds, num_buckets=1)
    with pytest.raises(ValueError, match="share num_buckets"):
        dsir_log_weights(ds, np.zeros(4), np.zeros(8))
    with pytest.raises(ValueError, match="smoothing"):
        dsir_log_weights(ds, np.zeros(4), np.zeros(4), smoothing=0.0)
    w = rd.from_items([{"doc_id": 1, "log_weight": 0.5}])
    with pytest.raises(ValueError, match="mode"):
        dsir_select(w, 1, mode="bogus")
    with pytest.raises(ValueError, match="k must be"):
        dsir_select(w, 0)
    with pytest.raises(ValueError, match="k must be"):
        dsir_select(w, 10**9)


@pytest.mark.parametrize("mode", ["topk", "gumbel"])
@pytest.mark.parametrize(
    "ids",
    [pa.array(["7", "8", "9"]), pa.array([1.0, 2.0, 3.0])],
    ids=["string", "integral_float"],
)
def test_non_integer_ids_raise(ray_session, mode, ids):
    """Ids that would cast to int64 (``"7"``, ``1.0``) raise at entry,
    naming the column, instead of keying and breaking ties as int64."""
    w = rd.from_arrow(pa.table({"doc_id": ids, "log_weight": pa.array([0.5, 1.5, 1.0])}))
    with pytest.raises(ValueError, match="'doc_id' must be an integer id column"):
        dsir_select(w, 2, mode=mode).to_pandas()
