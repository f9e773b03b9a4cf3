"""Distributed-correctness tests: Ray pipelines vs DuckDB / numpy oracles.

One Ray session per pytest run (tests/conftest.py fixture)."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_path():
    return f"{SF}/documents.parquet"


def test_grouped_approx_distinct_matches_oracle(ray_session, docs_path):
    import ray.data as rd

    from rayhll import ray_agg

    ds = rd.read_parquet(docs_path, columns=["lang", "text"])
    got = (
        ray_agg.grouped_approx_distinct(ds, ["lang"], ["text"], settings=ray_agg.EXACT_MODE)
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        f"SELECT lang, COUNT(DISTINCT text) e FROM read_parquet('{docs_path}') "
        "GROUP BY lang ORDER BY lang"
    ).df()
    assert list(got["lang"]) == list(want["lang"])
    assert list(got["estimate"]) == list(want["e"])


def test_global_distinct_and_aggregate_fn(ray_session, docs_path):
    import ray.data as rd

    from rayhll import ray_agg

    ds = rd.read_parquet(docs_path, columns=["text"])
    exact = duckdb.sql(
        f"SELECT COUNT(DISTINCT text) FROM read_parquet('{docs_path}')"
    ).fetchone()[0]
    assert ray_agg.approx_distinct(ds, ["text"], settings=ray_agg.EXACT_MODE) == exact
    # probabilistic estimate within published bound (log2m=11 -> 2.3%, use 3σ)
    est = ray_agg.approx_distinct(ds, ["text"])
    assert abs(est - exact) / exact < 3 * 1.04 / np.sqrt(2**11)


def test_merge_determinism_across_runs(ray_session, docs_path):
    """Same input, two runs -> byte-identical merged sketches (the retry /
    resume safety property)."""
    import ray.data as rd

    from rayhll import ray_agg

    def run():
        ds = rd.read_parquet(docs_path, columns=["text"])
        return ray_agg.approx_distinct_sketch(ds, ["text"]).to_bytes()

    assert run() == run()


def test_exact_dedup_matches_oracle(ray_session, docs_path):
    import ray.data as rd

    from rayhll.pipelines.dedup import exact_dedup_keep_ids

    ds = rd.read_parquet(docs_path, columns=["doc_id", "text"])
    kept = sorted(exact_dedup_keep_ids(ds, "text", "doc_id").to_pandas()["doc_id"])
    want = sorted(
        duckdb.sql(
            f"SELECT MIN(doc_id) FROM read_parquet('{docs_path}') GROUP BY text"
        ).df()["min(doc_id)"]
    )
    assert kept == want


def _near_dup_docs():
    base = (
        "the quick brown fox jumps over the lazy dog while the rain falls softly "
        "on the quiet village roofs and the river runs towards the distant sea"
    )
    mutated = base.replace("quick", "speedy")  # 1 token of ~27 changed
    different = (
        "completely unrelated text about database engines sorting columns and "
        "hash joins with vectorized execution kernels in a streaming runtime"
    )
    rows = []
    for i in range(10):
        rows.append({"doc_id": i, "text": f"{base} unique tail {i}"})
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base})  # exact dup of 100
    rows.append({"doc_id": 102, "text": mutated})  # near dup of 100
    rows.append({"doc_id": 103, "text": different})
    return pa.Table.from_pylist(rows)


@pytest.mark.parametrize("ids", [["10", "20", "30"], ["a", "b", "c"]])
def test_minhash_lsh_pairs_rejects_non_integer_ids(ray_session, ids):
    """A string id column raises at entry, naming the column, instead of
    coming back cast to int64 or failing inside a Ray task."""
    import ray.data as rd

    from rayhll.pipelines.dedup import minhash_lsh_pairs

    text = "the quick brown fox jumps over the lazy dog"
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": [text, text, "another doc entirely"]}))
    with pytest.raises(ValueError, match="'doc_id' must be an integer id column"):
        minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5).to_pandas()


@pytest.mark.parametrize("ids", [["10", "20", "30"], ["a", "b", "c"]])
def test_simhash_pairs_rejects_non_integer_ids(ray_session, ids):
    import ray.data as rd

    from rayhll.pipelines.dedup import simhash_pairs

    text = "the quick brown fox jumps over the lazy dog"
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": [text, text, "another doc entirely"]}))
    with pytest.raises(ValueError, match="'doc_id' must be an integer id column"):
        simhash_pairs(ds, "text", "doc_id").to_pandas()


@pytest.mark.parametrize(
    "ids", [pa.array(["7", "8", "9"]), pa.array([1.0, 2.0, 3.0])], ids=["string", "float"]
)
def test_hamming64_pairs_rejects_non_integer_ids(ray_session, ids):
    """``hamming64_pairs`` is public (``image_near_dup_pairs`` calls it
    directly): string or float ids raise at entry instead of coming back
    cast to int64 pairs."""
    import ray.data as rd

    from rayhll.pipelines.dedup import hamming64_pairs

    h = pa.array([0x1234, 0x1234, 0x1235], type=pa.int64())
    ds = rd.from_arrow(pa.table({"vid": ids, "h64": h}))
    with pytest.raises(ValueError, match="'vid' must be an integer id column"):
        hamming64_pairs(ds, "vid", hash_col="h64").to_pandas()


@pytest.mark.parametrize("string_ids", [True, False])
def test_embedding_near_dup_pairs_rejects_non_integer_ids(ray_session, string_ids):
    """String ids and integral float ids both raise at entry instead of
    coming back cast to int64 pairs."""
    import numpy as np
    import ray.data as rd

    from rayhll.pipelines.dedup import embedding_near_dup_pairs

    emb = pa.ListArray.from_arrays(
        pa.array([0, 8, 16, 24], type=pa.int32()), pa.array(np.ones(24), type=pa.float64())
    )
    ids = pa.array(["a", "b", "c"]) if string_ids else pa.array([1.0, 2.0, 3.0])
    ds = rd.from_arrow(pa.table({"vec_id": ids, "embedding": emb}))
    with pytest.raises(ValueError, match="'vec_id' must be an integer id column"):
        embedding_near_dup_pairs(ds, "embedding", "vec_id", dim=8).to_pandas()


def test_minhash_lsh_finds_near_dups(ray_session):
    import ray.data as rd

    from rayhll.pipelines.dedup import minhash_lsh_pairs

    ds = rd.from_arrow(_near_dup_docs())
    pairs = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5).to_pandas()
    found = {tuple(p) for p in pairs[["id_a", "id_b"]].itertuples(index=False)}
    assert (100, 101) in found  # exact dup always found
    assert (100, 102) in found or (101, 102) in found  # near dup
    assert all(103 not in p for p in found)  # unrelated never pairs


def test_simhash_finds_exact_dups(ray_session):
    import ray.data as rd

    from rayhll.pipelines.dedup import simhash_pairs

    ds = rd.from_arrow(_near_dup_docs())
    pairs = simhash_pairs(ds, "text", "doc_id", max_hamming=3).to_pandas()
    found = {tuple(p) for p in pairs[["id_a", "id_b"]].itertuples(index=False)}
    assert (100, 101) in found
    assert all(103 not in p for p in found)


def test_text_stats_sql_semantics(ray_session, docs_path):
    import ray.data as rd

    from rayhll.pipelines.text import TextStats

    ds = rd.read_parquet(docs_path, columns=["doc_id", "text"])
    got = (
        ds.map_batches(TextStats(), batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars_calc, "
        "CAST(length(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_tokens, "
        "CAST(length(text) - length(replace(text, ' ', '')) AS BIGINT) AS n_spaces "
        f"FROM read_parquet('{docs_path}') ORDER BY doc_id"
    ).df()
    for col in ("n_chars_calc", "n_tokens", "n_spaces"):
        assert list(got[col]) == list(want[col]), col
    assert ((got["quality_score"] >= 0) & (got["quality_score"] <= 1)).all()


def test_lang_id_on_real_snippets(ray_session):
    import ray.data as rd

    from rayhll.pipelines.text import LangId

    rows = [
        {"id": 0, "text": "the cat sat on the mat and it was happy in the sun", "lang": "en"},
        {"id": 1, "text": "der Hund ist nicht mit der Katze auf das Sofa gegangen", "lang": "de"},
        {"id": 2, "text": "los perros corren por las calles con una alegría enorme para todos", "lang": "es"},
        {"id": 3, "text": "les enfants jouent dans le parc pour une heure avec leurs amis", "lang": "fr"},
        {"id": 4, "text": "数据库系统使用哈希连接和排序合并来处理大规模数据集的查询计划", "lang": "zh"},
    ]
    out = (
        rd.from_arrow(pa.Table.from_pylist(rows))
        .map_batches(LangId(), batch_format="pyarrow")
        .to_pandas()
        .sort_values("id")
    )
    assert list(out["lang_pred"]) == [r["lang"] for r in rows]


def test_fingerprint_deterministic_and_edit_robust(ray_session):
    import ray.data as rd

    from rayhll.pipelines.text import Fingerprint

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 5
    rows = [
        {"id": 0, "text": base},
        {"id": 1, "text": base},  # identical
        {"id": 2, "text": base + " tail"},  # small edit
        {"id": 3, "text": "zz"},  # shorter than one shingle
    ]
    out = (
        rd.from_arrow(pa.Table.from_pylist(rows))
        .map_batches(Fingerprint(), batch_format="pyarrow")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert out.fingerprint64[0] == out.fingerprint64[1]
    assert out.fingerprint64[0] != out.fingerprint64[2]
    assert out.shingle_min64[0] == out.shingle_min64[2]  # robust to the edit


def test_brute_force_topk_matches_numpy(ray_session):
    import ray.data as rd

    from rayhll.pipelines.similarity import brute_force_topk

    emb_path = f"{SF}/embeddings.parquet"
    ds = rd.read_parquet(emb_path)
    tbl = duckdb.sql(f"SELECT vec_id, embedding FROM read_parquet('{emb_path}') ORDER BY vec_id").df()
    mat = np.stack(tbl["embedding"].to_numpy()).astype(np.float64)
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    q = mat[:2]
    got = brute_force_topk(ds, q, k=5).to_pandas()
    for qi in range(2):
        sims = matn @ (q[qi] / np.linalg.norm(q[qi]))
        want = set(np.argsort(-sims)[:5].tolist())
        have = set(got[got.query_idx == qi]["vec_id"].tolist())
        assert have == want, qi


def test_brute_force_topk_many_queries(ray_session):
    """The partial top-k and the distributed reduce must stay exact when
    n_queries stops being tiny (vectorized take_along_axis path — VERDICT
    r3 item 5): every one of the 500 corpus vectors used as a query."""
    import ray.data as rd

    from rayhll.pipelines.similarity import brute_force_topk

    emb_path = f"{SF}/embeddings.parquet"
    ds = rd.read_parquet(emb_path)
    tbl = duckdb.sql(
        f"SELECT vec_id, embedding FROM read_parquet('{emb_path}') ORDER BY vec_id"
    ).df()
    mat = np.stack(tbl["embedding"].to_numpy()).astype(np.float64)
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    k = 5
    got = brute_force_topk(ds, mat, k=k).to_pandas()
    assert len(got) == len(mat) * k
    sims = matn @ matn.T
    want_ids = np.argsort(-sims, axis=1)[:, :k]
    for qi in range(len(mat)):
        have = set(got[got.query_idx == qi]["vec_id"].tolist())
        assert have == set(want_ids[qi].tolist()), qi
    # ranks must be 0..k-1 in cosine-descending order per query
    g = got.sort_values(["query_idx", "rank"]).reset_index(drop=True)
    assert g.groupby("query_idx")["rank"].apply(list).map(
        lambda r: r == list(range(k))
    ).all()
    assert (g.groupby("query_idx")["cosine"].diff().dropna() <= 1e-12).all()


def test_ivf_topk_recall(ray_session):
    import ray.data as rd

    from rayhll.pipelines.similarity import brute_force_topk, ivf_topk

    emb_path = f"{SF}/embeddings.parquet"
    ds = rd.read_parquet(emb_path)
    q = np.stack(
        duckdb.sql(
            f"SELECT embedding FROM read_parquet('{emb_path}') WHERE vec_id < 3"
        ).df()["embedding"].to_numpy()
    ).astype(np.float64)
    exact = brute_force_topk(ds, q, k=10).to_pandas()
    approx = ivf_topk(ds, q, k=10, nlist=16, nprobe=8).to_pandas()
    recalls = []
    for qi in range(len(q)):
        e = set(exact[exact.query_idx == qi]["vec_id"])
        a = set(approx[approx.query_idx == qi]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6, recalls


def test_multimodal_pipeline_fake_and_real_stub(ray_session):
    import ray.data as rd

    from rayhll.pipelines.multimodal import (
        DecodeStage,
        FrameSampleStage,
        multimodal_pipeline,
        synth_asset_table,
    )

    assets = synth_asset_table(30)
    ds = rd.from_arrow(assets)
    feats = multimodal_pipeline(ds, decoder="fake").to_pandas()
    assert len(feats) == 30
    assert all(len(v) == 64 for v in feats["features"])
    # deterministic: same payload -> same features
    feats2 = multimodal_pipeline(rd.from_arrow(assets), decoder="fake").to_pandas()
    assert np.allclose(
        np.stack(feats.sort_values("asset_id")["features"].to_numpy()),
        np.stack(feats2.sort_values("asset_id")["features"].to_numpy()),
    )
    frames = (
        rd.from_arrow(assets)
        .map_batches(
            FrameSampleStage(frames_per_video=3, decoder="fake"),
            batch_format="pyarrow",
        )
        .count()
    )
    assert frames == 30 * 3
    with pytest.raises(NotImplementedError, match="codec"):
        DecodeStage(decoder="real")(assets)


def test_bloom_prefilter_semijoin(ray_session):
    """Bloom prefilter + exact verify == exact semi-join (the engine's
    broadcast-join pattern)."""
    import ray
    import ray.data as rd

    from rayhll.functions.hashing import hash64_table
    from rayhll.sketches.bloom import BloomFilter

    part_path = f"{SF}/part.parquet"
    li_path = f"{SF}/lineitem.parquet"
    keys_tbl = duckdb.sql(
        f"SELECT p_partkey FROM read_parquet('{part_path}') WHERE p_size > 40"
    ).arrow()
    bf = BloomFilter.for_capacity(max(len(keys_tbl), 16), 0.001)
    key_hashes = hash64_table(keys_tbl, ["p_partkey"], seed=3)
    bf.add_batch(key_hashes)
    exact_keys = set(keys_tbl.column("p_partkey").to_pylist())
    blob_ref = ray.put(bf.to_bytes())
    keys_ref = ray.put(exact_keys)

    def prefilter(batch: pa.Table) -> pa.Table:
        f = BloomFilter.from_bytes(ray.get(blob_ref))
        h = hash64_table(batch.rename_columns(["p_partkey"]), ["p_partkey"], seed=3)
        cand = batch.filter(pa.array(f.contains_batch(h)))
        ks = ray.get(keys_ref)
        keep = pa.array([k in ks for k in cand.column(0).to_pylist()])
        return cand.filter(keep)

    ds = rd.read_parquet(li_path, columns=["l_partkey"])
    got = ds.map_batches(prefilter, batch_format="pyarrow").count()
    want = duckdb.sql(
        f"SELECT COUNT(*) FROM read_parquet('{li_path}') l "
        f"WHERE l_partkey IN (SELECT p_partkey FROM read_parquet('{part_path}') WHERE p_size > 40)"
    ).fetchone()[0]
    assert got == want


def test_actor_pool_build_paths(ray_session, docs_path):
    """concurrency=N routes through the actor-pool map_batches form
    (fn_constructor_kwargs); results must equal the task form."""
    import ray.data as rd

    from rayhll import ray_agg
    from rayhll.pipelines import distinct
    from rayhll.sources.synth import code_table_from_documents

    ds = rd.read_parquet(docs_path, columns=["lang", "text"])
    tasks = (
        ray_agg.grouped_approx_distinct(ds, ["lang"], ["text"], settings=ray_agg.EXACT_MODE)
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    actors = (
        ray_agg.grouped_approx_distinct(
            ds, ["lang"], ["text"], settings=ray_agg.EXACT_MODE, concurrency=2
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    assert tasks.equals(actors)

    code = rd.read_parquet(docs_path).map_batches(
        code_table_from_documents, batch_format="pyarrow"
    )
    flag = (
        distinct.flagship_grouped(code, concurrency=2)
        .to_pandas()
        .sort_values(["repo", "lang"])
        .reset_index(drop=True)
    )
    flag_tasks = (
        distinct.flagship_grouped(code)
        .to_pandas()
        .sort_values(["repo", "lang"])
        .reset_index(drop=True)
    )
    assert flag.equals(flag_tasks)


def test_empty_input_edge_cases(ray_session):
    import ray.data as rd

    from rayhll import ray_agg

    empty = rd.from_arrow(pa.table({"text": pa.array([], type=pa.string())}))
    assert ray_agg.approx_distinct(empty, ["text"]) == 0
    sk = ray_agg.approx_distinct_sketch(empty, ["text"])
    assert sk.cardinality() == 0
    grouped_empty = rd.from_arrow(
        pa.table(
            {"g": pa.array([], type=pa.string()), "text": pa.array([], type=pa.string())}
        )
    )
    assert ray_agg.grouped_approx_distinct(grouped_empty, ["g"], ["text"]).count() == 0
    # no partial block at all: the driver fold still names the output columns
    from rayhll.sketches.countmin import CountMinSketch

    out = ray_agg.grouped_approx_distinct(grouped_empty, ["g"], ["text"], include_sketch=True)
    assert out.count() == 0
    assert out.schema().names == ["g", "sketch", "estimate", "rows_in"]
    fam = ray_agg.grouped_aggregate_family(grouped_empty, ["g"], lambda b: b"", CountMinSketch)
    assert fam.count() == 0 and fam.schema().names == ["g", "blob"]
    merged = ray_agg.tree_merge(ray_agg.build_partials(empty, ["text"])).take_all()
    assert merged == [{"sketch": b"", "rows_in": 0}]
    with pytest.raises(ValueError, match="no rows"):
        ray_agg.aggregate_family(empty, lambda b: b"", CountMinSketch)


def test_extreme_skew_grouped_distinct(ray_session):
    """99% of rows in one group: estimates stay exact and the shuffle input
    stays bounded by (blocks x groups), not by the hot group's rows."""
    import ray.data as rd

    from rayhll import ray_agg

    n = 50_000
    g = np.where(np.arange(n) % 100 == 0, "cold", "hot")
    vals = (np.arange(n) % 7000).astype(np.int64)
    t = pa.table({"g": pa.array(g.tolist()), "v": pa.array(vals)})
    ds = rd.from_arrow(t).repartition(16)
    got = (
        ray_agg.grouped_approx_distinct(ds, ["g"], ["v"], settings=ray_agg.EXACT_MODE)
        .to_pandas()
        .set_index("g")["estimate"]
        .to_dict()
    )
    import pandas as pd

    df = pd.DataFrame({"g": g, "v": vals})
    want = df.groupby("g")["v"].nunique().to_dict()
    assert got == want


def _emb_table(ids: np.ndarray, dim: int = 8) -> pa.Table:
    """Deterministic per-id embedding (independent of batching)."""
    from rayhll.functions.hashing import splitmix64

    cells = ids[:, None].astype(np.uint64) * np.uint64(4096) + np.arange(
        dim, dtype=np.uint64
    )
    mat = splitmix64(cells.ravel()).reshape(len(ids), dim).astype(np.float64)
    mat = mat / 2.0**64 - 0.5
    n, d = mat.shape
    col = pa.ListArray.from_arrays(
        pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32), type=pa.int32()),
        pa.array(mat.ravel(), type=pa.float64()),
    )
    return pa.table({"vec_id": pa.array(ids.astype(np.int64)), "embedding": col})


def _emb_with_near_copies(n: int, k: int) -> pa.Table:
    """``_emb_table`` of ids 0..n-1 plus near-identical copies of ids 0..k-1
    at ids 10_000..10_000+k-1."""
    base = _emb_table(np.arange(n, dtype=np.uint64))
    mat = np.asarray(base.column("embedding").combine_chunks().flatten()).reshape(n, 8)
    near = mat[:k] + 0.001
    extra = pa.table(
        {
            "vec_id": pa.array(np.arange(k, dtype=np.int64) + 10_000),
            "embedding": pa.ListArray.from_arrays(
                pa.array(np.arange(0, (k + 1) * 8, 8, dtype=np.int32), type=pa.int32()),
                pa.array(near.ravel(), type=pa.float64()),
            ),
        }
    )
    return pa.concat_tables([base, extra])


def test_embedding_near_dup_finds_injected_pairs(ray_session):
    """Perturbed copies are found exactly; unrelated vectors never pair."""
    import ray.data as rd

    from rayhll.pipelines.dedup import embedding_near_dup_pairs

    ds = rd.from_arrow(_emb_with_near_copies(500, 20)).repartition(4)
    pairs = embedding_near_dup_pairs(
        ds, "embedding", "vec_id", dim=8, threshold=0.99
    ).to_pandas()
    got = set(zip(pairs.id_a, pairs.id_b))
    want = {(i, i + 10_000) for i in range(20)}
    assert got == want


def test_embedding_near_dup_degenerate_bucket_capped(ray_session):
    """1M vectors with a 20k-member degenerate bucket: the run completes with
    chunked verification and the over-cap bucket is skipped — no O(b^2)
    matrix is ever materialized (VERDICT r1 item 1)."""
    import ray.data as rd

    from rayhll.functions.hashing import splitmix64
    from rayhll.pipelines.dedup import embedding_near_dup_pairs

    N, DIM, DEGEN = 1_000_000, 8, 20_000

    def gen(batch):
        ids = batch["id"].to_numpy().astype(np.uint64)
        t = _emb_table(ids, DIM)
        mat = (
            np.asarray(t.column("embedding").combine_chunks().flatten())
            .reshape(len(ids), DIM)
            .copy()
        )
        # ids < DEGEN: all the SAME vector -> one bucket of 20k members
        mat[ids < DEGEN] = 0.25
        # ids in [900k, 900k+10): near-copies of ids [800k, 800k+10)
        src = (ids >= 900_000) & (ids < 900_010)
        if src.any():
            twin = _emb_table(ids[src] - np.uint64(100_000), DIM)
            tm = np.asarray(
                twin.column("embedding").combine_chunks().flatten()
            ).reshape(-1, DIM)
            mat[src] = tm + 0.0005
        n, d = mat.shape
        col = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32), type=pa.int32()),
            pa.array(mat.ravel(), type=pa.float64()),
        )
        return pa.table({"vec_id": pa.array(ids.view(np.int64)), "embedding": col})

    ds = rd.range(N).map_batches(gen, batch_format="pyarrow", batch_size=65536)
    pairs = embedding_near_dup_pairs(
        ds,
        "embedding",
        "vec_id",
        dim=DIM,
        threshold=0.999,
        num_planes=14,
        num_tables=2,
        max_bucket_size=4096,
    ).to_pandas()
    got = set(zip(pairs.id_a, pairs.id_b))
    # the degenerate bucket (ids < 20k, all identical) is skipped, not verified
    assert not any(a < DEGEN and b < DEGEN for a, b in got)
    # the injected near-copies are found (deterministic planes + vectors)
    want = {(800_000 + i, 900_000 + i) for i in range(10)}
    assert want <= got


def test_topk_distributed_reduce_many_blocks(ray_session):
    """Top-k over many blocks: the tree-merged distributed reduce (no full
    candidate materialization on the driver) still matches exact numpy,
    including with several query rows (VERDICT r1 item 2)."""
    import ray.data as rd

    from rayhll.pipelines.similarity import brute_force_topk

    N, DIM, K = 120_000, 16, 7
    t = _emb_table(np.arange(N, dtype=np.uint64), DIM)
    mat = np.asarray(t.column("embedding").combine_chunks().flatten()).reshape(N, DIM)
    queries = mat[[3, 777, 5555]]
    ds = rd.from_arrow(t).repartition(64)
    got = brute_force_topk(ds, queries, k=K, id_col="vec_id").to_pandas()
    nq = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    sims = qn @ nq.T
    for qi in range(3):
        sub = got[got.query_idx == qi].sort_values("rank")
        want = set(np.argsort(-sims[qi])[:K])
        assert set(sub.vec_id) == want
        assert list(sub["rank"]) == list(range(K))
        assert (np.diff(sub.cosine.to_numpy()) <= 1e-12).all()


def test_heavy_hitters_distributed_candidates(ray_session):
    """Heavy hitters over many blocks: bucketed candidate reduce matches the
    exact top-k counts."""
    import ray.data as rd

    from rayhll.pipelines.windows import heavy_hitters

    rng = np.random.default_rng(7)
    # zipf-ish: value i has frequency ~ 1/(i+1)
    vals = np.repeat(np.arange(200), (20_000 / (np.arange(200) + 1)).astype(np.int64))
    rng.shuffle(vals)
    t = pa.table({"v": pa.array([f"val_{v:03d}" for v in vals], type=pa.string())})
    ds = rd.from_arrow(t).repartition(32)
    got = heavy_hitters(ds, "v", k=5, width=1 << 14).to_pandas()
    import pandas as pd

    exact = (
        pd.Series([f"val_{v:03d}" for v in vals])
        .value_counts()
        .head(5)
    )
    assert list(got["v"]) == list(exact.index)
    assert list(got["est_count"]) == list(exact.values)


def test_group_hash_collision_contract(ray_session):
    """Documents the 64-bit group-hash identity contract (stages/build.py):
    expected cross-group collisions follow the birthday bound G^2/2^65 —
    negligible at engine scales — and distinct group tuples map to distinct
    hashes on a 1M-group sample (empirical spot check of the bound)."""
    from rayhll.functions.hashing import hash64_table
    from rayhll.stages.build import GROUP_HASH_SEED

    # the documented bound
    for groups, expected in ((1e6, 2.8e-8), (1e9, 0.028)):
        assert groups * groups / 2.0**65 < expected * 1.01
    # empirical: 1M distinct 2-col group tuples -> 1M distinct hashes
    n = 1_000_000
    t = pa.table(
        {
            "repo": pa.array((np.arange(n) // 1000).astype(np.int64)),
            "lang": pa.array((np.arange(n) % 1000).astype(np.int64)),
        }
    )
    h = hash64_table(t, ["repo", "lang"], seed=GROUP_HASH_SEED)
    assert len(np.unique(h)) == n


def test_ngram_jaccard_exact_pairs(ray_session):
    """ngram_jaccard_pairs returns EXACT Jaccard values: compared against a
    direct python shingle-set oracle on crafted docs."""
    import re

    import ray.data as rd

    from rayhll.pipelines.dedup import ngram_jaccard_pairs
    from rayhll.pipelines.text import TOKEN_PATTERN

    tbl = _near_dup_docs()
    ds = rd.from_arrow(tbl)
    got = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.5).to_pandas()
    got_pairs = {
        (a, b): j for a, b, j in zip(got.id_a, got.id_b, got.jaccard)
    }

    # python oracle: token 3-gram shingle sets, exact jaccard, all pairs
    pat = re.compile(TOKEN_PATTERN)

    def shingles(text):
        toks = pat.findall(text)
        if len(toks) < 3:
            return set(toks)
        return {tuple(toks[i : i + 3]) for i in range(len(toks) - 2)}

    rows = tbl.to_pylist()
    want = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            A, B = shingles(rows[i]["text"]), shingles(rows[j]["text"])
            jac = len(A & B) / len(A | B) if A | B else 1.0
            if jac >= 0.5:
                a, b = sorted((rows[i]["doc_id"], rows[j]["doc_id"]))
                want[(a, b)] = jac
    assert set(got_pairs) == set(want)
    for k in want:
        assert got_pairs[k] == pytest.approx(want[k], abs=1e-12), k


def test_read_table_format_dispatch(ray_session, tmp_path):
    """The same documents data through parquet / csv / jsonl sources yields
    identical pipeline results (format-agnostic engine surface)."""
    import duckdb as ddb
    import ray.data as rd

    from rayhll import ray_agg
    from rayhll.sources.io import read_table

    src = f"{SF}/documents.parquet"
    sub = ddb.sql(f"SELECT doc_id, lang, text FROM read_parquet('{src}')").arrow()
    import pyarrow.csv as pcsv
    import pyarrow.parquet as pq

    pq.write_table(sub, str(tmp_path / "docs.parquet"))
    pcsv.write_csv(sub, str(tmp_path / "docs.csv"))
    sub.to_pandas().to_json(
        str(tmp_path / "docs.jsonl"), orient="records", lines=True
    )

    outs = {}
    for name in ("docs.parquet", "docs.csv", "docs.jsonl"):
        ds = read_table(str(tmp_path / name), columns=["lang", "text"])
        outs[name] = (
            ray_agg.grouped_approx_distinct(
                ds, ["lang"], ["text"], settings=ray_agg.EXACT_MODE
            )
            .to_pandas()
            .sort_values("lang")
            .reset_index(drop=True)
        )
    assert outs["docs.parquet"].equals(outs["docs.csv"])
    assert outs["docs.parquet"].equals(outs["docs.jsonl"])

    with pytest.raises(ValueError, match="unsupported source format"):
        read_table("/tmp/x.avro")


def test_flagship_global_empty_dataset(ray_session):
    """flagship_global on an empty dataset returns a zero row, not a crash
    (ADVICE r1: b'' partial blobs must finalize as EMPTY sketches)."""
    import ray.data as rd

    from rayhll.pipelines.distinct import flagship_global
    from rayhll.sources.synth import code_table_from_documents

    empty = pa.table(
        {
            "doc_id": pa.array([], type=pa.int64()),
            "lang": pa.array([], type=pa.string()),
            "source": pa.array([], type=pa.string()),
            "text": pa.array([], type=pa.string()),
        }
    )
    ds = rd.from_arrow(empty).map_batches(
        code_table_from_documents, batch_format="pyarrow"
    )
    out = flagship_global(ds).to_pandas()
    assert len(out) == 1
    assert out.iloc[0].tolist() == [0, 0, 0, 0]
    from rayhll.pipelines.distinct import flagship_grouped

    grouped = flagship_grouped(ds)
    assert grouped.count() == 0
    assert grouped.schema().names == [
        "repo", "lang", "est_distinct_content", "est_distinct_path",
        "est_distinct_repo_commit", "rows_in",
    ]


def test_simhash_degenerate_bucket_capped(ray_session):
    """A mass of identical docs (one chunk bucket of 20k members) is skipped
    instead of producing O(b^2) pairs; distinct near-dups still pair."""
    import ray.data as rd

    from rayhll.pipelines.dedup import simhash_pairs

    n_degen = 20_000
    rows = [{"doc_id": i, "text": "identical degenerate document body"} for i in range(n_degen)]
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 4
    rows.append({"doc_id": 100_000, "text": base})
    rows.append({"doc_id": 100_001, "text": base})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(8)
    pairs = simhash_pairs(ds, "text", "doc_id", max_bucket_size=4096).to_pandas()
    got = set(zip(pairs.id_a, pairs.id_b))
    assert (100_000, 100_001) in got
    assert not any(a < n_degen and b < n_degen for a, b in got)


def test_null_semantics_match_sql(ray_session):
    """COUNT(DISTINCT) semantics for NULLs: null keys contribute nothing
    (globally and per group), null GROUP values form their own group —
    matching DuckDB exactly.  ignore_nulls=False restores count-the-null."""
    import duckdb as ddb
    import ray.data as rd

    from rayhll import ray_agg

    t = pa.table(
        {
            "g": pa.array(["a", "a", None, "b", None, "a"]),
            "v": pa.array(["x", None, "y", None, "y", "x"]),
        }
    )
    ddb.register("nulls_t", t)
    ds = rd.from_arrow(t)
    assert (
        ray_agg.approx_distinct(ds, ["v"], settings=ray_agg.EXACT_MODE)
        == ddb.sql("SELECT COUNT(DISTINCT v) FROM nulls_t").fetchone()[0]
        == 2
    )
    got = (
        ray_agg.grouped_approx_distinct(ds, ["g"], ["v"], settings=ray_agg.EXACT_MODE)
        .to_pandas()
        .sort_values("g", na_position="last")
        .reset_index(drop=True)
    )
    want = ddb.sql(
        "SELECT g, COUNT(DISTINCT v) e FROM nulls_t GROUP BY g ORDER BY g NULLS LAST"
    ).df()
    assert list(got["estimate"]) == list(want["e"]) == [1, 0, 1]
    assert list(got["g"].fillna("<null>")) == list(want["g"].fillna("<null>"))
    # rows_in still counts every input row of the group
    assert list(got["rows_in"]) == [3, 1, 2]
    # legacy behavior available
    assert (
        ray_agg.approx_distinct(
            ds, ["v"], settings=ray_agg.EXACT_MODE, ignore_nulls=False
        )
        == 3
    )
    # AggregateFn path
    agg = ds.groupby("g").aggregate(
        ray_agg.HllDistinct("v", settings=ray_agg.EXACT_MODE, alias_name="e")
    ).to_pandas().sort_values("g", na_position="last")
    assert list(agg["e"]) == [1, 0, 1]


def test_minhash_sig_slot_widths_consistent(ray_session):
    """Pair sets agree across shuffle slot widths (8/2/1 bytes) on the
    crafted near-dup corpus — truncation only perturbs estimates by
    ~256^-b, far below the threshold margin."""
    import ray.data as rd

    from rayhll.pipelines.dedup import minhash_lsh_pairs

    ds = rd.from_arrow(_near_dup_docs())
    sets = {}
    for b in (8, 2, 1):
        p = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5, sig_slot_bytes=b).to_pandas()
        sets[b] = set(zip(p.id_a, p.id_b))
    assert sets[8] == sets[2] == sets[1] and len(sets[8]) > 0


def test_binary_fixed_matrix_roundtrip():
    """Zero-copy fixed-width binary decode inverts the column builder,
    including sliced (non-zero-offset) arrays and the irregular fallback."""
    from rayhll.pipelines.dedup import _binary_fixed_matrix, _fixed_binary_column

    rng = np.random.default_rng(3)
    mat = rng.integers(0, 2**63, size=(100, 16), dtype=np.uint64).astype("<u8")
    col = _fixed_binary_column(mat)
    back = _binary_fixed_matrix(col, 16)
    assert (back == mat).all()
    sl = col.slice(10, 50)
    assert (_binary_fixed_matrix(sl, 16) == mat[10:60]).all()
    mat16 = (mat % (1 << 16)).astype("<u2")
    col16 = _fixed_binary_column(mat16)
    assert (_binary_fixed_matrix(col16, 16, "<u2") == mat16).all()
    irregular = pa.array([b"\x01" * 8, b"\x02" * 16], type=pa.binary())
    with pytest.raises(ValueError, match="ragged"):
        _binary_fixed_matrix(irregular, 1)
    assert _binary_fixed_matrix(pa.array([], type=pa.binary()), 4).shape == (0, 4)


def test_ivf_index_partition_pruned_search(ray_session, tmp_path):
    """On-disk IVF: search reads ONLY the probed list partitions (counted
    via the pruned paths) and still reaches recall >= 0.9 vs exact."""
    import os

    import ray.data as rd

    from rayhll.pipelines.similarity import (
        brute_force_topk,
        ivf_build_index,
        ivf_search_index,
    )

    N, DIM = 20_000, 16
    t = _emb_table(np.arange(N, dtype=np.uint64), DIM)
    ds = rd.from_arrow(t).repartition(8)
    idx = str(tmp_path / "ivf")
    ivf_build_index(ds, idx, nlist=32)
    parts = [d for d in os.listdir(idx) if d.startswith("list_id=")]
    assert len(parts) == 32
    mat = np.asarray(t.column("embedding").combine_chunks().flatten()).reshape(N, DIM)
    queries = mat[[11, 4242]]
    got = ivf_search_index(idx, queries, k=10, nprobe=8).to_pandas()
    exact = brute_force_topk(rd.from_arrow(t), queries, k=10).to_pandas()
    for qi in range(2):
        g = set(got[got.query_idx == qi].vec_id)
        e = set(exact[exact.query_idx == qi].vec_id)
        assert len(g & e) / 10 >= 0.9, (qi, g, e)
    # each query's own vector is its rank-0 hit
    r0 = got[got["rank"] == 0].sort_values("query_idx").vec_id.tolist()
    assert r0 == [11, 4242]


@pytest.mark.parametrize("seed", range(5))
def test_grouped_distinct_randomized_vs_duckdb(ray_session, seed):
    """Randomized soak of the full grouped path: random row counts, group
    cardinalities, value dtypes and ~10% NULLs in both columns — EXACT_MODE
    estimates must equal DuckDB's COUNT(DISTINCT) per group."""
    import duckdb as ddb
    import ray.data as rd

    from rayhll import ray_agg

    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(2_000, 20_000))
    n_groups = int(rng.choice([3, 40, 500]))
    g_raw = rng.integers(0, n_groups, size=n)
    g_null = rng.random(n) < 0.1
    v_raw = rng.integers(0, max(4, n // 3), size=n)
    v_null = rng.random(n) < 0.1
    if rng.random() < 0.5:
        g_vals = pa.array([None if m else f"g{v}" for v, m in zip(g_raw, g_null)])
    else:
        g_vals = pa.array([None if m else int(v) for v, m in zip(g_raw, g_null)])
    if rng.random() < 0.5:
        v_vals = pa.array([None if m else f"v{v}" for v, m in zip(v_raw, v_null)])
    else:
        v_vals = pa.array([None if m else int(v) for v, m in zip(v_raw, v_null)])
    t = pa.table({"g": g_vals, "v": v_vals})
    ddb.register(f"rand_t_{seed}", t)
    want = ddb.sql(
        f"SELECT g, COUNT(DISTINCT v) e, COUNT(*) n FROM rand_t_{seed} GROUP BY g"
    ).df()
    got = (
        ray_agg.grouped_approx_distinct(
            rd.from_arrow(t).repartition(8), ["g"], ["v"], settings=ray_agg.EXACT_MODE
        )
        .to_pandas()
    )
    assert len(got) == len(want)
    m = got.merge(want, on="g", how="outer")
    assert len(m) == len(want)  # same group sets (incl. the null group)
    assert (m["estimate"] == m["e"]).all() and (m["rows_in"] == m["n"]).all()


def test_grouped_top_k_matches_sql_window(ray_session):
    """grouped_top_k == ROW_NUMBER() OVER (PARTITION BY ... ORDER BY ...) <= k
    on real data, ascending and descending."""
    import ray.data as rd

    from rayhll.functions.sample import grouped_top_k

    ev = f"{SF}/orders.parquet"
    for desc in (False, True):
        ds = rd.read_parquet(ev, columns=["o_orderstatus", "o_orderkey"])
        got = grouped_top_k(
            ds, "o_orderstatus", "o_orderkey", k=7, descending=desc
        ).to_pandas()
        dirn = "DESC" if desc else "ASC"
        want = duckdb.sql(
            "SELECT o_orderstatus, o_orderkey FROM (SELECT o_orderstatus, o_orderkey, "
            f"ROW_NUMBER() OVER (PARTITION BY o_orderstatus ORDER BY o_orderkey {dirn}) rn "
            f"FROM read_parquet('{ev}')) WHERE rn <= 7"
        ).df()
        cols = ["o_orderstatus", "o_orderkey"]
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        assert g.equals(w), desc


def test_grouped_hash_sample_deterministic_uniformish(ray_session):
    """Per-group hash sample: exactly min(k, group size) rows per group,
    deterministic across runs and batch layouts, different across seeds,
    and roughly uniform over ids."""
    import ray.data as rd

    from rayhll.functions.sample import grouped_hash_sample

    n = 30_000
    t = pa.table(
        {
            "g": pa.array((np.arange(n) % 3).astype(np.int64)),
            "id": pa.array(np.arange(n, dtype=np.int64)),
        }
    )

    def run(blocks, seed=0x5A17):
        ds = rd.from_arrow(t).repartition(blocks)
        df = grouped_hash_sample(ds, "g", "id", k=100, seed=seed).to_pandas()
        return df

    a = run(4)
    b = run(16)
    assert a.groupby("g").size().tolist() == [100, 100, 100]
    assert set(map(tuple, a.to_numpy())) == set(map(tuple, b.to_numpy()))
    c = run(4, seed=999)
    assert set(c.id) != set(a.id)
    # uniform-ish: sample mean of ids within 4 sigma of the population mean
    sigma = n / np.sqrt(12 * 300)
    assert abs(a.id.mean() - n / 2) < 4 * sigma


# ----------------------------------------------------------------------
# round-3: parameterized dedup fanout, null/uint64 top-k order, manifests


def test_dedup_pairs_bucket_invariance(ray_session, monkeypatch, tmp_path):
    """Pair sets are byte-identical at num_buckets ∈ {4, 64, 512} for every
    dedup family (the co-locating fanout only sizes reduce tasks; it must
    never change results) — VERDICT r2 item 1.  So they are at B ∈ {1, 2,
    5} producers and pair-distinct slices (``stages.build.avail_cpus``)
    over a bare three-file read, at S = 4 and 64 buckets: S > B, S < B and
    the lone producer."""
    import ray.data as rd
    import pyarrow.parquet as pq

    from rayhll.pipelines.dedup import (
        embedding_near_dup_pairs,
        minhash_lsh_pairs,
        simhash_pairs,
    )
    from rayhll.stages import build

    def files(table, name):
        paths = [str(tmp_path / f"{name}-{i}.parquet") for i in range(3)]
        for path, part in zip(paths, np.array_split(np.arange(len(table)), 3)):
            pq.write_table(table.take(pa.array(part)), path)
        return paths

    docs_table, vecs_table = _near_dup_docs(), _emb_with_near_copies(300, 10)
    docs = rd.from_arrow(docs_table)
    vecs = rd.from_arrow(vecs_table)
    doc_files, vec_files = files(docs_table, "docs"), files(vecs_table, "vecs")

    def key(df, val_col):
        return sorted(map(tuple, df[["id_a", "id_b", val_col]].to_numpy()))

    runs = {
        "minhash_carry": lambda nb: key(
            minhash_lsh_pairs(docs, "text", "doc_id", threshold=0.5, num_buckets=nb).to_pandas(),
            "jaccard",
        ),
        "simhash": lambda nb: key(
            simhash_pairs(docs, "text", "doc_id", max_hamming=3, num_buckets=nb).to_pandas(),
            "hamming",
        ),
        # cosine via BLAS matmul: accumulation order (hence the ~1e-13 tail)
        # depends on the strip shape, so compare values with tolerance
        "embedding": lambda nb: key(
            embedding_near_dup_pairs(
                vecs, "embedding", "vec_id", dim=8, threshold=0.99, num_buckets=nb
            ).to_pandas(),
            "cosine",
        ),
    }
    at = {name: [run(4), run(64), run(512)] for name, run in runs.items()}
    # the runs read ``docs`` and ``vecs`` when called
    docs, vecs = rd.read_parquet(doc_files), rd.read_parquet(vec_files)
    for cpus in (1, 2, 5):
        monkeypatch.setattr(build, "avail_cpus", lambda: cpus)
        for name, run in runs.items():
            at[name] += [run(4), run(64)]
    for name, (at_4, at_64, *others) in at.items():
        assert len(at_64) > 0, name
        if name == "embedding":
            for other in (at_4, *others):
                assert [r[:2] for r in other] == [r[:2] for r in at_64], name
                assert np.allclose(
                    [r[2] for r in other], [r[2] for r in at_64], atol=1e-9
                ), name
        else:
            assert all(other == at_64 for other in (at_4, *others)), name


def test_inputs_past_the_producer_bound_split_into_more_producers(
    ray_session, monkeypatch, tmp_path
):
    """A reduce whose input exceeds ``PRODUCER_BYTES`` per CPU runs more
    producers than CPUs (Ray runs them a CPU's worth at a time), over a
    bare read and over blocks alike, and the pairs and sketch bytes do not
    change."""
    import ray
    import ray.data as rd
    import pyarrow.parquet as pq

    from rayhll import ray_agg
    from rayhll.pipelines.dedup import minhash_lsh_pairs
    from rayhll.stages import build

    table = _near_dup_docs()
    table = table.append_column("g", pa.array([i % 3 for i in range(len(table))]))
    paths = [str(tmp_path / f"docs-{i}.parquet") for i in range(3)]
    for path, part in zip(paths, np.array_split(np.arange(len(table)), 3)):
        pq.write_table(table.take(pa.array(part)), path)
    blocks = [table.slice(i, 5) for i in range(0, len(table), 5)]
    inputs = {"read": lambda: rd.read_parquet(paths), "blocks": lambda: rd.from_arrow(blocks)}

    def run(ds):
        pairs = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5, num_buckets=4)
        groups = ray_agg.grouped_approx_distinct(ds, ["g"], ["text"], include_sketch=True)
        return (
            sorted(map(tuple, pairs.to_pandas()[["id_a", "id_b", "jaccard"]].to_numpy())),
            pa.concat_tables(ray.get(groups.to_arrow_refs())).sort_by("g"),
        )

    monkeypatch.setattr(build, "avail_cpus", lambda: 2)
    want = {name: run(make()) for name, make in inputs.items()}
    producers, colocate = {}, build.colocate

    def counted(jobs, slices, key):
        producers[key] = len(jobs)
        return colocate(jobs, slices, key)

    monkeypatch.setattr(build, "colocate", counted)
    monkeypatch.setattr(build, "PRODUCER_BYTES", 1)
    for name, make in inputs.items():
        pairs, groups = run(make())
        assert pairs == want[name][0] and len(pairs) > 0, name
        assert groups.equals(want[name][1]), name
        # a producer per file or block
        assert producers["key"] == producers[build.GHASH_COL] == 3, (name, producers)


def _pair_families():
    """(name, run(ds, num_buckets=None), input table) of the three LSH pair
    families, each over a table with near-duplicates."""
    from rayhll.pipelines.dedup import (
        embedding_near_dup_pairs,
        minhash_lsh_pairs,
        simhash_pairs,
    )

    return [
        (
            "jaccard",
            lambda ds, nb=None: minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5, num_buckets=nb),
            _near_dup_docs(),
        ),
        (
            "hamming",
            lambda ds, nb=None: simhash_pairs(ds, "text", "doc_id", num_buckets=nb),
            _near_dup_docs(),
        ),
        (
            "cosine",
            lambda ds, nb=None: embedding_near_dup_pairs(
                ds, "embedding", "vec_id", dim=8, threshold=0.99, num_buckets=nb
            ),
            _emb_with_near_copies(300, 10),
        ),
    ]


@pytest.mark.parametrize("family", range(3), ids=["minhash", "simhash", "embedding"])
def test_pairs_of_few_keys_and_of_no_rows_are_typed(ray_session, family):
    """No input rows give no pairs, typed ``(id_a int64, id_b int64,
    <score>)``; so do buckets without rows when the keys are fewer than
    the buckets (each such bucket task gets the column-less empty table)."""
    import ray.data as rd

    score, run, table = _pair_families()[family]
    want = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), (score, pa.int64() if score == "hamming" else pa.float64())]
    )
    empty = run(rd.from_arrow(table.slice(0, 0)))
    assert empty.count() == 0
    assert empty.schema().base_schema == want

    rows = [0, 300] if score == "cosine" else [10, 11]  # ids 0 and 10000, 100 and 101
    two = table.take(pa.array(rows))  # one pair of near-duplicates
    got = run(rd.from_arrow(two), 512)
    assert got.schema().base_schema == want
    pairs = [tuple(r) for r in got.to_pandas()[["id_a", "id_b"]].to_numpy()]
    assert pairs == [tuple(two.column(0).to_pylist())]


@pytest.mark.parametrize("family", range(3), ids=["minhash", "simhash", "embedding"])
def test_pairs_run_no_execution_over_a_bare_read(ray_session, executions, tmp_path, family):
    """Over a bare multi-file ``read_parquet`` the signing and explode maps
    run in the direct producers: no Ray Data execution.  Over
    ``from_arrow`` the keyed rows come from one execution.  The pairs are
    the same."""
    import ray.data as rd
    import pyarrow.parquet as pq

    from tests.conftest import _executions_of

    score, run, table = _pair_families()[family]
    paths = [str(tmp_path / f"part-{i}.parquet") for i in range(4)]
    for path, part in zip(paths, np.array_split(np.arange(len(table)), 4)):
        pq.write_table(table.take(pa.array(part)), path)
    got = []
    pairs = lambda ds: lambda: got.append(run(ds).to_pandas())  # noqa: E731
    assert _executions_of(executions, pairs(rd.read_parquet(paths))) == 0
    assert _executions_of(executions, pairs(rd.from_arrow(table))) == 1
    direct, via_ray_data = (df.sort_values(["id_a", "id_b"]).reset_index(drop=True) for df in got)
    assert len(direct) > 0
    pd_testing = pytest.importorskip("pandas").testing
    pd_testing.assert_frame_equal(direct, via_ray_data, check_exact=score != "cosine")


def test_resolve_num_buckets_heuristic(ray_session):
    """Auto fanout targets ~TARGET_ROWS_PER_TASK exploded rows per reduce
    task: floor 64, power of two, capped, explicit value wins."""
    import ray.data as rd

    from rayhll.pipelines.dedup import TARGET_ROWS_PER_TASK, _resolve_num_buckets

    small = rd.range(1000)
    assert _resolve_num_buckets(small, None, 32) == 64  # floor
    assert _resolve_num_buckets(small, 7, 32) == 7  # explicit wins
    with pytest.raises(ValueError):
        _resolve_num_buckets(small, 0, 32)

    class FakeCount:
        def __init__(self, n):
            self._n = n

        def _meta_count(self):
            return self._n

    # 1e9 docs x 32 bands = 3.2e10 rows -> 16384 tasks of ~2M rows
    got = _resolve_num_buckets(FakeCount(1_000_000_000), None, 32)
    assert got * TARGET_ROWS_PER_TASK >= 32_000_000_000
    assert got & (got - 1) == 0  # power of two
    # absurd scale stays under the 2^20 cap
    assert _resolve_num_buckets(FakeCount(10**13), None, 32) == 1 << 20

    class NoMeta:
        def _meta_count(self):
            return None  # transformed plan: sizing must not execute it

    assert _resolve_num_buckets(NoMeta(), None, 32) == 64  # safe fallback


def test_ngram_jaccard_nondefault_gram(ray_session):
    """gram is forwarded to the LSH candidate stage (ADVICE r2): at gram=5
    the exact pairs match a direct python 5-gram oracle, including pairs
    whose 5-gram similarity differs from their 3-gram similarity."""
    import re

    import ray.data as rd

    from rayhll.pipelines.dedup import ngram_jaccard_pairs
    from rayhll.pipelines.text import TOKEN_PATTERN

    tbl = _near_dup_docs()
    ds = rd.from_arrow(tbl)
    got = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.5, gram=5).to_pandas()
    got_pairs = {(a, b): j for a, b, j in zip(got.id_a, got.id_b, got.jaccard)}

    pat = re.compile(TOKEN_PATTERN)

    def shingles(text, g=5):
        toks = pat.findall(text)
        if len(toks) < g:
            return set(toks)
        return {tuple(toks[i : i + g]) for i in range(len(toks) - g + 1)}

    rows = tbl.to_pylist()
    want = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            A, B = shingles(rows[i]["text"]), shingles(rows[j]["text"])
            jac = len(A & B) / len(A | B) if A | B else 1.0
            if jac >= 0.5:
                a, b = sorted((rows[i]["doc_id"], rows[j]["doc_id"]))
                want[(a, b)] = jac
    assert set(got_pairs) == set(want) and len(want) > 0
    for k in want:
        assert got_pairs[k] == pytest.approx(want[k], abs=1e-12), k


def test_sig_store_manifest_guard(ray_session, tmp_path):
    """Reusing a signature store built with different parameters raises
    instead of silently producing wrong pairs (ADVICE r2), and so does a
    store without a manifest."""
    import ray.data as rd

    from rayhll.pipelines.dedup import MinHashStage, build_minhash_sig_store

    ds = rd.from_arrow(_near_dup_docs())
    store = str(tmp_path / "sigs")

    def build(gram):
        signed = ds.map_batches(
            MinHashStage("text", "doc_id", 128, 32, gram), batch_format="pyarrow"
        )
        build_minhash_sig_store(signed, store, "text", "doc_id", 128, 32, gram)

    build(3)
    assert (tmp_path / "sigs" / "_MANIFEST.json").exists()
    build(3)  # same parameters: the store is reused
    with pytest.raises(ValueError, match="was built with"):
        build(5)  # mismatched shingling
    # a manifest-less (pre-manifest / foreign) store is also rejected
    (tmp_path / "sigs" / "_MANIFEST.json").unlink()
    with pytest.raises(ValueError, match="no _MANIFEST"):
        build(3)


def test_grouped_top_k_uint64_and_nulls(ray_session):
    """Order columns: uint64 values >= 2^63 keep true order (no signed
    wrap), and nulls place last in both directions (ADVICE r2)."""
    import ray.data as rd

    from rayhll.functions.sample import grouped_top_k

    big = np.array(
        [2**63 + 5, 2**63 + 1, 7, 2**64 - 1, 100, 3], dtype=np.uint64
    )
    t = pa.table(
        {
            "g": pa.array(np.zeros(6, dtype=np.int64)),
            "id": pa.array(np.arange(6, dtype=np.int64)),
            "o": pa.array(big, type=pa.uint64()),
        }
    )
    ds = rd.from_arrow(t)
    lo = grouped_top_k(ds, "g", "o", k=2).to_pandas()
    assert sorted(lo.id) == [2, 5]  # 3 and 7, NOT the 2^63+ values
    hi = grouped_top_k(ds, "g", "o", k=2, descending=True).to_pandas()
    assert sorted(hi.id) == [0, 3]  # 2^64-1 and 2^63+5

    # nulls last: ascending AND descending never pick the null row at k<n
    tn = pa.table(
        {
            "g": pa.array(np.zeros(4, dtype=np.int64)),
            "id": pa.array(np.arange(4, dtype=np.int64)),
            "o": pa.array([5, None, 1, 9], type=pa.int64()),
        }
    )
    dn = rd.from_arrow(tn)
    asc = grouped_top_k(dn, "g", "o", k=3).to_pandas()
    assert sorted(asc.id) == [0, 2, 3]
    desc = grouped_top_k(dn, "g", "o", k=3, descending=True).to_pandas()
    assert sorted(desc.id) == [0, 2, 3]
    # with k == n the null row IS returned (it's a selection, not a filter)
    all_rows = grouped_top_k(dn, "g", "o", k=4).to_pandas()
    assert sorted(all_rows.id) == [0, 1, 2, 3]


def test_hash_fraction_sample_properties(ray_session):
    """Deterministic fraction sampling: batch-layout invariance, exact
    complementarity, coordinated subsamples, binomial-range fraction."""
    import pyarrow as pa
    import ray.data as rd

    from rayhll.functions.sample import (
        hash_fraction_complement,
        hash_fraction_sample,
    )

    n = 100_000
    t = pa.table({"doc_id": pa.array(range(n), type=pa.int64())})
    for blocks in (2, 17):
        ds = rd.from_arrow(t).repartition(blocks)
        s = set(hash_fraction_sample(ds, "doc_id", 0.2).to_pandas().doc_id)
        c = set(hash_fraction_complement(ds, "doc_id", 0.2).to_pandas().doc_id)
        assert len(s & c) == 0 and len(s) + len(c) == n
        # binomial 6-sigma band around 20%
        assert abs(len(s) - 0.2 * n) < 6 * (0.2 * 0.8 * n) ** 0.5
        s_small = set(hash_fraction_sample(ds, "doc_id", 0.05).to_pandas().doc_id)
        assert s_small <= s  # coordinated
        if blocks == 2:
            first = s
        else:
            assert s == first  # layout-invariant
    ds = rd.from_arrow(t)
    assert hash_fraction_sample(ds, "doc_id", 1.0).count() == n
    assert hash_fraction_sample(ds, "doc_id", 0.0).count() == 0
    assert hash_fraction_complement(ds, "doc_id", 1.0).count() == 0
    with pytest.raises(ValueError):
        hash_fraction_sample(ds, "doc_id", 1.5)


def test_verify_join_fanout_follows_resolver(ray_session, monkeypatch):
    """The shingle-attach joins of ``ngram_jaccard_pairs`` follow the
    resolved fanout, never a fixed 64 (VERDICT r3 item 1): with the
    candidate prefilter disabled each join sizes its own fanout
    (``num_buckets=None``); with it enabled the fanout re-sizes from the
    (known) candidate row count.  Pair sets are identical on both paths."""
    import ray.data as rd

    import rayhll.functions.join as join
    import rayhll.pipelines.dedup as dd

    docs = rd.from_arrow(_near_dup_docs())
    recorded = []
    orig = join.bucket_equi_join

    def spy(left, right, on, how="inner", num_buckets=None, **kw):
        recorded.append(num_buckets)
        return orig(left, right, on, how=how, num_buckets=num_buckets, **kw)

    monkeypatch.setattr(join, "bucket_equi_join", spy)

    def pairs():
        out = dd.ngram_jaccard_pairs(docs, "text", "doc_id", threshold=0.5)
        return sorted(map(tuple, out.to_pandas()[["id_a", "id_b", "jaccard"]].to_numpy()))

    # prefilter skipped (cap 0): both joins resolve their own fanout
    monkeypatch.setattr(dd, "PREFILTER_MAX_IDS", 0)
    unfiltered = pairs()
    assert recorded == [None, None]

    # prefilter active: fanout re-sized from candidate rows (floor 64 here,
    # tiny corpus), and the pair set is byte-identical to the skip path
    recorded.clear()
    monkeypatch.setattr(dd, "PREFILTER_MAX_IDS", 32_000_000)
    filtered = pairs()
    expect = dd.buckets_for_rows(1)  # candidate-bounded floor
    assert recorded == [expect, expect]
    assert len(unfiltered) > 0
    assert filtered == unfiltered


def test_prefilter_payload_by_candidates(ray_session):
    """The pair-verify prefilter keeps exactly the candidate members (exact
    id set — zero false positives) and passes the payload through untouched
    when the id set exceeds the broadcast cap."""
    import ray.data as rd

    from rayhll.pipelines.dedup import _prefilter_payload_by_candidates

    cand = rd.from_arrow(
        pa.table(
            {
                "id_a": pa.array([1, 5, 5], type=pa.int64()),
                "id_b": pa.array([7, 7, 90], type=pa.int64()),
            }
        )
    ).materialize()
    payload = rd.range(100).map_batches(
        lambda t: t.rename_columns(["doc_id"]), batch_format="pyarrow"
    )
    out, n = _prefilter_payload_by_candidates(cand, payload, "doc_id")
    assert n == 4
    assert sorted(out.to_pandas()["doc_id"]) == [1, 5, 7, 90]

    out2, n2 = _prefilter_payload_by_candidates(cand, payload, "doc_id", max_ids=2)
    assert n2 is None
    assert out2.count() == 100


def test_decontaminate_planted_overlap(ray_session):
    """Planted benchmark leakage: distinct-gram counting, short docs, and
    filter mode all match first-principles expectations."""
    import ray.data as rd

    from rayhll.pipelines.decontam import decontaminate

    bench = ["alpha bravo charlie delta echo foxtrot golf hotel india juliet"]
    rows = [
        # full bench doc embedded -> 10 tokens, 3 distinct 8-grams leak
        {"doc_id": 0, "text": "x0 " + bench[0] + " y0"},
        # one leaked 8-gram REPEATED twice -> still 1 distinct hit
        {
            "doc_id": 1,
            "text": "alpha bravo charlie delta echo foxtrot golf hotel zz "
            "alpha bravo charlie delta echo foxtrot golf hotel",
        },
        # clean doc, disjoint vocabulary
        {"doc_id": 2, "text": "uno dos tres cuatro cinco seis siete ocho nueve diez"},
        # shorter than the gram width -> structurally clean
        {"doc_id": 3, "text": "alpha bravo charlie"},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = (
        decontaminate(ds, bench, gram=8, mode="annotate")
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "n_gram_hits"] == 3 and bool(out.loc[0, "contaminated"])
    assert out.loc[1, "n_gram_hits"] == 1  # distinct grams, not occurrences
    assert out.loc[2, "n_gram_hits"] == 0 and not bool(out.loc[2, "contaminated"])
    assert out.loc[3, "n_gram_hits"] == 0

    kept = decontaminate(ds, bench, gram=8, mode="filter").to_pandas()
    assert sorted(kept["doc_id"]) == [2, 3]
    assert sorted(kept.columns) == ["doc_id", "text"]


def test_decontaminate_sharded_equals_single(ray_session):
    """Range-partitioned shards must (a) partition the gram set exactly
    (disjoint, union == single array, sorted within shard, routed by top
    bits) and (b) produce identical contamination columns through the
    sharded broadcast path, including pre-built bench_shards refs."""
    import ray
    import ray.data as rd

    from rayhll.pipelines.decontam import (
        benchmark_gram_hashes,
        benchmark_gram_shards,
        decontaminate,
    )

    bench = [f"b{i} " + " ".join(f"w{i}_{j}" for j in range(12)) for i in range(40)]
    single = benchmark_gram_hashes(bench, gram=8)
    shards = benchmark_gram_shards(bench, num_shards=8, gram=8)
    assert len(shards) == 8
    assert np.array_equal(np.concatenate(shards), single)  # exact partition
    shift = np.uint64(64 - 3)
    for i, s in enumerate(shards):
        assert np.all(s[:-1] <= s[1:])  # sorted within shard
        assert np.all((s >> shift).astype(np.int64) == i)  # routed by top bits

    rows = [{"doc_id": i, "text": bench[i % 40] + f" tail{i}"} for i in range(50)]
    rows.append({"doc_id": 50, "text": "clean doc nothing shared at all here now"})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    base = (
        decontaminate(ds, bench, gram=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    sharded = (
        decontaminate(ds, bench, gram=8, num_shards=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    prebuilt = (
        decontaminate(ds, bench_shards=[ray.put(s) for s in shards], gram=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert base["n_gram_hits"].tolist() == sharded["n_gram_hits"].tolist()
    assert base["n_gram_hits"].tolist() == prebuilt["n_gram_hits"].tolist()
    assert base["contaminated"].tolist() == sharded["contaminated"].tolist()
    assert int(base.loc[50, "n_gram_hits"]) == 0
    assert (base.loc[:49, "contaminated"]).all()

    with pytest.raises(ValueError):
        benchmark_gram_shards(bench, num_shards=3)
    with pytest.raises(ValueError):
        decontaminate(ds, bench, bench_shards=shards)


def test_decontaminate_empty_bench_and_empty_corpus(ray_session):
    import ray.data as rd

    from rayhll.pipelines.decontam import decontaminate

    ds = rd.from_arrow(
        pa.Table.from_pylist([{"doc_id": 0, "text": "some tokens here repeated " * 5}])
    )
    out = decontaminate(ds, [], gram=8).to_pandas()
    assert out["n_gram_hits"].tolist() == [0]

    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], type=pa.int64()),
                                    "text": pa.array([], type=pa.string())}))
    got = decontaminate(empty, ["alpha bravo charlie delta echo foxtrot golf hotel"],
                        gram=8).to_pandas()
    assert len(got) == 0


def test_repetition_stats_planted(ray_session):
    """Multi-line + repeated-token docs: every column matches hand counts,
    and the gram-hash fold is order-sensitive (the xor-fold symmetry bug)."""
    import ray.data as rd

    from rayhll.pipelines.text import RepetitionStats

    rows = [
        # 4 lines, one duplicated; "spam ham" 2-gram appears 3 times
        {"doc_id": 0, "text": "spam ham eggs\nspam ham eggs\nspam ham\nother line"},
        # all-distinct tokens, single line
        {"doc_id": 1, "text": "uno dos tres cuatro"},
        # "a b" vs "b a" must NOT alias: top 2-gram count is 1 each
        {"doc_id": 2, "text": "a b c b a"},
        # same-token 2-grams from DIFFERENT tokens must not alias either
        {"doc_id": 3, "text": "x x y y"},
        {"doc_id": 4, "text": ""},
    ]
    out = (
        rd.from_arrow(pa.Table.from_pylist(rows))
        .map_batches(RepetitionStats(), batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "n_lines"] == 4 and out.loc[0, "n_distinct_lines"] == 3
    assert out.loc[0, "dup_line_frac"] == 0.25
    assert out.loc[0, "top_2gram_count"] == 3  # "spam ham" x3
    assert out.loc[1, "dup_token_frac"] == 0.0 and out.loc[1, "top_2gram_count"] == 1
    assert out.loc[2, "top_2gram_count"] == 1  # "a b" != "b a"
    assert out.loc[3, "top_2gram_count"] == 1  # "x x" != "y y"
    assert out.loc[4, "n_lines"] == 1 and out.loc[4, "top_2gram_count"] == 0


def test_pii_redact_counts_and_text(ray_session):
    import ray.data as rd

    from rayhll.pipelines.text import PiiRedact

    rows = [
        {"doc_id": 0, "text": "mail a.b+c@x-y.org and d@e.io, ip 192.168.0.1, ssn 123-45-6789"},
        {"doc_id": 1, "text": "clean text with plain numbers 12345 and dots..."},
        # email containing digits must be redacted as ONE email, and its
        # remnants must not be double-matched by the numeric patterns
        {"doc_id": 2, "text": "x 99.2@mail.example.com y"},
        # an ipv4 NESTED inside an email span: counted on the progressively
        # redacted text, so n_ipv4 must be 0 (no [IP] placeholder exists)
        {"doc_id": 3, "text": "reach 1.2.3.4@example.com now"},
    ]
    out = (
        rd.from_arrow(pa.Table.from_pylist(rows))
        .map_batches(PiiRedact(), batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, ["n_email", "n_ssn", "n_ipv4"]].tolist() == [2, 1, 1]
    assert out.loc[0, "text_redacted"] == "mail [EMAIL] and [EMAIL], ip [IP], ssn [SSN]"
    assert out.loc[1, ["n_email", "n_ssn", "n_ipv4"]].tolist() == [0, 0, 0]
    assert out.loc[1, "text_redacted"] == rows[1]["text"]
    assert out.loc[2, "n_email"] == 1 and out.loc[2, "n_ipv4"] == 0
    assert out.loc[2, "text_redacted"] == "x [EMAIL] y"
    assert out.loc[3, ["n_email", "n_ssn", "n_ipv4"]].tolist() == [1, 0, 0]
    assert out.loc[3, "text_redacted"] == "reach [EMAIL] now"


def test_kmeans_reseed_empty_splits_largest():
    """An empty cluster's centroid is replaced by a perturbed copy of the
    most populous donor (unit-norm, distinct); non-empty centroids are
    untouched; all-empty/none-empty inputs pass through unchanged."""
    from rayhll.pipelines.similarity import _normalize, _reseed_empty

    cent = _normalize(np.arange(1.0, 13.0).reshape(3, 4))
    counts = np.array([500, 0, 20])
    out = _reseed_empty(cent, counts)
    assert np.allclose(out[0], cent[0]) and np.allclose(out[2], cent[2])
    assert not np.allclose(out[1], cent[1])  # re-seeded
    assert np.allclose(np.linalg.norm(out[1]), 1.0)
    # near the donor (cluster 0, the largest) but not equal to it
    assert out[1] @ cent[0] > 0.999 and not np.allclose(out[1], cent[0])
    same = _reseed_empty(cent, np.array([5, 5, 5]))
    assert np.allclose(same, cent)
    degenerate = _reseed_empty(cent, np.zeros(3, dtype=np.int64))
    assert np.allclose(degenerate, cent)  # nothing to donate from


def test_kmeans_recovers_planted_clusters(ray_session):
    """Three well-separated planted clusters: k-means must recover pure
    clusters, inertia must be non-increasing, and distributed assignment
    must equal the driver-side numpy argmax."""
    import ray.data as rd

    from rayhll.pipelines.similarity import kmeans_assign, kmeans_fit

    rng = np.random.default_rng(5)
    centers = np.eye(3, 16) * 10.0  # orthogonal, far apart
    vecs, labels = [], []
    for c in range(3):
        pts = centers[c] + rng.normal(0, 0.1, (200, 16))
        vecs.append(pts)
        labels += [c] * 200
    mat = np.concatenate(vecs)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(mat)), type=pa.int64()),
            "embedding": pa.array(list(mat), type=pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(tbl).repartition(8)
    cent, hist = kmeans_fit(ds, k=3, iters=5, seed=1)
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
    out = kmeans_assign(ds, cent).to_pandas().sort_values("vec_id")
    # purity: every planted cluster maps to exactly one k-means cluster
    got = out["cluster"].to_numpy()
    for c in range(3):
        seg = got[np.array(labels) == c]
        assert (seg == seg[0]).all()
    assert len(set(got[::200])) == 3  # and the three are distinct
    # distributed assignment == driver-side ground truth
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    want = (nm @ cent.T).argmax(axis=1)
    assert (got == want).all()
    assert out["cosine"].min() > 0.9  # tight clusters -> high cosine


def test_text_stages_survive_null_text(ray_session):
    """A null text row must flow through every text stage as an empty doc
    (the flagship's null ≡ empty-content stance), never crash a task."""
    import ray.data as rd

    from rayhll.pipelines.decontam import decontaminate
    from rayhll.pipelines.text import Fingerprint, RepetitionStats

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array(["alpha beta gamma", None, ""], type=pa.string()),
        }
    )
    ds = rd.from_arrow(tbl)
    rep = (
        ds.map_batches(RepetitionStats(), batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")
    )
    assert rep.loc[1, "n_distinct_tokens"] == 0 and rep.loc[1, "n_lines"] == 1
    dec = (
        decontaminate(ds, ["alpha beta gamma delta epsilon zeta eta theta"], gram=8)
        .to_pandas()
        .set_index("doc_id")
    )
    assert dec["n_gram_hits"].tolist() == [0, 0, 0]
    fp = ds.map_batches(Fingerprint(), batch_format="pyarrow").to_pandas()
    assert len(fp) == 3


def test_cross_doc_duplication_planted(ray_session):
    """Planted overlap structure: disjoint-vocab docs score 0, an exact
    twin pair scores 1.0, and a half-overlapping doc scores exactly its
    shared-gram fraction."""
    import ray.data as rd

    from rayhll.pipelines.crossdup import cross_doc_duplication

    a = [f"a{j}" for j in range(20)]
    b = [f"b{j}" for j in range(20)]
    rows = [
        {"doc_id": 0, "text": " ".join(a)},
        {"doc_id": 1, "text": " ".join(a)},   # exact twin of 0
        {"doc_id": 2, "text": " ".join(b)},   # fully unique vocab
        # first 11 tokens shared with doc 0 -> 9 shared 3-grams of 18
        {"doc_id": 3, "text": " ".join(a[:11] + [f"c{j}" for j in range(9)])},
        {"doc_id": 4, "text": "x y"},          # < gram tokens: omitted
    ]
    out = (
        cross_doc_duplication(rd.from_arrow(pa.Table.from_pylist(rows)), gram=3)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert sorted(out.index) == [0, 1, 2, 3]
    assert out.loc[0, "dup_frac"] == 1.0 and out.loc[1, "dup_frac"] == 1.0
    assert out.loc[2, "dup_frac"] == 0.0
    assert out.loc[3, "n_grams"] == 18 and out.loc[3, "n_shared_grams"] == 9
    assert out.loc[3, "dup_frac"] == 0.5


def test_token_budget_sample_per_group_dict(ray_session):
    """Dict budgets: per-group prefix in id order, inclusive-fit rule,
    absent groups dropped; many blocks must not change the selection."""
    import ray.data as rd

    from rayhll.functions.sample import token_budget_sample

    rows = []
    for g, widths in [("en", [5, 5, 5, 5]), ("de", [9, 2, 9]), ("xx", [1])]:
        for i, w in enumerate(widths):
            rows.append({"doc_id": len(rows), "lang": g, "n_tokens": w})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    out = (
        token_budget_sample(ds, {"en": 12, "de": 11}, num_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
    )
    # en: 5+5=10 fits, third 5 would make 15 > 12 -> first two kept
    # de: 9+2=11 fits exactly (inclusive), third 9 -> 20 > 11 dropped
    # xx: no budget -> dropped entirely
    assert out[out.lang == "en"]["n_tokens"].tolist() == [5, 5]
    assert out[out.lang == "de"]["n_tokens"].tolist() == [9, 2]
    assert "xx" not in set(out.lang)


def test_token_budget_sample_skew_two_pass_exact(ray_session):
    """One group owning 90% of the rows: the two-pass prefix must (a)
    detect it as big, split it into id ranges and classify keep-all /
    drop-all / boundary ranges, and (b) return EXACTLY the single-task
    polars reference selection — including zero-weight rows at the budget
    edge and a big group absent from a dict budget."""
    import polars as pl
    import ray.data as rd

    from rayhll.functions.sample import token_budget_sample

    rng = np.random.default_rng(42)
    n_hot = 18_000
    rows = {
        "doc_id": np.arange(n_hot + 2_000, dtype=np.int64),
        "lang": np.array(["hot"] * n_hot + ["a", "b"] * 1_000, dtype=object),
        "n_tokens": rng.integers(0, 7, n_hot + 2_000).astype(np.int64),
    }
    # shuffle row order so ranges interleave across blocks
    perm = rng.permutation(len(rows["doc_id"]))
    tbl = pa.table({k: v[perm] for k, v in rows.items()})
    ds = rd.from_arrow(tbl).repartition(16)

    def reference(budgets):
        df = pl.from_arrow(tbl).sort(["lang", "doc_id"]).with_columns(
            pl.col("n_tokens").fill_null(0).cum_sum().over("lang").alias("_cum")
        )
        if isinstance(budgets, dict):
            b = pl.DataFrame({"lang": list(budgets), "_b": list(budgets.values())})
            df = df.join(b, on="lang", how="inner").filter(pl.col("_cum") <= pl.col("_b"))
        else:
            df = df.filter(pl.col("_cum") <= budgets)
        return sorted(df["doc_id"].to_list())

    kw = dict(
        num_buckets=8,
        target_rows_per_range=1_000,
        max_ranges=8,
        sample_min_rows_per_batch=8,
    )
    # int mode: hot group's budget lands mid-group -> keep-all ranges ahead
    # of one boundary range, drop-all behind it
    stats = {}
    out = token_budget_sample(ds, budgets=20_000, stats_out=stats, **kw).to_pandas()
    assert stats["n_big_groups"] == 1
    assert max(stats["ranges_per_big_group"].values()) >= 4
    assert stats["n_keep_all"] >= 1 and stats["n_drop_all"] >= 1
    assert stats["n_boundary"] <= 1
    assert sorted(out["doc_id"]) == reference(20_000)

    # dict mode: hot group ABSENT from the dict -> all its ranges drop-all
    stats2 = {}
    out2 = token_budget_sample(
        ds, budgets={"a": 1_500, "b": 40}, stats_out=stats2, **kw
    ).to_pandas()
    assert stats2["n_big_groups"] == 1 and stats2["n_keep_all"] == 0
    assert stats2["n_drop_all"] >= 4
    assert sorted(out2["doc_id"]) == reference({"a": 1_500, "b": 40})

    # huge budget: every range of the hot group is keep-all (zero boundary)
    stats3 = {}
    out3 = token_budget_sample(ds, budgets=10**9, stats_out=stats3, **kw).to_pandas()
    assert stats3["n_boundary"] == 0 and stats3["n_drop_all"] == 0
    assert sorted(out3["doc_id"]) == reference(10**9)


def test_token_budget_sample_null_group_dict_mode(ray_session):
    """A null group key is a group like any other: an explicit ``None`` dict
    key budgets it, and omitting ``None`` drops it (same as any absent
    group) — the repo-wide NULL-GROUP convention."""
    import ray.data as rd

    from rayhll.functions.sample import token_budget_sample

    rows = [
        {"doc_id": 0, "lang": None, "n_tokens": 4},
        {"doc_id": 1, "lang": None, "n_tokens": 4},
        {"doc_id": 2, "lang": None, "n_tokens": 4},
        {"doc_id": 3, "lang": "en", "n_tokens": 4},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = token_budget_sample(ds, {None: 8, "en": 8}, num_buckets=2).to_pandas()
    assert sorted(out["doc_id"]) == [0, 1, 3]  # null group budgeted at 8
    out2 = token_budget_sample(ds, {"en": 8}, num_buckets=2).to_pandas()
    assert sorted(out2["doc_id"]) == [3]  # absent None key -> nulls dropped
    # int mode budgets the null group like every group
    out3 = token_budget_sample(ds, budgets=8, num_buckets=2).to_pandas()
    assert sorted(out3["doc_id"]) == [0, 1, 3]


def test_video_perceptual_hash_pairs(ray_session):
    """Videos hash their middle frame: two clips sharing the same middle
    frame pair up — raw-raw AND mjpeg-mjpeg (the compressed container
    self-describes its dims, so its metadata stays -1); the audio row
    stays null and never pairs."""
    import ray.data as rd

    from rayhll.functions import codecs
    from rayhll.pipelines.multimodal import image_near_dup_pairs

    rng = np.random.default_rng(13)
    mid = rng.integers(0, 256, (12, 16, 3), dtype=np.uint8)
    def clip(seed, codec=codecs.encode_rawvideo):
        r = np.random.default_rng(seed)
        frames = r.integers(0, 256, (5, 12, 16, 3), dtype=np.uint8)
        frames[2] = mid
        return codec(frames)
    rows = [
        {"asset_id": 0, "media_type": "video", "payload": clip(1), "width": 16, "height": 12},
        {"asset_id": 1, "media_type": "video", "payload": clip(2), "width": 16, "height": 12},
        {"asset_id": 2, "media_type": "video",
         "payload": codecs.encode_rawvideo(rng.integers(0, 256, (5, 12, 16, 3), dtype=np.uint8)),
         "width": 16, "height": 12},
        {"asset_id": 3, "media_type": "audio",
         "payload": codecs.encode_wav(np.zeros(64, dtype=np.int16), 8000),
         "width": -1, "height": -1},
        # MJPEG twins: identical ENCODED middle frame -> identical decode ->
        # identical dhash (JPEG loss is deterministic per encoded bytes)
        {"asset_id": 4, "media_type": "video", "payload": clip(3, codecs.encode_mjpeg),
         "width": -1, "height": -1},
        {"asset_id": 5, "media_type": "video", "payload": clip(4, codecs.encode_mjpeg),
         "width": -1, "height": -1},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    pairs = image_near_dup_pairs(ds, max_hamming=3).to_pandas()
    got = set(map(tuple, pairs[["id_a", "id_b"]].values.tolist()))
    assert (0, 1) in got and (4, 5) in got
    assert not any(2 in p or 3 in p for p in got)


def test_hashing_vectorizer_feeds_embedding_ops(ray_session):
    """The hashing-trick vectors plug straight into the embedding
    operators: k-means over hashed docs separates two disjoint-vocabulary
    clusters perfectly."""
    import ray.data as rd

    from rayhll.pipelines.similarity import kmeans_assign, kmeans_fit
    from rayhll.pipelines.text import HashingVectorizer

    rows = []
    for i in range(60):
        fam = i % 2
        toks = [f"f{fam}w{(i * 7 + j) % 30}" for j in range(25)]
        rows.append({"doc_id": i, "text": " ".join(toks)})
    ds = (
        rd.from_arrow(pa.Table.from_pylist(rows))
        .repartition(4)
        .map_batches(HashingVectorizer(dim=128), batch_format="pyarrow")
        .select_columns(["doc_id", "embedding"])
        .materialize()
    )
    cent, hist = kmeans_fit(ds, vec_col="embedding", k=2, iters=4, seed=3)
    out = kmeans_assign(ds, cent, vec_col="embedding", id_col="doc_id").to_pandas()
    out = out.sort_values("doc_id")
    got = out["cluster"].to_numpy()
    assert (got[::2] == got[0]).all() and (got[1::2] == got[1]).all()
    assert got[0] != got[1]


def test_token_budget_sample_null_weights_match_sql(ray_session):
    """Null weights contribute 0 to the running sum and stay eligible —
    exactly the SQL windowed-SUM semantics the docstring promises."""
    import ray.data as rd

    from rayhll.functions.sample import token_budget_sample

    rows = [
        {"doc_id": 0, "lang": "en", "n_tokens": 5},
        {"doc_id": 1, "lang": "en", "n_tokens": None},
        {"doc_id": 2, "lang": "en", "n_tokens": 5},
        {"doc_id": 3, "lang": "en", "n_tokens": 5},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = token_budget_sample(ds, budgets=10, num_buckets=2).to_pandas()
    # cum: 5, 5(null skipped), 10, 15 -> docs 0,1,2 kept
    assert sorted(out["doc_id"]) == [0, 1, 2]


def test_hamming64_pairs_matches_brute_force(ray_session):
    """Pigeonhole guarantee: for max_hamming <= 3 the distributed pairing
    must find EXACTLY the brute-force pair set over random fingerprints
    with planted near-neighbors."""
    import itertools

    import ray.data as rd

    from rayhll.pipelines.dedup import hamming64_pairs

    rng = np.random.default_rng(8)
    hashes = rng.integers(0, 1 << 63, 300, dtype=np.int64)
    # plant near-neighbors: ids 200+i = ids i with 1..3 bits flipped
    for i in range(40):
        flips = rng.choice(64, size=rng.integers(1, 4), replace=False)
        v = int(hashes[i])
        for b in flips:
            v ^= 1 << int(b)
        hashes[200 + i] = np.int64(np.uint64(v % (1 << 64)).astype(np.int64))
    tbl = pa.table(
        {"vid": pa.array(np.arange(300), type=pa.int64()),
         "h64": pa.array(hashes, type=pa.int64())}
    )
    got = (
        hamming64_pairs(rd.from_arrow(tbl).repartition(5), "vid", hash_col="h64",
                        max_hamming=3, num_buckets=8)
        .to_pandas()
    )
    got_set = set(map(tuple, got[["id_a", "id_b"]].values.tolist()))
    u = hashes.view(np.uint64)
    want = set()
    for a, b in itertools.combinations(range(300), 2):
        if bin(int(u[a]) ^ int(u[b])).count("1") <= 3:
            want.add((a, b))
    assert got_set == want and len(want) >= 40
    # reported distances are exact
    for r in got.itertuples():
        assert bin(int(u[r.id_a]) ^ int(u[r.id_b])).count("1") == r.hamming


def test_minhash_id_check_runs_no_extra_execution(ray_session, executions):
    """Behind a filter the schema is unknown until the plan runs: the id
    type is checked in the first map, not by fetching the schema, which
    would run the input's first block once more."""
    import ray.data as rd

    from rayhll.pipelines.dedup import minhash_lsh_pairs
    from tests.conftest import _executions_of

    table = _near_dup_docs()
    plain = rd.from_arrow(table)
    filtered = rd.from_arrow(table).filter(lambda row: row["doc_id"] >= 0)
    got = []

    def run(ds):
        return lambda: got.append(minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.5).to_pandas())

    assert _executions_of(executions, run(filtered)) == _executions_of(executions, run(plain))
    assert got[0].sort_values(["id_a", "id_b"]).values.tolist() == got[1].sort_values(["id_a", "id_b"]).values.tolist()

    floats = rd.from_arrow(table.set_column(0, "doc_id", table.column("doc_id").cast(pa.float64())))
    # raised in a Ray task: the driver sees the ValueError wrapped
    with pytest.raises(Exception, match="ValueError: minhash_lsh_pairs: 'doc_id' must be an integer"):
        minhash_lsh_pairs(floats.filter(lambda row: True), "text", "doc_id", threshold=0.5).to_pandas()


def _code_blocks(rows: int):
    """Three code-table blocks; one row of the first has a NULL content."""
    rng = np.random.default_rng(13)
    tables = []
    for _ in range(3):
        content = [f"c{i}" for i in rng.integers(0, 500, rows)]
        if content:
            content[0] = None
        tables.append(
            pa.table(
                {
                    "repo": pa.array([f"r{i}" for i in rng.integers(0, 3, rows)], type=pa.string()),
                    "path": pa.array([f"p{i}" for i in rng.integers(0, 900, rows)], type=pa.string()),
                    "commit": pa.array([f"k{i}" for i in rng.integers(0, 30, rows)], type=pa.string()),
                    "lang": pa.array(rng.choice(["py", "go"], rows).tolist(), type=pa.string()),
                    "content": pa.array(content, type=pa.string()),
                }
            )
        )
    return tables


@pytest.mark.parametrize("rows", [700, 0])
def test_flagships_hash_content_in_the_build(ray_session, rows):
    """With hash_content, both flagships hash content inside MultiKeyBuild
    and give the bytes of a HashStage map chained before it, NULL content
    (hashed as b"") and an empty input included."""
    import ray
    import ray.data as rd

    from rayhll.core.serde import from_bytes
    from rayhll.pipelines import distinct
    from rayhll.stages import build

    tables = _code_blocks(rows)
    kw = dict(batch_format="pyarrow", zero_copy_batch=True, batch_size=500)

    def chained(grouped: bool):
        hashed = rd.from_arrow(tables).map_batches(distinct.HashStage(), **kw)
        return hashed.map_batches(distinct.MultiKeyBuild(grouped=grouped), **kw)

    merger = build.make_bucket_merger(
        list(distinct.GROUP_COLS), list(distinct.SKETCH_COLS), list(distinct.EST_COLS)
    )
    def collect(ds) -> pa.Table:
        tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        return pa.concat_tables(tables).sort_by(by) if tables else None

    by = [("repo", "ascending"), ("lang", "ascending")]
    got = distinct.flagship_grouped(
        rd.from_arrow(tables), batch_size=500, include_sketches=True
    )
    want = collect(build.merge_grouped(chained(True), merger))
    assert (collect(got) is None) if want is None else collect(got).equals(want)
    assert (want is None) == (rows == 0)

    row = build.merge_to_row(chained(False), distinct.merge_partials_block)
    direct = rd.from_arrow(tables).map_batches(
        distinct.MultiKeyBuild(grouped=False, hash_content=True), **kw
    )
    assert build.merge_to_row(direct, distinct.merge_partials_block).equals(row)
    row = row.to_pylist()[0]
    ests = [from_bytes(row[c]).cardinality() if row[c] else 0 for c in distinct.SKETCH_COLS]
    out = distinct.flagship_global(rd.from_arrow(tables), batch_size=500).to_pylist()[0]
    assert [out[c] for c in distinct.EST_COLS] == ests
    assert out["rows_in"] == 3 * rows
