"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB.

No ``ray.init``/``ray.shutdown`` here or in any library code (driver owns the
session).  Exact-mode HLL queries use expthresh=18 so every group stays in
the EXPLICIT (exact) representation at sf scales — their estimates equal
COUNT(DISTINCT) and are oracle-gated; probabilistic queries omit the oracle
(rows-only check) and are bound-checked in pytest instead.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


# ----------------------------------------------------------------------
# flagship


def entry() -> Any:
    """Flagship on sf0.001: documents reshaped to the input_hint source-code
    schema -> per-(repo, lang) distinct sketches for content/path/(repo,commit)."""
    from rayhll.pipelines import distinct
    from rayhll.sources.synth import code_table_from_documents

    ds = _read("/root/testdata/sf0.001", "documents").map_batches(
        code_table_from_documents, batch_format="pyarrow", zero_copy_batch=True
    )
    return distinct.flagship_grouped(ds)


# ----------------------------------------------------------------------
# queries


def _q_distinct_text(sf_dir: str):
    import pyarrow as pa

    from rayhll import ray_agg

    ds = _read(sf_dir, "documents", columns=["text"])
    est = ray_agg.approx_distinct(ds, ["text"], settings=ray_agg.EXACT_MODE)
    return pa.table({"distinct_text": pa.array([est], type=pa.int64())})


def _q_distinct_text_by_lang(sf_dir: str):
    from rayhll import ray_agg

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    out = ray_agg.grouped_approx_distinct(
        ds, ["lang"], ["text"], settings=ray_agg.EXACT_MODE
    )
    return out.drop_columns(["rows_in"]).rename_columns(
        {"estimate": "distinct_text"}
    )


def _q_distinct_users_by_event_type(sf_dir: str):
    from rayhll import ray_agg

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    out = ray_agg.grouped_approx_distinct(
        ds, ["event_type"], ["user_id"], settings=ray_agg.EXACT_MODE
    )
    return out.drop_columns(["rows_in"]).rename_columns(
        {"estimate": "distinct_users"}
    )


def _q_distinct_orderkey(sf_dir: str):
    import pyarrow as pa

    from rayhll import ray_agg

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey"])
    est = ray_agg.approx_distinct(ds, ["l_orderkey"], settings=ray_agg.EXACT_MODE)
    return pa.table({"distinct_orderkey": pa.array([est], type=pa.int64())})


def _q_distinct_orderkey_linenumber(sf_dir: str):
    import pyarrow as pa

    from rayhll import ray_agg

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])
    est = ray_agg.approx_distinct(
        ds, ["l_orderkey", "l_linenumber"], settings=ray_agg.EXACT_MODE
    )
    return pa.table({"distinct_orderkey_linenumber": pa.array([est], type=pa.int64())})


def _q_distinct_custkey_by_orderstatus(sf_dir: str):
    from rayhll import ray_agg

    ds = _read(sf_dir, "orders", columns=["o_orderstatus", "o_custkey"])
    out = ray_agg.grouped_approx_distinct(
        ds, ["o_orderstatus"], ["o_custkey"], settings=ray_agg.EXACT_MODE
    )
    return out.drop_columns(["rows_in"]).rename_columns(
        {"estimate": "distinct_custkey"}
    )


def _q_sha256_invariant(sf_dir: str):
    import pyarrow as pa

    from rayhll.functions import hashing

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_sha(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "sha": pa.array(hashing.sha256_hex(batch.column("text")), type=pa.string()),
            }
        )

    return ds.map_batches(add_sha, batch_format="pyarrow", zero_copy_batch=True)


def _q_flagship_code_global(sf_dir: str):
    from rayhll import ray_agg
    from rayhll.pipelines import distinct
    from rayhll.sources.synth import code_table_from_documents

    ds = _read(sf_dir, "documents").map_batches(
        code_table_from_documents, batch_format="pyarrow", zero_copy_batch=True
    )
    return distinct.flagship_global(ds, settings=ray_agg.EXACT_MODE)


def _q_hll_estimate_text_probabilistic(sf_dir: str):
    """Probabilistic estimate at log2m=11, ORACLE-GATED on its error bound:
    the query computes the probabilistic estimate AND the exact count (via
    the already-oracle-gated EXACT_MODE path) and emits whether the relative
    error is within 3σ of the published bound (1.04/√m).  The oracle is the
    constant TRUE — a hard pass/fail the driver hash-checks."""
    import numpy as np
    import pyarrow as pa

    from rayhll import ray_agg

    ds = _read(sf_dir, "documents", columns=["text"])
    est = ray_agg.approx_distinct(ds, ["text"])
    exact = ray_agg.approx_distinct(ds, ["text"], settings=ray_agg.EXACT_MODE)
    ok = abs(est - exact) / max(exact, 1) < 3 * 1.04 / np.sqrt(2.0**11)
    return pa.table({"estimate_within_3sigma": pa.array([bool(ok)], type=pa.bool_())})


def _q_hll_sketch_hex_by_lang(sf_dir: str):
    """Serialized storage-spec v1.0.0 sketch per lang as postgres hex,
    ORACLE-GATED on the round-trip invariant: each group's sketch is
    serialized to pg hex, re-parsed, and its estimate checked against the
    exact per-group COUNT(DISTINCT) (3σ bound at log2m=11).  The oracle is
    the per-lang all-TRUE table, so the driver hash-gates hex round-trip +
    estimator accuracy per group."""
    import numpy as np
    import pyarrow as pa

    from rayhll import ray_agg
    from rayhll.core import serde

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    merged = ray_agg.grouped_approx_distinct(
        ds, ["lang"], ["text"], include_sketch=True
    )
    exact = ray_agg.grouped_approx_distinct(
        ds, ["lang"], ["text"], settings=ray_agg.EXACT_MODE
    )
    exact_by_lang = {
        r["lang"]: r["estimate"] for r in exact.take_all()
    }
    bound = 3 * 1.04 / np.sqrt(2.0**11)

    def hexify(batch: pa.Table) -> pa.Table:
        oks = []
        for lang_val, blob in zip(
            batch.column("lang").to_pylist(),
            batch.column(ray_agg.SKETCH_COL).to_pylist(),
        ):
            hx = serde.to_pg_hex(blob)
            rt = serde.from_bytes(serde.from_pg_hex(hx))
            est = rt.cardinality()
            ex = exact_by_lang[lang_val]
            oks.append(abs(est - ex) / max(ex, 1) < bound)
        return pa.table(
            {
                "lang": batch.column("lang"),
                "roundtrip_within_bound": pa.array(oks, type=pa.bool_()),
            }
        )

    return merged.map_batches(hexify, batch_format="pyarrow")


def _q_hll_sketch_hex_dump(sf_dir: str):
    """The raw interop surface, SELF-VERIFIED and ORACLE-GATED: the
    storage-spec v1.0.0 sketch per lang is emitted as postgres ``\\x``-hex,
    re-parsed (``from_pg_hex`` -> ``from_bytes``), re-serialized, and
    checked byte-identical with an identical cardinality estimate —
    ``roundtrip_ok`` is that verdict per group, gated against the all-TRUE
    oracle.  (The hex bytes themselves are additionally pinned byte-exact
    by the golden corpus in tests/conformance.)"""
    import pyarrow as pa

    from rayhll import ray_agg
    from rayhll.core import serde
    from rayhll.core.sketch import HllSketch

    ds = _read(sf_dir, "documents", columns=["lang", "text"])
    merged = ray_agg.grouped_approx_distinct(
        ds, ["lang"], ["text"], include_sketch=True
    )

    def hex_roundtrip(batch: pa.Table) -> pa.Table:
        oks = []
        ests = batch.column(ray_agg.ESTIMATE_COL).to_pylist()
        for blob, est in zip(batch.column(ray_agg.SKETCH_COL), ests):
            raw = blob.as_py()
            hexed = serde.to_pg_hex(raw)
            back = serde.from_pg_hex(hexed)
            sk = HllSketch.from_bytes(back)
            oks.append(
                back == raw and sk.to_bytes() == raw and sk.cardinality() == est
            )
        return pa.table(
            {
                "lang": batch.column("lang"),
                "roundtrip_ok": pa.array(oks, type=pa.bool_()),
            }
        )

    return merged.map_batches(hex_roundtrip, batch_format="pyarrow")


# ----------------------------------------------------------------------
# dedup / text / sketch-family / similarity queries


def _q_dedup_exact_documents(sf_dir: str):
    from rayhll.pipelines.dedup import exact_dedup_keep_ids

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup_keep_ids(ds, "text", "doc_id")


def _q_text_stats_documents(sf_dir: str):
    from rayhll.pipelines.text import TextStats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(TextStats(), batch_format="pyarrow", zero_copy_batch=True)
    return out.select_columns(["doc_id", "n_chars_calc", "n_tokens", "n_spaces"])


def _q_token_counts_documents(sf_dir: str):
    """Whitespace + BPE-ish-pre-tokenizer token counts per document
    (training-data costing), ORACLE-GATED: both patterns are lookahead-free
    so polars (rust regex) and DuckDB (RE2) count identically."""
    from rayhll.pipelines.text import TokenCount

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(TokenCount(), batch_format="pyarrow", zero_copy_batch=True)
    return out.select_columns(["doc_id", "n_tokens_ws", "n_tokens_bpe"])


def _q_bloom_semijoin_lineitem_part(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from rayhll.functions.hashing import hash64_table
    from rayhll.sketches.bloom import BloomFilter

    import duckdb

    part_path = os.path.join(sf_dir, "part.parquet")
    keys_tbl = duckdb.sql(
        f"SELECT p_partkey FROM read_parquet('{part_path}') WHERE p_size > 40"
    ).arrow()
    bf = BloomFilter.for_capacity(max(len(keys_tbl), 16), 0.001)
    bf.add_batch(hash64_table(keys_tbl, ["p_partkey"], seed=3))
    # broadcast ONCE: bloom bytes for the cheap prefilter, the exact key
    # array (Arrow, zero-copy) for the vectorized is_in exactness pass
    blob_ref = ray.put(bf.to_bytes())
    keys_ref = ray.put(keys_tbl.column("p_partkey").combine_chunks())

    def prefilter(batch: pa.Table) -> pa.Table:
        f = BloomFilter.from_bytes(ray.get(blob_ref))
        h = hash64_table(batch, ["l_partkey"], seed=3)
        cand = batch.filter(pa.array(f.contains_batch(h)))
        keep = pc.is_in(cand.column("l_partkey"), value_set=ray.get(keys_ref))
        return cand.filter(keep)

    ds = _read(sf_dir, "lineitem", columns=["l_partkey"])
    n = ds.map_batches(prefilter, batch_format="pyarrow", zero_copy_batch=True).count()
    return pa.table({"n_rows": pa.array([n], type=pa.int64())})


def _q_join_orders_customer_by_segment(sf_dir: str):
    """Distributed bucketed equi-join (orders ⋈ customer) + grouped rollup,
    ORACLE-GATED: order count and min orderkey per market segment.  The join
    is the engine's sort-shuffle bucket join (rayhll.functions.join) — Ray's
    own hash-shuffle join deadlocks small sessions (tests/test_upstream_
    shuffle.py)."""
    import pyarrow as pa

    from rayhll.functions.join import bucket_equi_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_mktsegment"]),
        batch_format="pyarrow",
    )
    joined = bucket_equi_join(orders, cust, on="o_custkey", how="inner")

    def rollup(tbl: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(tbl)
            .group_by("c_mktsegment")
            .agg(
                pl.len().alias("n_orders").cast(pl.Int64),
                pl.col("o_orderkey").min().alias("min_orderkey"),
            )
            .to_arrow()
        )

    return joined.groupby("c_mktsegment").map_groups(rollup, batch_format="pyarrow")


def _q_asof_join_click_purchase(sf_dir: str):
    """As-of join, ORACLE-GATED vs DuckDB's native ASOF LEFT JOIN: for each
    click event, the same user's most recent purchase at-or-before it.
    All output values are pass-through (no float arithmetic), so the hash
    gate is exact."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rayhll.functions.join import asof_join

    ds = _read(sf_dir, "events", columns=["ts", "user_id", "event_type"])

    def clicks(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch.column("event_type"), "click"))
        return sub.drop_columns(["event_type"])

    def purchases(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch.column("event_type"), "purchase"))
        sub = sub.drop_columns(["event_type"])
        return sub.append_column("purchase_ts", sub.column("ts"))

    left = ds.map_batches(clicks, batch_format="pyarrow", zero_copy_batch=True)
    right = ds.map_batches(purchases, batch_format="pyarrow", zero_copy_batch=True)
    return asof_join(left, right, on="ts", by="user_id")


def _q_range_join_events_windows(sf_dir: str):
    """Range (interval) join, ORACLE-GATED: each event joined to the hour
    windows of its event type that contain its timestamp (window table
    derived deterministically, mirrored in the oracle SQL).  Exercises
    functions/join.range_join end-to-end with pass-through values.

    ``by`` has only 5 distinct event types, so every key is a hot key —
    the query runs the SALTED path (``bin_width`` = 1 hour in µs, matching
    the window width: ~2 replicas/interval) so each type spreads across
    time-bin buckets instead of one mega reduce task; the oracle gate pins
    salted == SQL every round."""
    import duckdb
    import ray.data as rd

    from rayhll.functions.join import range_join

    ev = os.path.join(sf_dir, "events.parquet")
    win_tbl = duckdb.sql(
        "SELECT DISTINCT event_type, date_trunc('hour', ts) AS win_start, "
        "date_trunc('hour', ts) + INTERVAL 1 HOUR AS win_end "
        f"FROM read_parquet('{ev}')"
    ).arrow()
    left = _read(sf_dir, "events", columns=["ts", "user_id", "event_type"])
    wins = rd.from_arrow(win_tbl)
    out = range_join(
        left,
        wins,
        by="event_type",
        on="ts",
        lo="win_start",
        hi="win_end",
        bin_width=3_600_000_000,  # 1h of timestamp[us] ticks
    )
    return out.select_columns(["ts", "user_id", "event_type", "win_start"])


def _q_broadcast_join_lineitem_brand(sf_dir: str):
    """Fact x dim broadcast join, ORACLE-GATED: lineitem joined to the small
    part table via functions/join.broadcast_join (``ray.put`` once, joined
    per batch, NO shuffle on the fact side), pre-aggregated per batch, then
    one tiny per-brand groupby — the canonical 100-TB dimension-join shape."""
    import polars as pl
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayhll.functions.join import broadcast_join

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])
    part_tbl = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"]
    ).rename_columns(["l_partkey", "p_brand"])
    joined = broadcast_join(li, part_tbl, on="l_partkey", how="inner")

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("p_brand")
            .agg(
                pl.len().cast(pl.Int64).alias("n_items"),
                pl.col("l_quantity").sum().alias("sum_qty"),
            )
            .to_arrow()
        )

    def rollup(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("p_brand")
            .agg(pl.col("n_items").sum(), pl.col("sum_qty").sum())
            .sort("p_brand")
            .to_arrow()
        )

    parts = joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return parts.groupby("p_brand").map_groups(rollup, batch_format="pyarrow")


def _q_curation_docs_by_lang(sf_dir: str):
    """Composed training-data curation flow, ORACLE-GATED end-to-end:
    quality-filter (token count) -> exact content dedup (keep min id) ->
    per-language rollup, the whole composition mirrored in one SQL
    statement (pipelines/curate.py)."""
    from rayhll.pipelines.curate import curate_documents

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return curate_documents(ds, min_tokens=40)


def _q_fraction_sample_split_documents(sf_dir: str):
    """Deterministic hash-fraction train/held-out split, ORACLE-GATED on its
    invariants: per language, |sample(0.3)| + |complement(0.3)| must equal
    the table count exactly (disjoint-and-complete by construction), and
    the coordinated-subsample property (sample(0.1) ⊆ sample(0.3)) must
    hold — ``split_ok`` asserts both; oracle = per-lang COUNT(*) + TRUE.
    Membership itself is hash-defined (not SQL-computable); the invariants
    are."""
    import pyarrow as pa

    from rayhll.functions.sample import (
        hash_fraction_complement,
        hash_fraction_sample,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    s30 = hash_fraction_sample(ds, "doc_id", 0.3).to_pandas()
    c30 = hash_fraction_complement(ds, "doc_id", 0.3).to_pandas()
    s10 = hash_fraction_sample(ds, "doc_id", 0.1).to_pandas()
    # verification rollup: the split tables here are driver-small (<= the
    # documents table); at scale the same invariants are per-batch filters
    disjoint = len(set(s30.doc_id) & set(c30.doc_id)) == 0
    coordinated = set(s10.doc_id) <= set(s30.doc_id)
    # dropna=False matches SQL GROUP BY (a NULL lang forms its own group)
    n_s = s30.groupby("lang", dropna=False).size()
    n_c = c30.groupby("lang", dropna=False).size()
    total = n_s.add(n_c, fill_value=0).astype(int).sort_index()
    return pa.table(
        {
            "lang": pa.array(list(total.index), type=pa.string()),
            "n_docs": pa.array(list(total.values), type=pa.int64()),
            "split_ok": pa.array([bool(disjoint and coordinated)] * len(total)),
        }
    )


def _q_grouped_top_k_orders(sf_dir: str):
    """Per-group top-k (curation staple: 'k smallest per class'),
    ORACLE-GATED vs the SQL window function."""
    from rayhll.functions.sample import grouped_top_k

    ds = _read(sf_dir, "orders", columns=["o_orderstatus", "o_orderkey"])
    return grouped_top_k(ds, "o_orderstatus", "o_orderkey", k=5)


def _q_grouped_sample_documents(sf_dir: str):
    """Deterministic per-group uniform sample (k docs per lang),
    ORACLE-GATED on the per-group sample sizes; membership determinism and
    uniformity are pinned in pytest (the hash order is not SQL-computable)."""
    import pyarrow as pa

    from rayhll.functions.sample import grouped_hash_sample

    ds = _read(sf_dir, "documents", columns=["lang", "doc_id"])
    out = grouped_hash_sample(ds, "lang", "doc_id", k=20).take_all()
    counts: dict[str, int] = {}
    for r in out:
        counts[r["lang"]] = counts.get(r["lang"], 0) + 1
    langs = sorted(counts)
    return pa.table(
        {
            "lang": pa.array(langs, type=pa.string()),
            "n_sampled": pa.array([counts[l] for l in langs], type=pa.int64()),
        }
    )


def _q_countmin_event_type_counts(sf_dir: str):
    import duckdb
    import pyarrow as pa

    from rayhll import ray_agg
    from rayhll.functions.hashing import hash64_table
    from rayhll.sketches.countmin import CountMinSketch

    def build(batch: pa.Table) -> bytes:
        cm = CountMinSketch(5, 1 << 14)
        cm.add_batch(hash64_table(batch, ["event_type"], seed=9))
        return cm.to_bytes()

    ds = _read(sf_dir, "events", columns=["event_type"])
    cm = ray_agg.aggregate_family(ds, build, CountMinSketch)
    types = duckdb.sql(
        "SELECT DISTINCT event_type FROM read_parquet("
        f"'{os.path.join(sf_dir, 'events.parquet')}') ORDER BY event_type"
    ).df()["event_type"].tolist()
    probe = pa.table({"event_type": types})
    ests = cm.estimate_batch(hash64_table(probe, ["event_type"], seed=9))
    return pa.table(
        {
            "event_type": pa.array(types, type=pa.string()),
            "est_count": pa.array(ests, type=pa.int64()),
        }
    )


def _q_tdigest_price_quantiles(sf_dir: str):
    """Approximate quantiles, ORACLE-GATED on rank error: each t-digest
    estimate's empirical CDF position (computed by DuckDB over the same
    parquet) must sit within 0.02 of the requested quantile; the oracle is
    the constant-TRUE table (VERDICT r1 item 3)."""
    import duckdb
    import pyarrow as pa

    from rayhll import ray_agg
    from rayhll.sketches.tdigest import TDigest

    def build(batch: pa.Table) -> bytes:
        td = TDigest(compression=200)
        td.add_batch(batch.column("l_extendedprice").to_numpy())
        return td.to_bytes()

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    td = ray_agg.aggregate_family(ds, build, TDigest)
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    ests = [td.quantile(q) for q in qs]
    li = os.path.join(sf_dir, "lineitem.parquet")
    cdfs = [
        duckdb.sql(
            f"SELECT COUNT(*) FILTER (l_extendedprice <= {e}) * 1.0 / COUNT(*) "
            f"FROM read_parquet('{li}')"
        ).fetchone()[0]
        for e in ests
    ]
    return pa.table(
        {
            "q": pa.array(qs, type=pa.float64()),
            "within_tol": pa.array(
                [abs(c - q) <= 0.02 for c, q in zip(cdfs, qs)], type=pa.bool_()
            ),
        }
    )


def _q_kll_event_value_quantiles(sf_dir: str):
    """KLL quantiles of events.value, ORACLE-GATED on rank error (same
    scheme as the t-digest query; tolerance 0.03 per KLL k=200's bound)."""
    import duckdb
    import pyarrow as pa

    from rayhll import ray_agg
    from rayhll.sketches.kll import KLLSketch

    def build(batch: pa.Table) -> bytes:
        sk = KLLSketch(k=200)
        sk.add_batch(batch.column("value").to_numpy())
        return sk.to_bytes()

    ds = _read(sf_dir, "events", columns=["value"])
    sk = ray_agg.aggregate_family(ds, build, KLLSketch)
    qs = [0.1, 0.5, 0.9]
    ests = [sk.quantile(q) for q in qs]
    ev = os.path.join(sf_dir, "events.parquet")
    cdfs = [
        duckdb.sql(
            f"SELECT COUNT(*) FILTER (value <= {e}) * 1.0 / COUNT(*) "
            f"FROM read_parquet('{ev}')"
        ).fetchone()[0]
        for e in ests
    ]
    return pa.table(
        {
            "q": pa.array(qs, type=pa.float64()),
            "within_tol": pa.array(
                [abs(c - q) <= 0.03 for c, q in zip(cdfs, qs)], type=pa.bool_()
            ),
        }
    )


def _q_ann_topk_embeddings(sf_dir: str):
    import duckdb
    import numpy as np
    import pyarrow as pa

    from rayhll.pipelines.similarity import brute_force_topk

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = np.stack(
        duckdb.sql(
            f"SELECT embedding FROM read_parquet('{emb_path}') WHERE vec_id = 0"
        ).df()["embedding"].to_numpy()
    )
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = brute_force_topk(ds, q, k=10)
    return pa.table({"vec_id": out.column("vec_id")})


def _q_ivf_topk_embeddings(sf_dir: str):
    """IVF approximate top-k, ORACLE-GATED on recall: the query compares its
    IVF result against the exact top-k (DuckDB brute force on the same
    parquet) and emits whether recall@10 >= 0.9; the oracle is the constant
    TRUE (VERDICT r1 item 3)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    from rayhll.pipelines.similarity import ivf_topk

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = np.stack(
        duckdb.sql(
            f"SELECT embedding FROM read_parquet('{emb_path}') WHERE vec_id = 0"
        ).df()["embedding"].to_numpy()
    )
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    got = set(ivf_topk(ds, q, k=10, nlist=16, nprobe=12).column("vec_id").to_pylist())
    exact = set(
        duckdb.sql(
            "SELECT vec_id FROM (SELECT vec_id, list_cosine_similarity(embedding, "
            f"(SELECT embedding FROM read_parquet('{emb_path}') WHERE vec_id = 0)) AS sim "
            f"FROM read_parquet('{emb_path}')) ORDER BY sim DESC LIMIT 10"
        ).df()["vec_id"]
    )
    recall = len(got & exact) / 10.0
    return pa.table({"recall_ge_09": pa.array([recall >= 0.9], type=pa.bool_())})


def _q_minhash_near_dup_pairs(sf_dir: str):
    """MinHash+LSH near-duplicate pairs over a crafted corpus with disjoint
    per-doc vocabularies, ORACLE-GATED (upgraded from rows-only, VERDICT r2
    item 4): 40 base docs each use their own token set; ids 100+i for
    i < 12 are copies of base doc i with ONE token swapped (char-3-gram
    Jaccard ~0.97, far above the 0.8 threshold; unrelated docs sit near 0,
    far below).  With the pipeline's fixed permutation seed the detected
    pair set is deterministic and equals exactly the planted (i, 100+i)
    pairs — the estimator-margin reasoning is pinned by a pytest."""
    import pyarrow as pa
    import ray.data as rd

    from rayhll.pipelines.dedup import minhash_lsh_pairs

    rows = []
    for i in range(40):
        toks = [f"w{i:02d}x{j:02d}" for j in range(60)]
        rows.append({"doc_id": i, "text": " ".join(toks)})
        if i < 12:
            near = list(toks)
            near[30] = f"zq{i:02d}zz99"
            rows.append({"doc_id": 100 + i, "text": " ".join(near)})
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    pairs = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.8)
    return pairs.select_columns(["id_a", "id_b"])


def _q_minhash_exact_dup_pairs(sf_dir: str):
    """MinHash+LSH at threshold 1.0 with text-hash verification over
    documents with injected exact duplicates, ORACLE-GATED: LSH generates
    the candidates (identical texts always collide in every band) and the
    exact verify prunes the rare all-signature collisions between
    very-high-Jaccard near-dups, so the found pairs equal the SQL
    exact-duplicate pairs (VERDICT r1 item 3)."""
    import pyarrow as pa

    from rayhll.pipelines.dedup import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def with_copies(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sub = batch.filter(pc.less(batch.column("doc_id"), 25))
        if len(sub) == 0:
            return batch
        extra = pa.table(
            {
                "doc_id": pc.add(sub.column("doc_id"), 1_000_000),
                "text": sub.column("text"),
            }
        )
        return pa.concat_tables([batch, extra.cast(batch.schema)])

    augmented = ds.map_batches(with_copies, batch_format="pyarrow")
    pairs = minhash_lsh_pairs(
        augmented, "text", "doc_id", threshold=1.0, verify_text_hash=True
    )
    return pairs.select_columns(["id_a", "id_b"])


def _q_minhash_dedup_checkpointed(sf_dir: str):
    """Checkpointed minhash dedup under the oracle gate (VERDICT r3 item 6):
    the SAME augmented corpus as ``minhash_exact_dup_pairs`` (documents plus
    exact copies of doc_id < 25 at id+1,000,000) run through the
    checkpoint/resume store (``state.checkpoint.minhash_dedup_checkpointed``,
    threshold 1.0 + text-hash verify) instead of the streaming pipeline —
    and through a SIMULATED CRASH: the first run dies after 3 of 8 pair
    buckets, the second resumes from the manifest, so the oracle gates the
    resumed output.  The shard-writing prep below is test scaffolding
    (driver-side, small-sf only); real runs hand the function their
    existing corpus files."""
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayhll.state.checkpoint import minhash_dedup_checkpointed

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    import pyarrow.compute as pc

    sub = docs.filter(pc.less(docs.column("doc_id"), 25))
    extra = pa.table(
        {"doc_id": pc.add(sub.column("doc_id"), 1_000_000), "text": sub.column("text")}
    )
    augmented = pa.concat_tables([docs, extra.cast(docs.schema)]).combine_chunks()

    work = tempfile.mkdtemp(prefix="rayhll_ckpt_dedup_")
    files = []
    n_shards = 4
    step = (len(augmented) + n_shards - 1) // n_shards
    for s in range(n_shards):
        shard = augmented.slice(s * step, step)
        path = os.path.join(work, f"docs-{s}.parquet")
        pq.write_table(shard, path)
        files.append(path)

    out_dir = os.path.join(work, "ckpt")
    try:
        try:
            minhash_dedup_checkpointed(
                files, out_dir, threshold=1.0, verify_text_hash=True,
                num_buckets=8, fail_after=3,
            )
            raise AssertionError("simulated crash did not fire")
        except RuntimeError:
            pass  # crashed after 3 pair buckets, as asked
        pairs = minhash_dedup_checkpointed(
            files, out_dir, threshold=1.0, verify_text_hash=True, num_buckets=8
        )
        return pairs.select(["id_a", "id_b"]).combine_chunks()
    finally:
        import shutil

        shutil.rmtree(work, ignore_errors=True)  # scaffolding must not leak /tmp


def _q_lang_id_accuracy_snippets(sf_dir: str):
    """Language-ID accuracy on deterministic labeled snippets, ORACLE-GATED:
    emits one (snippet_id, correct) row per snippet; the oracle is the
    all-TRUE table.  (The sf documents.text column is English-ish words for
    every lang label — see TESTDATA notes — so accuracy must be measured on
    genuinely-multilingual text; the per-document query stays rows-only.)"""
    import pyarrow as pa
    import ray.data as rd

    from rayhll.pipelines.text import LangId

    rows = [
        {"snippet_id": 0, "text": "the cat sat on the mat and it was happy in the sun", "lang": "en"},
        {"snippet_id": 1, "text": "der Hund ist nicht mit der Katze auf das Sofa gegangen", "lang": "de"},
        {"snippet_id": 2, "text": "los perros corren por las calles con una alegría enorme para todos", "lang": "es"},
        {"snippet_id": 3, "text": "les enfants jouent dans le parc pour une heure avec leurs amis", "lang": "fr"},
        {"snippet_id": 4, "text": "数据库系统使用哈希连接和排序合并来处理大规模数据集的查询计划", "lang": "zh"},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = ds.map_batches(LangId(), batch_format="pyarrow")

    def check(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "snippet_id": batch.column("snippet_id"),
                "correct": pc.equal(batch.column("lang_pred"), batch.column("lang")),
            }
        )

    return out.map_batches(check, batch_format="pyarrow")


def _q_ngram_jaccard_pairs(sf_dir: str):
    """EXACT token-3-gram Jaccard near-dup pairs over a crafted disjoint-
    vocabulary corpus, ORACLE-GATED on pairs AND the exact jaccard VALUES
    (upgraded from rows-only, VERDICT r2 item 4): the oracle SQL rebuilds
    the same corpus and computes set Jaccard directly with
    COUNT(DISTINCT) — planted pairs score exactly 55/61 (one token of 60
    swapped -> 3 of 58 trigrams change), unrelated docs exactly 0.  LSH
    candidate recall at J=0.90 is 1 - 1e-15 with the pipeline's fixed
    seed; shingle-hash collisions would fail the value gate loudly."""
    import pyarrow as pa
    import ray.data as rd

    from rayhll.pipelines.dedup import ngram_jaccard_pairs

    rows = []
    for i in range(40):
        toks = [f"w{i:02d}x{j:02d}" for j in range(60)]
        rows.append({"doc_id": i, "text": " ".join(toks)})
        if i < 12:
            near = list(toks)
            near[30] = f"zq{i:02d}zz99"
            rows.append({"doc_id": 100 + i, "text": " ".join(near)})
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    return ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.8)


def _q_dup_clusters_documents(sf_dir: str):
    """Duplicate CLUSTERS (not just pairs): exact n-gram Jaccard pairs over
    a crafted corpus of near-dup CHAINS, closed under transitivity by the
    DISTRIBUTED alternating large-star/small-star connected-components
    rounds — every doc labeled with its cluster's min id, the "keep one
    per duplicate cluster" contract.  Chains are the case pair-level dedup
    gets wrong: doc k ~ doc k+1 at trigram Jaccard exactly 55/61 = 0.902
    (one of 60 tokens swapped at interior positions spaced 4 apart, so
    each swap flips exactly 3 trigrams), while doc k ~ doc k+2 is 52/64 =
    0.8125 < the 0.85 threshold — the whole chain is ONE cluster only via
    the closure.  Plus an identical triple (J=1 clique) and two singleton
    docs (no pairs -> absent from the output).  ORACLE-GATED hash-exact
    (all-integer labels) vs a DuckDB recursive-CTE transitive closure over
    the same exact-Jaccard edge set; LSH recall at J>=0.902 is the same
    1 - 1e-15 regime the ngram_jaccard_pairs gate pins."""
    import pyarrow as pa
    import ray.data as rd

    from rayhll.pipelines.components import connected_components
    from rayhll.pipelines.dedup import ngram_jaccard_pairs

    rows = []
    for c, n_docs in enumerate((2, 3, 4, 6)):
        for k in range(n_docs):
            toks = [
                f"s{c}x{j:02d}"
                if (j % 4 == 0 and 8 <= j < 8 + 4 * k)
                else f"w{c}x{j:02d}"
                for j in range(60)
            ]
            rows.append({"doc_id": c * 100 + k, "text": " ".join(toks)})
    for i in range(3):
        rows.append(
            {"doc_id": 900 + i, "text": " ".join(f"t00x{j:02d}" for j in range(60))}
        )
    for i in range(2):
        rows.append(
            {
                "doc_id": 950 + i,
                "text": " ".join(f"u{950 + i}x{j:02d}" for j in range(60)),
            }
        )
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    pairs = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.85)
    return connected_components(pairs, method="distributed", num_buckets=8)


def _q_simhash_fingerprints(sf_dir: str):
    """64-bit SimHash per document, ORACLE-GATED via semantic
    self-verification: SimHash (Charikar 2002) is a statistic of the token
    MULTISET, so reversing token order must leave the fingerprint unchanged,
    and a fresh stage instance must reproduce it byte-for-byte.  ``sim_ok``
    asserts both per document; the oracle is the all-TRUE table.  (Raw
    fingerprints stay available via ``SimHashStage`` and the crafted
    pair-set sibling ``simhash_dup_pairs_crafted``.)"""
    import polars as pl
    import pyarrow as pa

    from rayhll.pipelines.dedup import SimHashStage
    from rayhll.pipelines.text import TOKEN_PATTERN

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def verdict(batch: pa.Table) -> pa.Table:
        fwd = SimHashStage("text", "doc_id")(batch).column("simhash64").to_numpy()
        rev_text = (
            pl.from_arrow(batch.select(["text"]))
            .select(
                pl.col("text")
                .fill_null("")
                .str.extract_all(TOKEN_PATTERN)
                .list.reverse()
                .list.join(" ")
                .alias("text")
            )
            .to_arrow()
            .column("text")
        )
        rev_batch = pa.table({"doc_id": batch.column("doc_id"), "text": rev_text})
        rev = SimHashStage("text", "doc_id")(rev_batch).column("simhash64").to_numpy()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "sim_ok": pa.array(fwd == rev, type=pa.bool_()),
            }
        )

    return ds.map_batches(verdict, batch_format="pyarrow", zero_copy_batch=True)


def _q_simhash_dup_pairs_crafted(sf_dir: str):
    """SimHash near-dup pairs over a crafted corpus with disjoint
    vocabularies, ORACLE-GATED: each of 30 base docs uses its own token
    set, ids 100+i are exact copies of base ids i < 10 — the hamming<=3
    pairs are exactly the planted copies (deterministic; disjoint vocab
    rules out cross-doc collisions, verified at build time)."""
    import pyarrow as pa
    import ray.data as rd

    from rayhll.pipelines.dedup import simhash_pairs

    rows = []
    for i in range(30):
        toks = [f"doc{i}tok{j}" for j in range(40)]
        rows.append({"doc_id": i, "text": " ".join(toks)})
    for i in range(10):
        rows.append({"doc_id": 100 + i, "text": rows[i]["text"]})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    pairs = simhash_pairs(ds, "text", "doc_id", max_hamming=3)
    return pairs.select_columns(["id_a", "id_b", "hamming"])


def _q_fingerprint_invariants_crafted(sf_dir: str):
    """Winnowing-fingerprint invariants over a crafted corpus, ORACLE-GATED:
    for each of 20 planted (original, copy) pairs emit whether the
    fingerprints match; for each of 20 (original, unrelated) pairs emit
    whether they differ.  Deterministic; oracle = all-TRUE tables."""
    import pyarrow as pa
    import ray.data as rd

    from rayhll.pipelines.text import Fingerprint

    rows = []
    for i in range(20):
        toks = [f"f{i}w{j}" for j in range(60)]
        rows.append({"doc_id": i, "text": " ".join(toks)})
        rows.append({"doc_id": 100 + i, "text": " ".join(toks)})  # copy
        rows.append({"doc_id": 200 + i, "text": " ".join(f"u{i}x{j}" for j in range(60))})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    out = ds.map_batches(Fingerprint(), batch_format="pyarrow").take_all()
    fp = {r["doc_id"]: r["fingerprint64"] for r in out}
    return pa.table(
        {
            "pair_id": pa.array(list(range(20)) * 2, type=pa.int64()),
            "kind": pa.array(["copy"] * 20 + ["unrelated"] * 20, type=pa.string()),
            "ok": pa.array(
                [fp[i] == fp[100 + i] for i in range(20)]
                + [fp[i] != fp[200 + i] for i in range(20)],
                type=pa.bool_(),
            ),
        }
    )


def _q_lang_id_documents(sf_dir: str):
    """Heuristic language-ID, ORACLE-GATED via contract self-verification:
    per document, the prediction must come from the supported label set
    ({en,de,es,fr,zh,und}), the confidence must be finite and >= 0, the
    und-threshold contract must hold exactly (pred == 'und' iff
    conf <= 0.02 — text.py:111), and a fresh stage instance must reproduce
    both outputs.  ``lang_ok`` asserts all four; oracle = all-TRUE table.
    Accuracy on labeled text is gated by ``lang_id_accuracy_snippets``."""
    import numpy as np
    import pyarrow as pa

    from rayhll.pipelines.text import LangId

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    valid = {"en", "de", "es", "fr", "zh", "und"}

    def verdict(batch: pa.Table) -> pa.Table:
        a = LangId()(batch)
        b = LangId()(batch)
        pred = np.array(a.column("lang_pred").to_pylist(), dtype=object)
        conf = a.column("lang_conf").to_numpy()
        ok = (
            np.isin(pred, list(valid))
            & np.isfinite(conf)
            & (conf >= 0)
            & ((pred == "und") == (conf <= 0.02))
            & (pred == np.array(b.column("lang_pred").to_pylist(), dtype=object))
            & (conf == b.column("lang_conf").to_numpy())
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang_ok": pa.array(ok, type=pa.bool_()),
            }
        )

    return ds.map_batches(verdict, batch_format="pyarrow", zero_copy_batch=True)


def _q_fingerprint_documents(sf_dir: str):
    """Winnowing-style fingerprints, ORACLE-GATED via semantic
    self-verification: ``shingle_min64`` is a token-3-gram statistic, so
    padding the text with surrounding/extra whitespace must not change it,
    while ``fingerprint64`` (full-text hash) MUST change under that edit;
    both must be reproduced by a fresh stage instance.  ``fp_ok`` asserts
    all three per document; oracle = all-TRUE table.  Edit-robustness pairs
    are gated by ``fingerprint_invariants_crafted``."""
    import numpy as np
    import polars as pl
    import pyarrow as pa

    from rayhll.pipelines.text import Fingerprint

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def verdict(batch: pa.Table) -> pa.Table:
        a = Fingerprint()(batch)
        b = Fingerprint()(batch)
        pdf = pl.from_arrow(batch.select(["text"]))
        padded_text = (
            pdf.select(("  " + pl.col("text").fill_null("") + " ").alias("text"))
            .to_arrow()
            .column("text")
        )
        n_tok = (
            pdf.select(pl.col("text").fill_null("").str.count_matches(r"[A-Za-z0-9_]+"))
            .to_numpy()
            .ravel()
        )
        p = Fingerprint()(pa.table({"text": padded_text}))
        fp_a = a.column("fingerprint64").to_numpy()
        smin_a = a.column("shingle_min64").to_numpy()
        # docs shorter than the 3-gram window use fingerprint64 as their
        # shingle_min64 fallback (text.py:171), so padding-invariance only
        # holds for >= 3-token docs; short docs must satisfy the fallback
        long_doc = n_tok >= 3
        pad_invariant = np.where(
            long_doc, smin_a == p.column("shingle_min64").to_numpy(), smin_a == fp_a
        )
        ok = (
            pad_invariant
            & (fp_a != p.column("fingerprint64").to_numpy())
            & (fp_a == b.column("fingerprint64").to_numpy())
            & (smin_a == b.column("shingle_min64").to_numpy())
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "fp_ok": pa.array(ok, type=pa.bool_()),
            }
        )

    return ds.map_batches(verdict, batch_format="pyarrow", zero_copy_batch=True)


def _q_embedding_near_dup_pairs(sf_dir: str):
    """Hyperplane-LSH cosine near-duplicates over embeddings (ORACLE-GATED).

    The synthetic embeddings have no natural near-dups (max pairwise cosine
    ~0.51), so the query deterministically injects perturbed copies
    (vec_id + 1_000_000, per-row deterministic noise) and detects them — the
    found pairs are exactly the injected ones, which IS SQL-expressible, so
    the driver hash-gates the (id_a, id_b) set against the oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rayhll.pipelines.dedup import embedding_near_dup_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def with_perturbed(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        keep = ids < 50
        if not keep.any():
            return batch
        sub_ids = ids[keep]
        col = batch.column("embedding")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        mat = col.flatten().to_numpy(zero_copy_only=False).reshape(len(ids), -1)[keep]
        # per-row deterministic noise (independent of batch boundaries)
        from rayhll.functions.hashing import splitmix64

        cells = (
            sub_ids[:, None].astype(np.uint64) * np.uint64(1024)
            + np.arange(mat.shape[1], dtype=np.uint64)[None, :]
        )
        unit = splitmix64(cells.ravel()).reshape(mat.shape).astype(np.float64) / 2.0**64
        noisy = (mat + 0.05 * (unit - 0.5).astype(mat.dtype)).astype(mat.dtype)
        extra = pa.table(
            {
                "vec_id": pa.array(sub_ids + 1_000_000, type=pa.int64()),
                "embedding": pa.array(
                    [row for row in noisy], type=batch.schema.field("embedding").type
                ),
            }
        )
        return pa.concat_tables([batch, extra.cast(batch.schema)])

    augmented = ds.map_batches(with_perturbed, batch_format="pyarrow")
    pairs = embedding_near_dup_pairs(
        augmented, "embedding", "vec_id", dim=64, threshold=0.9, num_planes=6
    )
    # cosine values depend on the injected noise (not SQL-computable); the
    # oracle-gated surface is the pair set itself
    return pairs.select_columns(["id_a", "id_b"])


def _q_multimodal_features(sf_dir: str):
    """Multimodal decode+feature pipeline over synthetic REAL media payloads
    (BMP/PPM images, PCM WAVs, raw-RGB24 video) with the pure-numpy decoder,
    ORACLE-GATED on the (asset_id, media_type) output surface — the synth
    table's media assignment is SQL-expressible."""
    import ray.data as rd

    from rayhll.pipelines.multimodal import multimodal_pipeline, synth_media_table

    ds = rd.from_arrow(synth_media_table(200))
    return multimodal_pipeline(ds, decoder="numpy").select_columns(
        ["asset_id", "media_type"]
    )


def _q_multimodal_decode_meta(sf_dir: str):
    """DecodeStage metadata recovery over real payloads, ORACLE-GATED: every
    synthetic asset must parse (decode_ok), and the WAV sample rate (8000,
    read from the fmt chunk — the table's metadata column holds -1) must be
    recovered for exactly the audio rows."""
    import ray.data as rd

    from rayhll.pipelines.multimodal import DecodeStage, synth_media_table

    ds = rd.from_arrow(synth_media_table(200))
    decoded = ds.map_batches(
        DecodeStage(decoder="numpy"), batch_format="pyarrow", batch_size=256
    )
    return decoded.select_columns(["asset_id", "media_type", "decode_ok", "sample_rate"])


def _q_multimodal_video_frames(sf_dir: str):
    """Frame-sampling stage over the synthetic asset table's videos with the
    REAL decoders — raw RGB24 and MJPEG payloads alternate, so half the
    videos decode every frame through the full functions/jpeg.py codec —
    ORACLE-GATED on the (asset_id, frame_idx) fan-out surface: every video
    (asset_id % 3 == 2) decodes to >= 2 frames and uniform sampling yields
    exactly frames 0..3 (one output row per frame, each re-encoded as
    BMP)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from rayhll.pipelines.multimodal import FrameSampleStage, synth_media_table

    ds = rd.from_arrow(synth_media_table(200))
    videos = ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("media_type"), "video")),
        batch_format="pyarrow",
    )
    frames = videos.map_batches(
        FrameSampleStage(frames_per_video=4, decoder="numpy"),
        batch_format="pyarrow",
        batch_size=256,
    )
    return frames.select_columns(["asset_id", "frame_idx"])


# ----------------------------------------------------------------------
# windowed aggregates + heavy hitters


def _q_window_tumbling_distinct_users(sf_dir: str):
    from rayhll import ray_agg
    from rayhll.pipelines import windows

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    out = windows.tumbling_window_distinct(
        ds, "ts", ["user_id"], settings=ray_agg.EXACT_MODE
    )
    return out.drop_columns(["rows_in"]).rename_columns({"estimate": "distinct_users"})


def _q_window_sliding_distinct_users(sf_dir: str):
    from rayhll import ray_agg
    from rayhll.pipelines import windows

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    out = windows.sliding_window_distinct(
        ds, "ts", ["user_id"], settings=ray_agg.EXACT_MODE
    )
    return out.drop_columns(["rows_in"]).rename_columns({"estimate": "distinct_users"})


def _q_session_windows_events(sf_dir: str):
    from rayhll.pipelines import windows

    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    return windows.session_windows(ds, "ts", "user_id", gap_us=windows.US_PER_HOUR)


def _q_tdigest_price_by_returnflag(sf_dir: str):
    """Per-group t-digest quantiles, ORACLE-GATED on per-group rank error:
    each group's p50/p99 estimate must land within 0.02 of its requested
    rank in that group's empirical CDF (DuckDB); oracle = per-group
    all-TRUE table.  Row counts stay exact and are gated directly."""
    import duckdb
    import pyarrow as pa

    from rayhll import ray_agg
    from rayhll.sketches.tdigest import TDigest

    def build(sub):
        td = TDigest(200)
        td.add_batch(sub.column("l_extendedprice").to_numpy())
        return td.to_bytes()

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])
    out = ray_agg.grouped_aggregate_family(
        ds,
        ["l_returnflag"],
        build,
        TDigest,
        finalize=lambda td: {
            "p50": td.quantile(0.5),
            "p99": td.quantile(0.99),
            "n": int(td.total_weight),
        },
    ).take_all()
    li = os.path.join(sf_dir, "lineitem.parquet")
    flags, p50_ok, p99_ok, ns = [], [], [], []
    for r in out:
        flags.append(r["l_returnflag"])
        for est, q, dest in ((r["p50"], 0.5, p50_ok), (r["p99"], 0.99, p99_ok)):
            cdf = duckdb.sql(
                f"SELECT COUNT(*) FILTER (l_extendedprice <= {est}) * 1.0 / COUNT(*) "
                f"FROM read_parquet('{li}') WHERE l_returnflag = '{r['l_returnflag']}'"
            ).fetchone()[0]
            dest.append(abs(cdf - q) <= 0.02)
        ns.append(r["n"])
    return pa.table(
        {
            "l_returnflag": pa.array(flags, type=pa.string()),
            "p50_within_tol": pa.array(p50_ok, type=pa.bool_()),
            "p99_within_tol": pa.array(p99_ok, type=pa.bool_()),
            "n": pa.array(ns, type=pa.int64()),
        }
    )


def _q_window_tdigest_value_p50(sf_dir: str):
    """Hourly t-digest median of events.value via the windowed family
    aggregate, ORACLE-GATED: exact per-window row counts plus a per-window
    rank-error bound |cdf(p50_est) - 0.5| <= max(0.02, 2.5/n) — the 1/n
    term is the interpolated-median rank granularity of tiny windows
    (driver windows hold as few as 4 events; measured err*n <= 1.5).
    Checked in one DuckDB pass; oracle = per-window (n, TRUE)."""
    import duckdb
    import pyarrow as pa

    from rayhll.pipelines import windows
    from rayhll.sketches.tdigest import TDigest

    def build(sub: pa.Table) -> bytes:
        td = TDigest(200)
        td.add_batch(sub.column("value").to_numpy())
        return td.to_bytes()

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    out = windows.tumbling_window_family(
        ds,
        "ts",
        build,
        TDigest,
        finalize=lambda td: {"p50": td.quantile(0.5), "n": int(td.total_weight)},
    ).take_all()
    est_tbl = pa.table(
        {
            "window_start": pa.array([r["window_start"] for r in out]),
            "p50": pa.array([r["p50"] for r in out], type=pa.float64()),
            "n": pa.array([r["n"] for r in out], type=pa.int64()),
        }
    )
    ev = os.path.join(sf_dir, "events.parquet")
    con = duckdb.connect()
    con.register("est", est_tbl)
    checked = con.execute(
        "SELECT e2.window_start, est.n, "
        "ABS(COUNT(*) FILTER (e2.value <= est.p50) * 1.0 / COUNT(*) - 0.5) "
        "<= GREATEST(0.02, 2.5 / est.n) AS p50_within_tol FROM "
        f"(SELECT date_trunc('hour', ts) AS window_start, value FROM read_parquet('{ev}')) e2 "
        "JOIN est ON e2.window_start = est.window_start "
        "GROUP BY e2.window_start, est.n"
    ).arrow()
    return checked


def _q_heavy_hitters_event_type(sf_dir: str):
    from rayhll.pipelines import windows

    ds = _read(sf_dir, "events", columns=["event_type"])
    return windows.heavy_hitters(ds, "event_type", k=3)


def _q_users_overlap_click_purchase(sf_dir: str):
    """Set-op estimators over two sketches: distinct users seen for 'click'
    vs 'purchase' events, their union, intersection, and Jaccard.
    EXACT_MODE keeps every sketch EXPLICIT, so inclusion-exclusion is exact
    and the oracle is plain SQL."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rayhll import ray_agg
    from rayhll.functions import setops

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def sketch_for(etype):
        sub = ds.map_batches(
            lambda t, e=etype: t.filter(pc.equal(t.column("event_type"), e)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        return ray_agg.approx_distinct_sketch(sub, ["user_id"], settings=ray_agg.EXACT_MODE)

    a = sketch_for("click")
    b = sketch_for("purchase")
    return pa.table(
        {
            "users_click": pa.array([a.cardinality()], type=pa.int64()),
            "users_purchase": pa.array([b.cardinality()], type=pa.int64()),
            "users_union": pa.array([setops.estimate_union(a, b)], type=pa.int64()),
            "users_intersection": pa.array(
                [setops.estimate_intersection(a, b)], type=pa.int64()
            ),
        }
    )


def _q_theta_users_overlap(sf_dir: str):
    """Same overlap semantics via the Theta/KMV sketch family, whose sample-
    wise set operations avoid HLL's compound inclusion-exclusion error.
    k exceeds the distinct-user count at driver scales, so estimates are
    exact and the SQL oracle applies."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rayhll import ray_agg
    from rayhll.functions.hashing import hash64_table
    from rayhll.sketches.theta import ThetaSketch

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def sketch_for(etype):
        def build(batch: pa.Table) -> bytes:
            sub = batch.filter(pc.equal(batch.column("event_type"), etype))
            sk = ThetaSketch(k=1 << 17)
            sk.add_batch(hash64_table(sub, ["user_id"]))
            return sk.to_bytes()

        return ray_agg.aggregate_family(ds, build, ThetaSketch)

    a = sketch_for("click")
    b = sketch_for("purchase")
    return pa.table(
        {
            "users_click": pa.array([a.cardinality()], type=pa.int64()),
            "users_purchase": pa.array([b.cardinality()], type=pa.int64()),
            "users_union": pa.array([int(round(a.union_estimate(b)))], type=pa.int64()),
            "users_intersection": pa.array(
                [int(round(a.intersect_estimate(b)))], type=pa.int64()
            ),
        }
    )


def _q_profile_lineitem_columns(sf_dir: str):
    """All-columns distinct profile in one pass over lineitem."""
    from rayhll import ray_agg
    from rayhll.pipelines.profile import profile_distinct

    cols = ["l_orderkey", "l_partkey", "l_suppkey", "l_returnflag", "l_linestatus"]
    ds = _read(sf_dir, "lineitem", columns=cols)
    return profile_distinct(ds, cols, settings=ray_agg.EXACT_MODE)


def _q_decontam_documents(sf_dir: str):
    """Benchmark n-gram decontamination over documents, ORACLE-GATED: the
    benchmark corpus is the 24-token prefix of every doc with
    ``doc_id % 31 = 5`` (built identically on both sides — tokens joined by
    a space re-tokenize to themselves), and a training doc is contaminated
    iff it shares a token 8-gram with any benchmark doc.  ``n_gram_hits``
    counts DISTINCT leaked grams per doc (= SQL ``COUNT(DISTINCT g)``), so
    the prefix docs themselves score exactly ``min(n_tokens, 24) - 7``
    distinct hits and everything else scores 0 (testdata has no natural
    8-gram overlap) — the full tokenize/roll/membership/distinct-count
    kernel is exercised and value-checked."""
    import duckdb

    from rayhll.pipelines.decontam import decontaminate

    doc_path = os.path.join(sf_dir, "documents.parquet")
    bench_texts = duckdb.sql(
        "SELECT array_to_string(regexp_extract_all(text, '[A-Za-z0-9_]+')[1:24], ' ') "
        f"AS btext FROM read_parquet('{doc_path}') WHERE doc_id % 31 = 5"
    ).arrow().column("btext")
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # num_shards=4: drive the range-partitioned sharded-broadcast path
    # (one ray.put per shard) through the oracle gate
    out = decontaminate(ds, bench_texts, gram=8, mode="annotate", num_shards=4)
    return out.select_columns(["doc_id", "n_gram_hits", "contaminated"])


def _q_repetition_stats_documents(sf_dir: str):
    """Gopher-style repetition quality signals per document, ORACLE-GATED:
    duplicate-line and duplicate-token fractions plus the most-frequent
    token-2-gram occurrence count, each with an exact DuckDB mirror
    (``list_distinct`` / grouped ``MAX(COUNT(*))``).  The fractions divide
    the same int64s on both sides, so the float64s are bit-identical."""
    from rayhll.pipelines.text import RepetitionStats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(RepetitionStats(), batch_format="pyarrow", zero_copy_batch=True)
    return out.select_columns(
        [
            "doc_id",
            "n_lines",
            "n_distinct_lines",
            "dup_line_frac",
            "n_distinct_tokens",
            "dup_token_frac",
            "top_2gram_count",
        ]
    )


def _q_pii_redact_documents(sf_dir: str):
    """PII counting + redaction over documents with deterministically
    planted PII (email/SSN/IPv4 derived from doc_id, constructed
    identically in the SQL mirror), ORACLE-GATED on the exact redacted
    text: both engines run the same lookaround-free patterns in the same
    order, so ``text_redacted`` must match byte-for-byte."""
    import polars as pl
    import pyarrow as pa

    from rayhll.pipelines.text import PiiRedact

    def plant(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        aug = df.select(
            pl.col("doc_id"),
            (
                pl.col("text")
                + pl.lit(" contact user")
                + pl.col("doc_id").cast(pl.Utf8)
                + pl.lit("@example.com or 10.1.")
                + (pl.col("doc_id") % 200).cast(pl.Utf8)
                + pl.lit(".7 ssn 123-45-6789")
            ).alias("text"),
        )
        return aug.to_arrow()

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(plant, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        PiiRedact(), batch_format="pyarrow", zero_copy_batch=True
    )
    return out.select_columns(["doc_id", "n_email", "n_ssn", "n_ipv4", "text_redacted"])


def _q_curation_full_docs_by_lang(sf_dir: str):
    """FULL training-data curation composition, ORACLE-GATED end-to-end in
    one SQL statement: token-count quality gate + Gopher repetition gate
    (duplicate-token fraction) + benchmark decontamination (8-gram overlap
    with the doc_id %% 31 = 5 prefix corpus, broadcast membership) ->
    exact content dedup (keep min id) -> per-language rollup.  All three
    gates run in the fused map before the single bucket shuffle
    (pipelines/curate.py)."""
    import duckdb

    from rayhll.pipelines.curate import curate_documents

    doc_path = os.path.join(sf_dir, "documents.parquet")
    bench_texts = duckdb.sql(
        "SELECT array_to_string(regexp_extract_all(text, '[A-Za-z0-9_]+')[1:24], ' ') "
        f"AS btext FROM read_parquet('{doc_path}') WHERE doc_id % 31 = 5"
    ).arrow().column("btext")
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return curate_documents(
        ds, min_tokens=40, max_dup_token_frac=0.6, bench_texts=bench_texts
    )


def _q_kmeans_embeddings(sf_dir: str):
    """Distributed spherical k-means over the embeddings table,
    ORACLE-GATED on its contract: (a) the assignment row count equals
    COUNT(*) (SQL mirror), (b) per-iteration inertia is non-increasing,
    (c) the DISTRIBUTED assignment of every vector equals a driver-side
    numpy argmax against the same centroids (ground truth recomputed from
    the raw parquet via DuckDB — sf-scale small; at 100 TB this check
    would sample)."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    from rayhll.pipelines.similarity import kmeans_assign, kmeans_fit

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent, history = kmeans_fit(ds, k=8, iters=6, seed=0)
    got = kmeans_assign(ds, cent).to_pandas().sort_values("vec_id")

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    truth = duckdb.sql(
        f"SELECT vec_id, embedding FROM read_parquet('{emb_path}') ORDER BY vec_id"
    ).df()
    mat = np.stack(truth["embedding"].to_numpy()).astype(np.float64)
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    want = (mat @ cent.T).argmax(axis=1)

    nonincreasing = all(
        history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1)
    )
    match = bool((got["cluster"].to_numpy() == want).all())
    return pa.table(
        {
            "n_vectors": pa.array([len(got)], type=pa.int64()),
            "inertia_nonincreasing": pa.array([nonincreasing], type=pa.bool_()),
            "assignments_match": pa.array([match], type=pa.bool_()),
        }
    )


def _q_dsir_select_documents(sf_dir: str):
    """DSIR importance resampling (Xie et al. 2023): hashed-unigram
    target/raw histograms (fixed-size partials tree-merged, zero
    shuffle), broadcast log-ratio weights, deterministic top-k
    selection.  Crafted so the float weight ordering provably equals an
    INTEGER ordering the oracle can mirror exactly: raw doc i holds
    (i % 41) target-vocab tokens + 30 noise tokens, the two vocab tokens
    occupy distinct hash buckets (verified at construction), so weight =
    n_good*lr_g + 30*lr_x with lr_g > 0 > lr_x is strictly monotone in
    n_good and ties resolve by doc_id — ORACLE-GATED hash-exact vs
    ``ORDER BY i % 41 DESC, i LIMIT 25``."""
    import pyarrow as pa
    import ray.data as rd

    from rayhll.pipelines.dsir import (
        dsir_log_weights,
        dsir_select,
        hashed_ngram_counts,
    )

    target = rd.from_arrow(
        pa.Table.from_pylist(
            [{"doc_id": 10_000 + i, "text": " ".join(["qualgood"] * 20)} for i in range(50)]
        )
    )
    raw_rows = [
        {
            "doc_id": i,
            "text": " ".join(["qualgood"] * (i % 41) + ["webnoise"] * 30),
        }
        for i in range(120)
    ]
    raw = rd.from_arrow(pa.Table.from_pylist(raw_rows)).repartition(4)
    nb = 4096
    tc = hashed_ngram_counts(target, num_buckets=nb)
    rc = hashed_ngram_counts(raw, num_buckets=nb)
    w = dsir_log_weights(raw, tc, rc, smoothing=1e-3)
    sel = dsir_select(w, 25, mode="topk")
    return sel.select_columns(["doc_id", "n_grams"])


def _q_quality_classifier_documents(sf_dir: str):
    """Distributed linear quality classifier (the fastText-style
    train-on-seed/score-the-corpus quality filter), ORACLE-GATED on its
    contract like kmeans_embeddings: (a) a crafted separable seed set
    (disjoint good/spam vocabularies over HashingVectorizer features)
    trains to EXACT accuracy 1.0, (b) per-iteration log-loss is monotone
    non-increasing (convexity at this lr), (c) the DISTRIBUTED fit equals
    the single-matrix numpy reference to 1e-6 (per-block float reduction
    order is the only difference), (d) the corpus-scale scoring pass
    (zero shuffle) labels every real document — row count is the SQL
    mirror."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rayhll.pipelines.classifier import (
        logreg_fit,
        logreg_fit_reference,
        logreg_predict,
    )
    from rayhll.pipelines.text import HashingVectorizer

    rng = np.random.default_rng(5)
    rows = []
    for i in range(120):
        k = int(rng.integers(10, 24))
        rows.append(
            {
                "doc_id": i,
                "label": 1,
                "text": " ".join(f"good{rng.integers(50)}" for _ in range(k)),
            }
        )
        rows.append(
            {
                "doc_id": 1000 + i,
                "label": 0,
                "text": " ".join(f"spam{rng.integers(50)}" for _ in range(k)),
            }
        )
    seed = (
        rd.from_arrow(pa.Table.from_pylist(rows))
        .repartition(4)
        .map_batches(
            HashingVectorizer(dim=256), batch_format="pyarrow", zero_copy_batch=True
        )
        .materialize()
    )
    w, hist = logreg_fit(seed, iters=40, lr=4.0)

    df = seed.to_pandas().sort_values("doc_id")
    X = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    y = df["label"].to_numpy().astype(np.float64)
    w_ref, _ = logreg_fit_reference(X, y, iters=40, lr=4.0)

    train = logreg_predict(seed, w).to_pandas()
    corpus = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        HashingVectorizer(dim=256), batch_format="pyarrow", zero_copy_batch=True
    )
    scored = logreg_predict(corpus, w).to_pandas()

    return pa.table(
        {
            "n_train": pa.array([len(train)], type=pa.int64()),
            "train_acc_ok": pa.array(
                [bool((train["quality_label"] == train["label"]).all())],
                type=pa.bool_(),
            ),
            "loss_monotone": pa.array(
                [
                    all(
                        hist[i + 1] <= hist[i] + 1e-12
                        for i in range(len(hist) - 1)
                    )
                ],
                type=pa.bool_(),
            ),
            "dist_matches_reference": pa.array(
                [bool(np.allclose(w, w_ref, atol=1e-6))], type=pa.bool_()
            ),
            "n_scored": pa.array([len(scored)], type=pa.int64()),
        }
    )


def _q_pack_sequences_documents(sf_dir: str):
    """Sequence-packing manifest (GPT-style concat-and-chunk): every
    document's offset in the global id-ordered token stream and the
    fixed-length training sequences it occupies — computed with the
    two-pass range-prefix pattern (no task holds the corpus; forced
    multi-range here so the driver gate exercises the prefix exchange).
    ORACLE-GATED hash-exact (all integers) vs the DuckDB windowed-sum
    mirror."""
    from rayhll.pipelines.packing import pack_sequences

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return pack_sequences(ds, 2048, target_rows_per_range=200)


def _q_shuffle_manifest_documents(sf_dir: str):
    """Deterministic epoch-shuffle manifest: every document's (rank,
    shard, pos) in the seed-42 global permutation — seeded-sha256 keys,
    two-pass range prefix for the global rank, ONE key-range-co-located
    exchange, nothing text-sized moves (pipelines/shuffle.py; forced
    multi-range so the driver gate exercises the prefix exchange).
    ORACLE-GATED hash-exact (all integers) vs DuckDB's row_number over
    the same sha256 key order."""
    from rayhll.pipelines.shuffle import shuffle_manifest

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return shuffle_manifest(ds, seed=42, num_shards=8, target_rows_per_range=200)


def _q_write_shards_documents(sf_dir: str):
    """Training-shard delivery: apply the seed-42 shuffle manifest to the
    documents table and WRITE one parquet per shard (pos-ordered, atomic,
    per-shard .done receipts = shard-granular resume), then return the
    receipts — ORACLE-GATED hash-exact vs DuckDB's arg_min/arg_max over
    the same sha256 rank computation (shard row counts, permutation
    contiguity, first/last doc per shard).  Writes under a fresh /tmp
    scratch dir each run."""
    import tempfile

    from rayhll.pipelines.shuffle import shuffle_manifest, write_shards

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    man = shuffle_manifest(ds, seed=42, num_shards=8, target_rows_per_range=200)
    out = tempfile.mkdtemp(prefix="rayhll_shards_")
    return write_shards(ds, man.materialize(), out)


def _q_lm_score_documents(sf_dir: str):
    """CCNet-style fluency scoring: per-document mean bigram
    log-probability under a stupid-backoff count LM trained on the corpus
    itself (pipelines/lm.py — one pre-aggregated counts exchange, then a
    broadcast-table streaming score pass with zero shuffle).  Scores
    round to 4 decimals so Ray's and DuckDB's float-aggregation orders
    cannot flip the driver hash.  ORACLE-GATED against the exact-count
    SQL mirror (every bigram is in-table for self-training, so the gate
    pins the seen path; backoff is pytest-gated)."""
    from rayhll.pipelines.lm import bigram_lm_score

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_lm_score(ds, round_to=4)


def _q_dup_span_documents(sf_dir: str):
    """Exact cross-document duplicate-span detection (Lee et al. 2021
    ExactSubstr at 8-token-gram granularity): maximal token spans whose
    every 8-gram window appears in >= 2 distinct documents, via the
    sharded-broadcast membership path (pass 1 finds the dup-gram set with
    one bucketed exchange of distinct (gram, doc) pairs; pass 2 streams
    the corpus once with zero shuffle).  ORACLE-GATED against the DuckDB
    gaps-and-islands mirror (windows merge when they overlap or abut)."""
    from rayhll.pipelines.spandedup import duplicate_spans

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return duplicate_spans(ds, gram=8, method="broadcast", num_shards=2)


def _q_cross_doc_duplication(sf_dir: str):
    """Cross-document duplicate-gram profile (RefinedWeb-style duplicate
    text fraction), ORACLE-GATED per document: distinct token 3-grams,
    how many appear in at least one OTHER document, and their ratio —
    the SQL mirror builds the same distinct (doc, gram) pairs and counts
    docs per gram."""
    from rayhll.pipelines.crossdup import cross_doc_duplication

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = cross_doc_duplication(ds, gram=3)
    return out.select_columns(["doc_id", "n_grams", "n_shared_grams", "dup_frac"])


def _q_token_budget_sample_documents(sf_dir: str):
    """Per-language token-budget sampling (data mixing), ORACLE-GATED: take
    documents per language in doc_id order while the cumulative token
    count stays within 2,000; SQL mirror is the windowed running sum."""
    from rayhll.functions.sample import token_budget_sample
    from rayhll.pipelines.text import TextStats

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    stats = ds.map_batches(TextStats(), batch_format="pyarrow", zero_copy_batch=True)
    out = token_budget_sample(stats, budgets=2000)
    return out.select_columns(["doc_id", "lang", "n_tokens"])


def _q_image_phash_crafted(sf_dir: str):
    """Perceptual image hashing (dHash) over a crafted corpus, ORACLE-GATED
    on its contract: each of 12 base images is re-encoded through BMP, PPM,
    PNG, baseline JPEG and progressive JPEG — all five re-encodes of one
    image must land within hamming distance 6 of the BMP hash (codec-noise
    robustness), and hashes of DIFFERENT images must sit at distance > 10
    (discriminability).  Oracle = the all-TRUE table."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rayhll.functions import codecs
    from rayhll.functions.jpeg import encode_jpeg
    from rayhll.pipelines.multimodal import PerceptualHashStage

    rng = np.random.default_rng(23)
    encoders = [
        ("bmp", codecs.encode_bmp),
        ("ppm", codecs.encode_ppm),
        ("png", codecs.encode_png),
        ("jpeg", lambda im: encode_jpeg(im, quality=85)),
        ("pjpeg", lambda im: encode_jpeg(im, quality=85, progressive=True)),
    ]
    rows = []
    for i in range(12):
        yy, xx = np.mgrid[0:40, 0:48]
        base = ((yy * (i + 2) + xx * (2 * i + 3)) % 256).astype(np.uint8)
        img = np.stack([base, 255 - base, np.roll(base, 7, axis=1)], axis=2)
        img = np.clip(img.astype(int) + rng.integers(-25, 25, img.shape), 0, 255).astype(np.uint8)
        for j, (enc_name, enc) in enumerate(encoders):
            rows.append(
                {
                    "asset_id": i * 10 + j,
                    "media_type": "image",
                    "payload": enc(img),
                }
            )
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    got = (
        ds.map_batches(PerceptualHashStage, batch_format="pyarrow", concurrency=(1, 4))
        .to_pandas()
        .sort_values("asset_id")
    )
    h = {int(r.asset_id): int(r.phash64) for r in got.itertuples() if r.phash64 is not None}

    def dist(a, b):
        return bin((a ^ b) & ((1 << 64) - 1)).count("1")

    reencode_ok = all(
        dist(h[i * 10], h[i * 10 + j]) <= 6 for i in range(12) for j in range(1, 5)
    )
    distinct_ok = all(
        dist(h[a * 10], h[b * 10]) > 10 for a in range(12) for b in range(a + 1, 12)
    )
    return pa.table(
        {
            "n_hashes": pa.array([len(h)], type=pa.int64()),
            "reencode_within_6": pa.array([reencode_ok], type=pa.bool_()),
            "distinct_beyond_10": pa.array([distinct_ok], type=pa.bool_()),
        }
    )


def _q_image_near_dup_pairs_crafted(sf_dir: str):
    """Cross-codec image near-dup pairs, ORACLE-GATED on the exact pair
    set: 10 distinct images each encoded as BMP, PPM and PNG (lossless —
    identical pixels, hamming 0, so the pigeonhole candidate stage MUST
    find all 3 pairs per image), distinct images sit far apart, and an
    audio payload rides along to prove non-images never pair.  The SQL
    mirror enumerates the 30 expected (id_a, id_b) pairs arithmetically."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rayhll.functions import codecs
    from rayhll.pipelines.multimodal import image_near_dup_pairs

    rng = np.random.default_rng(31)
    rows = []
    for i in range(10):
        yy, xx = np.mgrid[0:32, 0:40]
        base = ((yy * (i + 3) + xx * (2 * i + 5)) % 256).astype(np.uint8)
        img = np.stack([base, 255 - base, base], axis=2)
        img = np.clip(
            img.astype(int) + rng.integers(-30, 30, img.shape), 0, 255
        ).astype(np.uint8)
        for j, enc in enumerate((codecs.encode_bmp, codecs.encode_ppm, codecs.encode_png)):
            rows.append(
                {"asset_id": i * 10 + j, "media_type": "image", "payload": enc(img)}
            )
    rows.append(
        {
            "asset_id": 999,
            "media_type": "audio",
            "payload": codecs.encode_wav(np.zeros(100, dtype=np.int16), 8000),
        }
    )
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    pairs = image_near_dup_pairs(ds, max_hamming=3).to_pandas()
    out = pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    return pa.table(
        {
            "id_a": pa.array(out["id_a"], type=pa.int64()),
            "id_b": pa.array(out["id_b"], type=pa.int64()),
            "hamming": pa.array(out["hamming"], type=pa.int64()),
        }
    )


def _q_audio_spectral_crafted(sf_dir: str):
    """Frequency-domain audio features over crafted tones — containers
    rotating WAV / FLAC / FLAC-LPC / FLAC-Rice2 (FLAC is lossless, so the
    physics contract is container-independent and the driver gate
    exercises the full RFC 9639 decode path) — ORACLE-GATED on physics:
    a pure tone's spectral centroid must recover its frequency within
    1 Hz (Hann-windowed rfft), white noise must center near rate/4 with
    high flatness, and a non-audio payload yields nulls.  The SQL mirror
    enumerates the expected verdict rows."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rayhll.functions import codecs
    from rayhll.functions.flac import encode_flac
    from rayhll.pipelines.multimodal import SpectralFeatureStage

    rate = 16000
    t = np.arange(rate) / rate
    rng = np.random.default_rng(17)
    rows = []
    freqs = [440.0, 1000.0, 2000.0, 3500.0]
    encoders = [
        lambda s: codecs.encode_wav(s, rate),
        lambda s: encode_flac(s, rate),
        lambda s: encode_flac(s, rate, use_lpc=True, lpc_order=8),
        lambda s: encode_flac(s, rate, block_size=1024, partition_order=4),
    ]
    for i, f0 in enumerate(freqs):
        tone = (np.sin(2 * np.pi * f0 * t) * 20000).astype(np.int16)
        rows.append(
            {"asset_id": i, "media_type": "audio", "payload": encoders[i](tone)}
        )
    noise = (rng.standard_normal(rate) * 8000).astype(np.int16)
    rows.append({"asset_id": 10, "media_type": "audio", "payload": codecs.encode_wav(noise, rate)})
    rows.append({"asset_id": 11, "media_type": "image", "payload": codecs.encode_bmp(
        np.zeros((8, 8, 3), dtype=np.uint8))})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    got = (
        ds.map_batches(SpectralFeatureStage, batch_format="pyarrow", concurrency=(1, 4))
        .to_pandas()
        .set_index("asset_id")
    )
    verdicts = []
    for i, f0 in enumerate(freqs):
        verdicts.append(
            {
                "asset_id": i,
                "ok": bool(abs(got.loc[i, "centroid_hz"] - f0) < 1.0
                           and got.loc[i, "flatness"] < 0.01),
            }
        )
    verdicts.append(
        {
            "asset_id": 10,
            "ok": bool(abs(got.loc[10, "centroid_hz"] - rate / 4) < rate * 0.02
                       and got.loc[10, "flatness"] > 0.3),
        }
    )
    import pandas as pd

    verdicts.append({"asset_id": 11, "ok": bool(pd.isna(got.loc[11, "centroid_hz"]))})
    return pa.Table.from_pylist(
        [{"asset_id": int(v["asset_id"]), "ok": bool(v["ok"])} for v in verdicts]
    )


def _q_hashing_embed_documents(sf_dir: str):
    """Hashing-trick document embeddings (model-free bag-of-words vectors
    feeding the engine's ANN/k-means/embedding-dedup operators),
    ORACLE-GATED per document on the vectorizer's contract: the embedding
    of the token-REVERSED text must be cosine-identical (bag-of-words
    order invariance) and the embedding of a vocabulary-shifted copy
    (every token prefixed) must be far (< 0.5).  Oracle = all-TRUE rows,
    one per document."""
    import numpy as np
    import polars as pl
    import pyarrow as pa

    from rayhll.pipelines.text import HashingVectorizer

    hv = HashingVectorizer(dim=256)

    def verdict(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["text"]))
        tok_lists = [
            t if t is not None else []  # null text ≡ empty doc
            for t in df.select(pl.col("text").str.extract_all(r"[A-Za-z0-9_]+"))[
                "text"
            ].to_list()
        ]
        rev = pa.array([" ".join(reversed(t)) for t in tok_lists])
        shifted = pa.array([" ".join("q" + w for w in t) for t in tok_lists])
        base = np.stack(
            [np.array(v) for v in hv(batch).column("embedding").to_pylist()]
        )
        m_rev = np.stack(
            [np.array(v) for v in hv(pa.table({"text": rev})).column("embedding").to_pylist()]
        )
        m_shift = np.stack(
            [np.array(v) for v in hv(pa.table({"text": shifted})).column("embedding").to_pylist()]
        )
        cos_rev = (base * m_rev).sum(axis=1)
        cos_shift = (base * m_shift).sum(axis=1)
        # zero-token docs embed to the zero vector on both sides: the
        # contract holds vacuously
        empty = np.array([len(t) == 0 for t in tok_lists])
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "order_invariant": pa.array(
                    (cos_rev > 1 - 1e-5) | empty, type=pa.bool_()
                ),
                "vocab_sensitive": pa.array(
                    (cos_shift < 0.5) | empty, type=pa.bool_()
                ),
            }
        )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(verdict, batch_format="pyarrow", zero_copy_batch=True)


def queries() -> dict[str, Callable[[str], Any]]:
    # ORDER MATTERS: the driver samples the FIRST 50 entries of this dict
    # for its CORRECTNESS oracle run.  Queries that have never appeared in
    # a driver correctness file (the 4 round-4 additions, the r5
    # dup_span/lm_score/pack_sequences/dup_clusters/shuffle_manifest/
    # quality_classifier/dsir additions, + the 8 sampled only in r3) come
    # FIRST so round 5 hard-gates them; the 19 demoted past position 50
    # are all green in CORRECTNESS_r04.json and remain repo-gated by
    # pytest mirrors (they cover machinery the promoted set also
    # exercises: hex dump ~ hex_by_lang, count-min counts ~ heavy
    # hitters, grouped sample ~ grouped top-k, fingerprint invariants ~
    # simhash_fingerprints + fingerprint_documents, orderkey distinct ~
    # the three promoted hll_distinct gates, video frames ~ the two
    # promoted multimodal gates, ...).
    return {
        # -- never driver-gated (r4 + r5 additions) ----------------------
        "decontam_documents": _q_decontam_documents,
        "repetition_stats_documents": _q_repetition_stats_documents,
        "pii_redact_documents": _q_pii_redact_documents,
        "cross_doc_duplication": _q_cross_doc_duplication,
        "dup_span_documents": _q_dup_span_documents,
        "lm_score_documents": _q_lm_score_documents,
        "pack_sequences_documents": _q_pack_sequences_documents,
        "dup_clusters_documents": _q_dup_clusters_documents,
        "shuffle_manifest_documents": _q_shuffle_manifest_documents,
        "quality_classifier_documents": _q_quality_classifier_documents,
        "dsir_select_documents": _q_dsir_select_documents,
        "write_shards_documents": _q_write_shards_documents,
        # -- last sampled in r3 ------------------------------------------
        "window_sliding_distinct_users": _q_window_sliding_distinct_users,
        "session_windows_events": _q_session_windows_events,
        "window_tdigest_value_p50": _q_window_tdigest_value_p50,
        "heavy_hitters_event_type": _q_heavy_hitters_event_type,
        "tdigest_price_by_returnflag": _q_tdigest_price_by_returnflag,
        "profile_lineitem_columns": _q_profile_lineitem_columns,
        "users_overlap_click_purchase": _q_users_overlap_click_purchase,
        "theta_users_overlap": _q_theta_users_overlap,
        # -- green in CORRECTNESS_r04 ------------------------------------
        "hll_distinct_text": _q_distinct_text,
        "hll_distinct_text_by_lang": _q_distinct_text_by_lang,
        "hll_distinct_users_by_event_type": _q_distinct_users_by_event_type,
        "sha256_invariant": _q_sha256_invariant,
        "flagship_code_global": _q_flagship_code_global,
        "hll_sketch_hex_by_lang": _q_hll_sketch_hex_by_lang,
        "dedup_exact_documents": _q_dedup_exact_documents,
        "text_stats_documents": _q_text_stats_documents,
        "token_counts_documents": _q_token_counts_documents,
        "bloom_semijoin_lineitem_part": _q_bloom_semijoin_lineitem_part,
        "join_orders_customer_by_segment": _q_join_orders_customer_by_segment,
        "asof_join_click_purchase": _q_asof_join_click_purchase,
        "range_join_events_windows": _q_range_join_events_windows,
        "broadcast_join_lineitem_brand": _q_broadcast_join_lineitem_brand,
        "curation_full_docs_by_lang": _q_curation_full_docs_by_lang,
        "fraction_sample_split_documents": _q_fraction_sample_split_documents,
        "token_budget_sample_documents": _q_token_budget_sample_documents,
        "grouped_top_k_orders": _q_grouped_top_k_orders,
        "kll_event_value_quantiles": _q_kll_event_value_quantiles,
        "ann_topk_embeddings": _q_ann_topk_embeddings,
        "ivf_topk_embeddings": _q_ivf_topk_embeddings,
        "kmeans_embeddings": _q_kmeans_embeddings,
        "minhash_dedup_checkpointed": _q_minhash_dedup_checkpointed,
        "ngram_jaccard_pairs": _q_ngram_jaccard_pairs,
        "simhash_fingerprints": _q_simhash_fingerprints,
        "lang_id_documents": _q_lang_id_documents,
        "fingerprint_documents": _q_fingerprint_documents,
        "embedding_near_dup_pairs": _q_embedding_near_dup_pairs,
        "multimodal_features": _q_multimodal_features,
        "multimodal_decode_meta": _q_multimodal_decode_meta,
        # -- past the 50-sample cut: r4-green, pytest-mirrored ------------
        "hashing_embed_documents": _q_hashing_embed_documents,
        "multimodal_video_frames": _q_multimodal_video_frames,
        "hll_distinct_orderkey": _q_distinct_orderkey,
        "minhash_near_dup_pairs": _q_minhash_near_dup_pairs,
        "image_near_dup_pairs_crafted": _q_image_near_dup_pairs_crafted,
        "audio_spectral_crafted": _q_audio_spectral_crafted,
        "window_tumbling_distinct_users": _q_window_tumbling_distinct_users,
        "fingerprint_invariants_crafted": _q_fingerprint_invariants_crafted,
        "hll_distinct_orderkey_linenumber": _q_distinct_orderkey_linenumber,
        "hll_distinct_custkey_by_orderstatus": _q_distinct_custkey_by_orderstatus,
        "hll_estimate_text_probabilistic": _q_hll_estimate_text_probabilistic,
        "hll_sketch_hex_dump": _q_hll_sketch_hex_dump,
        "curation_docs_by_lang": _q_curation_docs_by_lang,
        "grouped_sample_documents": _q_grouped_sample_documents,
        "countmin_event_type_counts": _q_countmin_event_type_counts,
        "tdigest_price_quantiles": _q_tdigest_price_quantiles,
        "minhash_exact_dup_pairs": _q_minhash_exact_dup_pairs,
        "simhash_dup_pairs_crafted": _q_simhash_dup_pairs_crafted,
        "lang_id_accuracy_snippets": _q_lang_id_accuracy_snippets,
        "image_phash_crafted": _q_image_phash_crafted,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "hll_distinct_text": (
            "SELECT CAST(COUNT(DISTINCT text) AS BIGINT) AS distinct_text FROM documents"
        ),
        "hll_distinct_text_by_lang": (
            "SELECT lang, CAST(COUNT(DISTINCT text) AS BIGINT) AS distinct_text "
            "FROM documents GROUP BY lang"
        ),
        "hll_distinct_users_by_event_type": (
            "SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS distinct_users "
            "FROM events GROUP BY event_type"
        ),
        "hll_distinct_orderkey": (
            "SELECT CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS distinct_orderkey "
            "FROM lineitem"
        ),
        "hll_distinct_orderkey_linenumber": (
            "SELECT CAST(COUNT(DISTINCT (l_orderkey, l_linenumber)) AS BIGINT) "
            "AS distinct_orderkey_linenumber FROM lineitem"
        ),
        "hll_distinct_custkey_by_orderstatus": (
            "SELECT o_orderstatus, CAST(COUNT(DISTINCT o_custkey) AS BIGINT) "
            "AS distinct_custkey FROM orders GROUP BY o_orderstatus"
        ),
        "sha256_invariant": "SELECT doc_id, sha256(text) AS sha FROM documents",
        "dedup_exact_documents": (
            "SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id FROM documents GROUP BY text"
        ),
        "text_stats_documents": (
            "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars_calc, "
            "CAST(length(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_tokens, "
            "CAST(length(text) - length(replace(text, ' ', '')) AS BIGINT) AS n_spaces "
            "FROM documents"
        ),
        "token_counts_documents": (
            "SELECT doc_id, "
            "CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens_ws, "
            "CAST(length(regexp_extract_all(text, "
            "$$'(?:s|t|re|ve|m|ll|d)| ?\\p{L}+| ?\\p{N}+| ?[^\\s\\p{L}\\p{N}]+|\\s+$$"
            ")) AS BIGINT) AS n_tokens_bpe FROM documents"
        ),
        "bloom_semijoin_lineitem_part": (
            "SELECT CAST(COUNT(*) AS BIGINT) AS n_rows FROM lineitem WHERE l_partkey IN "
            "(SELECT p_partkey FROM part WHERE p_size > 40)"
        ),
        "repetition_stats_documents": (
            "WITH l AS (SELECT doc_id, str_split(text, chr(10)) AS ls, "
            "regexp_extract_all(text, '[A-Za-z0-9_]+') AS t FROM documents), "
            "base AS (SELECT doc_id, CAST(len(ls) AS BIGINT) AS n_lines, "
            "CAST(len(list_distinct(ls)) AS BIGINT) AS n_distinct_lines, "
            "CAST(len(t) AS BIGINT) AS n_tok, "
            "CAST(len(list_distinct(t)) AS BIGINT) AS n_distinct_tokens FROM l), "
            "g2 AS (SELECT doc_id, unnest(list_transform(range(1, len(t)), "
            "i -> t[i] || chr(31) || t[i+1])) AS g FROM l WHERE len(t) >= 2), "
            "top AS (SELECT doc_id, CAST(MAX(c) AS BIGINT) AS top_2gram_count FROM "
            "(SELECT doc_id, g, COUNT(*) AS c FROM g2 GROUP BY doc_id, g) GROUP BY doc_id) "
            "SELECT b.doc_id, n_lines, n_distinct_lines, "
            "(n_lines - n_distinct_lines) / CAST(GREATEST(n_lines, 1) AS DOUBLE) AS dup_line_frac, "
            "n_distinct_tokens, "
            "(n_tok - n_distinct_tokens) / CAST(GREATEST(n_tok, 1) AS DOUBLE) AS dup_token_frac, "
            "COALESCE(top_2gram_count, 0) AS top_2gram_count "
            "FROM base b LEFT JOIN top USING(doc_id)"
        ),
        "pii_redact_documents": (
            # staged CTEs mirror PiiRedact's count-on-progressively-redacted
            # semantics: pattern i is counted on the text with patterns < i
            # already replaced, so n_<name> == placeholders inserted
            "WITH aug AS (SELECT doc_id, text || ' contact user' || doc_id || "
            "'@example.com or 10.1.' || (doc_id % 200) || '.7 ssn 123-45-6789' AS t0 "
            "FROM documents), "
            "s1 AS (SELECT doc_id, t0, regexp_replace(t0, "
            "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '[EMAIL]', 'g') AS t1 FROM aug), "
            "s2 AS (SELECT doc_id, t0, t1, regexp_replace(t1, "
            "'\\b\\d{3}-\\d{2}-\\d{4}\\b', '[SSN]', 'g') AS t2 FROM s1) "
            "SELECT doc_id, "
            "CAST(length(regexp_extract_all(t0, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_email, "
            "CAST(length(regexp_extract_all(t1, '\\b\\d{3}-\\d{2}-\\d{4}\\b')) AS BIGINT) AS n_ssn, "
            "CAST(length(regexp_extract_all(t2, '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) AS BIGINT) AS n_ipv4, "
            "regexp_replace(t2, "
            "'\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', '[IP]', 'g') AS text_redacted "
            "FROM s2"
        ),
        "kmeans_embeddings": (
            "SELECT CAST(COUNT(*) AS BIGINT) AS n_vectors, "
            "TRUE AS inertia_nonincreasing, TRUE AS assignments_match "
            "FROM embeddings"
        ),
        "cross_doc_duplication": (
            "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS t "
            "FROM documents), "
            "grams AS (SELECT DISTINCT doc_id, unnest(list_transform(range(1, len(t) - 3 + 2), "
            "i -> array_to_string(t[i:i+2], chr(31)))) AS g FROM toks WHERE len(t) >= 3), "
            "cnt AS (SELECT g, COUNT(DISTINCT doc_id) AS nd FROM grams GROUP BY g) "
            "SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams, "
            "CAST(SUM(CASE WHEN nd > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_shared_grams, "
            "SUM(CASE WHEN nd > 1 THEN 1 ELSE 0 END) / CAST(COUNT(*) AS DOUBLE) AS dup_frac "
            "FROM grams JOIN cnt USING(g) GROUP BY doc_id"
        ),
        "dsir_select_documents": (
            "SELECT CAST(i AS BIGINT) AS doc_id, "
            "CAST(i % 41 + 30 AS BIGINT) AS n_grams "
            "FROM range(120) t(i) ORDER BY i % 41 DESC, i LIMIT 25"
        ),
        "quality_classifier_documents": (
            "SELECT CAST(240 AS BIGINT) AS n_train, TRUE AS train_acc_ok, "
            "TRUE AS loss_monotone, TRUE AS dist_matches_reference, "
            "CAST((SELECT COUNT(*) FROM documents) AS BIGINT) AS n_scored"
        ),
        "shuffle_manifest_documents": (
            "WITH k AS (SELECT doc_id, "
            "substring(sha256(CAST(doc_id AS VARCHAR) || ':42'), 1, 16) AS h "
            "FROM documents), "
            "r AS (SELECT doc_id, "
            "CAST(row_number() OVER (ORDER BY h, doc_id) - 1 AS BIGINT) AS rank "
            "FROM k) "
            "SELECT doc_id, rank, rank % 8 AS shard, rank // 8 AS pos FROM r"
        ),
        "write_shards_documents": (
            "WITH k AS (SELECT doc_id, "
            "substring(sha256(CAST(doc_id AS VARCHAR) || ':42'), 1, 16) AS h "
            "FROM documents), "
            "r AS (SELECT doc_id, "
            "CAST(row_number() OVER (ORDER BY h, doc_id) - 1 AS BIGINT) AS rank "
            "FROM k), "
            "s AS (SELECT doc_id, rank % 8 AS shard, rank // 8 AS pos FROM r) "
            "SELECT CAST(shard AS BIGINT) AS shard, "
            "CAST(COUNT(*) AS BIGINT) AS n_rows, TRUE AS pos_contiguous, "
            "CAST(arg_min(doc_id, pos) AS BIGINT) AS first_doc_id, "
            "CAST(arg_max(doc_id, pos) AS BIGINT) AS last_doc_id "
            "FROM s GROUP BY shard"
        ),
        "pack_sequences_documents": (
            "WITH s AS (SELECT doc_id, "
            "CAST(length(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_tokens "
            "FROM documents), "
            "w AS (SELECT doc_id, n_tokens, SUM(n_tokens) OVER "
            "(ORDER BY doc_id ROWS UNBOUNDED PRECEDING) - n_tokens AS tok_start FROM s) "
            "SELECT doc_id, n_tokens, CAST(tok_start AS BIGINT) AS tok_start, "
            "CAST(CASE WHEN n_tokens > 0 THEN tok_start // 2048 END AS BIGINT) AS seq_first, "
            "CAST(CASE WHEN n_tokens > 0 THEN (tok_start + n_tokens - 1) // 2048 END AS BIGINT) "
            "AS seq_last "
            "FROM w"
        ),
        "lm_score_documents": (
            "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS t "
            "FROM documents), "
            "big AS (SELECT doc_id, "
            "unnest(list_transform(range(1, len(t)), i -> array_to_string(t[i:i+1], chr(31)))) AS bg, "
            "unnest(list_transform(range(1, len(t)), i -> t[i])) AS w1 "
            "FROM toks WHERE len(t) >= 2), "
            "uni AS (SELECT w, COUNT(*) AS c1 FROM (SELECT unnest(t) AS w FROM toks) GROUP BY w), "
            "bgc AS (SELECT bg, COUNT(*) AS c2 FROM big GROUP BY bg), "
            "scored AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams, "
            "ROUND(AVG(LN(c2 / CAST(c1 AS DOUBLE))), 4) AS score "
            "FROM big JOIN bgc USING(bg) JOIN uni ON big.w1 = uni.w GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(s.n_bigrams, 0) AS n_bigrams, s.score "
            "FROM documents d LEFT JOIN scored s USING(doc_id)"
        ),
        "dup_span_documents": (
            "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS t "
            "FROM documents), "
            "grams AS (SELECT doc_id, unnest(list_transform(range(1, len(t) - 8 + 2), "
            "i -> array_to_string(t[i:i+7], chr(31)))) AS g, "
            "unnest(range(1, len(t) - 8 + 2)) AS i FROM toks WHERE len(t) >= 8), "
            "dup AS (SELECT g FROM grams GROUP BY g HAVING COUNT(DISTINCT doc_id) >= 2), "
            "marked AS (SELECT doc_id, i - 1 AS p FROM grams WHERE g IN (SELECT g FROM dup)), "
            "brk AS (SELECT doc_id, p, CASE WHEN p - lag(p) OVER "
            "(PARTITION BY doc_id ORDER BY p) <= 8 THEN 0 ELSE 1 END AS b FROM marked), "
            "isl AS (SELECT doc_id, p, SUM(b) OVER (PARTITION BY doc_id ORDER BY p) "
            "AS island FROM brk) "
            "SELECT doc_id, CAST(MIN(p) AS BIGINT) AS span_start, "
            "CAST(MAX(p) + 8 AS BIGINT) AS span_end FROM isl GROUP BY doc_id, island"
        ),
        "token_budget_sample_documents": (
            "WITH s AS (SELECT doc_id, lang, "
            "CAST(length(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_tokens "
            "FROM documents), "
            "w AS (SELECT doc_id, lang, n_tokens, SUM(n_tokens) OVER "
            "(PARTITION BY lang ORDER BY doc_id ROWS UNBOUNDED PRECEDING) AS cum FROM s) "
            "SELECT doc_id, lang, n_tokens FROM w WHERE cum <= 2000"
        ),
        "image_phash_crafted": (
            "SELECT CAST(60 AS BIGINT) AS n_hashes, TRUE AS reencode_within_6, "
            "TRUE AS distinct_beyond_10"
        ),
        "image_near_dup_pairs_crafted": (
            "WITH img(i) AS (SELECT unnest(range(10))), pair(a, b) AS "
            "(VALUES (0, 1), (0, 2), (1, 2)) "
            "SELECT CAST(i * 10 + a AS BIGINT) AS id_a, "
            "CAST(i * 10 + b AS BIGINT) AS id_b, CAST(0 AS BIGINT) AS hamming "
            "FROM img CROSS JOIN pair"
        ),
        "audio_spectral_crafted": (
            "SELECT CAST(unnest([0, 1, 2, 3, 10, 11]) AS BIGINT) AS asset_id, TRUE AS ok"
        ),
        "hashing_embed_documents": (
            "SELECT doc_id, TRUE AS order_invariant, TRUE AS vocab_sensitive "
            "FROM documents"
        ),
        "decontam_documents": (
            "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS t "
            "FROM documents), "
            "bench_toks AS (SELECT t[1:24] AS bt FROM toks WHERE doc_id % 31 = 5), "
            "bgrams AS (SELECT DISTINCT unnest(list_transform(range(1, len(bt) - 8 + 2), "
            "i -> array_to_string(bt[i:i+7], chr(31)))) AS g "
            "FROM bench_toks WHERE len(bt) >= 8), "
            "grams AS (SELECT doc_id, unnest(list_transform(range(1, len(t) - 8 + 2), "
            "i -> array_to_string(t[i:i+7], chr(31)))) AS g FROM toks WHERE len(t) >= 8), "
            "hits AS (SELECT doc_id, CAST(COUNT(DISTINCT g) AS BIGINT) AS n_gram_hits "
            "FROM grams WHERE g IN (SELECT g FROM bgrams) GROUP BY doc_id) "
            "SELECT d.doc_id, COALESCE(h.n_gram_hits, 0) AS n_gram_hits, "
            "COALESCE(h.n_gram_hits, 0) > 0 AS contaminated "
            "FROM documents d LEFT JOIN hits h USING(doc_id)"
        ),
        "join_orders_customer_by_segment": (
            "SELECT c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n_orders, "
            "CAST(MIN(o_orderkey) AS BIGINT) AS min_orderkey "
            "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
            "GROUP BY c_mktsegment"
        ),
        "grouped_top_k_orders": (
            "SELECT o_orderstatus, o_orderkey FROM (SELECT o_orderstatus, o_orderkey, "
            "ROW_NUMBER() OVER (PARTITION BY o_orderstatus ORDER BY o_orderkey) rn "
            "FROM orders) WHERE rn <= 5"
        ),
        "grouped_sample_documents": (
            "SELECT lang, CAST(LEAST(20, COUNT(*)) AS BIGINT) AS n_sampled "
            "FROM documents GROUP BY lang"
        ),
        "range_join_events_windows": (
            "WITH w AS (SELECT DISTINCT event_type, date_trunc('hour', ts) AS win_start, "
            "date_trunc('hour', ts) + INTERVAL 1 HOUR AS win_end FROM events) "
            "SELECT e.ts, e.user_id, e.event_type, w.win_start FROM events e "
            "JOIN w ON e.event_type = w.event_type "
            "AND e.ts BETWEEN w.win_start AND w.win_end"
        ),
        "broadcast_join_lineitem_brand": (
            "SELECT p.p_brand, CAST(COUNT(*) AS BIGINT) AS n_items, "
            "SUM(l.l_quantity) AS sum_qty FROM lineitem l "
            "JOIN part p ON l.l_partkey = p.p_partkey GROUP BY p.p_brand"
        ),
        "fraction_sample_split_documents": (
            "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, TRUE AS split_ok "
            "FROM documents GROUP BY lang"
        ),
        "curation_docs_by_lang": (
            "WITH s AS (SELECT doc_id, lang, text, "
            "CAST(length(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) "
            "AS n_tokens FROM documents), "
            "f AS (SELECT * FROM s WHERE n_tokens >= 40), "
            "d AS (SELECT MIN(doc_id) AS keep_id FROM f GROUP BY text), "
            "k AS (SELECT f.* FROM f JOIN d ON f.doc_id = d.keep_id) "
            "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_tokens) AS BIGINT) AS sum_tokens, "
            "CAST(MIN(doc_id) AS BIGINT) AS min_doc_id FROM k GROUP BY lang"
        ),
        "curation_full_docs_by_lang": (
            "WITH toks AS (SELECT doc_id, lang, text, "
            "regexp_extract_all(text, '[A-Za-z0-9_]+') AS t FROM documents), "
            "s AS (SELECT doc_id, lang, text, CAST(len(t) AS BIGINT) AS n_tokens, "
            "(len(t) - len(list_distinct(t))) / CAST(GREATEST(len(t), 1) AS DOUBLE) "
            "AS dup_frac FROM toks), "
            "bench_toks AS (SELECT t[1:24] AS bt FROM toks WHERE doc_id % 31 = 5), "
            "bgrams AS (SELECT DISTINCT unnest(list_transform(range(1, len(bt) - 8 + 2), "
            "i -> array_to_string(bt[i:i+7], chr(31)))) AS g "
            "FROM bench_toks WHERE len(bt) >= 8), "
            "grams AS (SELECT doc_id, unnest(list_transform(range(1, len(t) - 8 + 2), "
            "i -> array_to_string(t[i:i+7], chr(31)))) AS g FROM toks WHERE len(t) >= 8), "
            "contam AS (SELECT DISTINCT doc_id FROM grams WHERE g IN (SELECT g FROM bgrams)), "
            "f AS (SELECT doc_id, lang, text, n_tokens FROM s WHERE n_tokens >= 40 "
            "AND dup_frac <= 0.6 AND doc_id NOT IN (SELECT doc_id FROM contam)), "
            "d AS (SELECT MIN(doc_id) AS keep_id FROM f GROUP BY text), "
            "k AS (SELECT f.* FROM f JOIN d ON f.doc_id = d.keep_id) "
            "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_tokens) AS BIGINT) AS sum_tokens, "
            "CAST(MIN(doc_id) AS BIGINT) AS min_doc_id FROM k GROUP BY lang"
        ),
        "asof_join_click_purchase": (
            "SELECT c.ts, c.user_id, p.purchase_ts "
            "FROM (SELECT ts, user_id FROM events WHERE event_type = 'click') c "
            "ASOF LEFT JOIN (SELECT ts, user_id, ts AS purchase_ts FROM events "
            "WHERE event_type = 'purchase') p "
            "ON c.user_id = p.user_id AND c.ts >= p.ts"
        ),
        "countmin_event_type_counts": (
            "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS est_count "
            "FROM events GROUP BY event_type"
        ),
        "ann_topk_embeddings": (
            "SELECT vec_id FROM (SELECT vec_id, list_cosine_similarity(embedding, "
            "(SELECT embedding FROM embeddings WHERE vec_id = 0)) AS sim "
            "FROM embeddings) ORDER BY sim DESC LIMIT 10"
        ),
        "window_tumbling_distinct_users": (
            "SELECT date_trunc('hour', ts) AS window_start, "
            "CAST(COUNT(DISTINCT user_id) AS BIGINT) AS distinct_users "
            "FROM events GROUP BY 1"
        ),
        "window_sliding_distinct_users": (
            "SELECT window_start, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS distinct_users "
            "FROM (SELECT date_trunc('hour', ts) - k * INTERVAL 1 HOUR AS window_start, "
            "user_id FROM events, (VALUES (0), (1), (2)) t(k)) GROUP BY 1"
        ),
        "session_windows_events": (
            "SELECT user_id, MIN(ts) AS session_start, MAX(ts) AS session_end, "
            "CAST(COUNT(*) AS BIGINT) AS n_events FROM ("
            "SELECT user_id, ts, SUM(new_sess) OVER "
            "(PARTITION BY user_id ORDER BY ts) AS sid FROM ("
            "SELECT user_id, ts, CASE WHEN ts - LAG(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts) > INTERVAL 1 HOUR THEN 1 ELSE 0 END "
            "AS new_sess FROM events)) GROUP BY user_id, sid"
        ),
        "window_tdigest_value_p50": (
            "SELECT date_trunc('hour', ts) AS window_start, "
            "CAST(COUNT(*) AS BIGINT) AS n, TRUE AS p50_within_tol "
            "FROM events GROUP BY 1"
        ),
        "heavy_hitters_event_type": (
            "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS est_count FROM events "
            "GROUP BY event_type ORDER BY est_count DESC, event_type LIMIT 3"
        ),
        "theta_users_overlap": (
            "SELECT CAST(a.c AS BIGINT) AS users_click, CAST(b.c AS BIGINT) AS users_purchase, "
            "CAST(u.c AS BIGINT) AS users_union, CAST(a.c + b.c - u.c AS BIGINT) AS users_intersection "
            "FROM (SELECT COUNT(DISTINCT user_id) c FROM events WHERE event_type = 'click') a, "
            "(SELECT COUNT(DISTINCT user_id) c FROM events WHERE event_type = 'purchase') b, "
            "(SELECT COUNT(DISTINCT user_id) c FROM events WHERE event_type IN ('click','purchase')) u"
        ),
        "users_overlap_click_purchase": (
            "SELECT CAST(a.c AS BIGINT) AS users_click, CAST(b.c AS BIGINT) AS users_purchase, "
            "CAST(u.c AS BIGINT) AS users_union, CAST(a.c + b.c - u.c AS BIGINT) AS users_intersection "
            "FROM (SELECT COUNT(DISTINCT user_id) c FROM events WHERE event_type = 'click') a, "
            "(SELECT COUNT(DISTINCT user_id) c FROM events WHERE event_type = 'purchase') b, "
            "(SELECT COUNT(DISTINCT user_id) c FROM events WHERE event_type IN ('click','purchase')) u"
        ),
        "profile_lineitem_columns": (
            " UNION ALL ".join(
                f"SELECT '{c}' AS col_name, CAST(COUNT(DISTINCT {c}) AS BIGINT) AS "
                f"distinct_est, CAST(COUNT(*) AS BIGINT) AS rows_in FROM lineitem"
                for c in (
                    "l_orderkey",
                    "l_partkey",
                    "l_suppkey",
                    "l_returnflag",
                    "l_linestatus",
                )
            )
        ),
        "embedding_near_dup_pairs": (
            "SELECT CAST(vec_id AS BIGINT) AS id_a, "
            "CAST(vec_id + 1000000 AS BIGINT) AS id_b "
            "FROM embeddings WHERE vec_id < 50"
        ),
        "ngram_jaccard_pairs": (
            "WITH toks AS ("
            "  SELECT CAST(d.i AS BIGINT) AS doc_id, j.j AS pos,"
            "         printf('w%02dx%02d', CAST(d.i AS INT), CAST(j.j AS INT)) AS tok"
            "  FROM range(40) d(i), range(60) j(j)"
            "  UNION ALL"
            "  SELECT CAST(d.i + 100 AS BIGINT), j.j,"
            "         CASE WHEN j.j = 30 THEN printf('zq%02dzz99', CAST(d.i AS INT))"
            "              ELSE printf('w%02dx%02d', CAST(d.i AS INT), CAST(j.j AS INT)) END"
            "  FROM range(12) d(i), range(60) j(j)"
            "), grams AS ("
            "  SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS g"
            "  FROM toks a"
            "  JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1"
            "  JOIN toks c ON a.doc_id = c.doc_id AND c.pos = a.pos + 2"
            "), counts AS ("
            "  SELECT doc_id, COUNT(DISTINCT g) AS n FROM grams GROUP BY doc_id"
            "), inter AS ("
            "  SELECT x.doc_id AS id_a, y.doc_id AS id_b, COUNT(DISTINCT x.g) AS i"
            "  FROM grams x JOIN grams y ON x.g = y.g AND x.doc_id < y.doc_id"
            "  GROUP BY x.doc_id, y.doc_id"
            ") SELECT id_a, id_b,"
            "         CAST(i AS DOUBLE) / (ca.n + cb.n - i) AS jaccard"
            "  FROM inter"
            "  JOIN counts ca ON ca.doc_id = id_a"
            "  JOIN counts cb ON cb.doc_id = id_b"
            "  WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.8"
        ),
        "dup_clusters_documents": (
            "WITH RECURSIVE chains(c, L) AS ("
            "  VALUES (0, 2), (1, 3), (2, 4), (3, 6)"
            "), docs AS ("
            "  SELECT CAST(c * 100 + k.k AS BIGINT) AS doc_id, c, k.k AS k"
            "  FROM chains, range(6) k(k) WHERE k.k < L"
            "  UNION ALL SELECT CAST(900 + i.i AS BIGINT), -1, 0 FROM range(3) i(i)"
            "  UNION ALL SELECT CAST(950 + i.i AS BIGINT), -2, CAST(i.i AS BIGINT)"
            "  FROM range(2) i(i)"
            "), toks AS ("
            "  SELECT doc_id, j.j AS pos,"
            "         CASE WHEN c = -1 THEN printf('t00x%02d', CAST(j.j AS INT))"
            "              WHEN c = -2 THEN printf('u%dx%02d', CAST(950 + k AS INT),"
            "                                      CAST(j.j AS INT))"
            "              WHEN j.j % 4 = 0 AND j.j >= 8 AND j.j < 8 + 4 * k"
            "                THEN printf('s%dx%02d', CAST(c AS INT), CAST(j.j AS INT))"
            "              ELSE printf('w%dx%02d', CAST(c AS INT), CAST(j.j AS INT))"
            "         END AS tok"
            "  FROM docs, range(60) j(j)"
            "), grams AS ("
            "  SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS g"
            "  FROM toks a"
            "  JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1"
            "  JOIN toks c ON a.doc_id = c.doc_id AND c.pos = a.pos + 2"
            "), counts AS ("
            "  SELECT doc_id, COUNT(DISTINCT g) AS n FROM grams GROUP BY doc_id"
            "), inter AS ("
            "  SELECT x.doc_id AS id_a, y.doc_id AS id_b, COUNT(DISTINCT x.g) AS i"
            "  FROM grams x JOIN grams y ON x.g = y.g AND x.doc_id < y.doc_id"
            "  GROUP BY x.doc_id, y.doc_id"
            "), edges AS ("
            "  SELECT id_a AS a, id_b AS b FROM inter"
            "  JOIN counts ca ON ca.doc_id = id_a"
            "  JOIN counts cb ON cb.doc_id = id_b"
            "  WHERE CAST(i AS DOUBLE) / (ca.n + cb.n - i) >= 0.85"
            "), sym AS ("
            "  SELECT a, b FROM edges UNION SELECT b, a FROM edges"
            "), nodes AS ("
            "  SELECT DISTINCT a AS n FROM sym"
            "), reach(n, r) AS ("
            "  SELECT n, n FROM nodes"
            "  UNION SELECT s.a, reach.r FROM sym s JOIN reach ON s.b = reach.n"
            ") SELECT n AS doc_id, CAST(MIN(r) AS BIGINT) AS cluster_id "
            "FROM reach GROUP BY n"
        ),
        "minhash_near_dup_pairs": (
            "SELECT CAST(r AS BIGINT) AS id_a, CAST(r + 100 AS BIGINT) AS id_b "
            "FROM range(12) t(r)"
        ),
        "minhash_exact_dup_pairs": (
            "SELECT CAST(a.doc_id AS BIGINT) AS id_a, CAST(b.doc_id AS BIGINT) AS id_b "
            "FROM (SELECT doc_id, text FROM documents UNION ALL "
            "SELECT doc_id + 1000000, text FROM documents WHERE doc_id < 25) a "
            "JOIN (SELECT doc_id, text FROM documents UNION ALL "
            "SELECT doc_id + 1000000, text FROM documents WHERE doc_id < 25) b "
            "ON a.text = b.text AND a.doc_id < b.doc_id"
        ),
        # checkpointed variant: same corpus, same exact-dup contract -> the
        # crash-resumed pair set must equal the streaming query's oracle
        "minhash_dedup_checkpointed": (
            "SELECT CAST(a.doc_id AS BIGINT) AS id_a, CAST(b.doc_id AS BIGINT) AS id_b "
            "FROM (SELECT doc_id, text FROM documents UNION ALL "
            "SELECT doc_id + 1000000, text FROM documents WHERE doc_id < 25) a "
            "JOIN (SELECT doc_id, text FROM documents UNION ALL "
            "SELECT doc_id + 1000000, text FROM documents WHERE doc_id < 25) b "
            "ON a.text = b.text AND a.doc_id < b.doc_id"
        ),
        "simhash_dup_pairs_crafted": (
            "SELECT CAST(i AS BIGINT) AS id_a, CAST(i + 100 AS BIGINT) AS id_b, "
            "CAST(0 AS BIGINT) AS hamming FROM range(10) t(i)"
        ),
        "fingerprint_invariants_crafted": (
            "SELECT CAST(r % 20 AS BIGINT) AS pair_id, "
            "CASE WHEN r < 20 THEN 'copy' ELSE 'unrelated' END AS kind, "
            "TRUE AS ok FROM range(40) t(r)"
        ),
        "lang_id_accuracy_snippets": (
            "SELECT CAST(r AS BIGINT) AS snippet_id, TRUE AS correct FROM range(5) t(r)"
        ),
        "hll_estimate_text_probabilistic": "SELECT TRUE AS estimate_within_3sigma",
        "ivf_topk_embeddings": "SELECT TRUE AS recall_ge_09",
        "tdigest_price_quantiles": (
            "SELECT q, TRUE AS within_tol FROM (VALUES (0.1), (0.25), (0.5), "
            "(0.75), (0.9), (0.99)) t(q)"
        ),
        "kll_event_value_quantiles": (
            "SELECT q, TRUE AS within_tol FROM (VALUES (0.1), (0.5), (0.9)) t(q)"
        ),
        "multimodal_features": (
            "SELECT CAST(r AS BIGINT) AS asset_id, CASE r % 3 WHEN 0 THEN 'image' "
            "WHEN 1 THEN 'audio' ELSE 'video' END AS media_type FROM range(200) t(r)"
        ),
        "multimodal_decode_meta": (
            "SELECT CAST(r AS BIGINT) AS asset_id, CASE r % 3 WHEN 0 THEN 'image' "
            "WHEN 1 THEN 'audio' ELSE 'video' END AS media_type, TRUE AS decode_ok, "
            "CAST(CASE WHEN r % 3 = 1 THEN 8000 ELSE -1 END AS INTEGER) AS sample_rate "
            "FROM range(200) t(r)"
        ),
        "multimodal_video_frames": (
            "SELECT CAST(r AS BIGINT) AS asset_id, CAST(f AS INTEGER) AS frame_idx "
            "FROM range(200) t(r), range(4) u(f) WHERE r % 3 = 2"
        ),
        "hll_sketch_hex_by_lang": (
            "SELECT lang, TRUE AS roundtrip_within_bound FROM documents GROUP BY lang"
        ),
        "hll_sketch_hex_dump": (
            "SELECT lang, TRUE AS roundtrip_ok FROM documents GROUP BY lang"
        ),
        "simhash_fingerprints": (
            "SELECT doc_id, TRUE AS sim_ok FROM documents"
        ),
        "lang_id_documents": (
            "SELECT doc_id, TRUE AS lang_ok FROM documents"
        ),
        "fingerprint_documents": (
            "SELECT doc_id, TRUE AS fp_ok FROM documents"
        ),
        "tdigest_price_by_returnflag": (
            "SELECT l_returnflag, TRUE AS p50_within_tol, TRUE AS p99_within_tol, "
            "CAST(COUNT(*) AS BIGINT) AS n FROM lineitem GROUP BY l_returnflag"
        ),
        "flagship_code_global": (
            "SELECT CAST(COUNT(DISTINCT text) AS BIGINT) AS est_distinct_content, "
            "CAST(COUNT(DISTINCT ('docs/' || lang || '/doc_' || doc_id || '.txt')) AS BIGINT) "
            "AS est_distinct_path, "
            "CAST(COUNT(DISTINCT (('corpus/' || source), substr(sha256(text), 1, 40))) AS BIGINT) "
            "AS est_distinct_repo_commit, "
            "CAST(COUNT(*) AS BIGINT) AS rows_in FROM documents"
        ),
    }
