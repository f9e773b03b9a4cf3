"""Column-profile operator and the live actor-based sketch service."""

from __future__ import annotations

import duckdb
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def test_profile_distinct_matches_oracle(ray_session):
    import ray.data as rd

    from rayhll import ray_agg
    from rayhll.pipelines.profile import profile_distinct

    li = f"{SF}/lineitem.parquet"
    cols = ["l_orderkey", "l_partkey", "l_returnflag"]
    got = (
        profile_distinct(
            rd.read_parquet(li, columns=cols), cols, settings=ray_agg.EXACT_MODE
        )
        .to_pandas()
        .sort_values("col_name")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        " UNION ALL ".join(
            f"SELECT '{c}' AS col_name, COUNT(DISTINCT {c}) AS d, COUNT(*) AS n "
            f"FROM read_parquet('{li}')"
            for c in cols
        )
        + " ORDER BY col_name"
    ).df()
    assert got["distinct_est"].tolist() == want["d"].tolist()
    assert got["rows_in"].tolist() == want["n"].tolist()


def test_live_sketch_service(ray_session):
    import ray.data as rd

    from rayhll import ray_agg
    from rayhll.core.serde import from_bytes
    from rayhll.state.live import LiveSketchService

    ev = f"{SF}/events.parquet"
    full = rd.read_parquet(ev, columns=["event_type", "user_id"]).to_pandas()
    svc = LiveSketchService(num_shards=3, settings=ray_agg.EXACT_MODE)
    try:
        # stream micro-batches, including a re-delivered (duplicate) chunk
        chunks = [full.iloc[i : i + 300] for i in range(0, len(full), 300)]
        for chunk in chunks + [chunks[0]]:
            svc.update_batch(
                pa.Table.from_pandas(chunk, preserve_index=False),
                "event_type",
                ["user_id"],
            )
        want = full.groupby("event_type")["user_id"].nunique().to_dict()
        for k, v in want.items():
            assert svc.cardinality(k) == v, k
        assert svc.cardinality("no_such_event") == 0
        snap = svc.snapshot()
        assert set(snap.column("key").to_pylist()) == set(want)
        # snapshot sketches are standard storage-spec bytes
        for key, blob in zip(snap.column("key"), snap.column("sketch")):
            assert from_bytes(blob.as_py()).cardinality() == want[key.as_py()]
        assert sum(s["keys"] for s in svc.stats()) == len(want)
    finally:
        svc.shutdown()


def test_live_service_seeded_from_batch_job(ray_session):
    """Batch grouped sketches seed the live service via seed(); live updates
    continue from them — the batch -> live byte-contract handoff."""
    import ray.data as rd

    from rayhll import ray_agg
    from rayhll.state.live import LiveSketchService

    ev = f"{SF}/events.parquet"
    full = rd.read_parquet(ev, columns=["event_type", "user_id"]).to_pandas()
    half = len(full) // 2
    batch_part, live_part = full.iloc[:half], full.iloc[half:]

    ds = rd.from_arrow(pa.Table.from_pandas(batch_part, preserve_index=False))
    batch_out = ray_agg.grouped_approx_distinct(
        ds, ["event_type"], ["user_id"], settings=ray_agg.EXACT_MODE, include_sketch=True
    ).to_pandas()

    svc = LiveSketchService(num_shards=2, settings=ray_agg.EXACT_MODE)
    try:
        for _, row in batch_out.iterrows():
            svc.seed(row["event_type"], bytes(row["sketch"]))
        for i in range(0, len(live_part), 500):
            svc.update_batch(
                pa.Table.from_pandas(live_part.iloc[i : i + 500], preserve_index=False),
                "event_type",
                ["user_id"],
            )
        want = full.groupby("event_type")["user_id"].nunique().to_dict()
        for k, v in want.items():
            assert svc.cardinality(k) == v, k
    finally:
        svc.shutdown()


def test_live_snapshot_bytes_equal_the_batch_merge(ray_session):
    """Micro-batch updates (one chunk re-delivered) plus seeds from a batch
    job leave every key with the bytes the batch grouped merge gives over
    all the rows: keys of EXPLICIT, SPARSE and FULL sketches."""
    import numpy as np
    import ray.data as rd

    from rayhll import ray_agg
    from rayhll.state.live import LiveSketchService

    rng = np.random.default_rng(23)
    sizes = {"a": 40, "b": 200, "c": 300, "d": 3000}
    keys = np.concatenate([np.full(3 * n, k) for k, n in sizes.items()])
    values = np.concatenate([rng.integers(0, n, 3 * n) for n in sizes.values()])
    order = rng.permutation(len(keys))
    table = pa.table({"k": keys[order].tolist(), "v": values[order]})
    half = table.num_rows // 2

    def grouped(rows: pa.Table) -> dict:
        out = ray_agg.grouped_approx_distinct(rd.from_arrow(rows), ["k"], ["v"], include_sketch=True)
        return {row["k"]: row["sketch"] for row in out.take_all()}

    svc = LiveSketchService(num_shards=2)
    try:
        for key, blob in grouped(table.slice(0, half)).items():
            svc.seed(key, blob)
        chunks = [table.slice(i, 700) for i in range(half, table.num_rows, 700)]
        for chunk in chunks + chunks[:1]:
            svc.update_batch(chunk, "k", ["v"])
        snap = svc.snapshot()
        got = dict(zip(snap.column("key").to_pylist(), snap.column("sketch").to_pylist()))
        want = grouped(table)
        assert sorted(b[0] & 0x0F for b in want.values()) == [2, 3, 3, 4]
        assert got == want
    finally:
        svc.shutdown()
