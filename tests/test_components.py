"""connected_components / keep_representatives: crafted graphs with known
closures, driver == distributed pinned on random graphs vs a BFS
reference, null/self-loop/duplicate-edge hygiene, the keep-representatives
broadcast == join == DuckDB-mirror equivalence, and the guard rails."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from rayhll.pipelines.components import (
    MAX_DRIVER_EDGES,
    connected_components,
    connected_components_checkpointed,
    keep_representatives,
)


def _pairs_ds(edges, repartition=3):
    a = [e[0] for e in edges]
    b = [e[1] for e in edges]
    t = pa.table(
        {"id_a": pa.array(a, type=pa.int64()), "id_b": pa.array(b, type=pa.int64())}
    )
    ds = rd.from_arrow(t)
    return ds.repartition(repartition) if repartition else ds


def _labels(ds):
    df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return dict(zip(df["doc_id"].astype(int), df["cluster_id"].astype(int)))


def _bfs_reference(edges):
    """Plain-python closure: component = min reachable id."""
    adj = {}
    for a, b in edges:
        if a is None or b is None or a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    out, seen = {}, set()
    for start in adj:
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        m = min(comp)
        for u in comp:
            out[u] = m
    return out


CRAFTED = [
    # a chain 1-2-3-4 (transitivity: 3~4 joins 1's cluster through 2,3)
    (1, 2),
    (2, 3),
    (3, 4),
    # a star rooted at 10
    (10, 11),
    (10, 12),
    (10, 13),
    # an isolated pair, with duplicate + reversed-duplicate edges
    (20, 21),
    (21, 20),
    (20, 21),
    # a triangle whose min arrives via the larger ids
    (32, 31),
    (31, 30),
    (32, 30),
]
CRAFTED_WANT = {
    1: 1, 2: 1, 3: 1, 4: 1,
    10: 10, 11: 10, 12: 10, 13: 10,
    20: 20, 21: 20,
    30: 30, 31: 30, 32: 30,
}


@pytest.mark.parametrize("method", ["driver", "distributed"])
def test_crafted_graph(ray_session, method):
    stats = {}
    got = _labels(
        connected_components(_pairs_ds(CRAFTED), method=method, stats_out=stats)
    )
    assert got == CRAFTED_WANT
    assert stats["method"] == method
    if method == "distributed":
        assert stats["rounds"] >= 1


def test_null_and_self_loop_edges_dropped(ray_session):
    t = pa.table(
        {
            "id_a": pa.array([1, 2, None, 5, 7], type=pa.int64()),
            "id_b": pa.array([2, 3, 4, None, 7], type=pa.int64()),
        }
    )
    for method in ("driver", "distributed"):
        got = _labels(connected_components(rd.from_arrow(t), method=method))
        # 4, 5 only touch null edges; 7 only a self-loop -> all absent
        assert got == {1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("shape", ["path", "random", "hub"])
def test_driver_equals_distributed_equals_bfs(ray_session, shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    if shape == "path":
        # worst case for star rounds: one long path
        ids = rng.permutation(400)
        edges = list(zip(ids[:-1].tolist(), ids[1:].tolist()))
    elif shape == "hub":
        # one hot node (skew) + noise
        edges = [(0, int(i)) for i in rng.integers(1, 300, size=500)]
        edges += [(int(a), int(b)) for a, b in rng.integers(300, 400, size=(100, 2))]
    else:
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 500, size=(600, 2))]
    want = _bfs_reference(edges)
    ds = _pairs_ds(edges, repartition=5)
    drv = _labels(connected_components(ds, method="driver"))
    dist = _labels(connected_components(ds, method="distributed", num_buckets=4))
    assert drv == want
    assert dist == want


def test_hot_degree_broadcast_path(ray_session):
    """Force the hot-node broadcast resolution (the giant-component
    bound): a hub of degree 500 with a tiny threshold must route through
    the map-side path and still match BFS exactly."""
    rng = np.random.default_rng(23)
    edges = [(7, int(i)) for i in rng.integers(8, 400, size=500)]
    edges += [(int(a), int(b)) for a, b in rng.integers(400, 500, size=(80, 2))]
    want = _bfs_reference(edges)
    stats = {}
    got = _labels(
        connected_components(
            _pairs_ds(edges, repartition=5),
            method="distributed",
            num_buckets=4,
            hot_degree_threshold=8,
            stats_out=stats,
        )
    )
    assert got == want
    assert stats["hot_nodes"] >= 1
    with pytest.raises(ValueError, match="hot_degree_threshold"):
        connected_components(
            _pairs_ds(edges), method="distributed", hot_degree_threshold=0
        )


def test_auto_method_and_caps(ray_session):
    ds = _pairs_ds(CRAFTED)
    stats = {}
    _labels(connected_components(ds, method="auto", stats_out=stats))
    # metadata count (11 edges) is under the cap -> driver
    assert stats["method"] == "driver"
    stats = {}
    _labels(
        connected_components(ds, method="auto", max_driver_edges=2, stats_out=stats)
    )
    assert stats["method"] == "distributed"
    with pytest.raises(ValueError, match="max_driver_edges"):
        connected_components(ds, method="driver", max_driver_edges=2)
    with pytest.raises(ValueError, match="method="):
        connected_components(ds, method="bogus")
    assert MAX_DRIVER_EDGES >= 1_000_000


def test_empty_pairs(ray_session):
    empty = pa.table(
        {"id_a": pa.array([], type=pa.int64()), "id_b": pa.array([], type=pa.int64())}
    )
    got = connected_components(rd.from_arrow(empty), method="driver").to_pandas()
    assert len(got) == 0


def test_custom_columns(ray_session):
    t = pa.table(
        {"u": pa.array([5, 6], type=pa.int64()), "v": pa.array([6, 7], type=pa.int64())}
    )
    df = connected_components(
        rd.from_arrow(t), left_col="u", right_col="v",
        out_node_col="node", out_comp_col="root", method="driver",
    ).to_pandas()
    assert sorted(df.columns) == ["node", "root"]
    assert dict(zip(df["node"], df["root"])) == {5: 5, 6: 5, 7: 5}


@pytest.mark.parametrize("method", ["broadcast", "join"])
def test_keep_representatives(ray_session, method):
    corpus = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(40)), type=pa.int64()),
                "text": [f"doc {i}" for i in range(40)],
            }
        )
    ).repartition(3)
    comps = connected_components(_pairs_ds(CRAFTED), method="driver")
    kept = (
        keep_representatives(corpus, comps, method=method)
        .to_pandas()
        .sort_values("doc_id")
    )
    dropped = {n for n, c in CRAFTED_WANT.items() if n != c}
    want = [i for i in range(40) if i not in dropped]
    assert kept["doc_id"].tolist() == want
    # dropped-id cap errors loudly on the broadcast path
    if method == "broadcast":
        with pytest.raises(ValueError, match="max_ids"):
            keep_representatives(corpus, comps, method="broadcast", max_ids=1)


def test_keep_representatives_broadcast_rejects_null_ids(ray_session):
    """A null corpus id on the broadcast path raises instead of turning the
    id column float64 (null rows kept silently, ids above 2**53 rounded)."""
    big = 2**53 + 1
    corpus = rd.from_arrow(
        pa.table({"doc_id": pa.array([1, 2, big, None], type=pa.int64())})
    )
    comps = connected_components(_pairs_ds([(1, 2), (big - 1, big)]), method="driver")
    with pytest.raises(Exception, match="null ids"):
        keep_representatives(corpus, comps, method="broadcast").to_pandas()
    non_null = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2, big], type=pa.int64())}))
    kept = keep_representatives(non_null, comps, method="broadcast").to_pandas()
    assert kept["doc_id"].tolist() == [1]


def test_composition_equals_exact_dedup(ray_session):
    """Cross-validation of two INDEPENDENT 'keep one per duplicate group'
    implementations: exact-duplicate pairs -> connected_components ->
    keep_representatives must keep exactly the rows exact_dedup_keep_ids
    keeps (both are min-id semantics; duplicate groups here are cliques,
    so the closure adds nothing — the implementations must agree)."""
    import pandas as pd

    from rayhll.pipelines.dedup import exact_dedup_keep_ids

    rng = np.random.default_rng(31)
    texts = [f"text variant {i}" for i in range(30)]
    rows = [
        {"doc_id": int(i), "text": texts[rng.integers(0, 30)]} for i in range(150)
    ]
    corpus = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)

    # exact-duplicate pairs straight from text equality (driver-side on
    # this tiny corpus; at scale minhash_exact_dup_pairs produces these)
    by_text = {}
    for r in rows:
        by_text.setdefault(r["text"], []).append(r["doc_id"])
    edges = [
        (g[i], g[j])
        for g in by_text.values()
        for i in range(len(g))
        for j in range(i + 1, len(g))
    ]
    comps = connected_components(_pairs_ds(edges), method="driver")
    kept = (
        keep_representatives(corpus, comps, method="broadcast")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want_ids = sorted(
        exact_dedup_keep_ids(corpus, "text", "doc_id").to_pandas()["doc_id"]
    )
    assert kept["doc_id"].tolist() == want_ids
    pd.testing.assert_frame_equal(
        kept,
        pd.DataFrame(rows)
        .loc[lambda d: d["doc_id"].isin(want_ids)]
        .sort_values("doc_id")
        .reset_index(drop=True),
    )


def test_checkpointed_fresh_resume_and_guard(ray_session, tmp_path):
    """Checkpointed CC: fresh run == driver labels; a converged rerun
    returns the stored result without recomputing; a settings change
    under the same out_dir raises."""
    rng = np.random.default_rng(41)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 200, size=(250, 2))]
    ds = _pairs_ds(edges, repartition=4)
    want = _labels(connected_components(ds, method="driver"))

    out = str(tmp_path / "cc")
    stats = {}
    got = _labels(
        connected_components_checkpointed(ds, out, num_buckets=4, stats_out=stats)
    )
    assert got == want
    assert stats["rounds"] >= 1 and stats["resumed_from"] == 0

    stats2 = {}
    again = _labels(
        connected_components_checkpointed(ds, out, num_buckets=4, stats_out=stats2)
    )
    assert again == want
    assert stats2["resumed_from"] == "result"

    with pytest.raises(ValueError, match="different settings"):
        connected_components_checkpointed(ds, out, num_buckets=8)


def test_checkpointed_budget_exhaustion_resumes(ray_session, tmp_path):
    """A run that exhausts max_rounds raises but keeps its rounds; the
    rerun continues from the checkpoint instead of round 0 and lands on
    the same labels."""
    rng = np.random.default_rng(43)
    ids = rng.permutation(120)
    edges = list(zip(ids[:-1].tolist(), ids[1:].tolist()))  # one long path
    ds = _pairs_ds(edges, repartition=5)
    want = _labels(connected_components(ds, method="driver"))

    out = str(tmp_path / "cc_budget")
    with pytest.raises(RuntimeError, match="checkpointed under"):
        connected_components_checkpointed(ds, out, num_buckets=4, max_rounds=1)
    stats = {}
    got = _labels(
        connected_components_checkpointed(
            ds, out, num_buckets=4, max_rounds=40, stats_out=stats
        )
    )
    assert got == want
    assert stats["resumed_from"] >= 1  # continued, not restarted


def test_checkpointed_run_dying_before_round0_claims_nothing(ray_session, tmp_path):
    """A run with an auto-sized fanout that dies before round 0 lands
    records no settings, so a rerun with an explicit num_buckets starts
    fresh instead of failing the settings guard; a rerun without one keeps
    the recorded fanout."""
    import os

    out = str(tmp_path / "cc_early")
    bad = rd.from_arrow(pa.table({"id_a": ["x"], "id_b": ["y"]}))
    with pytest.raises(Exception):
        connected_components_checkpointed(bad, out)
    assert not os.path.exists(os.path.join(out, "cc_manifest.json"))

    ds = _pairs_ds([(1, 2), (2, 3), (5, 6)], repartition=2)
    want = _labels(connected_components(ds, method="driver"))
    assert _labels(connected_components_checkpointed(ds, out, num_buckets=4)) == want
    stats = {}
    assert _labels(connected_components_checkpointed(ds, out, stats_out=stats)) == want
    assert stats["resumed_from"] == "result"


def test_duckdb_recursive_mirror(ray_session):
    """The driver-oracle shape: recursive-CTE closure over the same edge
    table must equal both methods."""
    rng = np.random.default_rng(17)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 120, size=(150, 2)) if a != b]
    con = duckdb.connect()
    con.execute(
        "CREATE TABLE pairs AS SELECT * FROM (VALUES "
        + ",".join(f"({a},{b})" for a, b in edges)
        + ") t(a, b)"
    )
    want = con.execute(
        "WITH RECURSIVE sym AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs), "
        "nodes AS (SELECT DISTINCT a AS n FROM sym), "
        "reach(n, r) AS (SELECT n, n FROM nodes "
        "UNION SELECT s.a, reach.r FROM sym s JOIN reach ON s.b = reach.n) "
        "SELECT n AS doc_id, CAST(MIN(r) AS BIGINT) AS cluster_id "
        "FROM reach GROUP BY n ORDER BY n"
    ).df()
    want_map = dict(zip(want["doc_id"].astype(int), want["cluster_id"].astype(int)))
    ds = _pairs_ds(edges, repartition=4)
    assert _labels(connected_components(ds, method="driver")) == want_map
    assert (
        _labels(connected_components(ds, method="distributed", num_buckets=8))
        == want_map
    )


@pytest.mark.parametrize("method", ["driver", "distributed"])
@pytest.mark.parametrize(
    "ids",
    [pa.array(["7", "8", "9"]), pa.array([1.0, 2.0, 3.0])],
    ids=["string", "integral_float"],
)
def test_non_integer_ids_raise(ray_session, method, ids):
    """Ids that would cast to int64 (``"7"``, ``1.0``) still raise at entry,
    naming the column, instead of coming back as int64 labels."""
    t = pa.table({"id_a": ids, "id_b": ids.take(pa.array([1, 2, 0]))})
    with pytest.raises(ValueError, match="'id_a' must be an integer id column"):
        connected_components(rd.from_arrow(t), method=method).to_pandas()
