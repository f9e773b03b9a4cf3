"""Fanout auto-sizing: metadata-only counting, floors, and result
invariance across the merge's slice count for the grouped sketch paths."""

from __future__ import annotations

import pyarrow as pa
import pytest


def test_resolve_uses_metadata_only(ray_session):
    import ray.data as rd

    from rayhll.functions.partitioning import buckets_for_rows, resolve_num_buckets

    raw = rd.range(10_000_000)
    assert resolve_num_buckets(raw, None) == 64  # 10M/2M = 5 -> floor 64
    big = rd.range(500_000_000)
    assert resolve_num_buckets(big, None) == 256
    # transformed plan: no metadata count -> floor, NEVER executes
    calls = []

    def spy(b: pa.Table) -> pa.Table:
        calls.append(1)
        return b

    transformed = big.map_batches(spy, batch_format="pyarrow")
    assert resolve_num_buckets(transformed, None) == 64
    assert not calls  # sizing did not run the upstream pipeline
    assert resolve_num_buckets(raw, 7) == 7  # explicit wins
    with pytest.raises(ValueError):
        resolve_num_buckets(raw, 0)
    assert buckets_for_rows(1) == 64 and buckets_for_rows(10**12) == 1 << 19


def test_resolve_approx_rows_hint_and_floor_warning(ray_session, caplog):
    """VERDICT r3 item 7: a transformed input (no metadata count) sizes from
    the caller's ``approx_rows`` hint when given, and the silent floor
    fallback now WARNS when neither a hint nor metadata is available."""
    import logging

    import ray.data as rd

    from rayhll.functions.partitioning import buckets_for_rows, resolve_num_buckets

    transformed = rd.range(500_000_000).map_batches(
        lambda b: b, batch_format="pyarrow"
    )
    # hint-driven sizing matches the metadata-driven formula, no warning
    with caplog.at_level(logging.WARNING, logger="rayhll.functions.partitioning"):
        got = resolve_num_buckets(transformed, None, approx_rows=500_000_000)
    assert got == buckets_for_rows(500_000_000) == 256
    assert not caplog.records
    # no hint, no metadata -> floor, with the warning
    with caplog.at_level(logging.WARNING, logger="rayhll.functions.partitioning"):
        assert resolve_num_buckets(transformed, None) == 64
    assert any("approx_rows" in r.message for r in caplog.records)
    # explicit num_buckets still wins over the hint
    assert resolve_num_buckets(transformed, 8, approx_rows=500_000_000) == 8


def test_dedup_pairs_follow_approx_rows_hint(ray_session):
    """The public dedup entry points thread ``approx_rows`` to the fanout
    resolver, and pair sets stay invariant to the resulting bucket count."""
    import ray.data as rd

    from rayhll.pipelines.dedup import minhash_lsh_pairs

    rows = []
    for i in range(30):
        toks = [f"w{i:02d}x{j:02d}" for j in range(40)]
        rows.append({"doc_id": i, "text": " ".join(toks)})
        if i < 5:
            rows.append({"doc_id": 100 + i, "text": " ".join(toks)})
    base = rd.from_arrow(pa.Table.from_pylist(rows))
    transformed = base.map_batches(lambda b: b, batch_format="pyarrow")
    outs = []
    for hint in (None, 300_000_000):  # floor-64 vs hint-driven 8192 fanout
        pairs = (
            minhash_lsh_pairs(
                transformed, "text", "doc_id", threshold=1.0, approx_rows=hint
            )
            .to_pandas()
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        outs.append(pairs)
    assert len(outs[0]) == 5
    assert outs[0].equals(outs[1])


def test_grouped_distinct_invariant_to_fanout(ray_session, monkeypatch):
    """The merge slices by ``ghash % B``, B the CPU count; any B gives the
    same groups and estimates (batches of 700 rows: six producers)."""
    import ray.data as rd

    from rayhll import ray_agg
    from rayhll.stages import build

    t = pa.table(
        {
            "g": pa.array([f"g{i % 7}" for i in range(4000)]),
            "v": pa.array([i % 611 for i in range(4000)]),
        }
    )
    outs = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(build, "avail_cpus", lambda cpus=cpus: cpus)
        df = (
            ray_agg.grouped_approx_distinct(
                rd.from_arrow(t).repartition(6),
                ["g"],
                ["v"],
                settings=ray_agg.EXACT_MODE,
                batch_size=700,
            )
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        outs.append(df)
    assert outs[0].equals(outs[1]) and outs[1].equals(outs[2])
    want = (
        t.to_pandas().groupby("g")["v"].nunique().sort_index().to_numpy()
    )
    assert (outs[0].sort_values("g")["estimate"].to_numpy() == want).all()


def test_flagship_grouped_invariant_to_fanout(ray_session, monkeypatch):
    import ray.data as rd

    from rayhll.pipelines import distinct
    from rayhll.stages import build

    rows = []
    for i in range(900):
        rows.append(
            {
                "repo": f"r{i % 3}",
                "lang": f"l{i % 2}",
                "path": f"p{i}.py",
                "commit": f"c{i % 50}",
                "content": f"content-{i % 400}",
            }
        )
    t = pa.Table.from_pylist(rows)
    outs = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(build, "avail_cpus", lambda cpus=cpus: cpus)
        df = (
            distinct.flagship_grouped(rd.from_arrow(t).repartition(5), batch_size=200)
            .to_pandas()
            .sort_values(["repo", "lang"])
            .reset_index(drop=True)
        )
        outs.append(df)
    assert outs[0].equals(outs[1]) and outs[1].equals(outs[2])


def test_flagship_grouped_floor_fanout_does_not_warn(ray_session, caplog):
    """A transformed input has no metadata count, so flagship_grouped's merge
    fanout falls back to the floor; that merge is combiner-bounded, so the
    fallback must not log the under-split warning."""
    import logging

    import ray.data as rd

    from rayhll.pipelines import distinct

    t = pa.table(
        {
            "repo": ["r0", "r0", "r1", "r1"],
            "lang": ["py", "py", "go", "py"],
            "path": ["a", "b", "c", "d"],
            "commit": ["c0", "c1", "c0", "c1"],
            "content": ["x", "y", "x", "z"],
        }
    )
    transformed = rd.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow")
    with caplog.at_level(logging.WARNING, logger="rayhll.functions.partitioning"):
        out = distinct.flagship_grouped(transformed).to_pandas()
    assert not caplog.records
    assert sorted(out["rows_in"]) == [1, 1, 2]
