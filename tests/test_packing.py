"""pack_sequences (GPT-style concat-and-chunk manifest): exact offsets on
crafted corpora, the two-pass range prefix vs a single range, weight_col
mode, empty-doc null semantics, and the integer-exact DuckDB windowed-sum
mirror the driver oracle uses."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from rayhll.pipelines.packing import pack_sequences


def _manifest(rows, seq_len, **kw):
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    return (
        pack_sequences(ds, seq_len, **kw)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def test_crafted_exact_manifest(ray_session):
    rows = [
        {"doc_id": 1, "text": " ".join(f"a{i}" for i in range(5))},  # 5 tok
        {"doc_id": 2, "text": ""},  # 0 tok
        {"doc_id": 3, "text": " ".join(f"b{i}" for i in range(10))},  # 10 tok
        {"doc_id": 4, "text": "x"},  # 1 tok
    ]
    got = _manifest(rows, seq_len=8)
    assert got["n_tokens"].tolist() == [5, 0, 10, 1]
    assert got["tok_start"].tolist() == [0, 5, 5, 15]
    # doc 3 spans tokens [5, 15) -> sequences 0 and 1; doc 4 token 15 -> seq 1
    assert got["seq_first"].tolist()[0] == 0 and got["seq_last"].tolist()[0] == 0
    assert np.isnan(got["seq_first"][1]) and np.isnan(got["seq_last"][1])
    assert (got["seq_first"][2], got["seq_last"][2]) == (0, 1)
    assert (got["seq_first"][3], got["seq_last"][3]) == (1, 1)


def test_multi_range_equals_single(ray_session):
    rng = np.random.default_rng(3)
    rows = [
        {"doc_id": int(i), "text": " ".join(f"w{rng.integers(100)}" for _ in range(rng.integers(0, 30)))}
        for i in rng.permutation(500)
    ]
    one = _manifest(rows, 64, target_rows_per_range=10**9)
    many = _manifest(rows, 64, target_rows_per_range=20)
    assert one.equals(many)


def test_weight_col_mode(ray_session):
    rows = [{"doc_id": i, "n_tokens_pre": (i * 7) % 13} for i in range(50)]
    got = _manifest(rows, 16, weight_col="n_tokens_pre")
    w = np.array([(i * 7) % 13 for i in range(50)], dtype=np.int64)
    starts = np.cumsum(w) - w
    assert got["tok_start"].tolist() == starts.tolist()
    assert got["n_tokens"].tolist() == w.tolist()


def test_conservation_and_validation(ray_session):
    rows = [
        {"doc_id": i, "text": " ".join("t" for _ in range(i % 9))}
        for i in range(100)
    ]
    got = _manifest(rows, 32, target_rows_per_range=7)
    total = got["n_tokens"].sum()
    assert (got["tok_start"] + got["n_tokens"]).max() == total
    # tok_starts are exactly the exclusive prefix sums in id order
    assert got["tok_start"].tolist() == (
        got["n_tokens"].cumsum() - got["n_tokens"]
    ).tolist()
    with pytest.raises(ValueError, match="seq_len"):
        pack_sequences(rd.from_items([{"doc_id": 1, "text": "x"}]), 0)


def test_negative_weight_raises(ray_session):
    """One negative weight would shift every later tok_start: refused."""
    rows = [{"doc_id": i, "w": w} for i, w in enumerate([3, -1, 4])]
    with pytest.raises(ValueError, match="weight_col 'w'"):
        _manifest(rows, 4, weight_col="w")


def test_duckdb_mirror(ray_session):
    rng = np.random.default_rng(9)
    rows = [
        {
            "doc_id": int(i),
            "text": " ".join(f"w{rng.integers(50)}" for _ in range(rng.integers(0, 40))),
        }
        for i in range(300)
    ]
    sql = """
    WITH s AS (SELECT doc_id, CAST(length(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_tokens FROM documents),
    w AS (SELECT doc_id, n_tokens, SUM(n_tokens) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING) - n_tokens AS tok_start FROM s)
    SELECT doc_id, n_tokens, CAST(tok_start AS BIGINT) AS tok_start,
      CASE WHEN n_tokens > 0 THEN tok_start // 128 END AS seq_first,
      CASE WHEN n_tokens > 0 THEN (tok_start + n_tokens - 1) // 128 END AS seq_last
    FROM w ORDER BY doc_id
    """
    con = duckdb.connect()
    con.register("documents", pa.Table.from_pylist(rows))
    want = con.execute(sql).df()
    got = _manifest(rows, 128, target_rows_per_range=37)
    for c in want.columns:
        a, b = got[c].to_numpy(), want[c].to_numpy()
        assert ((a == b) | (np.isnan(a.astype(float)) & np.isnan(b.astype(float)))).all(), c
