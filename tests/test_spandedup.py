"""duplicate_spans (exact cross-document duplicate-span detection):
crafted-corpus exactness for both engine shapes (broadcast membership vs
fused positions join), span merge laws (abutting windows merge, gaps
split), min_docs semantics, sharded-broadcast equality, the broadcast cap
contract, and the DuckDB gaps-and-islands mirror the driver oracle uses."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from rayhll.pipelines.spandedup import _merge_spans, duplicate_spans

GRAM = 8


def _spans(ds, **kw):
    df = duplicate_spans(ds, gram=GRAM, **kw).to_pandas()
    return sorted(map(tuple, df[["doc_id", "span_start", "span_end"]].values))


def _corpus(rows):
    return rd.from_arrow(pa.Table.from_pylist(rows)).repartition(3)


SHARED = " ".join(f"tok{i}" for i in range(12))


@pytest.mark.parametrize("method", ["broadcast", "join"])
def test_crafted_exact_spans(ray_session, method):
    ds = _corpus(
        [
            {"doc_id": 1, "text": "alpha beta " + SHARED + " gamma delta"},
            {"doc_id": 2, "text": "one two three four five six seven eight " + SHARED},
            {"doc_id": 3, "text": " ".join(f"uniq{i}" for i in range(30))},
            # a gram repeated only WITHIN one document is not cross-doc dup
            {"doc_id": 4, "text": " ".join(f"rep{i % 8}" for i in range(32))},
        ]
    )
    assert _spans(ds, method=method) == [(1, 2, 14), (2, 8, 20)]


@pytest.mark.parametrize("method", ["broadcast", "join"])
def test_span_merge_gap_vs_abut(ray_session, method):
    """Two shared runs separated by one unique token stay two spans (gap
    of gram+1 positions); with no separator they merge into one."""
    run_a = " ".join(f"aa{i}" for i in range(10))
    run_b = " ".join(f"bb{i}" for i in range(10))
    ds = _corpus(
        [
            {"doc_id": 1, "text": run_a + " SEPONE " + run_b},
            {"doc_id": 2, "text": run_a + " " + run_b},
            {"doc_id": 3, "text": run_a + " SEPTHREE " + run_b},
        ]
    )
    got = _spans(ds, method=method)
    # docs 1/3: marked positions {0,1,2} (run_a) and {11,12,13} (run_b) —
    # gap 11-2 = 9 > gram -> two spans; doc 2 has run_b at token 10 (no
    # separator): marked {0,1,2} and {10,11,12}, gap 10-2 = 8 == gram ->
    # abutting windows MERGE into one span (straddling grams are unique
    # per doc, so none of them mark)
    assert got == [
        (1, 0, 10),
        (1, 11, 21),
        (2, 0, 20),
        (3, 0, 10),
        (3, 11, 21),
    ]


@pytest.mark.parametrize("method", ["broadcast", "join"])
def test_min_docs(ray_session, method):
    pair = " ".join(f"p{i}" for i in range(9))
    trio = " ".join(f"t{i}" for i in range(9))
    rows = [
        {"doc_id": 1, "text": pair + " x1 " + trio},
        {"doc_id": 2, "text": pair + " x2 " + trio},
        {"doc_id": 3, "text": "y0 y1 y2 y3 y4 y5 y6 y7 " + trio},
    ]
    got = _spans(_corpus(rows), method=method, min_docs=3)
    # only the trio-shared run survives min_docs=3 (pair is in 2 docs);
    # trio = 9 tokens at 10..18 (docs 1/2) and 8..16 (doc 3) -> windows
    # start at {10,11} / {8,9}
    assert got == [(1, 10, 19), (2, 10, 19), (3, 8, 17)]
    with pytest.raises(ValueError, match="min_docs"):
        duplicate_spans(_corpus(rows), min_docs=1)


def _template_corpus(n=400, seed=11):
    rng = np.random.default_rng(seed)
    temps = [
        " ".join(f"sent{t}w{i}" for i in range(rng.integers(9, 15)))
        for t in range(12)
    ]
    rows = []
    for d in range(n):
        parts = [temps[t] for t in rng.choice(12, size=rng.integers(1, 4))]
        parts.append(" ".join(f"d{d}u{i}" for i in range(rng.integers(0, 12))))
        rng.shuffle(parts)
        rows.append({"doc_id": d, "text": " ".join(parts)})
    return rows


def test_methods_and_sharding_agree(ray_session):
    ds = _corpus(_template_corpus())
    base = _spans(ds, method="broadcast")
    assert len(base) > 50  # templates genuinely collide
    assert _spans(ds, method="join") == base
    assert _spans(ds, method="broadcast", num_shards=4) == base
    assert _spans(ds, method="join", num_buckets=7) == base


@pytest.mark.parametrize("method", ["broadcast", "join"])
def test_string_ids_rejected_at_entry(ray_session, method):
    """One id contract for both methods: integer ids, checked up front."""
    ds = _corpus([{"doc_id": f"d{i}", "text": SHARED} for i in range(3)])
    with pytest.raises(ValueError, match="'doc_id' must be an integer"):
        duplicate_spans(ds, gram=GRAM, method=method)


def test_broadcast_cap_raises(ray_session):
    ds = _corpus(_template_corpus(60))
    with pytest.raises(ValueError, match="method='join'"):
        duplicate_spans(ds, gram=GRAM, method="broadcast", max_broadcast_grams=2)


def test_duckdb_mirror(ray_session):
    """The driver oracle's gaps-and-islands SQL reproduces the span set."""
    rows = _template_corpus(200, seed=23)
    sql = f"""
    WITH toks AS (SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS t FROM documents),
    grams AS (SELECT doc_id,
      unnest(list_transform(range(1, len(t) - {GRAM} + 2),
                            i -> array_to_string(t[i:i+{GRAM - 1}], chr(31)))) AS g,
      unnest(range(1, len(t) - {GRAM} + 2)) AS i
      FROM toks WHERE len(t) >= {GRAM}),
    dup AS (SELECT g FROM grams GROUP BY g HAVING COUNT(DISTINCT doc_id) >= 2),
    marked AS (SELECT doc_id, i - 1 AS p FROM grams WHERE g IN (SELECT g FROM dup)),
    brk AS (SELECT doc_id, p, CASE WHEN p - lag(p) OVER (PARTITION BY doc_id ORDER BY p)
            <= {GRAM} THEN 0 ELSE 1 END AS b FROM marked),
    isl AS (SELECT doc_id, p, SUM(b) OVER (PARTITION BY doc_id ORDER BY p) AS island FROM brk)
    SELECT doc_id, CAST(MIN(p) AS BIGINT) AS span_start,
           CAST(MAX(p) + {GRAM} AS BIGINT) AS span_end
    FROM isl GROUP BY doc_id, island
    """
    con = duckdb.connect()
    con.register("documents", pa.Table.from_pylist(rows))
    want = sorted(map(tuple, con.execute(sql).df().values))
    got = _spans(_corpus(rows), method="join")
    assert got == want and len(got) > 50


def test_short_and_null_texts(ray_session):
    ds = _corpus(
        [
            {"doc_id": 1, "text": None},
            {"doc_id": 2, "text": "too short"},
            {"doc_id": 3, "text": SHARED},
            {"doc_id": 4, "text": SHARED},
        ]
    )
    assert _spans(ds, method="join") == [(3, 0, 12), (4, 0, 12)]


def test_cut_spans_exact_splice(ray_session):
    """cut_spans removes exactly the span tokens plus the trailing
    inter-token gap; docs without spans (incl. null) pass byte-identical."""
    from rayhll.pipelines.spandedup import cut_spans, duplicate_spans

    ds = _corpus(
        [
            {"doc_id": 1, "text": "alpha beta " + SHARED + " gamma delta"},
            {"doc_id": 2, "text": "one two three four five six seven eight " + SHARED},
            {"doc_id": 3, "text": "untouched  doc   with-weird spacing"},
            {"doc_id": 4, "text": None},
        ]
    )
    spans = duplicate_spans(ds, gram=GRAM)
    out = (
        cut_spans(ds, spans)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # doc 1: tokens [2,14) cut -> "alpha beta " + "gamma delta"
    assert out.loc[1, "text"] == "alpha beta gamma delta"
    assert out.loc[1, "n_cut_tokens"] == 12
    # doc 2's span reaches the last token: cut to that token's end
    assert out.loc[2, "text"] == "one two three four five six seven eight "
    assert out.loc[2, "n_cut_tokens"] == 12
    assert out.loc[3, "text"] == "untouched  doc   with-weird spacing"
    assert out.loc[4, "text"] is None or pd_isna(out.loc[4, "text"])
    assert out.loc[3, "n_cut_tokens"] == 0 and out.loc[4, "n_cut_tokens"] == 0


def pd_isna(v):
    import pandas as pd

    return pd.isna(v)


def test_cut_spans_multiple_and_rerun_clean(ray_session):
    """Multiple spans per doc splice independently, and re-running
    duplicate_spans on the cut corpus finds nothing (guarded runs)."""
    from rayhll.pipelines.spandedup import cut_spans, duplicate_spans

    run_a = " ".join(f"aa{i}" for i in range(10))
    run_b = " ".join(f"bb{i}" for i in range(10))
    rows = [
        {"doc_id": 1, "text": run_a + " SEPONE " + run_b + " tailone"},
        {"doc_id": 3, "text": run_a + " SEPTHREE " + run_b + " tailthree"},
    ]
    ds = _corpus(rows)
    spans = duplicate_spans(ds, gram=GRAM)
    out = cut_spans(ds, spans).to_pandas().set_index("doc_id").sort_index()
    assert out.loc[1, "text"] == "SEPONE tailone"
    assert out.loc[3, "text"] == "SEPTHREE tailthree"
    assert out.loc[1, "n_cut_tokens"] == 20
    cut_ds = _corpus(
        [{"doc_id": int(i), "text": t} for i, t in out["text"].items()]
    )
    assert len(duplicate_spans(cut_ds, gram=GRAM).to_pandas()) == 0


def test_cut_spans_cap_raises(ray_session):
    from rayhll.pipelines.spandedup import cut_spans, duplicate_spans

    ds = _corpus(_template_corpus(100))
    spans = duplicate_spans(ds, gram=GRAM)
    with pytest.raises(ValueError, match="max_broadcast_spans"):
        cut_spans(ds, spans, max_broadcast_spans=1).to_pandas()


def test_merge_spans_kernel():
    doc = np.array([1, 1, 1, 1, 2], dtype=np.int64)
    pos = np.array([0, 3, 20, 28, 5], dtype=np.int64)
    d, s, e = _merge_spans(doc, pos, 8)
    # 0->3 merges (gap 3), 3->20 splits (gap 17), 20->28 abuts (gap == 8)
    assert list(zip(d, s, e)) == [(1, 0, 11), (1, 20, 36), (2, 5, 13)]
    d, s, e = _merge_spans(np.empty(0, np.int64), np.empty(0, np.int64), 8)
    assert len(d) == 0


@pytest.mark.parametrize("method", ["broadcast", "join"])
def test_id_check_behind_a_filter(ray_session, executions, method):
    """A filtered input's id type is checked in the first map: no execution
    to fetch its schema, and a float id still raises."""
    from tests.conftest import _executions_of

    rows = _template_corpus(60)
    got = []

    def run(ds):
        return lambda: got.append(_spans(ds, method=method))

    table = pa.Table.from_pylist(rows)
    filtered = rd.from_arrow(table).filter(lambda row: row["doc_id"] >= 0)
    assert _executions_of(executions, run(filtered)) == _executions_of(executions, run(rd.from_arrow(table)))
    assert got[0] == got[1]
    floats = rd.from_arrow(pa.Table.from_pylist([{"doc_id": float(i), "text": SHARED} for i in range(3)]))
    # raised in a Ray task: the driver sees the ValueError wrapped
    with pytest.raises(Exception, match="ValueError: duplicate_spans: 'doc_id' must be an integer"):
        _spans(floats.filter(lambda row: True), method=method)
