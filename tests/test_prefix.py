"""range_prefix (stages/prefix.py), the two-pass range prefix behind
pack_sequences and shuffle_manifest: a property test against a numpy
exclusive cumsum in (key, id) order, the id contract of both operators
(null and duplicate ids raise), their Ray Data execution counts, and the
typed zero-row output."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings as hsettings
from hypothesis import strategies as st

from rayhll.pipelines.packing import pack_sequences
from rayhll.pipelines.shuffle import shuffle_manifest
from rayhll.stages.prefix import range_prefix


def _with_offsets(tbl: pa.Table, offset: int) -> pa.Table:
    w = tbl.column("w").to_numpy()
    return pa.table(
        {
            "id": tbl.column("id"),
            "key": tbl.column("key"),
            "start": pa.array(offset + np.cumsum(w) - w, type=pa.int64()),
        }
    )


@hsettings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=120),
    string_ids=st.booleans(),
    n_keys=st.sampled_from([1, 2, 5, 1000]),  # few keys: sampled bounds collapse
    blocks=st.integers(min_value=1, max_value=4),
)
def test_range_prefix_is_exclusive_cumsum_in_key_id_order(ray_session, data, n, string_ids, n_keys, blocks):
    perm = data.draw(st.permutations(range(n)))
    ids = [f"doc/{i:04d}" for i in perm] if string_ids else [i * 7 - 300 for i in perm]
    keys = data.draw(st.lists(st.integers(0, n_keys - 1), min_size=n, max_size=n))
    weights = data.draw(st.lists(st.sampled_from([0, 0, 1, 3, 1000]), min_size=n, max_size=n))
    target = data.draw(st.integers(min_value=1, max_value=n))
    max_ranges = data.draw(st.integers(min_value=1, max_value=8))
    table = pa.table(
        {"id": ids, "key": pa.array(keys, type=pa.int64()), "w": pa.array(weights, type=pa.int64())}
    )
    stats: dict = {}
    got = range_prefix(
        rd.from_arrow(table).repartition(blocks), "id", "key", "w", _with_offsets, target, max_ranges, stats
    ).to_pandas()

    order = sorted(range(n), key=lambda i: (keys[i], ids[i]))
    w = np.array(weights, dtype=np.int64)[order]
    want = dict(zip([ids[i] for i in order], (np.cumsum(w) - w).tolist()))
    assert sorted(got["id"]) == sorted(ids)
    assert dict(zip(got["id"], got["start"].tolist())) == want
    assert 1 <= stats["n_ranges"] <= min(max_ranges, n)
    assert sum(stats["range_totals"]) == sum(weights)


def _pack(ds, **kw):
    return pack_sequences(ds, 4, **kw)


def _shuffle(ds, **kw):
    return shuffle_manifest(ds, num_shards=3, **kw)


OPERATORS = [_pack, _shuffle]


@pytest.mark.parametrize("op", OPERATORS)
def test_null_id_raises_on_the_driver(ray_session, op):
    blocks = [
        pa.table({"doc_id": pa.array([1, 2], type=pa.int64()), "text": ["a b", "c"]}),
        pa.table({"doc_id": pa.array([None, 4], type=pa.int64()), "text": ["d", "e f g"]}),
    ]
    with pytest.raises(ValueError, match="'doc_id' has 1 null ids"):
        op(rd.from_arrow(blocks))


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("ids", [[1, 2, 3, 2, 5], ["a", "b", "a"]])
def test_duplicate_id_raises(ray_session, op, ids):
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": ["x y"] * len(ids)})).repartition(2)
    with pytest.raises(ValueError, match="'doc_id' has duplicate ids"):
        op(ds, target_rows_per_range=2).materialize()


@pytest.mark.parametrize(
    "op, kw, calls",
    [
        (_pack, {}, 3),
        (_pack, {"weight_col": "w"}, 3),
        (_shuffle, {}, 3),
    ],
)
def test_execution_count(ray_session, executions, op, kw, calls):
    """Materialize, stats and sums passes on the call; one more to run the
    exchange."""
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(40), type=pa.int64()), "text": ["a b"] * 40, "w": [2] * 40})
    ).repartition(4)
    before = executions[0]
    out = op(ds, target_rows_per_range=10, **kw)
    assert executions[0] - before == calls
    assert out.count() == 40
    assert executions[0] - before == calls + 1


@pytest.mark.parametrize(
    "op, cols",
    [
        (_pack, ["n_tokens", "tok_start", "seq_first", "seq_last"]),
        (_shuffle, ["rank", "shard", "pos"]),
    ],
)
def test_zero_rows_give_typed_empty_columns(ray_session, op, cols):
    empty = rd.from_arrow(
        pa.table({"doc_id": pa.array([], type=pa.int64()), "text": pa.array([], type=pa.string())})
    )
    out = op(empty)
    assert out.count() == 0
    schema = out.schema().base_schema
    assert schema.names == ["doc_id", *cols]
    assert all(schema.field(c).type == pa.int64() for c in cols)


@pytest.mark.parametrize("op", [_pack, _shuffle], ids=["pack", "shuffle"])
@pytest.mark.parametrize("id_type", [pa.int32(), pa.int64(), pa.string()], ids=str)
def test_zero_rows_keep_the_input_id_type(ray_session, op, id_type):
    """Ray keeps no block of an empty projection, so the id type comes
    from the input: here the zero-row block ``from_arrow`` holds."""
    empty = rd.from_arrow(
        pa.table({"doc_id": pa.array([], type=id_type), "text": pa.array([], type=pa.string())})
    )
    assert op(empty).schema().base_schema.field("doc_id").type == id_type
