"""The global merges — ``stages.build.merge_sketch_rows`` and
``pipelines.distinct.merge_partials_block`` — merge all their rows as one
group of ``core.batchmerge``.  They must give the bytes of the sequential
``HllSketch.union`` fold they replaced, which is kept here as the
reference."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from rayhll.core.serde import from_bytes
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch
from rayhll.pipelines import distinct
from rayhll.stages import build
from tests.test_batchmerge import _members

SETTINGS = {
    "default": HllSettings(11, 5),
    "exact": HllSettings(11, 5, expthresh=18),
    "sparse_off": HllSettings(8, 5, expthresh=4, sparseon=False),
}


def _fold(blobs: list[bytes]) -> bytes:
    """The sequential union of ``blobs`` in row order: each revived with
    ``from_bytes`` and folded into the first."""
    acc = None
    for blob in blobs:
        sk = from_bytes(blob)
        if acc is None:
            acc = sk
        else:
            acc.union(sk)
    return acc.to_bytes()


def _check_one_group_merges(columns: list[list[bytes]]) -> None:
    """``merge_sketch_rows`` of each column, and ``merge_partials_block`` of
    all of them as its three sketch columns, give the fold's bytes."""
    n = len(columns[0])
    rows_in = pa.array(np.arange(n) + 1, type=pa.int64())
    want = [_fold(col) for col in columns]
    for col, blob in zip(columns, want):
        table = pa.table({build.SKETCH_COL: pa.array(col, type=pa.binary()), build.ROWS_COL: rows_in})
        out = build.merge_sketch_rows(table)
        assert out.column(build.SKETCH_COL).to_pylist() == [blob]
        assert out.column(build.ROWS_COL).to_pylist() == [n * (n + 1) // 2]
    table = pa.table(
        {
            **{c: pa.array(col, type=pa.binary()) for c, col in zip(distinct.SKETCH_COLS, columns)},
            "rows_in": rows_in,
        }
    )
    out = distinct.merge_partials_block(table)
    assert [out.column(c).to_pylist()[0] for c in distinct.SKETCH_COLS] == want
    assert out.column("rows_in").to_pylist() == [n * (n + 1) // 2]


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_one_group_merge_matches_the_fold(name):
    """Shuffled EMPTY, EXPLICIT, SPARSE and FULL members (over-threshold
    SPARSE too, where the settings allow one), one to nine per merge."""
    settings = SETTINGS[name]
    rng = np.random.default_rng(17)
    pool = [sk.to_bytes() for _, sk in _members(settings, rng)]
    for trial in range(30):
        k = 1 + trial % 9
        columns = [[pool[i] for i in rng.integers(0, len(pool), size=k)] for _ in distinct.SKETCH_COLS]
        _check_one_group_merges(columns)


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_explicit_union_of_threshold_plus_one_values(name):
    """EXPLICIT members (threshold values, one more value, an EMPTY) whose
    union holds exactly threshold + 1 values, in every row order."""
    settings = SETTINGS[name]
    t = settings.explicit_threshold
    values = np.random.default_rng(3).integers(-(2**63), 2**63 - 1, size=t + 1, dtype=np.int64)
    members = []
    for part in (values[:t], values[t:], values[:0]):
        sk = HllSketch(settings)
        sk.add_batch(part)
        members.append(sk.to_bytes())
    assert [from_bytes(b).get_type().name for b in members] == ["EXPLICIT", "EXPLICIT", "EMPTY"]
    orders = [[0, 1, 2], [1, 0, 2], [2, 1, 0]]
    _check_one_group_merges([[members[i] for i in order] for order in orders])
    union_type = from_bytes(_fold(members)).get_type().name
    assert union_type == ("FULL" if settings.sparse_off else "SPARSE")


@pytest.mark.parametrize("merge", ["merge_sketch_rows", "merge_partials_block"])
def test_one_group_merge_refuses_other_settings(merge):
    """A member of another log2m raises, as the fold's union did."""
    blobs = []
    for log2m in (11, 12):  # EXPLICIT members: the fold checks every type
        sk = HllSketch(HllSettings(log2m, 5))
        sk.add_batch(np.arange(log2m, 20, dtype=np.int64))
        blobs.append(sk.to_bytes())
    with pytest.raises(ValueError, match="union-incompatible"):
        _fold(blobs)
    col = pa.array(blobs, type=pa.binary())
    if merge == "merge_sketch_rows":
        table = pa.table({build.SKETCH_COL: col})
        call = build.merge_sketch_rows
    else:
        table = pa.table({**{c: col for c in distinct.SKETCH_COLS}, "rows_in": [1, 1]})
        call = distinct.merge_partials_block
    with pytest.raises(ValueError, match="union-incompatible"):
        call(table)


def test_zero_rows_merge_to_empty_bytes():
    out = build.merge_sketch_rows(pa.table({build.SKETCH_COL: pa.array([], type=pa.binary())}))
    assert out.to_pylist() == [{build.SKETCH_COL: b"", build.ROWS_COL: 0}]
    empty = {c: pa.array([], type=pa.binary()) for c in distinct.SKETCH_COLS}
    empty = pa.table({**empty, "rows_in": pa.array([], type=pa.int64())})
    out = distinct.merge_partials_block(empty)
    assert out.to_pylist() == [{**{c: b"" for c in distinct.SKETCH_COLS}, "rows_in": 0}]
