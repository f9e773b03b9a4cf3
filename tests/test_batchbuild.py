"""build_grouped_sketches must be byte-identical to per-group HllSketch."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from rayhll.core.batchbuild import build_grouped_sketches
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch


@pytest.mark.parametrize("expthresh", [-1, 0, 4, 18])
def test_grouped_bytes_match_individual_sketches(expthresh):
    settings = HllSettings(11, 5, expthresh=expthresh)
    rng = np.random.default_rng(5)
    n = 30_000
    codes = rng.integers(0, 300, size=n, dtype=np.int64)
    # mix of tiny groups and one huge skewed group that crosses thresholds
    codes[: n // 2] = 7
    raws = rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64)
    # inject duplicates
    raws[1::10] = raws[0::10]

    uniq, first_idx, counts, sketches = build_grouped_sketches(settings, codes, raws)
    assert list(uniq) == sorted(set(codes.tolist()))
    assert counts.sum() == n
    for code, fi, cnt, blob in zip(uniq, first_idx, counts, sketches):
        mask = codes == code
        assert codes[fi] == code
        assert fi == int(np.flatnonzero(mask)[0])
        assert cnt == int(mask.sum())
        ref = HllSketch(settings)
        ref.add_batch(raws[mask])
        assert blob == ref.to_bytes(), code


def test_grouped_single_group():
    settings = HllSettings(11, 5)
    raws = np.arange(100, dtype=np.int64) * 7919
    uniq, first_idx, counts, sketches = build_grouped_sketches(
        settings, np.zeros(100, dtype=np.int64), raws
    )
    ref = HllSketch(settings)
    ref.add_batch(raws)
    assert len(sketches) == 1 and sketches[0] == ref.to_bytes()


def _assert_matches_individual(settings, codes, raws, valid=None):
    """Every output of build_grouped_sketches equals a per-group HllSketch
    built from that group's (valid) rows; group stats cover ALL rows."""
    uniq, first_idx, counts, sketches = build_grouped_sketches(settings, codes, raws, valid)
    order = np.argsort(codes, kind="stable")
    want_uniq, starts = np.unique(codes[order], return_index=True)
    np.testing.assert_array_equal(uniq, want_uniq)
    assert uniq.dtype == codes.dtype
    assert first_idx.dtype == counts.dtype == np.int64
    np.testing.assert_array_equal(first_idx, order[starts])
    np.testing.assert_array_equal(counts, np.diff(np.r_[starts, len(codes)]))
    assert len(sketches) == len(uniq)
    for rows, blob in zip(np.split(order, starts[1:]), sketches):
        if valid is not None:
            rows = rows[valid[rows]]
        ref = HllSketch(settings)
        ref.add_batch(raws[rows])
        assert blob == ref.to_bytes()


@pytest.mark.parametrize("expthresh", [-1, 0, 18])
def test_grouped_full_int64_range_codes(expthresh):
    # ghash-like codes: the whole signed range, negatives and both extremes
    settings = HllSettings(11, 5, expthresh=expthresh)
    rng = np.random.default_rng(11)
    n = 21_000
    pool = rng.integers(-(2**63), 2**63 - 1, size=500, dtype=np.int64, endpoint=True)
    pool[:4] = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0]
    codes = pool[rng.integers(0, len(pool), size=n)]
    codes[: n // 3] = np.iinfo(np.int64).min  # one group crosses every threshold
    raws = rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64)
    raws[1::7] = raws[0::7]
    _assert_matches_individual(settings, codes, raws)


def test_grouped_more_than_65536_groups():
    # past 65,536 groups the dense ids no longer fit uint16
    settings = HllSettings(11, 5)
    rng = np.random.default_rng(13)
    ngroups = 70_000
    codes = np.concatenate(
        [np.arange(ngroups, dtype=np.int64) * -104_729, rng.integers(-(2**40), 2**40, 30_000)]
    )
    codes = codes[rng.permutation(len(codes))]
    raws = rng.integers(-(2**63), 2**63 - 1, size=len(codes), dtype=np.int64)
    raws[::5] = 42  # the same value in many groups
    assert len(np.unique(codes)) > 1 << 16
    _assert_matches_individual(settings, codes, raws)


def test_grouped_valid_mask():
    settings = HllSettings(11, 5, expthresh=4)
    rng = np.random.default_rng(17)
    n = 5_000
    codes = rng.integers(-50, 50, size=n, dtype=np.int64) * (2**55)
    codes[:2000] = 3
    raws = rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64)
    valid = rng.random(n) < 0.7
    valid[codes == codes[-1]] = False  # a group with no valid rows: EMPTY
    _assert_matches_individual(settings, codes, raws, valid)
    _assert_matches_individual(settings, codes, raws, np.zeros(n, dtype=bool))
    _assert_matches_individual(settings, codes, raws, np.ones(n, dtype=bool))


def test_grouped_zero_rows():
    empty = np.empty(0, dtype=np.int64)
    for valid in (None, np.empty(0, dtype=bool)):
        uniq, first_idx, counts, sketches = build_grouped_sketches(
            HllSettings(11, 5), empty, empty, valid
        )
        assert len(uniq) == len(first_idx) == len(counts) == 0
        assert sketches == []


def _code_table(rows: int):
    cols = ("repo", "path", "commit", "lang", "content")
    return pa.table(
        {c: pa.array([f"{c}{i % 3}" for i in range(rows)], type=pa.large_string()) for c in cols}
    )


def test_grouped_callables_zero_row_batch():
    from rayhll.pipelines.distinct import HashStage, MultiKeyBuild
    from rayhll.stages.build import BuildPartials

    for stage, prep in (
        (BuildPartials(["path"], ["repo"]), lambda t: t),
        (MultiKeyBuild(grouped=True), HashStage()),
        (MultiKeyBuild(grouped=True), lambda t: t),
    ):
        full = stage(prep(_code_table(6)))
        out = stage(prep(_code_table(0)))
        assert full.num_rows == 3
        assert out.num_rows == 0
        assert out.schema == full.schema


def test_grouped_crossing_on_the_last_value():
    """With explicit 64 >= sparse 16, a group of exactly 65 distinct values
    crosses on its last sorted value and stays SPARSE over its threshold, as
    a fresh HllSketch adding those values does; one more value makes it
    FULL.  Groups below the threshold stay EXPLICIT."""
    settings = HllSettings.for_testing(8, 5, 64, 16)
    rng = np.random.default_rng(9)
    sizes = [1, 63, 64, 65, 66, 300]
    codes = np.repeat(np.arange(len(sizes)), sizes)
    raws = rng.integers(-(2**63), 2**63 - 1, size=len(codes), dtype=np.int64)
    order = rng.permutation(len(codes))
    _, _, _, blobs = build_grouped_sketches(settings, codes[order], raws[order])
    types = []
    for g, blob in enumerate(blobs):
        ref = HllSketch(settings)
        ref.add_batch(np.unique(raws[codes == g]))
        assert blob == ref.to_bytes(), sizes[g]
        types.append(ref.get_type().name)
    assert types == ["EXPLICIT", "EXPLICIT", "EXPLICIT", "SPARSE", "FULL", "FULL"]


@pytest.mark.parametrize("chunk_rows", [None, 3])
@pytest.mark.parametrize("masked", [False, True])
def test_grouped_columns_match_one_build_per_column(chunk_rows, masked, monkeypatch):
    """build_grouped_columns groups once and builds every column as
    build_grouped_column builds it alone: EXPLICIT, over-threshold SPARSE
    and FULL groups, under a valid mask, in one or several register-matrix
    chunks."""
    from rayhll.core import batchbuild

    settings = HllSettings(11, 5)
    if chunk_rows:  # several register-matrix chunks
        monkeypatch.setattr(batchbuild, "MATRIX_CHUNK_BYTES", chunk_rows * settings.m)
    rng = np.random.default_rng(23)
    n = 20_000
    codes = rng.integers(-20, 20, size=n, dtype=np.int64) * (2**50)
    codes[:8000] = 7  # one group FULL in the first column
    codes[-200:] = np.repeat(np.arange(10, dtype=np.int64) + 3, 20)  # EXPLICIT groups
    raws = [
        rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64),  # most groups cross
        rng.integers(0, 60, size=n, dtype=np.int64),  # every group EXPLICIT
        rng.integers(0, 400, size=n, dtype=np.int64) * 7919,
    ]
    valid = None
    if masked:
        valid = rng.random(n) < 0.7
        valid[codes == codes[-1]] = False  # a group with no valid rows: EMPTY
    uniq, first_idx, counts, cols = batchbuild.build_grouped_columns(settings, codes, raws, valid)
    assert len(cols) == len(raws)
    for values, col in zip(raws, cols):
        want = batchbuild.build_grouped_column(settings, codes, values, valid)
        np.testing.assert_array_equal(uniq, want[0])
        np.testing.assert_array_equal(first_idx, want[1])
        np.testing.assert_array_equal(counts, want[2])
        assert col.equals(want[3])
    types = {b[0] & 0x0F for b in batchbuild.blob_list(cols[0])}
    assert {2, 3, 4} <= types  # EXPLICIT, SPARSE and FULL rows


def test_grouped_columns_zero_rows():
    from rayhll.core.batchbuild import build_grouped_columns

    empty = np.empty(0, dtype=np.int64)
    for valid in (None, np.empty(0, dtype=bool)):
        uniq, first_idx, counts, cols = build_grouped_columns(
            HllSettings(11, 5), empty, [empty, empty, empty], valid
        )
        assert len(uniq) == len(first_idx) == len(counts) == 0
        assert [len(c) for c in cols] == [0, 0, 0]
        assert all(c.type == pa.binary() for c in cols)
