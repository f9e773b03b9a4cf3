"""merge_grouped_blobs must equal per-group sequential HllSketch.union."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from rayhll.core.batchmerge import cardinalities, merge_grouped_blobs
from rayhll.core.hlltype import HllType
from rayhll.core.serde import from_bytes
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch


def _make_blob(settings, values):
    sk = HllSketch(settings)
    if len(values):
        sk.add_batch(np.asarray(values, dtype=np.int64))
    return sk.to_bytes()


@pytest.mark.parametrize("expthresh", [-1, 4, 18])
@pytest.mark.parametrize("as_arrow", [True, False])
def test_merge_matches_sequential_union(expthresh, as_arrow):
    settings = HllSettings(11, 5, expthresh=expthresh)
    rng = np.random.default_rng(11)
    codes, blobs, streams = [], [], {}
    for g in range(40):
        n_parts = int(rng.integers(1, 6))
        for _ in range(n_parts):
            # sizes spanning EXPLICIT through FULL
            n = int(rng.integers(1, 40 if g % 3 else 3000))
            vals = rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64)
            codes.append(g)
            blobs.append(_make_blob(settings, vals))
            streams.setdefault(g, []).append(vals)
    codes = np.array(codes, dtype=np.int64)
    col = pa.array(blobs, type=pa.binary()) if as_arrow else blobs

    uniq, first_idx, merged = merge_grouped_blobs(settings, codes, col)
    assert list(uniq) == sorted(streams)
    for g, blob in zip(uniq.tolist(), merged):
        acc = None
        for vals in streams[g]:
            part = HllSketch(settings)
            part.add_batch(vals)
            if acc is None:
                acc = part
            else:
                acc.union(part)
        assert blob == acc.to_bytes(), g
        assert cardinalities(settings, [blob]).tolist() == [acc.cardinality()]


def test_merge_with_empty_blobs():
    settings = HllSettings(11, 5)
    blobs = [
        _make_blob(settings, []),
        _make_blob(settings, [1, 2, 3]),
        _make_blob(settings, []),
    ]
    codes = np.array([0, 0, 1], dtype=np.int64)
    uniq, _, merged = merge_grouped_blobs(settings, codes, blobs)
    assert from_bytes(merged[0]).cardinality() == 3
    assert from_bytes(merged[1]).cardinality() == 0


def test_merge_sliced_arrow_column():
    settings = HllSettings(11, 5)
    blobs = [_make_blob(settings, [i, i + 1]) for i in range(10)]
    col = pa.array(blobs, type=pa.binary()).slice(4, 6)
    codes = np.zeros(6, dtype=np.int64)
    _, _, merged = merge_grouped_blobs(settings, codes, col)
    acc = HllSketch(settings)
    acc.add_batch(np.arange(4, 11, dtype=np.int64))
    assert merged[0] == acc.to_bytes()


# ----------------------------------------------------------------------
# members of every type, in any row order


def _members(settings, rng):
    """(kind, sketch) pairs: EMPTY, EXPLICIT, SPARSE (one over its threshold,
    from the last-element crossing), and FULL."""

    def sketch(n):
        sk = HllSketch(settings)
        if n:
            sk.add_batch(rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64))
        return sk

    t = settings.explicit_threshold
    out = [("empty", sketch(0)), ("explicit", sketch(3)), ("explicit", sketch(t))]
    out += [("sparse", sketch(t + 2)), ("full", sketch(8 * settings.m))]
    thin = HllSketch(settings, HllType.FULL)  # FULL with few registers set
    thin.add_batch(np.arange(1, 4, dtype=np.int64) << 20)
    out.append(("thin_full", thin))
    while not settings.sparse_off and t >= settings.sparse_threshold:
        sk = sketch(t + 1)  # crosses on its last value: no SPARSE check
        if sk._nnz > settings.sparse_threshold:
            assert sk.get_type().name == "SPARSE"
            return out + [("overfull", sk)]
    return out


SETTINGS = {
    "default": HllSettings(11, 5),
    "exact": HllSettings(11, 5, expthresh=18),
    # explicit 64 >= sparse 16: an EXPLICIT -> SPARSE crossing can leave
    # SPARSE over its threshold
    "for_testing": HllSettings.for_testing(8, 5, 64, 16),
    "sparse_off": HllSettings(8, 5, expthresh=4, sparseon=False),
}


def _sequential(settings, sketches):
    acc = sketches[0].copy()
    for sk in sketches[1:]:
        acc.union(sk.copy())
    return acc


@pytest.mark.parametrize("chunk_rows", [None, 3])
@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_mixed_members_match_sequential_union(name, chunk_rows, monkeypatch):
    from rayhll.core import batchbuild

    settings = SETTINGS[name]
    if chunk_rows:  # several register-matrix chunks
        monkeypatch.setattr(batchbuild, "MATRIX_CHUNK_BYTES", chunk_rows * settings.m)
    rng = np.random.default_rng(7)
    if name == "exact":  # EXPLICIT members only: a FULL one would need 131k values
        pool = [("empty", HllSketch(settings))]
        for n in (1, 50, 5000):
            sk = HllSketch(settings)
            sk.add_batch(rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64))
            pool.append(("explicit", sk))
    else:
        pool = _members(settings, rng)
    groups = {}
    for g in range(60):
        k = int(rng.integers(1, 6))
        groups[g] = [pool[i][1] for i in rng.integers(0, len(pool), size=k)]
    # EXPLICIT members whose union crosses the threshold, by more than one
    t = settings.explicit_threshold
    for g in range(60, 64):
        vals = rng.integers(-(2**63), 2**63 - 1, size=t + 2 + g, dtype=np.int64)
        parts = []
        for part in np.array_split(vals, 3):
            sk = HllSketch(settings)
            sk.add_batch(part)
            parts.append(sk)
        groups[g] = parts
    rows = [(g, sk) for g, sks in groups.items() for sk in sks]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    codes = np.array([g for g, _ in rows], dtype=np.int64)
    col = pa.array([sk.to_bytes() for _, sk in rows], type=pa.binary())

    uniq, first_idx, merged = merge_grouped_blobs(settings, codes, col)
    assert uniq.tolist() == sorted(groups)
    want = []
    for g, blob in zip(uniq.tolist(), merged):
        members = [sk for gg, sk in rows if gg == g]  # in row order
        acc = _sequential(settings, members)
        assert blob == acc.to_bytes(), (name, g, [sk.get_type().name for sk in members])
        want.append(acc.cardinality())
    assert cardinalities(settings, merged).tolist() == want


def test_merge_without_constructing_a_sketch(monkeypatch):
    """The seed-601 benchmark corpus builds and merges with no HllSketch:
    no group falls back to the union loop."""
    from rayhll.core import batchbuild
    from rayhll.pipelines import distinct
    from rayhll.sources.synth import synth_code_batch
    from rayhll.stages import build

    files, rows = 8, 32768  # perfbench's corpus shape
    table = synth_code_batch(np.arange(files * rows), files * rows, seed=601)

    def refuse(self, *args, **kwargs):
        raise AssertionError("HllSketch constructed")

    monkeypatch.setattr(HllSketch, "__init__", refuse)
    builder = distinct.MultiKeyBuild(HllSettings(11, 5), grouped=True)
    partials = pa.concat_tables([builder(table.slice(i * rows, rows)) for i in range(files)])
    merger = build.make_bucket_merger(
        list(distinct.GROUP_COLS), list(distinct.SKETCH_COLS), list(distinct.EST_COLS)
    )
    out = merger(partials)
    assert out.num_rows == len(np.unique(partials.column(build.GHASH_COL).to_numpy()))
    types = [b[0] & 0x0F for b in out.column(distinct.SKETCH_COLS[0]).to_pylist()]
    # the register matrix ran: some merged groups are probabilistic
    assert types.count(int(HllType.SPARSE)) + types.count(int(HllType.FULL)) > 100
    assert batchbuild.MATRIX_CHUNK_BYTES  # a module constant, not a setting


def test_cardinalities_of_high_registers():
    """A register above 53 - log2m makes the indicator sum inexact in
    float64; such rows are estimated as HllSketch.cardinality does."""
    settings = HllSettings(11, 6, expthresh=1)
    high = np.array([(1 << (49 + 11)) | 5, 123456789, 987654321], dtype=np.int64)
    blobs = []
    for n in (3, 4000):
        sk = HllSketch(settings)
        sk.add_batch(np.concatenate([high, np.arange(1, n, dtype=np.int64) * 7919]))
        blobs.append(sk.to_bytes())
    want = [from_bytes(b).cardinality() for b in blobs]
    assert [from_bytes(b).get_type().name for b in blobs] == ["SPARSE", "FULL"]
    assert cardinalities(settings, blobs).tolist() == want


def test_merge_groups_of_empty_members_out_of_order():
    """Groups with no content keep their first member's type, whatever the
    order of those first members in the column."""
    settings = HllSettings(11, 5)
    empty = HllSketch(settings).to_bytes()
    wordless = HllSketch(settings, HllType.EXPLICIT).to_bytes()
    codes = np.array([1, 0, 0, 1], dtype=np.int64)
    _, first_idx, merged = merge_grouped_blobs(settings, codes, [empty, wordless, empty, wordless])
    assert first_idx.tolist() == [1, 0]
    assert merged == [wordless, empty]
    assert cardinalities(settings, merged).tolist() == [0, 0]


def test_merge_and_estimate_zero_rows():
    settings = HllSettings(11, 5)
    uniq, first_idx, merged = merge_grouped_blobs(settings, np.empty(0, dtype=np.int64), [])
    assert (len(uniq), len(first_idx), merged) == (0, 0, [])
    assert cardinalities(settings, []).tolist() == []


@pytest.mark.parametrize("chunk_rows", [None, 3])
def test_merge_grouped_columns_match_one_merge_per_column(chunk_rows, monkeypatch):
    """merge_grouped_columns groups the rows once and merges every column,
    each under its own settings, as merge_grouped_column merges it alone."""
    from rayhll.core import batchbuild
    from rayhll.core.batchmerge import merge_grouped_column, merge_grouped_columns

    if chunk_rows:
        monkeypatch.setattr(batchbuild, "MATRIX_CHUNK_BYTES", chunk_rows * 2048)
    rng = np.random.default_rng(29)
    settings = [SETTINGS["default"], SETTINGS["for_testing"], HllSettings(10, 4)]
    codes = rng.integers(0, 50, size=400, dtype=np.int64) * (2**40)
    cols = []
    for s in settings:
        pool = [sk for _, sk in _members(s, rng)]
        cols.append(pa.array([pool[i].to_bytes() for i in rng.integers(0, len(pool), 400)]))
    uniq, first_idx, inv, merged = merge_grouped_columns(settings, codes, cols)
    np.testing.assert_array_equal(uniq[inv], codes)
    for s, col, got in zip(settings, cols, merged):
        want_uniq, want_first, want = merge_grouped_column(s, codes, col)
        np.testing.assert_array_equal(uniq, want_uniq)
        np.testing.assert_array_equal(first_idx, want_first)
        assert got.equals(want)


def test_bucket_merger_of_three_columns_matches_one_merge_per_column():
    """The flagship's three-column bucket merger gives each column's
    merge_grouped_column result and its cardinalities."""
    from rayhll.core.batchmerge import merge_grouped_column
    from rayhll.pipelines import distinct
    from rayhll.sources.synth import synth_code_batch
    from rayhll.stages import build

    settings = HllSettings(11, 5)
    table = synth_code_batch(np.arange(4 * 4096), 4 * 4096, seed=601)
    builder = distinct.MultiKeyBuild(settings, grouped=True)
    partials = pa.concat_tables([builder(table.slice(i * 4096, 4096)) for i in range(4)])
    merger = build.make_bucket_merger(
        list(distinct.GROUP_COLS), list(distinct.SKETCH_COLS), list(distinct.EST_COLS)
    )
    out = merger(partials)
    codes = partials.column(build.GHASH_COL).to_numpy()
    for sc, ec in zip(distinct.SKETCH_COLS, distinct.EST_COLS):
        _, first_idx, want = merge_grouped_column(settings, codes, partials.column(sc))
        assert out.column(sc).combine_chunks().equals(want)
        assert out.column(ec).to_pylist() == cardinalities(settings, want).tolist()
    want_groups = partials.select(list(distinct.GROUP_COLS)).take(pa.array(first_idx))
    assert out.select(list(distinct.GROUP_COLS)).equals(want_groups)
    uniq, inv = np.unique(codes, return_inverse=True)
    rows = np.bincount(inv, weights=partials.column("rows_in").to_numpy()).astype(np.int64)
    assert out.column("rows_in").to_pylist() == rows.tolist()


@pytest.mark.parametrize("kinds", [("explicit", "explicit"), ("full", "explicit"), ("explicit", "sparse")])
def test_merge_refuses_members_of_other_log2m(kinds):
    """A member with another (log2m, regwidth) raises, whatever its type, as
    HllSketch.union raises; EXPLICIT members used to merge silently."""
    from rayhll.core.batchmerge import merge_grouped_columns

    sizes = {"explicit": 5, "sparse": 400, "full": 5000}
    blobs = [
        _make_blob(HllSettings(log2m, 5), np.arange(1, sizes[kind] + 1) * 7919)
        for log2m, kind in zip((11, 12), kinds)
    ]
    assert from_bytes(blobs[1]).get_type().name == kinds[1].upper()
    codes = np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError, match="union-incompatible"):
        from_bytes(blobs[0]).union(from_bytes(blobs[1]))
    with pytest.raises(ValueError, match="union-incompatible"):
        merge_grouped_blobs(HllSettings(11, 5), codes, blobs)
    with pytest.raises(ValueError, match="union-incompatible"):
        merge_grouped_columns([HllSettings(11, 5)], codes, [blobs])


def test_cardinalities_refuse_sketches_of_other_settings():
    """A log2m=12 FULL sketch estimated under log2m=11 used to read half its
    registers and return about half its estimate."""
    blob = _make_blob(HllSettings(12, 5), np.arange(1, 100_001) * 7919)
    assert from_bytes(blob).get_type().name == "FULL"
    assert cardinalities(HllSettings(12, 5), [blob]).tolist() == [from_bytes(blob).cardinality()]
    with pytest.raises(ValueError, match="union-incompatible"):
        cardinalities(HllSettings(11, 5), [blob])
    with pytest.raises(ValueError, match="union-incompatible"):
        cardinalities(HllSettings(11, 5), [_make_blob(HllSettings(11, 6), [1, 2])])
