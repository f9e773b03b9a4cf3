"""Vectorized many-sketch builder for grouped pre-aggregation.

A grouped ``map_batches`` pre-aggregation stage builds one sketch per group
per batch; with high-cardinality group keys that is thousands of small
sketches per batch, and generic per-sketch object overhead dominates.  This
module builds ALL of a batch's per-group sketches in one pass:

* ``np.unique`` maps group codes to dense ids, once for all the value
  columns of a batch (:func:`build_grouped_columns`); an argsort of the raw
  values, then a stable radix argsort of the dense ids (``uint16`` up to
  65,536 groups) orders every (group, value) pair exactly as a lexsort
  would, and one pass dedups every group's values simultaneously;
* groups whose distinct count stays at or below the EXPLICIT threshold —
  the overwhelming majority under any realistic group-key distribution —
  are serialized straight from one shared big-endian buffer (values are
  already sorted signed-ascending, exactly the storage-spec EXPLICIT word
  order — reference: python_hll/hll.py:708-720);
* groups that cross it share one ``(rows, m)`` uint8 register matrix
  (:func:`register_pieces`): one ``np.maximum.at`` sets every register, each
  row's non-zero count picks SPARSE or FULL by the promotion rules a fresh
  :class:`~rayhll.core.sketch.HllSketch` applies to the group's sorted
  distinct values, and each type bit-packs all its rows at once;
* the sketches come out as one Arrow binary array, offsets plus one data
  buffer (:func:`blob_column`).

The produced bytes are identical to adding each group's sorted distinct
values to its own ``HllSketch`` (asserted in tests/test_batchbuild.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayhll.core import bitpack
from rayhll.core.hlltype import HllType
from rayhll.core.serde import HEADER_BYTES, header
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import DENSE_SPARSE_LIMIT, HllSketch, register_pairs

#: Byte bound of one chunk of the register matrix: a group-by with many
#: over-threshold groups sets and serializes their registers this many
#: bytes at a time.
MATRIX_CHUNK_BYTES = 1 << 22

#: Serialized sketches of some rows of a batch: (row ids, type and body
#: length of each (or one for all), the rows' bodies concatenated in order).
Piece = tuple


def build_grouped_sketches(
    settings: HllSettings,
    codes: np.ndarray,
    raws: np.ndarray,
    valid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[bytes]]:
    """:func:`build_grouped_column` with the sketches as a list of bytes."""
    uniq, first_idx, counts, col = build_grouped_column(settings, codes, raws, valid)
    return uniq, first_idx, counts, blob_list(col)


def build_grouped_column(
    settings: HllSettings,
    codes: np.ndarray,
    raws: np.ndarray,
    valid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, pa.Array]:
    """Build one serialized sketch per distinct group code.

    :param codes: int group codes, one per row (any integer dtype).
    :param raws: pre-hashed signed int64 values, one per row.
    :param valid: optional bool mask — rows where it is False keep their
        group membership (first_idx / counts) but contribute NO value to the
        group's sketch (SQL ``COUNT(DISTINCT col)`` ignores NULLs); a group
        with no valid rows gets an EMPTY sketch.
    :returns: (unique codes ascending, first row index of each code in the
        ORIGINAL array, row count per code, binary array of the serialized
        sketch per code).  Zero rows give four empty arrays.
    """
    uniq_codes, first_idx, counts, (col,) = build_grouped_columns(settings, codes, [raws], valid)
    return uniq_codes, first_idx, counts, col


def build_grouped_columns(
    settings: HllSettings,
    codes: np.ndarray,
    raws: list[np.ndarray],
    valid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[pa.Array]]:
    """:func:`build_grouped_column` of every value column in ``raws`` over
    one grouping of ``codes``: the sketch columns come out in ``raws``'s
    order, and ``valid`` masks the rows of every one."""
    uniq_codes, dense, first_idx = group_codes(codes)
    ngroups = len(uniq_codes)
    counts = np.bincount(dense, minlength=ngroups).astype(np.int64)
    if valid is not None:
        dense = dense[valid]
    cols = []
    for values in raws:
        values = np.ascontiguousarray(values, dtype=np.int64)
        if valid is not None:
            values = values[valid]
        cols.append(blob_column(settings, ngroups, group_pieces(settings, dense, values, ngroups)))
    return uniq_codes, first_idx, counts, cols


def group_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unique codes ascending, each row's index into them, first row index
    of each code): the one grouping pass that every column of a grouped
    build or merge shares."""
    uniq_codes, dense = np.unique(np.ascontiguousarray(codes), return_inverse=True)
    first_idx = np.full(len(uniq_codes), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_idx, dense, np.arange(len(dense), dtype=np.int64))
    return uniq_codes, dense, first_idx


def group_pieces(
    settings: HllSettings, dense: np.ndarray, raws: np.ndarray, ngroups: int
) -> list[Piece]:
    """Pieces of the sketches of ``raws`` grouped by the dense group ids
    ``dense`` < ``ngroups``; a group with no value is EMPTY."""
    # argsort by value, then a stable argsort by group: (group, value) order,
    # the same as np.lexsort((raws, dense)) but with a radix sort on groups
    order = np.argsort(raws)
    g = dense[order].astype(np.uint16 if ngroups <= 1 << 16 else np.uint32)
    by_group = np.argsort(g, kind="stable")
    g = g[by_group]
    r = raws[order[by_group]]
    # drop duplicate (group, raw) pairs — sets are duplicate-insensitive
    keep = np.ones(len(g), dtype=bool)
    keep[1:] = (g[1:] != g[:-1]) | (r[1:] != r[:-1])
    g = g[keep]
    r = r[keep]
    n = np.bincount(g, minlength=ngroups)
    ids = np.arange(ngroups)
    big = n > settings.explicit_threshold
    small = (n > 0) & ~big
    crossed = big.any()
    words = r[~big[g]] if crossed else r
    pieces = [(ids[small], int(HllType.EXPLICIT), 8 * n[small], words.astype(">i8").view(np.uint8))]
    if crossed:
        pieces += _crossed_pieces(settings, ids[big], n[big], r[big[g]])
    if not n.all():
        pieces.append((ids[n == 0], int(HllType.EMPTY), 0, np.empty(0, dtype=np.uint8)))
    return pieces


def _crossed_pieces(settings: HllSettings, rows: np.ndarray, n: np.ndarray, values) -> list[Piece]:
    """The pieces of the groups ``rows`` that cross the EXPLICIT threshold,
    with ``n[i]`` sorted distinct ``values`` each, consecutive."""
    if settings.m > DENSE_SPARSE_LIMIT:  # registers too many for a matrix
        blobs = []
        for part in np.split(values, np.cumsum(n)[:-1]):
            sk = HllSketch(settings)
            sk.add_batch(part)
            blobs.append(sk.to_bytes())
        return [blobs_piece(rows, blobs)]
    j, p_w = register_pairs(settings, values)
    flat = np.repeat(np.arange(len(rows)) * settings.m, n) + j
    threshold = settings.explicit_threshold
    # a fresh sketch adding the sorted values crosses on the last one only
    # when there are exactly threshold + 1, and then never checks SPARSE
    # against its threshold (see HllSketch.add_batch)
    keep_sparse = (threshold > 0) & (n == threshold + 1)
    force_full = np.full(len(rows), settings.sparse_off)
    no_full = np.empty((0, settings.m * settings.regwidth // 8), dtype=np.uint8)
    return register_pieces(
        settings, rows, flat, p_w, no_full, np.empty(0, dtype=np.int64), force_full, keep_sparse
    )


def blobs_piece(rows: np.ndarray, blobs: list[bytes]) -> Piece:
    """The piece of serialized sketches ``blobs`` of ``rows``."""
    lens = np.array([len(b) - HEADER_BYTES for b in blobs], dtype=np.int64)
    types = np.array([b[0] & 0x0F for b in blobs], dtype=np.uint8)
    body = np.frombuffer(b"".join(b[HEADER_BYTES:] for b in blobs), dtype=np.uint8)
    return rows, types, lens, body


def register_pieces(
    settings: HllSettings,
    rows: np.ndarray,
    flat: np.ndarray,
    p_w: np.ndarray,
    full_body: np.ndarray,
    full_row: np.ndarray,
    force_full: np.ndarray,
    keep_sparse: np.ndarray,
) -> list[Piece]:
    """SPARSE or FULL sketches of the register rows ``rows``.

    Row ``r`` (an index into ``rows``) holds the max of every ``p_w`` at
    ``flat = r * m + j`` and of the FULL bodies ``full_body[i]`` of
    ``full_row[i] == r`` (ascending).  It is FULL if ``force_full[r]``,
    SPARSE if ``keep_sparse[r]``, else FULL exactly when it has more
    non-zero registers than the sparse threshold.  The matrix is filled and
    serialized ``MATRIX_CHUNK_BYTES`` at a time.
    """
    m, nrows = settings.m, len(rows)
    step = max(1, MATRIX_CHUNK_BYTES // m)
    if nrows > step:
        order = np.argsort(flat)
        flat, p_w = flat[order], p_w[order]
    pieces = []
    for lo in range(0, nrows, step):
        hi = min(nrows, lo + step)
        regs = np.zeros((hi - lo, m), dtype=np.uint8)
        a, b = np.searchsorted(flat, [lo * m, hi * m]) if nrows > step else (0, len(flat))
        np.maximum.at(regs.reshape(-1), flat[a:b] - lo * m, p_w[a:b])
        fa, fb = np.searchsorted(full_row, [lo, hi])
        for f in range(fa, fb, step):
            member_row = full_row[f : min(fb, f + step)] - lo
            first = np.flatnonzero(np.r_[True, member_row[1:] != member_row[:-1]])
            members = bitpack.unpack_registers(full_body[f : f + len(member_row)], settings.regwidth)
            row = member_row[first]
            regs[row] = np.maximum(regs[row], np.maximum.reduceat(members, first, axis=0))
        nnz = np.count_nonzero(regs, axis=1)
        full = force_full[lo:hi] | (~keep_sparse[lo:hi] & (nnz > settings.sparse_threshold))
        packed = bitpack.pack_registers(regs[full], settings.regwidth)
        pieces.append((rows[lo:hi][full], int(HllType.FULL), packed.shape[1], packed.reshape(-1)))
        sparse = regs[~full]
        row, j = np.nonzero(sparse)  # row-major: index-ascending within a row
        words = (j.astype(np.uint64) << np.uint64(settings.regwidth)) | sparse[row, j]
        body, lens = bitpack.pack_rows(words, nnz[~full], settings.short_word_length)
        pieces.append((rows[lo:hi][~full], int(HllType.SPARSE), lens, body))
    return pieces


def blob_column(settings: HllSettings, nrows: int, pieces: list[Piece]) -> pa.Array:
    """One binary array of ``nrows`` serialized sketches from ``pieces``
    that cover every row once: each row's header for its type, then its
    body."""
    if not nrows:
        return pa.array([], type=pa.binary())
    rows, types, bodies = [], [], []
    for piece_rows, t, lens, body in pieces:
        lens = np.broadcast_to(lens, len(piece_rows))
        offsets = np.zeros(len(piece_rows) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        rows.append(piece_rows)
        types.append(np.broadcast_to(np.uint8(t) if np.isscalar(t) else t, len(piece_rows)))
        bodies.append(_binary_array(offsets, body))
    types = np.concatenate(types)
    body = pa.concat_arrays(bodies)
    if not np.array_equal(rows[0], np.arange(nrows)):  # else one piece holds all, in order
        place = np.empty(nrows, dtype=np.int64)  # each row's index in the pieces' order
        place[np.concatenate(rows)] = np.arange(nrows)
        body = body.take(pa.array(place))
        types = types[place]
    heads = np.empty((nrows, HEADER_BYTES), dtype=np.uint8)
    heads[:] = np.frombuffer(header(settings, HllType.UNDEFINED), dtype=np.uint8)
    heads[:, 0] |= types  # the type ordinal, 0 in UNDEFINED's
    offsets = np.arange(0, HEADER_BYTES * nrows + 1, HEADER_BYTES)
    return pc.binary_join_element_wise(_binary_array(offsets, heads), body, b"")


def blob_list(col: pa.Array) -> list[bytes]:
    """The values of the binary array ``col`` as ``bytes`` (slices of one
    copy of its data: several times faster than ``to_pylist``)."""
    if not len(col):
        return []
    offsets = np.frombuffer(col.buffers()[1], dtype=np.int32)[col.offset : col.offset + len(col) + 1]
    data = col.buffers()[2].to_pybytes()
    bounds = offsets.tolist()
    return [data[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _binary_array(offsets: np.ndarray, data: np.ndarray) -> pa.Array:
    """The binary array of ``data``'s bytes split at ``offsets``."""
    if offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError(f"{offsets[-1]} bytes of sketches exceed one binary array")
    return pa.Array.from_buffers(
        pa.binary(),
        len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(np.ascontiguousarray(data))],
    )
