"""Vectorized many-group sketch merging and estimation.

Counterpart of :mod:`rayhll.core.batchbuild` for the reduce side: merge the
partial sketches of MANY groups in one call.  Every HLL merge outside the
scalar ``HllSketch`` API goes through it: the bucketed grouped aggregations,
the column profile among them (``stages.build.make_bucket_merger``: each
reduce receives thousands of (group, sketch) rows, and per-group / per-blob
Python overhead would dominate a naive loop), the global merges as one
group (``stages.build.merge_rows``), and the live service's updates and
seeds (``state.live``).  The rows are grouped once for all their sketch
columns (:func:`merge_grouped_columns`), and every member is decoded for
the whole batch at once, straight from the Arrow binary column's offsets
and data buffers (byte masks; no per-blob ``bytes`` objects):

* a group whose members are all EXPLICIT or EMPTY is merged by the grouped
  builder over its (group, value) pairs: union of EXPLICIT sets == set union
  of raw values (reference: python_hll/hll.py:662-665), and the builder's
  sorted dedup IS that union;
* a group with a SPARSE or FULL member is one row of the builder's register
  matrix, which takes its EXPLICIT values, SPARSE registers and FULL
  registers alike.  The row's type is the one the sequential
  ``HllSketch.union`` of its members gives, in any member order: FULL with
  a FULL member; the member's own SPARSE when it is the only member with
  content; else FULL exactly when the union has more non-zero registers
  than the sparse threshold;
* a group where those rules do not hold (sparse off with a SPARSE member,
  an EXPLICIT member over the threshold, a register file too large for a
  matrix row) keeps the ``HllSketch.union`` loop (:func:`_union_piece`).

:func:`cardinalities` estimates a whole column of sketches the same way:
EXPLICIT and EMPTY from the offsets, the others from per-row register
histograms with ``HllSketch.float_cardinality``'s formula.
"""

from __future__ import annotations

from math import ceil, log

import numpy as np
import pyarrow as pa

from rayhll.core import batchbuild, bitpack
from rayhll.core import estimators as est
from rayhll.core.hlltype import HllType
from rayhll.core.serde import HEADER_BYTES, from_bytes, header
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import DENSE_SPARSE_LIMIT, register_pairs

EMPTY, EXPLICIT, SPARSE, FULL = (int(t) for t in (HllType.EMPTY, HllType.EXPLICIT, HllType.SPARSE, HllType.FULL))


def _as_array(col) -> pa.Array:
    """A binary (Chunked)Array, or a list of ``bytes``, as one Array."""
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col if isinstance(col, pa.Array) else pa.array(col, type=pa.binary())


def _column_parts(col: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(byte offsets int64[n+1] from 0, data uint8[]) of a binary Array."""
    if not len(col):
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.uint8)
    width = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offsets = np.frombuffer(col.buffers()[1], dtype=width)
    # account for a sliced array (non-zero array offset)
    offsets = offsets[col.offset : col.offset + len(col) + 1].astype(np.int64)
    buf = col.buffers()[2]
    data = np.frombuffer(buf, dtype=np.uint8) if buf is not None else np.empty(0, np.uint8)
    return offsets - offsets[0], data[offsets[0] : offsets[-1]]


def _types(offsets: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Type ordinal of every blob; raises on a blob no sketch can be."""
    if (np.diff(offsets) < HEADER_BYTES).any():
        raise ValueError("serialized HLL shorter than its header")
    types = data[offsets[:-1]] & 0x0F
    if ((types < EMPTY) | (types > FULL)).any():
        raise ValueError(f"invalid type ordinal in {sorted(set(types.tolist()))}")
    return types


def _bodies(data: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The first ``lens[i]`` body bytes of each blob at ``starts`` (ascending),
    concatenated."""
    begin = starts + HEADER_BYTES
    return data[bitpack.span_mask(len(data), begin, begin + lens)]


def _sparse_registers(settings, data, starts, lens):
    """(blob, j, value) of every non-zero register of the SPARSE blobs at
    ``starts`` with body lengths ``lens``; blob indexes ``starts``."""
    words, counts = bitpack.unpack_rows(_bodies(data, starts, lens), lens, settings.short_word_length)
    values = (words & np.uint64(settings.value_mask)).astype(np.uint8)
    keep = values != 0  # a word that byte padding fabricated is dropped
    blob = np.repeat(np.arange(len(starts)), counts)[keep]
    return blob, (words[keep] >> np.uint64(settings.regwidth)).astype(np.int64), values[keep]


def _full_bodies(settings, data, starts, lens) -> np.ndarray:
    """The first m registers' bytes of each FULL blob at ``starts``
    (ascending), as rows."""
    nbytes = settings.m * settings.regwidth // 8
    if (lens < nbytes).any():
        raise ValueError(f"FULL HLL body holds fewer than {settings.m} words")
    return _bodies(data, starts, np.full(len(starts), nbytes)).reshape(-1, nbytes)


def merge_grouped_blobs(
    settings: HllSettings, codes: np.ndarray, col
) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
    """:func:`merge_grouped_column` with the merged sketches as bytes."""
    uniq, first_idx, merged = merge_grouped_column(settings, codes, col)
    return uniq, first_idx, batchbuild.blob_list(merged)


def merge_grouped_column(
    settings: HllSettings, codes: np.ndarray, col
) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Merge sketch blobs per group code.

    :param codes: int group code per input row.
    :param col: the blobs — a pyarrow binary (Chunked)Array, or a list of
        ``bytes`` (converted).  A non-EMPTY blob with another (log2m,
        regwidth) than ``settings`` raises ``ValueError``, as
        ``HllSketch.union`` does.
    :returns: (unique codes ascending, first input row index per code,
        binary array of the merged sketch per code).
    """
    uniq, first_idx, _, (merged,) = merge_grouped_columns([settings], codes, [col])
    return uniq, first_idx, merged


def merge_grouped_columns(
    settings: list[HllSettings], codes: np.ndarray, cols: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[pa.Array]]:
    """:func:`merge_grouped_column` of every sketch column in ``cols``, each
    under its entry of ``settings``, over one grouping of ``codes``.

    :returns: (unique codes ascending, first input row index per code, each
        input row's index into the unique codes, the merged columns in
        ``cols``'s order)."""
    uniq, inv, first_idx = batchbuild.group_codes(codes)
    merged = [_merge_column(s, inv, first_idx, _as_array(col)) for s, col in zip(settings, cols)]
    return uniq, first_idx, inv, merged


def _merge_column(
    settings: HllSettings, inv: np.ndarray, first_idx: np.ndarray, col: pa.Array
) -> pa.Array:
    """The merged sketch of every group of the rows of ``col``, row ``i``
    in group ``inv[i]``, whose first row is ``first_idx``."""
    offsets, data = _column_parts(col)
    types = _types(offsets, data)
    _check_settings(settings, data, offsets[:-1][types != EMPTY])
    ngroups = len(first_idx)

    def any_member(member_mask) -> np.ndarray:
        return np.bincount(inv, weights=member_mask, minlength=ngroups) > 0

    nwords = _nwords(offsets, types)
    with_sparse = any_member(types == SPARSE)
    prob = with_sparse | any_member(types == FULL)
    with_words = any_member(nwords > 0)
    fallback = prob & (
        with_sparse & settings.sparse_off
        | any_member(nwords > settings.explicit_threshold)
        | (settings.m > DENSE_SPARSE_LIMIT)
    )
    ids = np.arange(ngroups)
    starts = offsets[:-1]
    word_member = np.repeat(np.arange(len(types)), nwords)
    words = _bodies(data, starts, 8 * nwords).view(">i8").astype(np.int64)
    pieces = []
    explicit = ~prob & with_words
    if explicit.any():
        row_of = np.cumsum(explicit) - 1
        sel = explicit[inv[word_member]]
        groups = inv[word_member[sel]]
        for rows, *rest in batchbuild.group_pieces(
            settings, row_of[groups], words[sel], int(explicit.sum())
        ):
            pieces.append((ids[explicit][rows], *rest))
    if (prob & ~fallback).any():
        pieces += _matrix_pieces(settings, prob & ~fallback, inv, offsets, data, words, word_member)
    if fallback.any():
        pieces.append(_union_piece(settings, fallback, inv, col))
    first_only = ~prob & ~with_words  # all EMPTY or word-less: the first blob
    if first_only.any():
        first = np.sort(first_idx[first_only])
        lens = np.diff(offsets)[first] - HEADER_BYTES
        pieces.append((inv[first], types[first], lens, _bodies(data, starts[first], lens)))
    return batchbuild.blob_column(settings, ngroups, pieces)


def _check_settings(settings: HllSettings, data: np.ndarray, starts: np.ndarray) -> None:
    """Raise ``ValueError`` when a blob at ``starts`` has another (log2m,
    regwidth) than ``settings``, as ``HllSketch.union`` does."""
    if (data[starts + 1] != header(settings, HllType.EMPTY)[1]).any():
        raise ValueError("union-incompatible sketches: (log2m, regwidth) differ from the settings")


def _nwords(offsets: np.ndarray, types: np.ndarray) -> np.ndarray:
    """Whole 8-byte values of each blob: its EXPLICIT words, else 0."""
    return np.where(types == EXPLICIT, (np.diff(offsets) - HEADER_BYTES) // 8, 0)


def _matrix_pieces(settings, in_matrix, inv, offsets, data, words, word_member):
    """The register-matrix pieces of the groups ``in_matrix`` (each with a
    SPARSE or FULL member): their members' EXPLICIT ``words`` and SPARSE and
    FULL registers."""
    m = settings.m
    types = data[offsets[:-1]] & 0x0F
    starts, lens = offsets[:-1], np.diff(offsets) - HEADER_BYTES
    nrows = int(in_matrix.sum())
    member_row = np.where(in_matrix[inv], np.cumsum(in_matrix)[inv] - 1, -1)
    probabilistic = (member_row >= 0) & (types > EXPLICIT)

    word_row = member_row[word_member]
    j, p_w = register_pairs(settings, words[word_row >= 0])
    sparse = np.flatnonzero(probabilistic & (types == SPARSE))
    blob, sp_j, sp_values = _sparse_registers(settings, data, starts[sparse], lens[sparse])
    flat = np.concatenate((word_row[word_row >= 0] * m + j, member_row[sparse][blob] * m + sp_j))

    full = np.flatnonzero(probabilistic & (types == FULL))
    order = np.argsort(member_row[full], kind="stable")
    full_body = _full_bodies(settings, data, starts[full], lens[full])[order]
    full = full[order]

    has_full = np.bincount(member_row[full], minlength=nrows) > 0
    with_content = (member_row >= 0) & ((types > EXPLICIT) | (_nwords(offsets, types) > 0))
    only_one = np.bincount(member_row[with_content], minlength=nrows) == 1
    return batchbuild.register_pieces(
        settings,
        np.flatnonzero(in_matrix),
        flat,
        np.concatenate((p_w, sp_values)),
        full_body,
        member_row[full],
        has_full,
        only_one & ~has_full,
    )


def _union_piece(settings, in_loop, inv, col) -> batchbuild.Piece:
    """The piece of the groups ``in_loop`` merged by the sequential
    ``HllSketch.union`` of their members in row order, under ``settings``."""
    acc = {}
    for i in np.flatnonzero(in_loop[inv]).tolist():
        sk = from_bytes(col[i].as_py())
        sk.settings = settings  # the thresholds of the merge, not of the header
        g = int(inv[i])
        if g in acc:
            acc[g].union(sk)
        else:
            acc[g] = sk
    groups = np.flatnonzero(in_loop)
    return batchbuild.blobs_piece(groups, [acc[g].to_bytes() for g in groups.tolist()])


def cardinalities(settings: HllSettings, col) -> np.ndarray:
    """Integer cardinality of every serialized sketch in ``col``, as
    ``HllSketch.cardinality``; ``col`` as for :func:`merge_grouped_column`.
    Raises ``ValueError`` when a sketch has another (log2m, regwidth) than
    ``settings``."""
    col = _as_array(col)
    offsets, data = _column_parts(col)
    starts = offsets[:-1]
    lens = np.diff(offsets) - HEADER_BYTES
    types = _types(offsets, data)
    _check_settings(settings, data, starts)
    out = np.where(types == EXPLICIT, lens // 8, 0)
    m, w, log2m = settings.m, settings.regwidth, settings.log2m
    weights = np.ldexp(1.0, -np.arange(1 << w))
    # every partial sum of the indicator is a multiple of 2^-v below m, v the
    # highest register, so exact in float64 in any summation order while
    # log2m + v <= 53; a row with a higher register is left to HllSketch
    high = 53 - log2m
    indicator = np.zeros(len(types))
    zeros = np.zeros(len(types), dtype=np.int64)
    inexact = np.zeros(len(types), dtype=bool)

    full = np.flatnonzero(types == FULL)
    full_body = _full_bodies(settings, data, starts[full], lens[full])
    step = max(1, batchbuild.MATRIX_CHUNK_BYTES // m)
    for a in range(0, len(full), step):
        rows = full[a : a + step]
        regs = bitpack.unpack_registers(full_body[a : a + step], w)
        indicator[rows] = weights[regs].sum(axis=1)
        zeros[rows] = m - np.count_nonzero(regs, axis=1)
        inexact[rows] = (regs > high).any(axis=1)

    sparse = np.flatnonzero(types == SPARSE)
    blob, _, values = _sparse_registers(settings, data, starts[sparse], lens[sparse])
    nnz = np.bincount(blob, minlength=len(sparse))
    indicator[sparse] = (m - nnz) + np.bincount(blob, weights=weights[values], minlength=len(sparse))
    zeros[sparse] = m - nnz
    inexact[sparse] = np.bincount(blob, weights=values > high, minlength=len(sparse)) > 0

    exact = np.flatnonzero((types > EXPLICIT) & ~inexact)
    out[exact] = _estimates(settings, indicator[exact], zeros[exact])
    for i in np.flatnonzero(inexact).tolist():
        out[i] = from_bytes(col[i].as_py()).cardinality()
    return out.astype(np.int64)


def _estimates(settings: HllSettings, indicator: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """``ceil(est.corrected_estimate(...))`` of every (indicator, zeros)."""
    s = settings
    e = s.alpha_m_squared / indicator
    small = (zeros != 0) & (e < s.small_estimator_cutoff)
    out = e.copy()
    # math.log, not np.log: the same rounding as the scalar estimator
    out[small] = s.m * np.array(list(map(log, (float(s.m) / zeros[small]).tolist())))
    for i in np.flatnonzero(~small & (e > s.large_estimator_cutoff)).tolist():
        out[i] = est.large_estimator(s.log2m, s.regwidth, float(e[i]))
    return np.array([ceil(x) for x in out.tolist()], dtype=np.int64)
