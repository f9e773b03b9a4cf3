"""Vectorized many-sketch builder for grouped pre-aggregation.

A grouped ``map_batches`` pre-aggregation stage builds one sketch per group
per batch; with high-cardinality group keys that is thousands of small
sketches per batch, and generic per-sketch object overhead dominates.  This
module builds ALL of a batch's per-group sketches in one pass:

* ``np.unique`` maps group codes to dense ids; an argsort of the raw
  values, then a stable radix argsort of the dense ids (``uint16`` up to
  65,536 groups) orders every (group, value) pair exactly as a lexsort
  would, and one pass dedups every group's values simultaneously;
* groups whose distinct count stays at or below the EXPLICIT threshold —
  the overwhelming majority under any realistic group-key distribution —
  are serialized straight from slices of one shared big-endian buffer
  (values are already sorted signed-ascending, exactly the storage-spec
  EXPLICIT word order — reference: python_hll/hll.py:708-720);
* only groups that cross the threshold fall back to the full
  :class:`~rayhll.core.sketch.HllSketch` state machine.

The produced bytes are identical to building each group's ``HllSketch``
individually (asserted in tests/test_batchbuild.py).
"""

from __future__ import annotations

import numpy as np

from rayhll.core.hlltype import HllType
from rayhll.core.serde import SCHEMA_VERSION
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch


def _explicit_header(settings: HllSettings) -> bytes:
    if settings.explicit_off:
        cutoff = 0
    elif settings.explicit_auto:
        cutoff = 63
    else:
        cutoff = settings.log2_explicit_threshold() + 1
    return bytes(
        (
            (SCHEMA_VERSION << 4) | int(HllType.EXPLICIT),
            ((settings.regwidth - 1) << 5) | settings.log2m,
            ((0 if settings.sparse_off else 1) << 6) | (cutoff & 0x3F),
        )
    )


def build_grouped_sketches(
    settings: HllSettings,
    codes: np.ndarray,
    raws: np.ndarray,
    valid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[bytes]]:
    """Build one serialized sketch per distinct group code.

    :param codes: int group codes, one per row (any integer dtype).
    :param raws: pre-hashed signed int64 values, one per row.
    :param valid: optional bool mask — rows where it is False keep their
        group membership (first_idx / counts) but contribute NO value to the
        group's sketch (SQL ``COUNT(DISTINCT col)`` ignores NULLs); a group
        with no valid rows gets an EMPTY sketch.
    :returns: (unique codes ascending, first row index of each code in the
        ORIGINAL array, row count per code, serialized sketch per code).
        Zero rows give three empty arrays and ``[]``.
    """
    codes = np.ascontiguousarray(codes)
    raws = np.ascontiguousarray(raws, dtype=np.int64)
    uniq_codes, dense = np.unique(codes, return_inverse=True)
    ngroups = len(uniq_codes)
    first_idx = np.full(ngroups, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_idx, dense, np.arange(len(codes), dtype=np.int64))
    counts = np.bincount(dense, minlength=ngroups).astype(np.int64)
    if valid is not None:
        dense = dense[valid]
        raws = raws[valid]
    groups, blobs = _sketches_by_group(settings, dense, raws, ngroups)
    if len(groups) < ngroups:  # groups with no valid rows stay EMPTY
        out = [HllSketch(settings).to_bytes()] * ngroups
        for g, blob in zip(groups.tolist(), blobs):
            out[g] = blob
        blobs = out
    return uniq_codes, first_idx, counts, blobs


def _sketches_by_group(
    settings: HllSettings, dense: np.ndarray, raws: np.ndarray, ngroups: int
) -> tuple[np.ndarray, list[bytes]]:
    """(ascending dense ids present in ``dense``, serialized sketch of each)
    from ``raws`` grouped by the dense group ids ``dense`` < ``ngroups``."""
    if not len(raws):
        return dense[:0], []
    # argsort by value, then a stable argsort by group: (group, value) order,
    # the same as np.lexsort((raws, dense)) but with a radix sort on groups
    order = np.argsort(raws)
    key = dense[order].astype(np.uint16 if ngroups <= 1 << 16 else np.uint32)
    order = order[np.argsort(key, kind="stable")]
    g = dense[order]
    r = raws[order]
    # drop duplicate (group, raw) pairs — sets are duplicate-insensitive
    keep = np.r_[True, (g[1:] != g[:-1]) | (r[1:] != r[:-1])]
    g = g[keep]
    r = r[keep]
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    ends = np.r_[starts[1:], len(g)]

    threshold = settings.explicit_threshold
    big = r.astype(">i8")  # one shared big-endian buffer; sorted within group
    header = _explicit_header(settings)
    out: list[bytes] = []
    for s0, e0 in zip(starts.tolist(), ends.tolist()):
        n = e0 - s0  # always >= 1: every emitted group has at least one row
        if n <= threshold:
            out.append(header + big[s0:e0].tobytes())
        else:
            sk = HllSketch(settings)
            sk.add_batch(r[s0:e0])
            out.append(sk.to_bytes())
    return g[starts], out


def build_single_sketch(settings: HllSettings, raws: np.ndarray) -> bytes:
    """Serialized sketch of one value array (ungrouped fast path)."""
    sk = HllSketch(settings)
    sk.add_batch(np.ascontiguousarray(raws, dtype=np.int64))
    return sk.to_bytes()
