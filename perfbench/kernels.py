"""In-process kernel timings (``core.*`` and ``functions.hashing.*``).

Each kernel runs on the workload's own generated batch: once cold, then
the best of ``k`` warm calls is timed (a cold first call runs many times
slower than steady state).  Operation counts and bytes are reported with
the rates.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from rayhll.core import batchbuild, batchmerge
from rayhll.core.serde import from_bytes
from rayhll.core.settings import HllSettings
from rayhll.core.sketch import HllSketch
from rayhll.functions import hashing

#: the partial sketches of the batchmerge probe come from this many slices
MERGE_SLICES = 4


def _best(fn, k: int) -> float:
    fn()
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_metrics(batch: pa.Table, settings: HllSettings, k: int = 5) -> dict:
    n = batch.num_rows
    content = batch.column("content")
    raws = hashing.hash64_table(batch, ["content"])
    codes = hashing.hash64_table(batch, ["repo", "lang"], seed=0x6E0)

    t_sha = _best(lambda: hashing.sha256_raw64(content), k)
    t_h64 = _best(lambda: hashing.hash64_table(batch, ["path"]), k)
    t_add = _best(lambda: HllSketch(settings).add_batch(raws), k)
    t_build = _best(lambda: batchbuild.build_grouped_sketches(settings, codes, raws), k)

    # partial sketches of the same groups from several slices, as the
    # exchange delivers them to a merge
    part_codes, blobs = [], []
    for sl in np.array_split(np.arange(n), MERGE_SLICES):
        uniq, _, _, out = batchbuild.build_grouped_sketches(settings, codes[sl], raws[sl])
        part_codes.append(uniq)
        blobs.extend(out)
    part_codes = np.concatenate(part_codes)
    blob_col = pa.array(blobs, type=pa.binary())
    groups = len(np.unique(part_codes))
    t_merge = _best(lambda: batchmerge.merge_grouped_blobs(settings, part_codes, blob_col), k)

    whole = HllSketch(settings)
    whole.add_batch(raws)
    serde_blobs = blobs + [whole.to_bytes()]
    sketches = [from_bytes(b) for b in serde_blobs]
    nbytes = sum(len(b) for b in serde_blobs)
    t_to = _best(lambda: [s.to_bytes() for s in sketches], k)
    t_from = _best(lambda: [from_bytes(b) for b in serde_blobs], k)

    return {
        "functions.hashing.sha256_rows_per_s": n / t_sha,
        "functions.hashing.hash64_rows_per_s": n / t_h64,
        "core.sketch.adds_per_s": n / t_add,
        "core.batchbuild.rows_per_s": n / t_build,
        "core.batchmerge.groups_per_s": groups / t_merge,
        "core.batchmerge.blobs": len(blobs),
        "core.serde.to_bytes_mb_per_s": nbytes / t_to / 1e6,
        "core.serde.from_bytes_mb_per_s": nbytes / t_from / 1e6,
        "core.serde.bytes": nbytes,
    }
