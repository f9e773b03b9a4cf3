#!/usr/bin/env python3
"""Time the HLL kernels in-process, on a corpus file and on a skewed group-by.

    python tools/probe_kernels.py [--seed 601] [--k 7]

Prints, for each input, the best of ``--k`` warm calls (after one cold
call) as rates:

* ``adds_per_s``: values per second of a fresh ``HllSketch.add_batch`` of
  the whole key column, plus its ``to_bytes``;
* ``build_rows_per_s``: rows per second of the grouped build
  (``batchbuild.build_grouped_column``);
* ``merge_groups_per_s``: output groups per second of merging the
  partials that ``--slices`` equal slices of the input build
  (``batchmerge.merge_grouped_column``), as a driver merge receives them;
* ``estimates_per_s``: merged sketches per second estimated by
  ``batchmerge.cardinalities``.

and three timings of the flagship's three sketch keys on the corpus:

* ``three_key_build_ms``: one ``MultiKeyBuild(grouped=True)`` call on the
  first file (the hashes and the three grouped sketch columns);
* ``three_col_merge_ms``: the three-column bucket merger
  (``stages.build.make_bucket_merger``, sketches kept) over the partials
  of all the corpus files, as one merge task receives them;
* ``three_col_merge_sliced_ms``: the same merger called once on each of
  the B ``ghash % B`` slices of those partials, B this host's CPUs
  (``stages.build._sliced``), as B merge tasks receive them, summed.

and four timings of the global (one-group) merges, in ms:

* ``merge_sketch_rows_ms`` and ``merge_partials_block_ms`` on ``corpus``:
  ``stages.build.merge_sketch_rows`` of the content sketches and
  ``pipelines.distinct.merge_partials_block`` of all three, over the
  ``MultiKeyBuild(grouped=False)`` partials of all the corpus files;
* the same two on ``exact``: one partial of 50,000 distinct values under
  ``ray_agg.EXACT_MODE`` (an EXPLICIT sketch), in every sketch column.

The inputs: ``corpus`` is the first file of the seed's ``perfbench``
corpus (32,768 rows; ``content`` values grouped by ``(repo, lang)``, as
``flagship_grouped`` builds them) and its partials are the builds of all
the corpus files.  ``skewed`` is 1,048,576 random values over 2,048 groups
whose sizes fall off as 1/sqrt(rank) from 23k to 256 rows, so every group
crosses the EXPLICIT threshold of the default settings (log2m=11,
regwidth=5).  No Ray session is started.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402
from rayhll.core import batchbuild, batchmerge  # noqa: E402
from rayhll.core.settings import HllSettings  # noqa: E402
from rayhll.core.sketch import HllSketch  # noqa: E402
from rayhll.functions import hashing  # noqa: E402

SETTINGS = HllSettings(11, 5)


def _best(fn, k: int) -> float:
    fn()
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _corpus(seed: int, root: str):
    meta = inputs.corpus(root, seed)
    parts = []
    for path in meta["files"]:
        table = pq.read_table(path)
        codes = hashing.hash64_table(table, ["repo", "lang"], seed=0x6E0)
        parts.append((codes, hashing.hash64_table(table, ["content"])))
    return parts[0], parts


def _skewed(seed: int, slices: int):
    rng = np.random.default_rng(seed)
    n, groups = 1 << 20, 2048
    codes = (groups * rng.random(n) ** 2).astype(np.int64)
    raws = rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64)
    one = (codes, raws)
    return one, [(codes[s], raws[s]) for s in np.array_split(np.arange(n), slices)]


def probe(one, parts, k: int) -> dict:
    codes, raws = one
    out = {}

    def add():
        sk = HllSketch(SETTINGS)
        sk.add_batch(raws)
        return sk.to_bytes()

    t = _best(add, k)
    out["adds_per_s"] = len(raws) / t
    t = _best(lambda: batchbuild.build_grouped_column(SETTINGS, codes, raws), k)
    out["build_rows_per_s"] = len(raws) / t

    built = [batchbuild.build_grouped_column(SETTINGS, c, r) for c, r in parts]
    part_codes = np.concatenate([b[0] for b in built])
    col = pa.concat_arrays([b[3] for b in built])
    _, _, merged = batchmerge.merge_grouped_column(SETTINGS, part_codes, col)
    t = _best(lambda: batchmerge.merge_grouped_column(SETTINGS, part_codes, col), k)
    out["merge_groups_per_s"] = len(merged) / t
    t = _best(lambda: batchmerge.cardinalities(SETTINGS, merged), k)
    out["estimates_per_s"] = len(merged) / t
    out["partial_rows"] = len(col)
    out["groups"] = len(merged)
    out["groups_sparse_or_full"] = sum(b[0] & 0x0F > 2 for b in merged.to_pylist())
    return out


def probe_flagship(seed: int, root: str, k: int) -> dict:
    from rayhll.pipelines import distinct
    from rayhll.stages import build

    tables = [pq.read_table(path) for path in inputs.corpus(root, seed)["files"]]
    builder = distinct.MultiKeyBuild(SETTINGS, grouped=True)
    partials = pa.concat_tables([builder(t) for t in tables])
    merger = build.make_bucket_merger(
        list(distinct.GROUP_COLS), list(distinct.SKETCH_COLS), list(distinct.EST_COLS)
    )
    slices = build._sliced(partials, len(os.sched_getaffinity(0)), build.GHASH_COL)
    return {
        "three_key_build_ms": 1e3 * _best(lambda: builder(tables[0]), k),
        "three_col_merge_ms": 1e3 * _best(lambda: merger(partials), k),
        "three_col_merge_sliced_ms": 1e3 * _best(lambda: [merger(t) for t in slices], k),
    }


def probe_global(seed: int, root: str, k: int) -> dict:
    from rayhll.pipelines import distinct
    from rayhll.ray_agg import EXACT_MODE
    from rayhll.stages import build

    tables = [pq.read_table(path) for path in inputs.corpus(root, seed)["files"]]
    builder = distinct.MultiKeyBuild(SETTINGS, grouped=False)
    partials = pa.concat_tables([builder(t) for t in tables])
    exact = HllSketch(EXACT_MODE)
    exact.add_batch(np.random.default_rng(seed).permutation(50_000).astype(np.int64) * 7919)
    blob = pa.array([exact.to_bytes()], type=pa.binary())
    shapes = {
        "corpus": partials,
        "exact": pa.table({**{c: blob for c in distinct.SKETCH_COLS}, "rows_in": [50_000]}),
    }
    out = {}
    for name, table in shapes.items():
        rows = table.select([distinct.SKETCH_COLS[0], "rows_in"]).rename_columns(
            [build.SKETCH_COL, build.ROWS_COL]
        )
        out[name] = {
            "merge_sketch_rows_ms": 1e3 * _best(lambda: build.merge_sketch_rows(rows), k),
            "merge_partials_block_ms": 1e3 * _best(lambda: distinct.merge_partials_block(table), k),
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=601)
    ap.add_argument("--k", type=int, default=7)
    ap.add_argument("--slices", type=int, default=8, help="partial builds of the skewed input")
    ap.add_argument("--data-root", default=ROOT, help="where perfbench caches its inputs")
    args = ap.parse_args()
    shapes = {
        "corpus": _corpus(args.seed, args.data_root),
        "skewed": _skewed(args.seed, args.slices),
    }
    for name, (one, parts) in shapes.items():
        for metric, value in probe(one, parts, args.k).items():
            print(f"{name:8s} {metric:24s} {value:14,.0f}")
    for metric, value in probe_flagship(args.seed, args.data_root, args.k).items():
        print(f"{'corpus':8s} {metric:24s} {value:14,.1f}")
    for name, metrics in probe_global(args.seed, args.data_root, args.k).items():
        for metric, value in metrics.items():
            print(f"{name:8s} {metric:24s} {value:14,.2f}")


if __name__ == "__main__":
    main()
