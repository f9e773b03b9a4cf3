#!/usr/bin/env python3
"""Direct read vs Ray Data on two file shapes the benchmark lacks.

    python tools/probe_direct_read.py [--rows 1048576] [--num-cpus N] [--ops 3]

Writes a ``--rows``-row synthetic corpus (``sources.synth``, plus a
``day`` date column) three times in a temporary directory (untimed): as one
file, as one file per CPU, and as a hive-partitioned dataset of about one
file per CPU (``lang=<value>/`` directories, so ``lang`` comes from the
paths).  Then runs ``flagship_grouped(hash_content=False)``,
``flagship_global`` (sha256 content) and ``grouped_approx_distinct`` of
``path`` by ``day`` over each shape ``--ops`` times per path, alternating:

* ``direct``: over the bare ``read_parquet`` (the plain-task producers of
  ``stages.build`` when they keep the CPUs busy, else Ray Data);
* ``ray_data``: over the read ``.materialize()``d first (the read is timed
  too), so the build runs in Ray Data's map tasks.

Prints, per shape, entry and path, the median wall time, the median CPU of
the Ray workers (the producers, the read tasks and the merges) and of the
whole session, and the Ray Data executions per operation (0 on the direct
path).  The results of both paths must be equal.  Only entry points the
earlier checkouts have too are called, so a copy of this script run in a
parent checkout gives the A/B.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ.setdefault("POLARS_MAX_THREADS", "1")  # as perfbench/run.py

from perfbench import host  # noqa: E402


def write_shapes(rows: int, files: int, out_dir: str) -> dict[str, list[str]]:
    """The corpus as one file, as ``files`` files of equal rows, and as a
    dataset partitioned by ``lang`` (one directory of files per value)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from rayhll.sources.synth import synth_code_batch

    def corpus(ids):
        table = synth_code_batch(ids, rows)
        return table.append_column("day", pa.array(ids % 28, pa.int32()).cast(pa.date32()))

    shapes = {"one_file": [], "file_per_cpu": [], "hive_lang": [os.path.join(out_dir, "hive")]}
    path = os.path.join(out_dir, "one.parquet")
    pq.write_table(corpus(np.arange(rows)), path)
    shapes["one_file"].append(path)
    for i, ids in enumerate(np.array_split(np.arange(rows), files)):
        path = os.path.join(out_dir, f"part-{i:03d}.parquet")
        pq.write_table(corpus(ids), path)
        shapes["file_per_cpu"].append(path)
        pads.write_dataset(
            corpus(ids), shapes["hive_lang"][0], format="parquet", partitioning=["lang"],
            partitioning_flavor="hive", basename_template=f"part-{i:03d}-{{i}}.parquet",
            existing_data_behavior="overwrite_or_ignore",
        )
    return shapes


def entries():
    import pyarrow as pa

    from rayhll import ray_agg
    from rayhll.pipelines import distinct

    def grouped(ds):
        out = distinct.flagship_grouped(ds, hash_content=False, include_sketches=True)
        table = pa.concat_tables(out.iter_batches(batch_format="pyarrow", batch_size=None))
        return table.sort_by([("repo", "ascending"), ("lang", "ascending")])

    def global_(ds):
        return distinct.flagship_global(ds, hash_content=True)

    def by_day(ds):
        out = ray_agg.grouped_approx_distinct(ds, ["day"], ["path"], include_sketch=True)
        table = pa.concat_tables(out.iter_batches(batch_format="pyarrow", batch_size=None))
        return table.sort_by([("day", "ascending")])

    return {"flagship_grouped": grouped, "flagship_global": global_, "grouped_by_day": by_day}


def measure(fn, files: list[str], path: str, executions: list[int], workers: set[int]) -> dict:
    import ray.data as rd

    before, start = host.tree_cpu_ticks(), executions[0]
    t0 = time.perf_counter()
    ds = rd.read_parquet(files)
    out = fn(ds.materialize() if path == "ray_data" else ds)
    wall = time.perf_counter() - t0
    after = host.tree_cpu_ticks()
    tick = os.sysconf("SC_CLK_TCK")
    workers.update(pid for pid in after if pid not in workers and host._is_worker(pid))
    ms = {pid: (t - before.get(pid, 0)) * 1e3 / tick for pid, t in after.items()}
    return {
        "out": out,
        "wall": wall * 1e3,
        "workers": sum(v for pid, v in ms.items() if pid in workers),
        "total": sum(ms.values()),
        "executions": executions[0] - start,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--rows", type=int, default=1 << 20)
    p.add_argument("--num-cpus", type=int, default=host.NUM_CPUS, help="CPUs of the Ray session")
    p.add_argument("--ops", type=int, default=3, help="timed operations per shape, entry and path")
    args = p.parse_args()

    from tools.cpu_roles import count_executions

    tmp = tempfile.mkdtemp(prefix="probe_direct_read-")
    rows = []
    try:
        shapes = write_shapes(args.rows, args.num_cpus, tmp)
        # the benchmark's 512 MiB object store backs up under a materialized
        # 1M-row read, and Ray Data then waits on it, not on the CPUs
        host.OBJECT_STORE_BYTES = max(host.OBJECT_STORE_BYTES, 2 << 30)
        host.start_ray(ROOT, num_cpus=args.num_cpus)
        try:
            host.warm_workers(args.num_cpus)
            executions, workers = count_executions(), set()
            for shape, files in shapes.items():
                for name, fn in entries().items():
                    ops = {"direct": [], "ray_data": []}
                    for i in range(args.ops + 1):  # the first round is untimed
                        order = ("direct", "ray_data") if i % 2 else ("ray_data", "direct")
                        got = {path: measure(fn, files, path, executions, workers) for path in order}
                        assert got["direct"]["out"] == got["ray_data"]["out"], (shape, name)
                        if i:
                            for path in order:
                                ops[path].append(got[path])
                    for path, runs in ops.items():
                        med = {k: statistics.median(r[k] for r in runs) for k in ("wall", "workers", "total", "executions")}
                        rows.append((shape, name, path, med))
        finally:
            host.stop_ray()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"# rows={args.rows} num_cpus={args.num_cpus} ops={args.ops}")
    print("| shape | entry | path | wall ms | worker CPU ms | total CPU ms | executions |")
    print("|---|---|---|---|---|---|---|")
    for shape, name, path, med in rows:
        print(
            f"| {shape} | {name} | {path} | {med['wall']:.0f} | {med['workers']:.0f} "
            f"| {med['total']:.0f} | {med['executions']:g} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
