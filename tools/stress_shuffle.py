"""Scale stress for shuffle_manifest: a many-million-id corpus through
the two-pass range prefix, verifying the exact-permutation invariants
(ranks are 0..n-1 exactly once, shard/pos round-robin-consistent) and
printing throughput.

Usage: python tools/stress_shuffle.py [n_rows]
(Ray gets one CPU per CPU this process may run on.)
"""

import os
import sys
import time

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

sys.path.insert(0, ".")

from rayhll.pipelines.shuffle import shuffle_manifest  # noqa: E402


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000_000
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)), include_dashboard=False)

    ids = rd.range(n).map_batches(
        lambda t: pa.table({"doc_id": t.column("id")}), batch_format="pyarrow"
    )

    stats: dict = {}
    t0 = time.perf_counter()
    man = shuffle_manifest(
        ids, seed=7, num_shards=1024, stats_out=stats
    ).materialize()
    wall = time.perf_counter() - t0

    # invariants without collecting the manifest: per-block partial checks
    def check(t: pa.Table) -> pa.Table:
        rank = t.column("rank").to_numpy()
        shard = t.column("shard").to_numpy()
        pos = t.column("pos").to_numpy()
        assert (shard == rank % 1024).all() and (pos == rank // 1024).all()
        return pa.table(
            {
                "n": pa.array([len(rank)], type=pa.int64()),
                "s": pa.array([int(rank.sum())], type=pa.int64()),
                "mx": pa.array([int(rank.max()) if len(rank) else -1]),
            }
        )

    agg = man.map_batches(check, batch_format="pyarrow").to_pandas()
    total, rank_sum, rank_max = agg["n"].sum(), agg["s"].sum(), agg["mx"].max()
    assert total == n and rank_max == n - 1 and rank_sum == n * (n - 1) // 2, (
        total, rank_sum, rank_max,
    )
    spread = np.array(stats["range_totals"])
    print(
        f"rows={n} ranges={stats['n_ranges']} wall={wall:.1f}s "
        f"({n / wall / 1e6:.2f}M rows/s) "
        f"range skew max/mean={spread.max() / spread.mean():.2f}"
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
