"""Sequence-packing stress: N synthetic docs with deterministic token
counts, packed into fixed-length training sequences via
``pipelines/packing.pack_sequences``.

Verifies WITHOUT materializing the manifest on the driver: the packed
``n_tokens`` sum must equal the closed-form total of the generator, and
the range count confirms the two-pass prefix actually sharded (no task
held the corpus).

Usage: python tools/stress_packing.py [n_docs] [num_cpus] [seq_len]
(num_cpus defaults to the CPUs this process may run on).
"""

import os
import sys
import time

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

sys.path.insert(0, ".")

from rayhll.pipelines.packing import pack_sequences  # noqa: E402


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000_000
    num_cpus = int(sys.argv[2]) if len(sys.argv) > 2 else len(os.sched_getaffinity(0))
    seq_len = int(sys.argv[3]) if len(sys.argv) > 3 else 4096

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tok": pa.array((ids * 7919) % 900 + 10),
            }
        )

    ds = rd.range(n_docs, override_num_blocks=64).map_batches(
        gen, batch_format="pyarrow"
    )
    stats: dict = {}
    t0 = time.perf_counter()
    out = pack_sequences(ds, seq_len, weight_col="n_tok", stats_out=stats)
    total = out.sum("n_tokens")
    dt = time.perf_counter() - t0

    want = int(np.sum((np.arange(n_docs, dtype=np.int64) * 7919) % 900 + 10))
    print(
        f"pack {n_docs} docs (seq_len={seq_len}, {num_cpus} cpus): "
        f"{dt:.1f}s = {n_docs / dt / 1e6:.2f}M docs/s, "
        f"ranges {stats['n_ranges']}, token-sum ok: {total == want}"
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
