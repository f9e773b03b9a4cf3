"""Large-scale stress of the flagship 3-key grouped sketch build.

Usage: python tools/stress_flagship.py [rows] [num_cpus]
Reproduces the BASELINE.md stress series (20M/50M/100M rows, group-key
cardinality growing with N).  Prints one JSON line.
"""
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
os.environ.setdefault("POLARS_MAX_THREADS", "1")

rows = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000_000
ncpu = int(sys.argv[2]) if len(sys.argv) > 2 else 32

import ray

ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

ctx = DataContext.get_current()
ctx.enable_progress_bars = False

from rayhll.pipelines import distinct
from rayhll.sources.synth import synth_code_dataset

blocks = max(256, rows // 100_000)
t0 = time.perf_counter()
ds = synth_code_dataset(rows, override_num_blocks=blocks)
out = distinct.flagship_grouped(ds, hash_content=False, batch_size=131072).materialize()
wall = time.perf_counter() - t0
n_groups = out.count()
print(
    json.dumps(
        {
            "rows": rows,
            "num_cpus": ncpu,
            "blocks": blocks,
            "wall_sec": round(wall, 1),
            "rows_per_sec": round(rows / wall),
            "n_groups": n_groups,
        }
    )
)
ray.shutdown()
