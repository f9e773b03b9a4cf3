#!/usr/bin/env python3
"""Split each benchmark operation's CPU by Ray process role.

    python tools/cpu_roles.py --workload small_queries --seed 7001 --ops 25
    python tools/cpu_roles.py --workload corpus --seed 601 --ops 10 --num-cpus 1

Starts a session the way ``perfbench/run.py`` does, with ``--num-cpus``
CPUs (default: the host's, as there), runs one untimed pass over the
workload's shapes, then ``--ops`` operations per shape.  Around
each operation it reads the CPU ticks of this process and every process it
started (``perfbench.host.tree_cpu_ticks``), counts the Ray Data
executions the driver starts and counts the ``stages.build._task`` remote
calls it makes (the producer and merge tasks of every sketch reduce).
Every result passes the workload's gate.  Prints, per shape, the median
CPU-ms per operation of the driver, the workers, the GCS, the raylet and
the other session processes, their total, the median wall time, and the
executions and tasks per operation.  CPU times are raw,
not scaled to a reference host speed as ``query_cpu_ms`` is, and come in
``/proc`` clock ticks (10 ms at the usual ``CLK_TCK`` of 100), so a small
role's median can read 0.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ.setdefault("POLARS_MAX_THREADS", "1")  # as perfbench/run.py

from perfbench import host, workloads  # noqa: E402

ROLES = ("driver", "workers", "gcs", "raylet", "other")


def role_of(pid: int) -> str:
    if pid == os.getpid():
        return "driver"
    if host._is_worker(pid):
        return "workers"
    try:
        with open(f"/proc/{pid}/comm") as f:
            name = f.read().strip()
    except OSError:
        return "other"
    return {"gcs_server": "gcs", "raylet": "raylet"}.get(name, "other")


def count_executions() -> list[int]:
    """A counter of the Ray Data executions this process starts, as the
    ``executions`` fixture in ``tests/conftest.py`` counts them."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    count, execute = [0], StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        count[0] += 1
        return execute(self, *args, **kwargs)

    StreamingExecutor.execute = counted
    return count


def count_tasks() -> list[int]:
    """A counter of the ``stages.build._task`` remote calls this process
    makes: one per producer and one per merge task of each reduce."""
    from rayhll.stages import build

    count, task = [0], build._task

    class Counted:
        def __init__(self, fn):
            self.fn = fn

        def options(self, **kwargs):
            return Counted(self.fn.options(**kwargs))

        def remote(self, *args, **kwargs):
            count[0] += 1
            return self.fn.remote(*args, **kwargs)

    build._task = lambda: Counted(task())
    return count


def measure(w, i: int, counters: dict[str, list[int]], roles: dict[int, str]) -> dict:
    w.prepare(i)
    before = host.tree_cpu_ticks()
    start = {name: count[0] for name, count in counters.items()}
    t0 = time.perf_counter()
    out = w.run(i)
    wall = time.perf_counter() - t0
    after = host.tree_cpu_ticks()
    op = {r: 0.0 for r in ROLES}
    for pid, ticks in after.items():
        role = roles.setdefault(pid, role_of(pid))
        op[role] += (ticks - before.get(pid, 0)) * 1e3 / os.sysconf("SC_CLK_TCK")
    op.update({name: count[0] - start[name] for name, count in counters.items()})
    w.check(i, out)
    op["total"] = sum(op[r] for r in ROLES)
    op["wall"] = wall * 1e3
    return op


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, default=25, help="timed operations per shape")
    p.add_argument("--files", type=int, default=workloads.inputs.FILES)
    p.add_argument("--rows-per-file", type=int, default=workloads.inputs.ROWS_PER_FILE)
    p.add_argument("--num-cpus", type=int, default=host.NUM_CPUS, help="CPUs of the Ray session")
    args = p.parse_args()

    work_dir = os.path.join(ROOT, ".bench_out", f"cpu_roles-{os.getpid()}")
    os.makedirs(work_dir)
    w = workloads.WORKLOADS[args.workload](ROOT, args.seed, work_dir, args.files, args.rows_per_file)
    roles: dict[int, str] = {}
    host.start_ray(ROOT, num_cpus=args.num_cpus)
    try:
        host.warm_workers(args.num_cpus)
        counters = {"executions": count_executions(), "tasks": count_tasks()}
        for i in range(w.shapes):
            measure(w, i, counters, roles)
        ops = [measure(w, i, counters, roles) for i in range(w.shapes, w.shapes * (args.ops + 1))]
    finally:
        host.stop_ray()
        shutil.rmtree(work_dir, ignore_errors=True)

    counts = ("executions", "tasks")
    cols = ROLES + ("total", "wall") + counts
    print(f"# workload={args.workload} seed={args.seed} num_cpus={args.num_cpus} ops_per_shape={args.ops}")
    print("| shape | " + " | ".join(c if c in counts else f"{c} ms" for c in cols) + " |")
    print("|---" * (len(cols) + 1) + "|")
    for s in range(w.shapes):
        mine = [o for j, o in enumerate(ops) if j % w.shapes == s]
        meds = [statistics.median(o[c] for o in mine) for c in cols]
        cells = [f"{m:g}" if c in counts else f"{m:.0f}" for c, m in zip(cols, meds)]
        print(f"| {s} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
