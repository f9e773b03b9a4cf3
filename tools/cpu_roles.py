#!/usr/bin/env python3
"""Split each benchmark operation's CPU by Ray process role.

    python tools/cpu_roles.py --workload small_queries --seed 7001 --ops 25
    python tools/cpu_roles.py --workload corpus --seed 601 --ops 10 --num-cpus 1

Starts a session the way ``perfbench/run.py`` does, with ``--num-cpus``
CPUs (default: the host's, as there), runs one untimed pass over the
workload's shapes, then ``--ops`` operations per shape.  Around
each operation it reads the CPU ticks of this process and every process it
started (``perfbench.host.tree_cpu_ticks``) and counts the Ray Data
executions the driver starts.  Every result passes the workload's gate.
Prints, per shape, the median CPU-ms per operation of the driver, the
workers, the GCS, the raylet and the other session processes, their total,
the median wall time and the executions per operation.  CPU times are raw,
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


def measure(w, i: int, executions: list[int], roles: dict[int, str]) -> dict:
    w.prepare(i)
    before, runs = host.tree_cpu_ticks(), executions[0]
    t0 = time.perf_counter()
    out = w.run(i)
    wall = time.perf_counter() - t0
    after = host.tree_cpu_ticks()
    op = {r: 0.0 for r in ROLES}
    for pid, ticks in after.items():
        role = roles.setdefault(pid, role_of(pid))
        op[role] += (ticks - before.get(pid, 0)) * 1e3 / os.sysconf("SC_CLK_TCK")
    op["executions"] = executions[0] - runs
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
        executions = count_executions()
        for i in range(w.shapes):
            measure(w, i, executions, roles)
        ops = [measure(w, i, executions, roles) for i in range(w.shapes, w.shapes * (args.ops + 1))]
    finally:
        host.stop_ray()
        shutil.rmtree(work_dir, ignore_errors=True)

    cols = ROLES + ("total", "wall", "executions")
    print(f"# workload={args.workload} seed={args.seed} num_cpus={args.num_cpus} ops_per_shape={args.ops}")
    print("| shape | " + " | ".join(f"{c} ms" if c != "executions" else c for c in cols) + " |")
    print("|---" * (len(cols) + 1) + "|")
    for s in range(w.shapes):
        mine = [o for j, o in enumerate(ops) if j % w.shapes == s]
        meds = [statistics.median(o[c] for o in mine) for c in cols]
        print(f"| {s} | " + " | ".join(f"{m:.0f}" for m in meds[:-1]) + f" | {meds[-1]:g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
