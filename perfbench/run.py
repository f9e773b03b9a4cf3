#!/usr/bin/env python3
"""rayhll benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Inputs are generated from ``--seed`` and cached under ``.bench_data/``
before anything is timed.  With ``--trace 0`` the run measures the
end-to-end metrics: Ray session set-up (median of ``SETUPS`` sessions),
then one client in a closed loop cycling the workload's operations for
``--seconds`` seconds, timing the CPU each operation costs the whole Ray
session at a reference host speed (see ``Loop``).  With ``--trace 1`` it
measures the per-layer metrics: half the time untraced, half with spans
around the library's callables (``perfbench.tracing``), a read-only drain,
one pass on a single-CPU session, and the in-process kernels.  Every
operation's result is checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
os.environ.setdefault("POLARS_MAX_THREADS", "1")  # one core per Ray worker

#: Ray sessions started in an end-to-end run; setup_s is their median
SETUPS = 2
#: host speed probes on each side of a timed operation
CALIBRATIONS = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _BENCH = json.load(f)
E2E_UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}


class Loop:
    """A closed loop: one client, the next operation after the last one
    returned.  Keeps every operation's timing and checks its result.

    Each operation records its wall latency and the CPU time the driver and
    the whole Ray session spent on it.  The host is shared with other
    machines' guests, which change its speed by up to 2x in phases of
    seconds to minutes, so a fixed work unit (``host.calibrate``) is timed
    ``CALIBRATIONS`` times just before and just after the operation, and
    the CPU time is scaled by the median of those timings to what it would
    be at the reference speed ``host.REF_CALIBRATE_S``.  The median, not
    the mean: one work unit caught in a short burst of other load would
    otherwise skew the whole operation.
    """

    def __init__(self, workload):
        self.w = workload
        self.i = 0
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.errors: dict[int, list[float]] = {}  # per shape, of its first operation

    def run(self, seconds: float, min_ops: int) -> list[dict]:
        ops: list[dict] = []
        start = time.monotonic()
        while len(ops) < min_ops or time.monotonic() - start < seconds:
            op = self.one()
            if op:
                ops.append(op)
            elif self.failed > 3 and not ops:
                break
        return ops

    def one(self) -> dict | None:
        from perfbench import host

        i = self.i
        self.i += 1
        self.attempted += 1
        try:
            self.w.prepare(i)
            cal = [host.calibrate() for _ in range(CALIBRATIONS)]
            cpu = host.tree_cpu_ticks()
            t0 = time.time()
            p0 = time.perf_counter()
            out = self.w.run(i)
            lat = time.perf_counter() - p0
            t1 = time.time()
            cpu = host.cpu_s_between(cpu, host.tree_cpu_ticks())
            cal = statistics.median(cal + [host.calibrate() for _ in range(CALIBRATIONS)])
            res = self.w.check(i, out)
            shape = i % self.w.shapes
            if self.digests.setdefault(shape, res.digest) != res.digest:
                raise AssertionError(f"operation {i}: merged sketches differ from the first run")
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.errors.setdefault(shape, res.errors)
        return {
            "i": i,
            "t0": t0,
            "t1": t1,
            "lat": lat,
            "cal": cal,
            "cpu": cpu * host.REF_CALIBRATE_S / cal,
            "rows": res.rows,
            "extra": res.extra,
        }


def per_shape(ops: list[dict], shapes: int, key: str) -> list[float]:
    """Each shape's median of ``key`` over its operations.  Statistics are
    taken per shape first, so a value does not depend on how many
    operations of each shape fitted in the run."""
    return [statistics.median(o[key] for o in ops if o["i"] % shapes == s) for s in range(shapes)]


def cycle_rows(ops: list[dict], shapes: int) -> int:
    """Input rows of one pass over the workload's shapes."""
    return sum(next(o["rows"] for o in ops if o["i"] % shapes == s) for s in range(shapes))


def per_cycle(ops: list[dict], per_op: list[dict], shapes: int) -> dict:
    """Per-layer metrics of one pass over the shapes: each shape's median
    over its operations, summed over the shapes (ratios are averaged), so
    the value does not depend on how many operations of each shape ran."""
    out = {}
    for k in per_op[0]:
        meds = [
            statistics.median(m[k] for o, m in zip(ops, per_op) if o["i"] % shapes == s)
            for s in range(shapes)
        ]
        out[k] = statistics.fmean(meds) if LAYER_UNITS[k] == "ratio" else sum(meds)
    return out


def end_to_end(w, args, loop) -> dict:
    from perfbench import host

    setups = []
    for s in range(SETUPS):
        t0 = time.perf_counter()
        host.start_ray(ROOT)
        host.warm_workers()
        setups.append(time.perf_counter() - t0)
        if s < SETUPS - 1:
            host.stop_ray()
    try:
        loop.run(0, w.shapes)  # warm caches and lazy set-up; checked, not timed
        steal0, total0 = host.cpu_ticks()
        with host.PeakRss() as rss:
            ops = loop.run(args.seconds, min_ops=3)
        steal1, total1 = host.cpu_ticks()
    finally:
        host.stop_ray()
    cpu = per_shape(ops, w.shapes, "cpu")
    wall = per_shape(ops, w.shapes, "lat")
    print(
        f"# setups_s={[round(s, 3) for s in setups]} ray_workers={rss.max_workers} timed_ops={len(ops)}"
        f" steal_frac={(steal1 - steal0) / max(total1 - total0, 1):.3f}"
        f" calibrate_ms={statistics.median(o['cal'] for o in ops) * 1e3:.2f}"
        f" wall_query_p50_ms={statistics.fmean(wall) * 1e3:.1f}"
        f" wall_rows_per_s={cycle_rows(ops, w.shapes) / sum(wall):.0f}"
    )
    return {
        "setup_s": statistics.median(setups),
        "rows_per_cpu_s": cycle_rows(ops, w.shapes) / sum(cpu),
        "query_cpu_ms": statistics.fmean(cpu) * 1e3,
        "peak_rss_mb": rss.peak_mb,
    }


def per_layer(w, args, loop, work_dir: str) -> dict:
    import ray.data as rd

    from perfbench import host, kernels, tracing, workloads

    half = args.seconds / 2
    host.start_ray(ROOT)
    try:
        host.warm_workers()
        loop.run(0, w.shapes)
        base = loop.run(half, min_ops=w.shapes)
    finally:
        host.stop_ray()

    trace_dir = os.path.join(work_dir, "trace")
    os.makedirs(trace_dir)
    os.environ[tracing.TRACE_DIR_ENV] = trace_dir
    host.start_ray(ROOT, hook="perfbench.tracing.worker_setup")
    undo = tracing.patch_driver(trace_dir)
    try:
        host.warm_workers()
        loop.run(0, w.shapes)
        traced = loop.run(half, min_ops=w.shapes)
        reads = []
        for _ in range(3):
            t0 = time.perf_counter()
            rd.read_parquet(w.read_files()).materialize()
            reads.append(time.perf_counter() - t0)
    finally:
        undo()
        host.stop_ray()

    host.start_ray(ROOT, num_cpus=1)
    try:
        host.warm_workers(1)
        single = loop.run(0, w.shapes)
    finally:
        host.stop_ray()

    spans = tracing.load_spans(trace_dir)
    per_op = [tracing.op_metrics(spans, o["t0"], o["t1"], host.NUM_CPUS, os.getpid()) for o in traced]
    for o, m in zip(traced, per_op):
        merges = [
            s for s in spans
            if o["t0"] <= s["start"] <= o["t1"] and s["pid"] == os.getpid()
            and s["name"] == tracing.BUCKET_MERGER
        ]
        m["state.checkpoint.merge_s"] = sum(s["end"] - s["start"] for s in merges)
        for k in ("state.checkpoint.partition_s", "state.checkpoint.bytes_written", "state.checkpoint.skipped"):
            m[k] = o["extra"].get(k, 0)
    out = per_cycle(traced, per_op, w.shapes)
    with open(os.path.join(work_dir, "trace.json"), "w") as f:
        json.dump({"num_cpus": host.NUM_CPUS, "ops": traced, "per_op": per_op, "spans": spans}, f)

    base_wall = per_shape(base, w.shapes, "lat")
    out.update(kernels.kernel_metrics(w.kernel_batch(), workloads.SETTINGS))
    errs = [e for shape_errs in loop.errors.values() for e in shape_errs]
    out.update(
        {
            "sources.read_s": statistics.median(reads),
            "sources.rows": cycle_rows(traced, w.shapes),
            "scaling.eff_1vN": sum(per_shape(single, w.shapes, "lat")) / sum(base_wall) / host.NUM_CPUS,
            "trace.overhead_frac": sum(per_shape(traced, w.shapes, "cpu")) / sum(per_shape(base, w.shapes, "cpu")) - 1.0,
            "wall.rows_per_s": cycle_rows(base, w.shapes) / sum(base_wall),
            "wall.query_p50_ms": statistics.fmean(base_wall) * 1e3,
            "host.calibrate_ms": statistics.median(o["cal"] for o in base + traced) * 1e3,
            "est_err_sigma": (sum(e * e for e in errs) / len(errs)) ** 0.5 / workloads.SIGMA,
        }
    )
    print(f"# untraced_ops={len(base)} traced_ops={len(traced)} single_cpu_ops={len(single)} spans={len(spans)}")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--files", type=int, default=None, help="corpus files (default: inputs.FILES)")
    p.add_argument("--rows-per-file", type=int, default=None)
    args = p.parse_args()

    sys.path.insert(0, ROOT)
    import rayhll  # the checkout's own copy, built from source: nothing to install

    if os.path.dirname(os.path.dirname(os.path.abspath(rayhll.__file__))) != ROOT:
        sys.exit(f"perfbench: rayhll must come from {ROOT}, not {rayhll.__file__}")
    from perfbench import host, inputs, workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    work_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work_dir)
    w = workloads.WORKLOADS[args.workload](
        ROOT,
        args.seed,
        work_dir,
        args.files or inputs.FILES,
        args.rows_per_file or inputs.ROWS_PER_FILE,
    )
    print(f"# workload={args.workload} seed={args.seed} num_cpus={host.NUM_CPUS} trace={args.trace}")
    loop = Loop(w)
    try:
        if args.trace:
            values, units = per_layer(w, args, loop, work_dir), LAYER_UNITS
        else:
            values, units = end_to_end(w, args, loop), E2E_UNITS
    finally:
        for name in os.listdir(work_dir):  # keep only the trace summary
            if name.startswith("ckpt-") or name == "trace":
                shutil.rmtree(os.path.join(work_dir, name), ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics without a unit or a value: {set(values) ^ set(units)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
