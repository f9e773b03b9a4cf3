"""Spans around the library's public callables, recorded from outside it.

``worker_setup`` is Ray's ``worker_process_setup_hook`` for a traced
session: in every worker it replaces the callables listed in ``WORKER_SPANS``
with wrappers that time each call.  ``patch_driver`` wraps the bucket-merger
factory in the driver, because the merger is a closure that Ray ships by
value; the wrapper travels with it.  Nothing under ``rayhll/`` is edited.

A span is a dict: name, id, parent, pid, task (Ray task id, or None on the
driver), start and end (``time.time()``, comparable across processes on one
host), rows_in, rows_out, bytes_in, bytes_out.  Each process keeps its spans
in memory and appends them to ``spans-<pid>.jsonl`` in the trace directory
when a top-level span ends: Ray kills idle workers at shutdown without
running exit handlers, so a span still in memory then would be lost.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import statistics
import threading
import time

import numpy as np
import pyarrow as pa

TRACE_DIR_ENV = "RAYHLL_BENCH_TRACE_DIR"

#: the recorder of this process; None = tracing off
RECORDER = None

#: (module, attribute, span name) wrapped in every worker of a traced session
WORKER_SPANS = [
    ("rayhll.pipelines.distinct", "HashStage.__call__", "pipelines.distinct.HashStage"),
    ("rayhll.pipelines.distinct", "MultiKeyBuild.__call__", "pipelines.distinct.MultiKeyBuild"),
    ("rayhll.pipelines.distinct", "merge_partials_block", "pipelines.distinct.merge_partials_block"),
    ("rayhll.stages.build", "BuildPartials.__call__", "stages.build.BuildPartials"),
    ("rayhll.stages.build", "merge_sketch_rows", "stages.build.merge_sketch_rows"),
    ("rayhll.functions.hashing", "hash64_table", "functions.hashing.hash64_table"),
    ("rayhll.functions.hashing", "sha256_raw64", "functions.hashing.sha256_raw64"),
    ("rayhll.core.batchbuild", "build_grouped_sketches", "core.batchbuild.build_grouped_sketches"),
    ("rayhll.core.batchmerge", "merge_grouped_blobs", "core.batchmerge.merge_grouped_blobs"),
]
BUCKET_MERGER = "stages.build.bucket_merger"

HASH_SPANS = {
    "pipelines.distinct.HashStage",
    "functions.hashing.hash64_table",
    "functions.hashing.sha256_raw64",
}
BUILD_SPANS = {"pipelines.distinct.MultiKeyBuild", "stages.build.BuildPartials"}
MERGE_SPANS = {
    "pipelines.distinct.merge_partials_block",
    "stages.build.merge_sketch_rows",
    BUCKET_MERGER,
}


class Recorder:
    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, f"spans-{os.getpid()}.jsonl")
        self.buf: list[dict] = []
        self.local = threading.local()
        self.lock = threading.Lock()
        self.next_id = 0

    def call(self, name: str, fn, args, kwargs):
        stack = self.local.__dict__.setdefault("stack", [])
        with self.lock:
            self.next_id += 1
            sid = f"{os.getpid()}.{self.next_id}"
        span = {
            "name": name,
            "id": sid,
            "parent": stack[-1] if stack else None,
            "pid": os.getpid(),
            "task": _task_id(),
        }
        span["rows_in"], span["bytes_in"] = _size(args)
        stack.append(sid)
        span["start"] = time.time()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.time()
            stack.pop()
        span["rows_out"], span["bytes_out"] = _size((out,))
        with self.lock:
            self.buf.append(span)
            if not stack:
                self.flush()
        return out

    def flush(self) -> None:
        if self.buf:
            with open(self.path, "a") as f:
                f.writelines(json.dumps(s) + "\n" for s in self.buf)
            self.buf = []


def _task_id():
    try:
        import ray

        if ray.is_initialized():
            return ray.get_runtime_context().get_task_id()
    except Exception:  # the driver of a finished session
        return None
    return None


def _size(values) -> tuple[int, int]:
    """(rows, bytes) of the first tabular / array value in ``values``."""
    for v in values:
        if isinstance(v, pa.Table):
            return v.num_rows, v.nbytes
        if isinstance(v, (pa.Array, pa.ChunkedArray)):
            return len(v), v.nbytes
        if isinstance(v, np.ndarray):
            return len(v), v.nbytes
        if isinstance(v, tuple) and v and isinstance(v[0], np.ndarray):
            return len(v[0]), 0  # (unique codes, ...) of the core kernels
    return 0, 0


def traced(name: str, fn):
    """``fn`` wrapped so that each call records a span when this process
    has a recorder.  The recorder is looked up through the imported module
    at call time, so a wrapper shipped by value to a worker finds the
    worker's recorder."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        from perfbench import tracing

        rec = tracing.RECORDER
        if rec is None:
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs)

    return wrapper


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: start this worker's recorder and
    wrap every callable in ``WORKER_SPANS``."""
    import importlib

    global RECORDER
    RECORDER = Recorder(os.environ[TRACE_DIR_ENV])
    for module, attr, name in WORKER_SPANS:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, traced(name, getattr(owner, leaf)))


def patch_driver(trace_dir: str):
    """Start the driver's recorder and wrap the bucket-merger factory where
    the pipelines look it up.  Returns a function that undoes both."""
    from rayhll import ray_agg
    from rayhll.stages import build

    global RECORDER
    RECORDER = Recorder(trace_dir)
    original = build.make_bucket_merger

    @functools.wraps(original)
    def make_bucket_merger(*args, **kwargs):
        return traced(BUCKET_MERGER, original(*args, **kwargs))

    build.make_bucket_merger = ray_agg.make_bucket_merger = make_bucket_merger

    def undo() -> None:
        global RECORDER
        RECORDER.flush()
        RECORDER = None
        build.make_bucket_merger = ray_agg.make_bucket_merger = original

    return undo


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for path in glob.glob(os.path.join(trace_dir, "spans-*.jsonl")):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f)
    return sorted(spans, key=lambda s: s["start"])


def op_metrics(spans: list[dict], t0: float, t1: float, num_cpus: int, driver_pid: int) -> dict:
    """Per-layer metrics of one operation from the spans that started in
    its wall-clock window ``[t0, t1]``."""
    spans = [s for s in spans if t0 <= s["start"] <= t1]
    dur = lambda ss: sum(s["end"] - s["start"] for s in ss)  # noqa: E731
    hashing = [s for s in spans if s["name"] in HASH_SPANS]
    build = [s for s in spans if s["name"] in BUILD_SPANS]
    merge = [s for s in spans if s["name"] in MERGE_SPANS]
    # the exchange separates the tasks that build partials (and any merge
    # fused into them) from the merges that read its output
    build_tasks = {s["task"] for s in build}
    upstream_end = max((s["end"] for s in spans if s["task"] in build_tasks), default=t0)
    post = [s for s in merge if s["task"] not in build_tasks] or merge
    post_rows = [s["rows_in"] for s in post]
    worker = [s for s in spans if s["pid"] != driver_pid]
    wall = t1 - t0
    partials = sum(s["rows_out"] for s in build)
    return {
        "pipelines.distinct.hash.busy_s": dur(hashing),
        "pipelines.distinct.hash.calls": len(hashing),
        "pipelines.distinct.hash.rows": sum(s["rows_in"] for s in hashing),
        "pipelines.distinct.build.busy_s": dur(build),
        "pipelines.distinct.build.calls": len(build),
        "pipelines.distinct.build.rows_in": sum(s["rows_in"] for s in build),
        "pipelines.distinct.build.partials_out": partials,
        "pipelines.distinct.build.compress": sum(s["rows_in"] for s in build) / max(partials, 1),
        "stages.build.merge.busy_s": dur(merge),
        "stages.build.merge.calls": len(merge),
        "stages.build.merge.rows_in": sum(s["rows_in"] for s in merge),
        "stages.build.merge.groups_out": sum(s["rows_out"] for s in post),
        "exchange.rows": sum(post_rows),
        "exchange.bytes": sum(s["bytes_in"] for s in post),
        "exchange.barrier_s": max(0.0, min((s["start"] for s in post), default=t0) - upstream_end),
        "exchange.skew": max(post_rows, default=0) / max(statistics.fmean(post_rows or [1]), 1e-9),
        "ray_agg.dispatch_s": min((s["start"] for s in worker), default=t1) - t0,
        "ray_agg.tail_s": t1 - max((s["end"] for s in spans), default=t1),
        "workers.busy_frac": dur([s for s in worker if s["parent"] is None]) / (wall * num_cpus),
    }
