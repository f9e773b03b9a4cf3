"""The two workloads: each cycles three timed operations in a closed loop,
and the gates that check every result.

Each workload calls only the library's public functions.  ``prepare`` does
untimed per-operation set-up (the crash before a checkpoint resume), ``run``
is the timed operation, from read to a result materialized on the driver,
and ``check`` compares that result with the exact counts from
``perfbench.inputs``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import inputs
from rayhll.core.settings import HllSettings

#: the flagship's default settings; its estimates have relative standard
#: error 1.04 / sqrt(2^log2m)
SETTINGS = HllSettings(11, 5)
SIGMA = 1.04 / math.sqrt(1 << SETTINGS.log2m)
#: a probabilistic estimate fails its gate beyond this many standard errors
GATE_SIGMAS = 5.0


class GateError(AssertionError):
    """An operation's result is wrong."""


def _gate(est: int, exact: int, errors: list[float], what: str) -> None:
    """Exact equality while the true count is in the EXPLICIT range (the
    sketch then holds every distinct hash), the published error bound
    otherwise.  Appends the relative error to ``errors``."""
    err = est / exact - 1.0
    errors.append(err)
    if exact <= SETTINGS.explicit_threshold:
        if est != exact:
            raise GateError(f"{what}: estimate {est} != exact {exact} in the EXPLICIT range")
    elif abs(err) > GATE_SIGMAS * SIGMA:
        raise GateError(f"{what}: estimate {est} vs exact {exact} is {abs(err) / SIGMA:.1f} sigma off")


def _collect(ds) -> pa.Table:
    # not ``to_arrow_refs``: it asks for the schema afterwards, and a
    # map_groups output has none until the plan runs a second time
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


def _digest(table: pa.Table, cols) -> str:
    h = hashlib.sha256()
    for c in cols:
        for v in table.column(c).to_pylist():
            h.update(v if isinstance(v, bytes) else repr(v).encode())
    return h.hexdigest()


@dataclass
class Result:
    """What ``check`` learned from one operation."""

    rows: int
    digest: str
    errors: list[float]  # relative error of every estimate
    extra: dict = field(default_factory=dict)  # per-layer counts only check can see


class Workload:
    name = ""
    shapes = 1  # operations cycle through this many query shapes
    meta: dict  # the inputs, from perfbench.inputs

    def __init__(self, root: str, seed: int, work_dir: str, files: int, rows_per_file: int):
        self.work_dir = work_dir

    def prepare(self, i: int) -> None:
        pass

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> Result:
        raise NotImplementedError

    def read_files(self) -> list[str]:
        """The Parquet files one operation reads (for the read-only drain)."""
        return self.meta["files"]

    def kernel_batch(self) -> pa.Table:
        return pq.read_table(self.read_files()[0])


class Corpus(Workload):
    """Cycle three operations over one multi-file corpus.

    0. ``pipelines.distinct.flagship_global(hash_content=True)``: sha256 and
       the ``core`` kernels do most of the work; the exchange is a
       ``repartition(1)`` of one row per file, so an exchange change should
       leave this shape unchanged.
    1. ``flagship_grouped(hash_content=False)`` over the skewed natural
       ``(repo, lang)`` groups: about a tenth of the input rows cross the
       ``groupby(_bucket)`` exchange as partial sketch rows, so the exchange
       and ``batchmerge`` dominate.
    2. ``state.checkpoint.flagship_checkpointed`` resumed after a simulated
       crash after half the files (the crash is untimed set-up): Parquet
       writes and reads of partials plus a merge on the driver.
    """

    name = "corpus"
    shapes = 3

    def __init__(self, root, seed, work_dir, files, rows_per_file):
        super().__init__(root, seed, work_dir, files, rows_per_file)
        self.meta = inputs.corpus(root, seed, files, rows_per_file)
        self.exact_groups = {(g["repo"], g["lang"]): g for g in self.meta["exact_groups"]}

    def out_dir(self, i: int) -> str:
        return os.path.join(self.work_dir, f"ckpt-{i}")

    def prepare(self, i):
        from rayhll.state.checkpoint import flagship_checkpointed

        if i % 3 != 2:
            return
        shutil.rmtree(self.out_dir(i - 3), ignore_errors=True)
        half = len(self.meta["files"]) // 2
        try:
            flagship_checkpointed(self.meta["files"], self.out_dir(i), SETTINGS, fail_after=half)
        except RuntimeError as e:
            if "simulated crash" not in str(e):
                raise
        else:
            raise GateError("the run did not stop at the simulated crash")
        self.done_before = set(os.listdir(os.path.join(self.out_dir(i), "metrics")))

    def run(self, i):
        import ray.data as rd

        from rayhll.pipelines import distinct
        from rayhll.state.checkpoint import flagship_checkpointed

        shape = i % 3
        if shape == 2:
            return flagship_checkpointed(self.meta["files"], self.out_dir(i), SETTINGS)
        ds = rd.read_parquet(self.meta["files"])
        if shape == 0:
            return distinct.flagship_global(ds, SETTINGS, batch_size=self.meta["batch_size"])
        out = distinct.flagship_grouped(
            ds,
            SETTINGS,
            batch_size=self.meta["batch_size"],
            include_sketches=True,
            hash_content=False,
        )
        return _collect(out)

    def check(self, i, out):
        shape = i % 3
        if shape == 0:
            return self.check_global(out)
        res = self.check_groups(out)
        if shape == 2:
            self.check_resume(i, res)
        return res

    def check_global(self, out: pa.Table) -> Result:
        from rayhll.pipelines import distinct

        row = out.to_pylist()[0]
        if row["rows_in"] != self.meta["rows"]:
            raise GateError(f"rows_in {row['rows_in']} != {self.meta['rows']}")
        errors: list[float] = []
        for k, ec in zip(distinct.KEYS, distinct.EST_COLS):
            _gate(row[ec], self.meta["exact_global"][k], errors, f"global {k}")
        # flagship_global returns estimates only, not the merged sketches
        return Result(self.meta["rows"], _digest(out, distinct.EST_COLS), errors)

    def check_groups(self, table: pa.Table) -> Result:
        from rayhll.pipelines import distinct

        table = table.sort_by([("repo", "ascending"), ("lang", "ascending")])
        got = list(zip(table.column("repo").to_pylist(), table.column("lang").to_pylist()))
        if got != sorted(self.exact_groups):
            raise GateError(f"{len(got)} groups returned, {len(self.exact_groups)} expected")
        errors: list[float] = []
        rows_in = table.column("rows_in").to_pylist()
        for k, ec in zip(distinct.KEYS, distinct.EST_COLS):
            for g, est, n in zip(got, table.column(ec).to_pylist(), rows_in):
                want = self.exact_groups[g]
                if n != want["rows"]:
                    raise GateError(f"group {g}: rows_in {n} != {want['rows']}")
                _gate(est, want[k], errors, f"group {g} {k}")
        return Result(self.meta["rows"], _digest(table, distinct.SKETCH_COLS), errors)

    def check_resume(self, i: int, res: Result) -> None:
        written = []
        for path in glob.glob(os.path.join(self.out_dir(i), "metrics", "part-*.json")):
            if os.path.basename(path) not in self.done_before:
                with open(path) as f:
                    written.append(json.load(f))
        if len(written) + len(self.done_before) != len(self.meta["files"]):
            raise GateError("resume did not complete exactly the pending partitions")
        # partition ids index the sorted input files; the resume read only these
        files = sorted(self.meta["files"])
        res.rows = sum(pq.ParquetFile(files[int(m["partition"])]).metadata.num_rows for m in written)
        res.extra = {
            "state.checkpoint.partition_s": sum(m["wall_s"] for m in written),
            "state.checkpoint.bytes_written": sum(m["bytes_out"] for m in written),
            "state.checkpoint.skipped": len(self.done_before),
        }


class SmallQueries(Workload):
    """Cycle three small query shapes through the ``ray_agg`` driver API,
    all in ``EXACT_MODE`` so every estimate must equal the exact count."""

    name = "small_queries"
    shapes = 3

    def __init__(self, root, seed, work_dir, files, rows_per_file):
        super().__init__(root, seed, work_dir, files, rows_per_file)
        scale = files * rows_per_file / (inputs.FILES * inputs.ROWS_PER_FILE)
        self.meta = inputs.small_tables(root, seed, rows=max(1000, int(inputs.SMALL_ROWS * scale)))

    def run(self, i):
        import ray.data as rd

        from rayhll import ray_agg

        shape = i % 3
        ds = rd.read_parquet(self.meta["files"][shape])
        if shape == 0:
            out = ray_agg.grouped_approx_distinct(
                ds, ["repo"], ["path"], settings=ray_agg.EXACT_MODE, include_sketch=True
            )
            return _collect(out)
        if shape == 1:
            return ray_agg.approx_distinct_sketch(ds, ["path", "commit"], settings=ray_agg.EXACT_MODE)
        out = ray_agg.grouped_approx_distinct(
            ds, ["lang"], ["content"], settings=ray_agg.EXACT_MODE, include_sketch=True
        )
        return _collect(out)

    def check(self, i, out):
        from rayhll import ray_agg

        shape = i % 3
        name = ("docs", "commits", "events")[shape]
        rows = self.meta["rows"][name]
        exact = self.meta["exact"][name]
        if shape == 1:
            est = out.cardinality()
            if est != exact:
                raise GateError(f"{name}: estimate {est} != exact {exact}")
            return Result(rows, hashlib.sha256(out.to_bytes()).hexdigest(), [0.0])
        key = out.column_names[0]
        out = out.sort_by(key)
        got = dict(zip(out.column(key).to_pylist(), out.column(ray_agg.ESTIMATE_COL).to_pylist()))
        if got != exact:
            bad = sorted(k for k in set(got) | set(exact) if got.get(k) != exact.get(k))
            raise GateError(f"{name}: {len(bad)} groups differ from exact, e.g. {bad[:3]}")
        return Result(rows, _digest(out, [key, ray_agg.SKETCH_COL]), [0.0] * len(got))


WORKLOADS = {w.name: w for w in (Corpus, SmallQueries)}
