"""The one merge primitive (``stages.build.reduce``) behind every sketch
aggregation: producers slice their partial rows by ``ghash % B``, B the CPU
count, and plain Ray merge tasks merge each slice in one call.  The bytes
do not depend on B, on the direct path or on the partial block count, and
no Ray Data exchange runs."""

import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet
import pytest


def _input(blocks: int = 4, rows: int = 1500):
    """A small multi-block dataset made without an exchange."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    tables = []
    for _ in range(blocks):
        repo = rng.choice(["r0", "r1", "r2", "r3"], rows)
        tables.append(
            pa.table(
                {
                    "repo": pa.array(repo.tolist()),
                    "lang": pa.array(rng.choice(["py", "go"], rows).tolist()),
                    "path": pa.array([f"p{i}" for i in rng.integers(0, 700, rows)]),
                    "commit": pa.array([f"c{i}" for i in rng.integers(0, 40, rows)]),
                    "content": pa.array([f"x{i}" for i in rng.integers(0, 900, rows)]),
                    "v": pa.array(rng.integers(0, 3000, rows)),
                }
            )
        )
    return rd.from_arrow(tables)


def _cm_build(batch: pa.Table) -> bytes:
    from rayhll.sketches.countmin import CountMinSketch

    cm = CountMinSketch(3, 256)
    cm.add_batch(batch.column("v").to_numpy())
    return cm.to_bytes()


def _sorted(ds, by) -> pa.Table:
    table = pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return table.sort_by([(c, "ascending") for c in by])


def _grouped_approx_distinct():
    from rayhll import ray_agg

    out = ray_agg.grouped_approx_distinct(_input(), ["repo"], ["path"], include_sketch=True)
    return _sorted(out, ["repo"])


def _grouped_aggregate_family():
    from rayhll import ray_agg
    from rayhll.sketches.countmin import CountMinSketch

    out = ray_agg.grouped_aggregate_family(_input(), ["repo"], _cm_build, CountMinSketch)
    return _sorted(out, ["repo"])


def _grouped_merge_family():
    from rayhll import ray_agg
    from rayhll.sketches.countmin import CountMinSketch

    def blobs(batch: pa.Table) -> pa.Table:
        one = [_cm_build(batch.slice(i, 1)) for i in range(0, batch.num_rows, 50)]
        repo = batch.column("repo").take(pa.array(range(0, batch.num_rows, 50)))
        return pa.table({"repo": repo, "blob": pa.array(one, type=pa.binary())})

    rows = _input().map_batches(blobs, batch_format="pyarrow")
    return _sorted(ray_agg.grouped_merge_family(rows, ["repo"], CountMinSketch), ["repo"])


def _flagship_grouped():
    from rayhll.pipelines import distinct

    out = distinct.flagship_grouped(_input(), include_sketches=True)
    return _sorted(out, ["repo", "lang"])


def _tree_merge():
    from rayhll import ray_agg

    return ray_agg.tree_merge(ray_agg.build_partials(_input(), ["content"])).take_all()


def _approx_distinct_sketch():
    from rayhll import ray_agg

    return ray_agg.approx_distinct_sketch(_input(), ["path", "commit"]).to_bytes()


def _aggregate_family():
    from rayhll import ray_agg
    from rayhll.sketches.countmin import CountMinSketch

    return ray_agg.aggregate_family(_input(), _cm_build, CountMinSketch).to_bytes()


def _flagship_global():
    from rayhll.pipelines import distinct

    # returns estimates only; identical estimates and rows_in stand in for
    # the merged sketches it does not return
    return distinct.flagship_global(_input())


def _profile_distinct():
    from rayhll.pipelines.profile import profile_distinct

    # every column of the input, each merged as a group
    return _sorted(profile_distinct(_input()), ["col_name"])


def _profile_distinct_of_columns():
    from rayhll.pipelines.profile import profile_distinct

    return _sorted(profile_distinct(_input(), ["path", "v"]), ["col_name"])


ENTRY_POINTS = [
    _grouped_approx_distinct,
    _grouped_aggregate_family,
    _grouped_merge_family,
    _flagship_grouped,
    _tree_merge,
    _approx_distinct_sketch,
    _aggregate_family,
    _flagship_global,
    _profile_distinct,
]


def _with_cpus(monkeypatch, cpus: int) -> None:
    """Merge in ``cpus`` slices: patch the one CPU-count read."""
    from rayhll.stages import build

    monkeypatch.setattr(build, "avail_cpus", lambda: cpus)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_fold_and_exchange_merge_identically(ray_session, monkeypatch, entry):
    """At B = 1 each merge meets all of its rows in one call, as the driver
    fold this merge replaced did; at B = 2 and 5 a grouped merge's groups
    spread over merge tasks, as over the exchange's buckets.  The bytes are
    equal."""
    outs = []
    for cpus in (1, 2, 5):
        _with_cpus(monkeypatch, cpus)
        outs.append(entry())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_small_input_runs_no_exchange(ray_session, monkeypatch, entry):
    import ray.data as rd

    def refuse(*args, **kwargs):
        raise AssertionError("a sketch merge runs no Ray Data exchange")

    monkeypatch.setattr(rd.Dataset, "groupby", refuse)
    monkeypatch.setattr(rd.Dataset, "repartition", refuse)
    out = entry()
    assert out.num_rows if isinstance(out, pa.Table) else out


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(key_cols=["v"], hash_method="bogus"), "unknown hash_method"),
        (dict(key_cols=[]), "at least one column"),
        (dict(key_cols=["path", "commit"], hash_method="sha256"), "exactly one key"),
    ],
)
def test_build_partials_checks_arguments_on_the_driver(ray_session, kwargs, match):
    """The actor-pool form used to raise inside an actor, wrapped by Ray, and
    only once the plan ran; now the call itself raises."""
    from rayhll import ray_agg

    with pytest.raises(ValueError, match=match):
        ray_agg.build_partials(_input(), concurrency=1, **kwargs)


def _write_parts(root, parts: int) -> list[str]:
    """The rows of ``_input()``, written to ``parts`` Parquet files."""
    table = pa.concat_tables(_input().iter_batches(batch_format="pyarrow", batch_size=None))
    size = -(-table.num_rows // parts)
    files = []
    for i in range(parts):
        files.append(str(root / f"part-{i}.parquet"))
        pa.parquet.write_table(table.slice(i * size, size), files[-1])
    return files


@pytest.fixture(scope="module")
def parquet_files(ray_session, tmp_path_factory):
    """The rows of ``_input()``, written to 3 Parquet files."""
    return _write_parts(tmp_path_factory.mktemp("parquet"), 3)


class _Launched(list):
    """Read tasks in launch order; ``runs`` holds each direct producer's
    read tasks and ``metadata`` the ref of its list of slice metadata."""

    def __init__(self):
        super().__init__()
        self.runs = []
        self.metadata = []

    def clear(self):
        super().clear()
        self.runs.clear()
        self.metadata.clear()


@pytest.fixture()
def launched(monkeypatch):
    """The read tasks the direct path launches, in launch order: every
    read task of every producer's run."""
    from rayhll.stages import build

    tasks = _Launched()
    task = build._task

    class Spy:
        def __init__(self, task):
            self.task = task

        def options(self, **kwargs):
            return Spy(self.task.options(**kwargs))

        def remote(self, slices, key, merge, make, *args):
            out = self.task.remote(slices, key, merge, make, *args)
            if make is build._read_and_map:
                tasks.extend(args[1])
                tasks.runs.append(list(args[1]))
                tasks.metadata.append(out[-1])
            return out

    monkeypatch.setattr(build, "_task", lambda: Spy(task()))
    return tasks


def _caller_udf(batch: pa.Table) -> pa.Table:
    return batch


def _use_input(monkeypatch, make) -> None:
    """Run the entry points above over ``make()`` instead of ``_input()``."""
    monkeypatch.setattr(sys.modules[__name__], "_input", make)


DIRECT_ENTRY_POINTS = [
    _approx_distinct_sketch,
    _grouped_approx_distinct,
    _aggregate_family,
    _flagship_global,
    _flagship_grouped,
    _profile_distinct,
    _profile_distinct_of_columns,
]


@pytest.mark.parametrize("entry", DIRECT_ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_bare_read_runs_no_execution(ray_session, monkeypatch, parquet_files, executions, entry):
    """Over a bare ``read_parquet`` the build runs as plain tasks fused with
    the read (the grouped results are collected too); a filter or a
    caller's UDF keeps the plan in Ray Data, which runs it once."""
    import ray.data as rd

    from tests.conftest import _executions_of

    cases = [
        (0, lambda: rd.read_parquet(parquet_files)),
        (1, lambda: rd.read_parquet(parquet_files).filter(lambda row: row["v"] >= 0)),
        (1, lambda: rd.read_parquet(parquet_files).map_batches(_caller_udf, batch_format="pyarrow")),
    ]
    for want, make in cases:
        _use_input(monkeypatch, make)
        assert _executions_of(executions, entry) == want


GLOBAL_ENTRY_POINTS = {_tree_merge, _approx_distinct_sketch, _aggregate_family, _flagship_global}


@pytest.mark.parametrize("cpus", [1, 5], ids=["fold", "exchange"])
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_direct_path_merges_like_ray_data(
    ray_session, monkeypatch, parquet_files, launched, entry, cpus
):
    """A bare read takes the direct path, its materialized copy the Ray Data
    path; both merge to the same bytes, in one slice (every row of a merge
    in one call) and in five.  ``grouped_merge_family`` maps with a
    caller's UDF, so it stays in Ray Data on both."""
    import ray.data as rd

    from rayhll.stages import build

    direct = rd.read_parquet(parquet_files)
    via_ray_data = rd.read_parquet(parquet_files).materialize()
    merged, reduce = [], build.reduce
    monkeypatch.setattr(build, "reduce", lambda *a: merged.append(reduce(*a)) or merged[-1])
    _with_cpus(monkeypatch, cpus)
    _use_input(monkeypatch, lambda: direct)
    got = entry()
    assert len(launched) == (0 if entry is _grouped_merge_family else len(parquet_files))
    # three producers: a grouped merge over five slices runs several merge tasks
    assert (len(merged[0]) > 1) == (cpus > 1 and entry not in GLOBAL_ENTRY_POINTS)
    _use_input(monkeypatch, lambda: via_ray_data)
    launched.clear()
    want = entry()
    assert not launched
    assert got == want


@pytest.mark.parametrize(
    "read_kwargs, tasks",
    [(dict(columns=["repo", "path"]), 3), (dict(override_num_blocks=2), 2)],
    ids=["columns", "override_num_blocks"],
)
def test_direct_path_keeps_the_read_options(
    ray_session, monkeypatch, parquet_files, launched, read_kwargs, tasks
):
    """The direct path runs the read's own tasks: as many as Ray Data would
    launch for ``override_num_blocks``, each reading only the columns the
    build hashes (all that ``columns`` names, here)."""
    import ray.data as rd

    direct = rd.read_parquet(parquet_files, **read_kwargs)
    via_ray_data = rd.read_parquet(parquet_files, **read_kwargs).materialize()
    _use_input(monkeypatch, lambda: direct)
    got = _grouped_approx_distinct()
    assert len(launched) == tasks
    assert _columns_read(launched) == {("repo", "path")}
    _use_input(monkeypatch, lambda: via_ray_data)
    assert got == _grouped_approx_distinct()


def _columns_read(read_tasks) -> set:
    """The column names of every block the read tasks yield."""
    return {tuple(block.column_names) for rt in read_tasks for block in rt()}


ALL_COLUMNS = ("repo", "lang", "path", "commit", "content", "v")

#: what each direct entry point's read decodes, in the files' column order
COLUMNS_READ = {
    _approx_distinct_sketch: ("path", "commit"),
    _grouped_approx_distinct: ("repo", "path"),
    _aggregate_family: ALL_COLUMNS,
    _flagship_global: ("repo", "path", "commit", "content"),
    _flagship_grouped: ("repo", "lang", "path", "commit", "content"),
    _profile_distinct: ALL_COLUMNS,
    _profile_distinct_of_columns: ("path", "v"),
}


@pytest.mark.parametrize("entry", DIRECT_ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_direct_read_decodes_only_the_columns_the_build_reads(
    ray_session, monkeypatch, parquet_files, launched, entry
):
    """Each build's ``input_columns`` narrow the Parquet read; a caller's
    ``build_partial`` and a profile of every column still read them all."""
    import ray.data as rd

    _use_input(monkeypatch, lambda: rd.read_parquet(parquet_files))
    entry()
    assert len(launched) == len(parquet_files)
    assert _columns_read(launched) == {COLUMNS_READ[entry]}


def _direct_equals_ray_data(monkeypatch, launched, make, entry, columns):
    """``entry`` over ``make()`` runs direct, reading ``columns``, and gives
    the bytes of the Ray Data path over the same read, materialized."""
    direct, via_ray_data = make(), make().materialize()
    _use_input(monkeypatch, lambda: direct)
    got = entry()
    assert launched and _columns_read(launched) == {columns}
    launched.clear()
    _use_input(monkeypatch, lambda: via_ray_data)
    assert got == entry()
    assert not launched
    return got


@pytest.mark.parametrize(
    "entry, columns",
    [
        (_grouped_approx_distinct, ("path", "repo")),
        (_flagship_grouped, ("lang", "path", "commit", "content", "repo")),
    ],
    ids=["grouped_approx_distinct", "flagship_grouped"],
)
def test_projection_keeps_hive_partition_columns(
    ray_session, monkeypatch, tmp_path, parquet_files, launched, entry, columns
):
    """``repo`` is a hive partition column, filled in from the path after
    the projected file columns."""
    import pyarrow.dataset as pads
    import ray.data as rd

    table = pa.concat_tables(pa.parquet.read_table(f) for f in parquet_files)
    pads.write_dataset(
        table, tmp_path, format="parquet", partitioning=["repo"], partitioning_flavor="hive"
    )
    _direct_equals_ray_data(
        monkeypatch, launched, lambda: rd.read_parquet(str(tmp_path)), entry, columns
    )


def test_projection_keeps_a_pushed_down_filter(ray_session, monkeypatch, parquet_files, launched):
    """The filter reads ``v``, which the build does not hash."""
    import pyarrow.dataset as pads
    import ray.data as rd
    from ray.data._internal import util

    # a filtered read task has no row count, so direct only if the tasks fill the CPUs
    monkeypatch.setattr(util, "_estimate_avail_cpus", lambda placement_group: len(parquet_files))
    make = lambda: rd.read_parquet(parquet_files, filter=pads.field("v") >= 1500)  # noqa: E731
    _direct_equals_ray_data(monkeypatch, launched, make, _grouped_approx_distinct, ("repo", "path"))


def test_projection_keeps_include_paths(
    ray_session, monkeypatch, tmp_path, parquet_files, launched
):
    """``path`` is each row's file, added after the projected columns."""
    import ray.data as rd

    files = []
    for i, f in enumerate(parquet_files):
        files.append(str(tmp_path / f"part-{i}.parquet"))
        pa.parquet.write_table(pa.parquet.read_table(f).drop_columns(["path"]), files[-1])
    make = lambda: rd.read_parquet(files, include_paths=True)  # noqa: E731
    _direct_equals_ray_data(monkeypatch, launched, make, _grouped_approx_distinct, ("repo", "path"))


@pytest.mark.parametrize("hashed_first", [True, False], ids=["hashed-first", "hashed-second"])
@pytest.mark.parametrize("hash_content", [True, False], ids=["sha256", "fast-hash"])
@pytest.mark.parametrize(
    "flagship, columns",
    [
        ("flagship_global", ("repo", "path", "commit", "content", "content_raw64")),
        ("flagship_grouped", ("repo", "path", "commit", "lang", "content", "content_raw64")),
    ],
)
def test_content_raw64_in_only_some_files(
    ray_session, monkeypatch, tmp_path, launched, flagship, columns, hash_content, hashed_first
):
    """Only one of two files holds ``HashStage``'s ``content_raw64``.  The
    direct read asks both for it as their unified schema, so the other
    file's rows hold NULL in it, as in the Ray Data path's unified blocks;
    ``MultiKeyBuild`` hashes a NULL ``content_raw64`` as ``HashStage``
    would.  Both paths give the bytes of the same rows with the column in
    every file, with or without ``hash_content``."""
    import ray.data as rd

    from rayhll.pipelines import distinct
    from rayhll.pipelines.distinct import HashStage
    from rayhll.sources.synth import synth_code_batch

    def entry():
        if flagship == "flagship_global":
            return distinct.flagship_global(_input(), hash_content=hash_content)
        out = distinct.flagship_grouped(_input(), include_sketches=True, hash_content=hash_content)
        return _sorted(out, ["repo", "lang"])

    hashed = [
        HashStage()(synth_code_batch(np.arange(i * 1000, (i + 1) * 1000), 2000))
        for i in range(2)
    ]
    hashed = [t.drop_columns(["content_sha256"]) for t in hashed]
    plain = [t.drop_columns(["content_raw64"]) for t in hashed]
    both = [str(tmp_path / f"hashed-{i}.parquet") for i in range(2)]
    one = [str(tmp_path / f"one-{i}.parquet") for i in range(2)]
    mixed = [hashed[0], plain[1]] if hashed_first else [plain[0], hashed[1]]
    for table, f in zip(hashed + mixed, both + one):
        pa.parquet.write_table(table, f)
    _use_input(monkeypatch, lambda: rd.read_parquet(both))
    want = entry()
    launched.clear()
    make = lambda: rd.read_parquet(one)  # noqa: E731
    assert _direct_equals_ray_data(monkeypatch, launched, make, entry, columns) == want


def test_filter_over_files_lacking_a_kept_column_reads_them_whole(
    ray_session, monkeypatch, tmp_path, launched
):
    """The second file lacks ``content_raw64``, and the filter names
    ``lang``, which ``flagship_global`` does not read: a read schema of the
    kept columns would leave the filter's column out, so each file is read
    whole through the files' unified schema (NULL ``content_raw64`` in the
    second), and both paths give the same estimates, with or without
    ``hash_content``."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from rayhll.pipelines import distinct
    from rayhll.pipelines.distinct import HashStage
    from rayhll.sources.synth import synth_code_batch

    table = HashStage()(synth_code_batch(np.arange(2000), 2000)).drop_columns(["content_sha256"])
    files = [str(tmp_path / f"part-{i}.parquet") for i in range(2)]
    pa.parquet.write_table(table.slice(0, 1000), files[0])
    pa.parquet.write_table(table.slice(1000).drop_columns(["content_raw64"]), files[1])
    make = lambda: rd.read_parquet(files, filter=pads.field("lang") != "rust")  # noqa: E731
    _with_cpus(monkeypatch, len(files))  # a filtered read's row counts are unknown
    for hash_content in (True, False):
        launched.clear()
        direct, via_ray_data = make(), make().materialize()
        got = distinct.flagship_global(direct, hash_content=hash_content)
        assert _columns_read(launched) == {tuple(table.column_names)}
        launched.clear()
        assert got == distinct.flagship_global(via_ray_data, hash_content=hash_content)
        assert not launched


def test_explicit_schema_reads_every_column(ray_session, monkeypatch, parquet_files, launched):
    """Files are read as the given schema, so the read is not narrowed."""
    import ray.data as rd

    schema = pa.parquet.read_schema(parquet_files[0])
    make = lambda: rd.read_parquet(parquet_files, schema=schema)  # noqa: E731
    _direct_equals_ray_data(monkeypatch, launched, make, _grouped_approx_distinct, ALL_COLUMNS)


def test_failed_read_task_raises_to_the_caller(
    ray_session, monkeypatch, tmp_path, parquet_files, launched
):
    """A file deleted after the read was planned: the direct task's error
    reaches the caller within a bounded wait, and no result is returned.
    At B = 4 each file is its own run; at B = 1 the deleted second file is
    read after the first, in the same task."""
    import os
    import shutil
    import threading

    import ray.data as rd

    from rayhll import ray_agg

    for cpus, run_lengths in ((4, [1, 1, 1]), (1, [3])):
        _with_cpus(monkeypatch, cpus)
        launched.clear()
        copies = tmp_path / f"cpus-{cpus}"
        copies.mkdir()
        files = [shutil.copy(f, copies) for f in parquet_files]
        ds = rd.read_parquet(files)
        os.remove(files[1])
        outcome = []

        def run():
            try:
                outcome.append(ray_agg.approx_distinct_sketch(ds, ["path"]))
            except Exception as e:  # the outcome under test
                outcome.append(e)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], FileNotFoundError)
        assert len(launched) == len(files)
        assert [len(run) for run in launched.runs] == run_lengths


#: the read task sizes of a seed-601 ``corpus`` read
CORPUS_SIZES = [9375838, 9372800, 9373117, 9371890, 9377204, 9377287, 9373464, 9379680]


@pytest.mark.parametrize(
    "sizes, n, lengths",
    [
        (CORPUS_SIZES, 4, [2, 2, 2, 2]),
        ([7] * 8, 3, [3, 2, 3]),
        ([100, 1, 1, 1], 4, [1, 3]),
        ([1, 1, 1, 1, 100], 2, [4, 1]),
        ([None] * 3, 5, [1, 1, 1]),
        ([5], 4, [1]),
        ([3] * 5, 1, [5]),
    ],
)
def test_runs_cut_at_the_nearest_boundary(sizes, n, lengths):
    """Every item once, in order, in at most ``n`` runs, each cut at the
    item boundary nearest to its share.  The corpus read was cut [3, 2, 2,
    1] when each cut fell after the item that crossed its share."""
    from rayhll.stages import build

    got = build.runs(list(range(len(sizes))), sizes, n)
    assert [len(run) for run in got] == lengths
    assert [i for run in got for i in run] == list(range(len(sizes)))


class _Logged:
    """A read task that appends its producer's run index and its file to
    ``log`` when it runs."""

    def __init__(self, read_task, log: str, run: int):
        self.read_task, self.log, self.run = read_task, log, run

    @property
    def metadata(self):
        return self.read_task.metadata

    def __call__(self):
        with open(self.log, "a") as f:
            f.write(f"{self.run} {self.metadata.input_files[0]}\n")
        return self.read_task()


@pytest.fixture(scope="module")
def eight_files(ray_session, tmp_path_factory):
    """The rows of ``_input()``, written to 8 Parquet files."""
    return _write_parts(tmp_path_factory.mktemp("eight"), 8)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_direct_producers_are_runs_of_read_tasks(
    ray_session, monkeypatch, tmp_path, eight_files, launched, entry
):
    """R = 8 read tasks at B = 1, 2 and 4: min(R, B) producer tasks, each
    reading its contiguous run of read tasks in order, and every read task
    once.  The bytes are those of the Ray Data path over the materialized
    read at every B.  ``grouped_merge_family`` maps with a caller's UDF, so
    it stays in Ray Data."""
    import ray.data as rd

    from rayhll.stages import build

    log, reduce = tmp_path / "reads.log", build.reduce

    def logged(jobs, merge, slices, key):
        jobs = [
            (make, (args[0], [_Logged(rt, str(log), i) for rt in args[1]], args[2]), options)
            if make is build._read_and_map
            else (make, args, options)
            for i, (make, args, options) in enumerate(jobs)
        ]
        return reduce(jobs, merge, slices, key)

    _use_input(monkeypatch, lambda: rd.read_parquet(eight_files).materialize())
    want = entry()
    direct = rd.read_parquet(eight_files)
    _use_input(monkeypatch, lambda: direct)
    monkeypatch.setattr(build, "reduce", logged)
    for cpus in (1, 2, 4):
        _with_cpus(monkeypatch, cpus)
        launched.clear()
        log.unlink(missing_ok=True)
        assert entry() == want
        if entry is _grouped_merge_family:
            assert not launched
            continue
        assert len(launched.runs) == min(len(eight_files), cpus)
        assert [rt.metadata.input_files for rt in launched] == [[f] for f in eight_files]
        reads = [line.split() for line in log.read_text().splitlines()]
        runs = [
            [str(i), f]
            for i, run in enumerate(launched.runs)
            for rt in run
            for f in rt.metadata.input_files
        ]
        assert sorted(reads, key=lambda read: int(read[0])) == runs


#: a block budget small enough that each read task yields many blocks
SMALL_BLOCK = 64 * 1024


def _small_context_cm_build(batch: pa.Table) -> bytes:
    from ray.data import DataContext

    assert DataContext.get_current().target_max_block_size == SMALL_BLOCK
    return _cm_build(batch)


def test_direct_task_runs_under_the_callers_context(
    ray_session, monkeypatch, parquet_files, launched
):
    """The direct task sets the dataset's ``DataContext``: under a small
    ``target_max_block_size`` the read yields many blocks per task, one
    partial each, and the merged bytes do not change."""
    import ray
    import ray.data as rd
    from ray.data import DataContext

    from rayhll import ray_agg
    from rayhll.sketches.countmin import CountMinSketch

    want = ray_agg.aggregate_family(rd.read_parquet(parquet_files), _cm_build, CountMinSketch)
    launched.clear()
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", SMALL_BLOCK)
    ds = rd.read_parquet(parquet_files)
    got = ray_agg.aggregate_family(ds, _small_context_cm_build, CountMinSketch)
    # a global merge: each read task returns its partials as one slice
    partial_rows = [md.num_rows for metas in ray.get(launched.metadata) for md in metas]
    assert len(partial_rows) == len(parquet_files)
    assert min(partial_rows) > 4
    assert got.to_bytes() == want.to_bytes()


def _flagship_global_in_small_batches():
    from rayhll.pipelines import distinct

    return distinct.flagship_global(_input(), batch_size=500)


@pytest.mark.parametrize("cpus", [3, 4])
@pytest.mark.parametrize(
    "entry, min_block",
    [(_flagship_global_in_small_batches, None), (_aggregate_family, 1024)],
    ids=["rows", "bytes"],
)
def test_direct_path_only_where_it_keeps_parallelism(
    ray_session, monkeypatch, parquet_files, executions, launched, entry, min_block, cpus
):
    """Each of the 3 read tasks holds more than one build batch: 2000 rows
    over batches of 500, or more bytes than the smallest block a per-block
    map's read is split into.  Ray Data would spread such a read task over
    several build tasks, so the direct path runs only when the read tasks
    alone fill the CPUs; either way the bytes match the Ray Data path."""
    import ray.data as rd
    from ray.data import DataContext
    from ray.data._internal import util

    from tests.conftest import _executions_of

    if min_block is not None:
        monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", min_block)
    monkeypatch.setattr(util, "_estimate_avail_cpus", lambda placement_group: cpus)
    _use_input(monkeypatch, lambda: rd.read_parquet(parquet_files).materialize())
    want = entry()
    _use_input(monkeypatch, lambda: rd.read_parquet(parquet_files))
    got = []
    direct = cpus <= len(parquet_files)
    assert _executions_of(executions, lambda: got.append(entry())) == (0 if direct else 1)
    assert len(launched) == (len(parquet_files) if direct else 0)
    assert got == [want]


def _rss_bytes() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


def test_thousands_of_one_row_partial_blocks(ray_session, monkeypatch):
    """``target_max_block_size=1`` splits a 6,000-row tumbling window into
    6,000 one-row partial blocks.  The sort exchange this merge replaced
    took the driver to 11 GB RSS on this input.  Now the blocks are cut into
    at most B runs of split tasks: no partial block is fetched to the
    driver, its RSS stays flat, and the result is the default block size's."""
    import ray
    import ray.data as rd
    from ray.data import DataContext

    from rayhll import ray_agg
    from rayhll.pipelines import windows
    from rayhll.stages import build

    n = 6000
    ts = pa.array(np.arange(n) * windows.US_PER_HOUR).cast(pa.timestamp("us"))
    table = pa.table({"ts": ts, "user_id": pa.array(np.arange(n) % 97)})

    def run():
        ds = rd.from_arrow(table)
        return windows.tumbling_window_distinct(ds, "ts", ["user_id"], settings=ray_agg.EXACT_MODE)

    want = _sorted(run(), ["window_start"])
    cut, fetched, get = [], [], ray.get

    def spy_runs(items, sizes, n):
        cut.append(len(items))
        return runs(items, sizes, n)

    def spy_get(refs, *args, **kwargs):
        out = get(refs, *args, **kwargs)
        values = out if isinstance(out, list) else [out]
        fetched.extend(v for v in values if isinstance(v, pa.Table))
        return out

    runs = build.runs
    monkeypatch.setattr(build, "runs", spy_runs)
    monkeypatch.setattr(ray, "get", spy_get)
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 1)
    base, peak, done = _rss_bytes(), [0], threading.Event()

    def sample():
        while not done.wait(0.05):
            peak[0] = max(peak[0], _rss_bytes())

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        out = run()
    finally:
        done.set()
        sampler.join(timeout=5)
        monkeypatch.undo()
    assert not sampler.is_alive()
    assert cut == [n]
    assert not fetched
    assert max(peak[0], _rss_bytes()) - base < 300 * 2**20
    assert _sorted(out, ["window_start"]) == want
