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
    """Read tasks (``(schema, [(path, columns, fills), ...])``: the Arrow
    types of the task's rows and each file with the columns read from it
    and its hive partition values) in launch
    order; ``runs`` holds each direct producer's read tasks and ``metadata``
    the ref of its list of slice metadata."""

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
    read task of every producer's run (``stages.build._read_and_build``)."""
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
            if make is build._read_and_build:
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
    """The direct path groups the files into as many read tasks as Ray Data
    would launch for ``override_num_blocks``, each reading only the columns
    the build hashes (all that ``columns`` names, here)."""
    import ray.data as rd

    direct = rd.read_parquet(parquet_files, **read_kwargs)
    via_ray_data = rd.read_parquet(parquet_files, **read_kwargs).materialize()
    _use_input(monkeypatch, lambda: direct)
    got = _grouped_approx_distinct()
    assert len(launched) == tasks
    assert _reads_only(launched, ("repo", "path"))
    _use_input(monkeypatch, lambda: via_ray_data)
    assert got == _grouped_approx_distinct()


def _reads_only(read_tasks, columns) -> bool:
    """Whether each read task's rows hold ``columns`` and each of its files
    is told to decode exactly those of them it holds."""
    return all(
        tuple(schema.names) == tuple(columns)
        and all(
            tuple(told) == tuple(c for c in columns if c in pa.parquet.read_schema(path).names)
            for path, told, _ in files
        )
        for schema, files in read_tasks
    )


def _paths(read_task) -> list[str]:
    return [path for path, *_ in read_task[1]]


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


def _corrupt_columns(path: str, columns) -> None:
    """Overwrite every chunk of ``columns`` in the Parquet file at ``path``
    with bytes no reader can decode."""
    meta = pa.parquet.read_metadata(path)
    with open(path, "r+b") as f:
        for r in range(meta.num_row_groups):
            for chunk in (meta.row_group(r).column(i) for i in range(meta.num_columns)):
                if chunk.path_in_schema in columns:
                    has_dict = chunk.has_dictionary_page
                    f.seek(chunk.dictionary_page_offset if has_dict else chunk.data_page_offset)
                    f.write(b"\xff" * chunk.total_compressed_size)


def _within(fn, timeout: float = 120):
    """What ``fn()`` returns or raises, within ``timeout`` seconds."""
    outcome = []

    def run():
        try:
            outcome.append(fn())
        except Exception as e:  # the outcome under test
            outcome.append(e)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=timeout)
    assert not caller.is_alive()
    return outcome[0]


@pytest.mark.parametrize("entry", DIRECT_ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_direct_read_decodes_only_the_columns_the_build_reads(
    ray_session, monkeypatch, tmp_path, parquet_files, launched, entry
):
    """Each build's ``input_columns`` narrow the Parquet read; a caller's
    ``build_partial`` and a profile of every column still read them all.
    Each producer is told to decode only those columns, and decodes no
    other: every other column's chunks are made undecodable after the read
    is planned, and the bytes do not change."""
    import shutil

    import ray.data as rd

    _use_input(monkeypatch, lambda: rd.read_parquet(parquet_files).materialize())
    want = entry()
    files = [shutil.copy(f, tmp_path) for f in parquet_files]
    direct = rd.read_parquet(files)
    unread = set(ALL_COLUMNS) - set(COLUMNS_READ[entry])
    for f in files:
        _corrupt_columns(f, unread)
    if unread:
        with pytest.raises(OSError):
            pa.parquet.read_table(files[0])
    _use_input(monkeypatch, lambda: direct)
    assert _within(entry) == want
    assert len(launched) == len(parquet_files)
    assert _reads_only(launched, COLUMNS_READ[entry])


def _direct_equals_ray_data(monkeypatch, launched, make, entry, columns):
    """``entry`` over ``make()`` runs direct, reading ``columns``, and gives
    the bytes of the Ray Data path over the same read, materialized; the
    result and the direct read tasks."""
    direct, via_ray_data = make(), make().materialize()
    _use_input(monkeypatch, lambda: direct)
    got = entry()
    assert launched and _reads_only(launched, columns)
    read_tasks = list(launched)
    launched.clear()
    _use_input(monkeypatch, lambda: via_ray_data)
    assert got == entry()
    assert not launched
    return got, read_tasks


def _ray_data_runs_it(monkeypatch, launched, executions, make, entry):
    """``entry`` over ``make()``, a read the direct reader does not
    reproduce, runs in Ray Data (one execution, no direct producer) and
    gives the bytes of the Ray Data path over the same read, materialized."""
    from tests.conftest import _executions_of

    direct, via_ray_data = make(), make().materialize()
    got = []
    _use_input(monkeypatch, lambda: direct)
    assert _executions_of(executions, lambda: got.append(entry())) == 1
    assert not launched
    _use_input(monkeypatch, lambda: via_ray_data)
    assert got == [entry()]


def _repo_by_repo():
    """Reads only ``repo``; ``rows_in`` counts each group's rows."""
    from rayhll import ray_agg

    out = ray_agg.grouped_approx_distinct(_input(), ["repo"], ["repo"], include_sketch=True)
    return _sorted(out, ["repo"])


@pytest.mark.parametrize(
    "entry, read_kwargs, columns",
    [
        (_repo_by_repo, {}, ("repo",)),
        (_grouped_approx_distinct, {}, ("path", "repo")),
        (_grouped_approx_distinct, dict(columns=["repo", "path"]), ("path", "repo")),
        (_flagship_grouped, {}, ("lang", "path", "commit", "content", "repo")),
    ],
    ids=["only_the_partition_column", "grouped_approx_distinct", "columns", "flagship_grouped"],
)
def test_projection_keeps_hive_partition_columns(
    ray_session, monkeypatch, tmp_path, parquet_files, launched, entry, read_kwargs, columns
):
    """``repo`` is a hive partition column: the direct reader decodes the
    files' kept columns and fills ``repo`` in from each path, after them,
    as Ray Data does (also when ``columns=`` names it first, and when it
    decodes no column of the files), and the bytes are Ray Data's."""
    import pyarrow.dataset as pads
    import ray.data as rd

    table = pa.concat_tables(pa.parquet.read_table(f) for f in parquet_files)
    pads.write_dataset(
        table, tmp_path, format="parquet", partitioning=["repo"], partitioning_flavor="hive"
    )
    make = lambda: rd.read_parquet(str(tmp_path), **read_kwargs)  # noqa: E731
    _, read_tasks = _direct_equals_ray_data(monkeypatch, launched, make, entry, columns)
    assert {tuple(fills.items()) for _, files in read_tasks for *_, fills in files} == {
        (("repo", f"r{i}"),) for i in range(4)
    }


def test_projection_keeps_a_pushed_down_filter(
    ray_session, monkeypatch, parquet_files, launched, executions
):
    """The filter reads ``v``, which the build does not hash: a pushed-down
    ``filter=`` runs in Ray Data, which applies it."""
    import pyarrow.dataset as pads
    import ray.data as rd
    from ray.data._internal import util

    # a filtered read task has no row count: let the tasks fill the CPUs
    monkeypatch.setattr(util, "_estimate_avail_cpus", lambda placement_group: len(parquet_files))
    make = lambda: rd.read_parquet(parquet_files, filter=pads.field("v") >= 1500)  # noqa: E731
    _ray_data_runs_it(monkeypatch, launched, executions, make, _grouped_approx_distinct)


def test_projection_keeps_include_paths(
    ray_session, monkeypatch, tmp_path, parquet_files, launched, executions
):
    """``path`` is each row's file: ``include_paths`` runs in Ray Data.
    Over files that hold a ``path`` column of their own, Ray Data's reader
    fails, and so does the same entry point over the bare read, where the
    direct reader used to leave the file's column out and succeed."""
    import ray.data as rd

    files = []
    for i, f in enumerate(parquet_files):
        files.append(str(tmp_path / f"part-{i}.parquet"))
        pa.parquet.write_table(pa.parquet.read_table(f).drop_columns(["path"]), files[-1])
    make = lambda: rd.read_parquet(files, include_paths=True)  # noqa: E731
    _ray_data_runs_it(monkeypatch, launched, executions, make, _grouped_approx_distinct)

    def repo_count(ds) -> None:
        from rayhll import ray_agg

        ray_agg.approx_distinct_sketch(ds, ["repo"])

    for make in (
        lambda: rd.read_parquet(parquet_files, include_paths=True),
        lambda: rd.read_parquet(parquet_files, include_paths=True).materialize(),
    ):
        with pytest.raises(AssertionError):  # Ray's fill_column("path")
            repo_count(make())
    assert not launched


def _matrix_table(rng, rows: int, key=None, group=None) -> pa.Table:
    """``g`` (group) and ``k`` (key) columns, strings unless ``group`` /
    ``key`` map the values to other arrays, and a ``v`` column."""
    g = [f"g{i}" for i in rng.integers(0, 6, rows)]
    k = [f"k{i}" for i in rng.integers(0, 400, rows)]
    return pa.table(
        {
            "g": group(g) if group else pa.array(g),
            "k": key(k) if key else pa.array(k),
            "v": pa.array(rng.integers(0, 50, rows)),
        }
    )


def _with_nulls(values: list) -> pa.Array:
    return pa.array([None if i % 7 == 3 else v for i, v in enumerate(values)])


def _same_block(table: pa.Table) -> pa.Table:
    """A read's ``_block_udf`` that leaves each block as it is."""
    return table


#: case -> (per-file column makers, write kwargs, read kwargs, direct):
#: ``direct`` whether the direct reader reads it
READER_CASES = {
    "string_vs_large_string": (
        [{}, dict(group=lambda g: pa.array(g, pa.large_string()),
                  key=lambda k: pa.array(k, pa.large_string()))], {}, {}, True),
    "int_keys_binary_groups": (
        [dict(key=lambda k: pa.array([int(x[1:]) for x in k]),
              group=lambda g: pa.array([x.encode() for x in g]))] * 2, {}, {}, True),
    "binary_keys_int_groups": (
        [dict(key=lambda k: pa.array([x.encode() for x in k]),
              group=lambda g: pa.array([int(x[1:]) for x in g], pa.int32()))] * 2, {}, {}, True),
    "list_keys_fixed_size_list_groups": (
        [dict(key=lambda k: pa.array([[int(x[1:]), None] for x in k], pa.list_(pa.int64())),
              group=lambda g: pa.array([[x, "y"] for x in g], pa.list_(pa.string(), 2)))] * 2,
         {}, {}, True),
    "nulls_in_keys_and_groups": ([dict(key=_with_nulls, group=_with_nulls)] * 2, {}, {}, True),
    "dictionary_groups": (
        [dict(group=lambda g: pa.array(g).dictionary_encode())] * 2, {}, {}, False),
    "timestamp_groups": (
        [dict(group=lambda g: pa.array([int(x[1:]) for x in g]).cast(pa.timestamp("s")))] * 2,
        {}, {}, True),
    "timestamp_tz_keys": (
        [dict(key=lambda k: pa.array([int(x[1:]) * 10**12 for x in k]).cast(
            pa.timestamp("ns", tz="America/New_York")))] * 2, {}, {}, True),
    "date_groups": (
        [dict(group=lambda g: pa.array([int(x[1:]) for x in g], pa.int32()).cast(pa.date32()))]
        * 2, {}, {}, True),
    "date64_groups": (
        [dict(group=lambda g: pa.array([int(x[1:]) * 86400000 for x in g]).cast(pa.date64()))]
        * 2, {}, {}, True),
    "file_lacking_a_kept_column": ([{}, dict(group=None)], {}, {}, True),
    "row_groups": ([{}] * 2, dict(row_group_size=300), {}, True),
    "schema": ([{}] * 2, {}, dict(schema="first"), False),
    "block_udf": ([{}] * 2, {}, dict(_block_udf=_same_block), False),
    "include_paths": ([{}] * 2, {}, dict(include_paths=True), False),
    "filter": ([{}] * 2, {}, dict(filter="v"), False),
    "shuffled_files": ([{}] * 2, {}, dict(shuffle="files"), True),
    "non_local_filesystem": ([{}] * 2, {}, dict(filesystem="subtree"), False),
    "hive_partitions": ([{}] * 2, {}, dict(hive=True), True),
    "csv": ([{}] * 2, {}, dict(csv=True), False),
}


def _matrix_read(tmp_path, case: str):
    """Functions making the case's read of two 1,000-row files and the read
    whose Ray read tasks yield the rows the direct reader gives it: the
    read itself, or for files of different columns, the files read as their
    unified schema (a kept column a file lacks is NULL in its rows)."""
    import os

    import pyarrow.csv
    import pyarrow.dataset as pads
    import pyarrow.fs
    import ray.data as rd

    makers, write_kwargs, read_kwargs, _ = READER_CASES[case]
    read_kwargs = dict(read_kwargs)
    rng = np.random.default_rng(11)
    files = []
    for i, makers_i in enumerate(makers):
        table = _matrix_table(rng, 1000, **{c: m for c, m in makers_i.items() if m})
        table = table.drop_columns([c[0] for c, m in makers_i.items() if m is None])
        if read_kwargs.pop("csv", False):
            files.append(str(tmp_path / f"part-{i}.csv"))
            pyarrow.csv.write_csv(table, files[-1])
            read_kwargs["csv"] = True
            continue
        if read_kwargs.get("hive"):
            table = table.append_column("h", pa.array([f"x{i}"] * table.num_rows))
            pads.write_dataset(
                table, tmp_path, format="parquet", partitioning=["h"],
                partitioning_flavor="hive", existing_data_behavior="overwrite_or_ignore",
                basename_template=f"part-{i}-{{i}}.parquet",
            )
            continue
        files.append(str(tmp_path / f"part-{i}.parquet"))
        pa.parquet.write_table(table, files[-1], **write_kwargs)
    if read_kwargs.pop("csv", False):
        make = lambda: rd.read_csv(files)  # noqa: E731
        return make, make
    if read_kwargs.pop("hive", False):
        make = lambda: rd.read_parquet(str(tmp_path))  # noqa: E731
        return make, make
    if read_kwargs.get("schema") == "first":
        read_kwargs["schema"] = pa.parquet.read_schema(files[0])
    if read_kwargs.get("filter") == "v":
        read_kwargs["filter"] = pads.field("v") >= 10
    schemas = [pa.parquet.read_schema(f) for f in files]
    if read_kwargs.get("filesystem") == "subtree":
        read_kwargs["filesystem"] = pyarrow.fs.SubTreeFileSystem(str(tmp_path), pyarrow.fs.LocalFileSystem())
        files = [os.path.basename(f) for f in files]
    make = lambda: rd.read_parquet(files, **read_kwargs)  # noqa: E731
    if all(schema.names == schemas[0].names for schema in schemas):
        return make, make
    unified = pa.unify_schemas(schemas)
    return make, lambda: rd.read_parquet(files, schema=unified)


def _partial_rows(ds, direct: bool) -> pa.Table:
    """The partial rows of ``ds`` (a read and one build map), sorted, built
    here: by the direct producers' jobs, or by the map over Ray's own read
    tasks, each batched alone by Ray's batcher (``map_batches`` fused with
    the read)."""
    from ray.data._internal.block_batching.util import blocks_to_batches
    from ray.data._internal.util import _autodetect_parallelism

    from rayhll.stages import build

    if direct:
        tables = [make(*args) for make, args, _ in build._direct_jobs(ds, 2)]
    else:
        read, [op] = build._direct_plan(ds)
        ctx, source = ds.context, read._datasource_or_legacy_reader
        n, _, _ = _autodetect_parallelism(
            read._parallelism, ctx.target_max_block_size, ctx, source, read._mem_size
        )
        tables = [
            op._fn(batch.data)
            for rt in source.get_read_tasks(n)
            for batch in blocks_to_batches(rt(), batch_size=op._batch_size)
        ]
    table = build._concat(*tables)
    return table.sort_by([(c, "ascending") for c in ("_ghash", "sketch", "rows_in")])


@pytest.mark.parametrize("case", READER_CASES)
def test_direct_reader_matches_ray_data(ray_session, monkeypatch, tmp_path, launched, case):
    """Direct reader vs Ray Data reader, one case of the matrix each: the
    cases the direct reader reads give, per build, the partial rows of the
    map over Ray's read tasks (the same batches: ``batch_size`` slices of
    each read task, or at None the reader's batches, cut at row groups),
    and every case merges to the bytes of Ray Data over the materialized
    read (for a file lacking a kept column, both over the files read as
    their unified schema); the others run in Ray Data.  Two CPUs: the two read tasks fill
    them, so a read task may hold several batches."""
    from rayhll import ray_agg
    from rayhll.pipelines.profile import ProfileBuild
    from rayhll.stages import build

    _with_cpus(monkeypatch, 2)
    make, same = _matrix_read(tmp_path, case)
    direct = READER_CASES[case][-1]
    maps = [
        (build.BuildPartials(["k"], ["g"]), 128),
        (build.BuildPartials(["k"], ["g"], settings=ray_agg.EXACT_MODE), None),
        (ProfileBuild(["g", "k"]), None),
    ]
    for fn, batch_size in maps:
        def mapped(read):
            return read().map_batches(
                fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
            )

        assert (build._direct_jobs(mapped(make), 2) is not None) == direct
        if direct:
            assert _partial_rows(mapped(make), True).equals(_partial_rows(mapped(same), False))
    for batch_size in (128, None):
        def entry():
            out = ray_agg.grouped_approx_distinct(
                _input(), ["g"], ["k"], batch_size=batch_size, include_sketch=True
            )
            return _sorted(out, ["rows_in", "sketch"])

        _use_input(monkeypatch, make)
        launched.clear()
        got = entry()
        assert bool(launched) == direct
        _use_input(monkeypatch, lambda: same().materialize())
        assert got == entry()


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
    assert _direct_equals_ray_data(monkeypatch, launched, make, entry, columns)[0] == want


def test_filter_over_files_lacking_a_kept_column_reads_them_whole(
    ray_session, monkeypatch, tmp_path, launched, executions
):
    """The second file lacks ``content_raw64``, and the filter names
    ``lang``, which ``flagship_global`` does not read: the filtered read runs
    in Ray Data, whose unified blocks give the second file NULL
    ``content_raw64``, and both reads give the same estimates, with or
    without ``hash_content``."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from rayhll.pipelines import distinct
    from rayhll.pipelines.distinct import HashStage
    from rayhll.sources.synth import synth_code_batch
    from tests.conftest import _executions_of

    table = HashStage()(synth_code_batch(np.arange(2000), 2000)).drop_columns(["content_sha256"])
    files = [str(tmp_path / f"part-{i}.parquet") for i in range(2)]
    pa.parquet.write_table(table.slice(0, 1000), files[0])
    pa.parquet.write_table(table.slice(1000).drop_columns(["content_raw64"]), files[1])
    make = lambda: rd.read_parquet(files, filter=pads.field("lang") != "rust")  # noqa: E731
    _with_cpus(monkeypatch, len(files))  # a filtered read's row counts are unknown
    for hash_content in (True, False):
        direct, via_ray_data = make(), make().materialize()
        got = []
        run = lambda: got.append(distinct.flagship_global(direct, hash_content=hash_content))  # noqa: E731
        assert _executions_of(executions, run) == 1
        assert got == [distinct.flagship_global(via_ray_data, hash_content=hash_content)]
        assert not launched


def test_explicit_schema_reads_every_column(
    ray_session, monkeypatch, parquet_files, launched, executions
):
    """Files are read as the given schema: the read runs in Ray Data."""
    import ray.data as rd

    schema = pa.parquet.read_schema(parquet_files[0])
    make = lambda: rd.read_parquet(parquet_files, schema=schema)  # noqa: E731
    _ray_data_runs_it(monkeypatch, launched, executions, make, _grouped_approx_distinct)


def test_failed_read_task_raises_to_the_caller(
    ray_session, monkeypatch, tmp_path, parquet_files, launched
):
    """A file deleted after the read was planned: the direct task's error
    reaches the caller within a bounded wait, and no result is returned.
    At B = 4 each file is its own run; at B = 1 the deleted second file is
    read after the first, in the same task."""
    import os
    import shutil

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
        assert isinstance(_within(lambda: ray_agg.approx_distinct_sketch(ds, ["path"])), FileNotFoundError)
        assert len(launched) == len(files)
        assert [len(run) for run in launched.runs] == run_lengths


@pytest.mark.parametrize("batch_size", [128, 700, None])
def test_read_batches_reads_one_batch_at_a_time(monkeypatch, tmp_path, batch_size):
    """Two 1,000-row files of 300-row row groups, the second lacking ``g``:
    the batches are ``batch_size`` rows across the files (at None, 100-row
    reads within each row group), with the rows of the files in order, and
    each is read only when the one before it has been taken, in pieces of
    the file's own columns, none longer than a batch."""
    from rayhll.stages import build

    rng = np.random.default_rng(3)
    tables = [_matrix_table(rng, 1000), _matrix_table(rng, 1000).drop_columns(["g"])]
    files = [str(tmp_path / f"part-{i}.parquet") for i in range(2)]
    for table, f in zip(tables, files):
        pa.parquet.write_table(table, f, row_group_size=300)
    schema = tables[0].schema.remove(tables[0].schema.get_field_index("v"))
    read, pieces = build.read_piece, []

    def logged(path, columns, fills, start, rows, dtypes):
        pieces.append((path, tuple(columns), start, rows))
        return read(path, columns, fills, start, rows, dtypes)

    monkeypatch.setattr(build, "read_piece", logged)
    tasks = [(f, [c for c in ("g", "k") if c in t.column_names], {}) for f, t in zip(files, tables)]
    batches, taken = [], []
    for frame in build.read_batches(tasks, schema, batch_size, read_rows=100):
        batches.append(frame)
        taken.append(sum(rows for *_, rows in pieces))
    sizes = [frame.height for frame in batches]
    if batch_size is None:
        assert sizes == [100, 100, 100] * 3 + [100] + ([100, 100, 100] * 3 + [100])
    else:
        assert sizes == [batch_size] * (2000 // batch_size) + ([2000 % batch_size] if 2000 % batch_size else [])
    assert taken == list(np.cumsum(sizes))
    assert {(path, columns) for path, columns, *_ in pieces} == {(f, tuple(c)) for f, c, _ in tasks}
    assert max(rows for *_, rows in pieces) <= (batch_size or 100)
    want = pa.concat_tables(
        [tables[0].select(["g", "k"]), tables[1].select(["k"]).add_column(0, "g", pa.nulls(1000, pa.string()))]
    )
    got = pa.concat_tables(frame.to_arrow(compat_level=build.OLDEST).cast(schema) for frame in batches)
    assert got.equals(want.cast(schema))


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


def _logged_read_and_build(log: str, *args):
    """``stages.build._read_and_build(*args)``, appending the producer's task
    id and the file to ``log`` each time it reads a piece of a file."""
    import ray

    from rayhll.stages import build

    read = build.read_piece

    def logged(path, *rest):
        with open(log, "a") as f:
            f.write(f"{ray.get_runtime_context().get_task_id()} {path}\n")
        return read(path, *rest)

    build.read_piece = logged
    try:
        return build._read_and_build(*args)
    finally:
        build.read_piece = read


@pytest.fixture(scope="module")
def eight_files(ray_session, tmp_path_factory):
    """The rows of ``_input()``, written to 8 Parquet files."""
    return _write_parts(tmp_path_factory.mktemp("eight"), 8)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_direct_producers_are_runs_of_read_tasks(
    ray_session, monkeypatch, tmp_path, eight_files, launched, entry
):
    """R = 8 read tasks at B = 1, 2 and 4: min(R, B) producer tasks, each
    reading its contiguous run of read tasks in order (logged from inside
    the producer each time it reads), and every read task once.  The bytes are those of the Ray Data path over the materialized
    read at every B.  ``grouped_merge_family`` maps with a caller's UDF, so
    it stays in Ray Data."""
    import functools

    import ray.data as rd

    from rayhll.stages import build

    log = tmp_path / "reads.log"
    _use_input(monkeypatch, lambda: rd.read_parquet(eight_files).materialize())
    want = entry()
    direct = rd.read_parquet(eight_files)
    _use_input(monkeypatch, lambda: direct)
    monkeypatch.setattr(build, "_read_and_build", functools.partial(_logged_read_and_build, str(log)))
    for cpus in (1, 2, 4):
        _with_cpus(monkeypatch, cpus)
        launched.clear()
        log.unlink(missing_ok=True)
        assert entry() == want
        if entry is _grouped_merge_family:
            assert not launched
            continue
        assert len(launched.runs) == min(len(eight_files), cpus)
        assert [_paths(rt) for rt in launched] == [[f] for f in eight_files]
        reads = {}
        for task, f in (line.split() for line in log.read_text().splitlines()):
            if reads.setdefault(task, [None])[-1] != f:
                reads[task].append(f)
        runs = [[f for rt in run for f in _paths(rt)] for run in launched.runs]
        assert sorted(read[1:] for read in reads.values()) == sorted(runs)


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
