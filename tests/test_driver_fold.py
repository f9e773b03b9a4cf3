"""The one merge primitive (``stages.build.merge_partials``) behind every
sketch aggregation: partials that fit in one block merge on the driver with
no Ray Data exchange, and the driver fold gives the same bytes as the
exchange it replaces."""

import numpy as np
import pyarrow as pa
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


ENTRY_POINTS = [
    _grouped_approx_distinct,
    _grouped_aggregate_family,
    _grouped_merge_family,
    _flagship_grouped,
    _tree_merge,
    _approx_distinct_sketch,
    _aggregate_family,
    _flagship_global,
]


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_fold_and_exchange_merge_identically(ray_session, monkeypatch, entry):
    """A one-byte block budget forces the exchange (Ray's own setting)."""
    from ray.data import DataContext

    from rayhll.stages import build

    exchanges = []
    dataset_of = build._dataset_of
    monkeypatch.setattr(build, "_dataset_of", lambda b: exchanges.append(b) or dataset_of(b))
    folded = entry()
    assert not exchanges
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 1)
    exchanged = entry()
    assert exchanges
    assert folded == exchanged


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_small_input_runs_no_exchange(ray_session, monkeypatch, entry):
    import ray.data as rd

    def refuse(*args, **kwargs):
        raise AssertionError("a small input must merge on the driver")

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
