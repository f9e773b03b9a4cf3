"""Checkpoint/resume: crash mid-run, resume, byte-identical final output."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayhll.state.checkpoint import Manifest, flagship_checkpointed, run_checkpointed
from tests.conftest import _executions_of


@pytest.fixture()
def code_files(tmp_path):
    """Three small input-hint parquet shards."""
    from rayhll.sources.synth import synth_code_batch
    import numpy as np

    files = []
    total = 3000
    for i in range(3):
        t = synth_code_batch(np.arange(i * 1000, (i + 1) * 1000), total)
        p = tmp_path / f"shard-{i}.parquet"
        pq.write_table(t, p)
        files.append(str(p))
    return files


def test_crash_resume_byte_identical(ray_session, code_files, tmp_path):
    clean_dir = str(tmp_path / "clean")
    crash_dir = str(tmp_path / "crash")

    clean = flagship_checkpointed(code_files, clean_dir)

    with pytest.raises(RuntimeError, match="simulated crash"):
        flagship_checkpointed(code_files, crash_dir, fail_after=1)
    # resume: completes only the remaining partitions
    resumed = flagship_checkpointed(code_files, crash_dir)
    assert resumed.equals(clean)
    # result files byte-identical
    a = open(os.path.join(clean_dir, "result", "result.parquet"), "rb").read()
    b = open(os.path.join(crash_dir, "result", "result.parquet"), "rb").read()
    assert a == b


def test_resume_after_half_merges_without_reading_partials_on_the_driver(
    ray_session, tmp_path, monkeypatch
):
    """Crash after half of four files, then resume: the result file is the
    bytes of an uncrashed run, and the driver reads no partial file (split
    tasks read them for the merge tasks)."""
    from rayhll.sources.synth import synth_code_batch
    import numpy as np

    files = []
    for i in range(4):
        files.append(str(tmp_path / f"shard-{i}.parquet"))
        pq.write_table(synth_code_batch(np.arange(i * 700, (i + 1) * 700), 2800), files[-1])
    read, driver_reads = pq.read_table, []

    def spy(source, *args, **kwargs):
        driver_reads.append(str(source))
        return read(source, *args, **kwargs)

    monkeypatch.setattr(pq, "read_table", spy)
    clean, crash = str(tmp_path / "clean"), str(tmp_path / "crash")
    flagship_checkpointed(files, clean)
    with pytest.raises(RuntimeError, match="simulated crash"):
        flagship_checkpointed(files, crash, fail_after=2)
    assert len(os.listdir(os.path.join(crash, "partials"))) == 2
    flagship_checkpointed(files, crash)
    assert not [p for p in driver_reads if "partials" in p]
    paths = [os.path.join(d, "result", "result.parquet") for d in (clean, crash)]
    result = [open(p, "rb").read() for p in paths]
    assert result[0] == result[1]


def test_flagship_reads_only_the_columns_it_hashes(ray_session, code_files, tmp_path):
    """A wide column the build never reads is not decoded, and the result
    bytes are those of the same files without it; so is an empty file's."""
    import numpy as np

    narrow_files = code_files + [str(tmp_path / "shard-3.parquet")]
    pq.write_table(pq.read_table(code_files[0]).slice(0, 0), narrow_files[-1])
    wide_files = []
    for i, path in enumerate(narrow_files):
        t = pq.read_table(path)
        blobs = [np.random.default_rng(i).bytes(4096) for _ in range(t.num_rows)]
        wide_files.append(str(tmp_path / f"wide-{i}.parquet"))
        pq.write_table(t.append_column("blob", pa.array(blobs, type=pa.binary())), wide_files[-1])
    results = []
    for name, files in (("narrow", narrow_files), ("wide", wide_files)):
        out = str(tmp_path / name)
        flagship_checkpointed(files, out)
        results.append(open(os.path.join(out, "result", "result.parquet"), "rb").read())
    assert results[0] == results[1]


def test_resume_skips_done_partitions(ray_session, code_files, tmp_path):
    out = str(tmp_path / "out")
    flagship_checkpointed(code_files, out)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert all(p["status"] == "done" for p in manifest["partitions"].values())
    assert all(p["attempts"] == 1 for p in manifest["partitions"].values())
    # second run: no partition re-executed (attempts unchanged)
    flagship_checkpointed(code_files, out)
    manifest2 = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest2 == manifest
    # per-partition metrics exist
    for pid in manifest["partitions"]:
        m = json.load(open(os.path.join(out, "metrics", f"part-{pid}.json")))
        assert m["rows_out"] > 0 and m["wall_s"] >= 0


def test_settings_mismatch_refuses(tmp_path):
    out = str(tmp_path / "out")
    inputs = {"a": pa.table({"x": [1]})}

    run_checkpointed(
        out, ["a"], lambda _: inputs, lambda t: t, lambda ps: pq.read_table(ps[0]),
        settings_obj="s1",
    )
    with pytest.raises(ValueError, match="settings mismatch"):
        run_checkpointed(
            out, ["a"], lambda _: inputs, lambda t: t, lambda ps: pq.read_table(ps[0]),
            settings_obj="s2",
        )


def test_stored_result_covers_exactly_its_partitions(tmp_path):
    """result/result.parquet is returned only to a rerun over the very
    partitions it merges; a call over a subset merges that subset."""
    out = str(tmp_path / "out")
    inputs = {p: pa.table({"x": [i]}) for i, p in enumerate("abc")}

    def run(pids):
        return run_checkpointed(
            out,
            pids,
            lambda _: inputs,
            lambda t: t,
            lambda ps: pa.concat_tables([pq.read_table(p) for p in ps]),
        )

    full = run("abc")
    assert run("ab").column("x").to_pylist() == [0, 1]
    assert run("abc").equals(full)


def test_manifest_atomicity(tmp_path):
    m = Manifest.load_or_create(str(tmp_path), "h", ["p1", "p2"])
    m.mark_done("p1", rows_out=5)
    m2 = Manifest.load_or_create(str(tmp_path), "h", ["p1", "p2"])
    assert m2.partitions["p1"]["status"] == "done"
    assert m2.pending() == ["p2"]


def _mtimes(root: str) -> dict[str, float]:
    return {
        os.path.relpath(os.path.join(d, f), root): os.path.getmtime(os.path.join(d, f))
        for d, _, names in os.walk(root)
        for f in names
    }


def _flagship_case(code_files, out):
    from rayhll.core.settings import HllSettings

    return lambda v: flagship_checkpointed(code_files, out, HllSettings(11 + v, 5))


def _components_case(code_files, out):
    import ray.data as rd

    from rayhll.pipelines.components import connected_components_checkpointed

    pairs = rd.from_arrow(
        pa.table({"id_a": pa.array([1, 2, 5, 7, 8]), "id_b": pa.array([2, 3, 6, 8, 9])})
    )
    return lambda v: connected_components_checkpointed(pairs, out, num_buckets=4 + 4 * v)


def _shards_runner(out, settings):
    import ray.data as rd

    from rayhll.pipelines.shuffle import shuffle_manifest, write_shards

    corpus = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(60)), "text": [f"doc {i}" for i in range(60)]})
    ).repartition(3)
    manifests = [shuffle_manifest(corpus, seed=s, num_shards=n).materialize() for s, n in settings]
    return lambda v: write_shards(corpus, manifests[v], out)


def _write_shards_case(code_files, out):
    # same corpus and shard count, another seed: another permutation
    return _shards_runner(out, [(5, 4), (6, 4)])


def _write_shards_num_shards_case(code_files, out):
    # same seed, so the same rank order, but twice the shards: another layout
    return _shards_runner(out, [(5, 4), (5, 8)])


def _sig_store_runner(out, settings):
    import ray.data as rd

    from rayhll.pipelines.dedup import MinHashStage, build_minhash_sig_store

    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(40)), "text": [f"doc text {i % 10}" for i in range(40)]})
    )

    def run(v):
        gram, texthash = settings[v]
        stage = MinHashStage("text", "doc_id", 64, 16, gram, emit_texthash=texthash)
        signed = docs.map_batches(stage, batch_format="pyarrow")
        build_minhash_sig_store(signed, out, "text", "doc_id", 64, 16, gram, texthash=texthash)

    return run


def _sig_store_case(code_files, out):
    return _sig_store_runner(out, [(3, False), (5, False)])


def _sig_store_texthash_case(code_files, out):
    # a store with the text-hash column must not serve a run without it
    return _sig_store_runner(out, [(3, True), (3, False)])


@pytest.mark.parametrize(
    "case",
    [
        _flagship_case,
        _components_case,
        _write_shards_case,
        _write_shards_num_shards_case,
        _sig_store_case,
        _sig_store_texthash_case,
    ],
)
def test_resume_contract(ray_session, code_files, tmp_path, case):
    """Every resumable operator keeps the one state.checkpoint contract: an
    identical rerun under the same out_dir skips everything (writes no
    file), and changed settings raise ValueError instead of mixing two
    runs' output."""
    out = str(tmp_path / "out")
    run = case(code_files, out)
    run(0)
    before = _mtimes(out)
    run(0)
    assert _mtimes(out) == before
    with pytest.raises(ValueError, match="settings"):
        run(1)
    assert _mtimes(out) == before


@pytest.fixture()
def dup_docs_file(tmp_path):
    """Documents with injected exact+near duplicates for dedup checkpointing."""
    import duckdb

    src = "/root/testdata/sf0.001/documents.parquet"
    t = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{src}') "
        "UNION ALL SELECT doc_id + 1000000, text FROM read_parquet('{}') "
        "WHERE doc_id < 30".format(src)
    ).arrow()
    p = tmp_path / "docs.parquet"
    pq.write_table(t, p)
    return str(p)


def test_dedup_crash_resume_byte_identical(ray_session, dup_docs_file, tmp_path):
    from rayhll.state.checkpoint import minhash_dedup_checkpointed

    clean_dir = str(tmp_path / "clean")
    crash_dir = str(tmp_path / "crash")

    clean = minhash_dedup_checkpointed([dup_docs_file], clean_dir, num_buckets=8)
    assert clean.num_rows >= 30  # the planted exact dups are found

    with pytest.raises(RuntimeError, match="simulated crash"):
        minhash_dedup_checkpointed([dup_docs_file], crash_dir, num_buckets=8, fail_after=3)
    # crash left some buckets pending
    mf = json.load(open(os.path.join(crash_dir, "manifest.json")))
    assert any(p["status"] != "done" for p in mf["partitions"].values())

    resumed = minhash_dedup_checkpointed([dup_docs_file], crash_dir, num_buckets=8)
    assert resumed.equals(clean)
    a = open(os.path.join(clean_dir, "result", "result.parquet"), "rb").read()
    b = open(os.path.join(crash_dir, "result", "result.parquet"), "rb").read()
    assert a == b
    # resume reused the signature store (still exactly one manifest) and
    # only re-ran pending buckets
    mf2 = json.load(open(os.path.join(crash_dir, "manifest.json")))
    attempts = [p["attempts"] for p in mf2["partitions"].values()]
    assert attempts.count(1) == len(attempts)  # done buckets never re-ran


def test_dedup_checkpointed_matches_streaming(ray_session, dup_docs_file, tmp_path):
    """The checkpointed pair set equals minhash_lsh_pairs on the same input."""
    import ray.data as rd

    from rayhll.pipelines.dedup import minhash_lsh_pairs
    from rayhll.state.checkpoint import minhash_dedup_checkpointed

    ckpt = minhash_dedup_checkpointed(
        [dup_docs_file], str(tmp_path / "out"), num_buckets=8, threshold=0.8
    )
    ds = rd.read_parquet(dup_docs_file, columns=["doc_id", "text"])
    stream = (
        minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.8)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    got = ckpt.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert got[["id_a", "id_b"]].values.tolist() == stream[["id_a", "id_b"]].values.tolist()


def test_dedup_checkpointed_texthash_matches_streaming(
    ray_session, dup_docs_file, tmp_path
):
    """verify_text_hash=True (the exact-dedup shape, VERDICT r3 item 6):
    the checkpointed pair set equals the streaming variant's with the same
    flag, the sig store carries the texthash column keyed in its manifest,
    and a store built WITHOUT the column is refused by a run needing it."""
    import json as _json

    import ray.data as rd

    from rayhll.pipelines.dedup import minhash_lsh_pairs
    from rayhll.state.checkpoint import minhash_dedup_checkpointed

    ckpt = minhash_dedup_checkpointed(
        [dup_docs_file], str(tmp_path / "th"), num_buckets=8,
        threshold=1.0, verify_text_hash=True,
    )
    ds = rd.read_parquet(dup_docs_file, columns=["doc_id", "text"])
    stream = (
        minhash_lsh_pairs(ds, "text", "doc_id", threshold=1.0, verify_text_hash=True)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    got = ckpt.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert (
        got[["id_a", "id_b"]].values.tolist()
        == stream[["id_a", "id_b"]].values.tolist()
    )
    assert len(got) >= 30  # the planted exact dups
    mf = _json.load(open(os.path.join(str(tmp_path / "th"), "sigs", "_MANIFEST.json")))
    assert mf["texthash"] is True
    # a plain store must not be silently reused by a texthash run
    plain_dir = str(tmp_path / "plain")
    minhash_dedup_checkpointed([dup_docs_file], plain_dir, num_buckets=8)
    import shutil

    th2_dir = str(tmp_path / "th2")
    os.makedirs(th2_dir)
    shutil.copytree(
        os.path.join(plain_dir, "sigs"), os.path.join(th2_dir, "sigs")
    )
    with pytest.raises(ValueError, match="signature store"):
        minhash_dedup_checkpointed(
            [dup_docs_file], th2_dir, num_buckets=8,
            threshold=1.0, verify_text_hash=True,
        )


def test_simhash_checkpointed_crash_resume_and_streaming_parity(
    ray_session, dup_docs_file, tmp_path
):
    """simhash_dedup_checkpointed: crash-mid-run resume is byte-identical to
    a clean run, and the pair set equals streaming simhash_pairs."""
    import ray.data as rd

    from rayhll.pipelines.dedup import simhash_pairs
    from rayhll.state.checkpoint import simhash_dedup_checkpointed

    clean_dir = str(tmp_path / "s_clean")
    crash_dir = str(tmp_path / "s_crash")

    clean = simhash_dedup_checkpointed([dup_docs_file], clean_dir, num_buckets=8)
    assert clean.num_rows >= 30  # planted exact dups are hamming-0 pairs

    with pytest.raises(RuntimeError, match="simulated crash"):
        simhash_dedup_checkpointed(
            [dup_docs_file], crash_dir, num_buckets=8, fail_after=3
        )
    resumed = simhash_dedup_checkpointed([dup_docs_file], crash_dir, num_buckets=8)
    assert resumed.equals(clean)
    a = open(os.path.join(clean_dir, "result", "result.parquet"), "rb").read()
    b = open(os.path.join(crash_dir, "result", "result.parquet"), "rb").read()
    assert a == b

    ds = rd.read_parquet(dup_docs_file, columns=["doc_id", "text"])
    stream = (
        simhash_pairs(ds, "text", "doc_id")
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    got = clean.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert (
        got[["id_a", "id_b"]].values.tolist()
        == stream[["id_a", "id_b"]].values.tolist()
    )


def test_simhash_store_with_chunk_columns_resumes(ray_session, dup_docs_file, tmp_path):
    """A SimHash signature store in the former layout, which also held the
    four ``chunk_c = ((h >> 16c) & 0xFFFF) * 4 + c`` columns, resumes to the
    clean run's ``result.parquet`` bytes: the runner reads only
    ``(id, simhash64)`` and derives the chunk keys itself."""
    import numpy as np

    from rayhll.state.checkpoint import simhash_dedup_checkpointed

    clean_dir = str(tmp_path / "clean")
    old_dir = str(tmp_path / "old")
    simhash_dedup_checkpointed([dup_docs_file], clean_dir, num_buckets=8)
    with pytest.raises(RuntimeError, match="simulated crash"):
        simhash_dedup_checkpointed([dup_docs_file], old_dir, num_buckets=8, fail_after=3)
    sigs = os.path.join(old_dir, "sigs")
    parts = [os.path.join(sigs, f) for f in os.listdir(sigs) if f.endswith(".parquet")]
    assert parts
    for path in parts:
        t = pq.read_table(path).select(["doc_id", "simhash64"])
        h = t.column("simhash64").to_numpy().view(np.uint64)
        for c in range(4):
            chunk = ((h >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64) * 4 + c
            t = t.append_column(f"chunk_{c}", pa.array(chunk))
        pq.write_table(t, path)

    simhash_dedup_checkpointed([dup_docs_file], old_dir, num_buckets=8)
    result = lambda d: open(os.path.join(d, "result", "result.parquet"), "rb").read()  # noqa: E731
    assert result(old_dir) == result(clean_dir)


@pytest.fixture()
def dup_vecs_file(tmp_path):
    """Embeddings with planted near-duplicate copies (deterministic noise)."""
    import numpy as np
    import pyarrow.parquet as pqq

    src = pq.read_table(
        "/root/testdata/sf0.001/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = src.column("vec_id").to_numpy()
    mat = np.array(src.column("embedding").to_pylist(), dtype=np.float64)
    keep = ids < 50
    rng = np.random.default_rng(13)
    noisy = mat[keep] + rng.normal(0, 1e-3, size=mat[keep].shape)
    import pyarrow as pa_

    dup = pa_.table(
        {
            "vec_id": pa_.array(ids[keep] + 1_000_000, type=pa_.int64()),
            "embedding": pa_.array(noisy.tolist(), type=src.schema.field("embedding").type),
        }
    )
    out = pa_.concat_tables([src, dup])
    p = tmp_path / "vecs.parquet"
    pqq.write_table(out, p)
    return str(p)


def test_embedding_checkpointed_crash_resume_and_streaming_parity(
    ray_session, dup_vecs_file, tmp_path
):
    """embedding_dedup_checkpointed: crash-mid-run resume is byte-identical
    to a clean run, and the pair set equals streaming
    embedding_near_dup_pairs."""
    import ray.data as rd

    from rayhll.pipelines.dedup import embedding_near_dup_pairs
    from rayhll.state.checkpoint import embedding_dedup_checkpointed

    clean_dir = str(tmp_path / "e_clean")
    crash_dir = str(tmp_path / "e_crash")

    clean = embedding_dedup_checkpointed([dup_vecs_file], clean_dir, num_buckets=8)
    assert clean.num_rows >= 50  # every planted copy found

    with pytest.raises(RuntimeError, match="simulated crash"):
        embedding_dedup_checkpointed(
            [dup_vecs_file], crash_dir, num_buckets=8, fail_after=3
        )
    resumed = embedding_dedup_checkpointed([dup_vecs_file], crash_dir, num_buckets=8)
    assert resumed.equals(clean)
    a = open(os.path.join(clean_dir, "result", "result.parquet"), "rb").read()
    b = open(os.path.join(crash_dir, "result", "result.parquet"), "rb").read()
    assert a == b

    ds = rd.read_parquet(dup_vecs_file, columns=["vec_id", "embedding"])
    stream = (
        embedding_near_dup_pairs(ds, "embedding", "vec_id", dim=64, threshold=0.95)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    got = clean.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert (
        got[["id_a", "id_b"]].values.tolist()
        == stream[["id_a", "id_b"]].values.tolist()
    )


def test_sig_store_build_interrupted_before_manifest(ray_session, dup_docs_file, tmp_path):
    """A signature-store build that dies after its parquet landed and before
    its _MANIFEST.json did is rebuilt by the rerun (it is not mistaken for
    a foreign manifest-less store), and the pairs match a clean run."""
    import ray.data as rd

    from rayhll.pipelines.dedup import MinHashStage, build_minhash_sig_store
    from rayhll.state.checkpoint import minhash_dedup_checkpointed

    class CrashAfterWrite:
        def __init__(self, ds):
            self.ds = ds

        def write_parquet(self, path):
            self.ds.write_parquet(path)
            raise RuntimeError("simulated crash")

    clean = minhash_dedup_checkpointed([dup_docs_file], str(tmp_path / "clean"), num_buckets=8)

    crash_dir = str(tmp_path / "crash")
    signed = rd.read_parquet(dup_docs_file, columns=["doc_id", "text"]).map_batches(
        MinHashStage("text", "doc_id", 128, 32, 3), batch_format="pyarrow"
    )
    with pytest.raises(RuntimeError, match="simulated crash"):
        build_minhash_sig_store(
            CrashAfterWrite(signed), os.path.join(crash_dir, "sigs"), "text", "doc_id", 128, 32, 3
        )
    resumed = minhash_dedup_checkpointed([dup_docs_file], crash_dir, num_buckets=8)
    assert resumed.equals(clean)


def _recording_partial_fn(runs_dir: str, fail_pid=None, marker=None, wait_for=()):
    """A partial_fn over pid inputs that appends one byte to
    ``runs_dir/<pid>`` per call.  While ``marker`` exists it raises for
    ``fail_pid``, once the receipts in ``wait_for`` have landed (or 60 s
    have passed)."""

    def partial_fn(pid: str) -> pa.Table:
        import time

        with open(os.path.join(runs_dir, pid), "a") as f:
            f.write("x")
        if pid == fail_pid and os.path.exists(marker):
            deadline = time.time() + 60
            while time.time() < deadline and not all(map(os.path.exists, wait_for)):
                time.sleep(0.05)
            raise RuntimeError(f"partition {pid} failed")
        return pa.table({"pid": [pid]})

    return partial_fn


def _concat_partials(paths):
    return pa.concat_tables([pq.read_table(p) for p in paths])


def _runs(runs_dir, pid) -> int:
    path = os.path.join(runs_dir, pid)
    return os.path.getsize(path) if os.path.exists(path) else 0


def test_failed_task_resume_reruns_only_partitions_without_receipt(ray_session, tmp_path):
    """One task of the parallel execution fails after the others landed
    their receipts; the resume re-runs exactly the partitions without a
    receipt and returns the clean run's bytes."""
    pids = ["a", "b", "c"]
    inputs = {p: p for p in pids}
    out, runs, marker = tmp_path / "out", tmp_path / "runs", tmp_path / "marker"
    runs.mkdir()
    marker.touch()
    receipt = lambda p: str(out / "metrics" / f"part-{p}.json")  # noqa: E731
    fn = _recording_partial_fn(str(runs), "c", str(marker), [receipt("a"), receipt("b")])

    with pytest.raises(Exception, match="partition c failed"):
        run_checkpointed(str(out), pids, lambda _: inputs, fn, _concat_partials)
    landed = {p for p in pids if os.path.exists(receipt(p))}
    assert landed == {"a", "b"}
    before = {p: _runs(runs, p) for p in pids}

    marker.unlink()
    resumed = run_checkpointed(str(out), pids, lambda _: inputs, fn, _concat_partials)
    assert {p for p in pids if _runs(runs, p) > before[p]} == set(pids) - landed
    manifest = json.load(open(out / "manifest.json"))
    assert all(st["status"] == "done" for st in manifest["partitions"].values())
    assert all(st["attempts"] == 1 for st in manifest["partitions"].values())

    clean_runs = tmp_path / "clean_runs"
    clean_runs.mkdir()
    clean = run_checkpointed(
        str(tmp_path / "clean"), pids, lambda _: inputs, _recording_partial_fn(str(clean_runs)),
        _concat_partials,
    )
    assert resumed.equals(clean)
    a = open(tmp_path / "clean" / "result" / "result.parquet", "rb").read()
    assert open(out / "result" / "result.parquet", "rb").read() == a


def test_receipt_without_manifest_record_counts_as_done(ray_session, tmp_path):
    """A driver that died after a task's receipt landed but before it
    recorded the partition in the manifest: the resume takes the receipt,
    does not re-run that partition, and returns the clean run's bytes."""
    pids = ["a", "b", "c"]
    inputs = {p: p for p in pids}
    out, runs = tmp_path / "out", tmp_path / "runs"
    runs.mkdir()
    fn = _recording_partial_fn(str(runs))

    with pytest.raises(RuntimeError, match="simulated crash after 2 partitions"):
        run_checkpointed(str(out), pids, lambda _: inputs, fn, _concat_partials, fail_after=2)
    assert sorted(os.listdir(out / "metrics")) == ["part-a.json", "part-b.json"]
    manifest = json.load(open(out / "manifest.json"))
    done_b = manifest["partitions"]["b"]
    manifest["partitions"]["b"] = {"status": "pending"}
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f)

    resumed = run_checkpointed(str(out), pids, lambda _: inputs, fn, _concat_partials)
    assert {p: _runs(runs, p) for p in pids} == {"a": 1, "b": 1, "c": 1}
    assert json.load(open(out / "manifest.json"))["partitions"]["b"] == done_b

    clean = run_checkpointed(
        str(tmp_path / "clean"), pids, lambda _: inputs, _recording_partial_fn(str(runs)),
        _concat_partials,
    )
    assert resumed.equals(clean)
    a = open(tmp_path / "clean" / "result" / "result.parquet", "rb").read()
    assert open(out / "result" / "result.parquet", "rb").read() == a


def test_flagship_checkpointed_runs_no_execution(ray_session, code_files, tmp_path, executions):
    clean, crash = str(tmp_path / "clean"), str(tmp_path / "crash")
    assert _executions_of(executions, lambda: flagship_checkpointed(code_files, clean)) == 0
    assert _executions_of(executions, lambda: flagship_checkpointed(code_files, clean)) == 0
    crashed = lambda: flagship_checkpointed(code_files, crash, fail_after=1)  # noqa: E731
    assert _executions_of(executions, crashed) == 0
    assert _executions_of(executions, lambda: flagship_checkpointed(code_files, crash)) == 0


def test_minhash_dedup_checkpointed_executions(ray_session, dup_docs_file, tmp_path, executions):
    """A fresh directory: the signature store's write is the one execution,
    the buckets run as plain tasks; the resume reuses the store."""
    from rayhll.state.checkpoint import minhash_dedup_checkpointed

    out = str(tmp_path / "out")
    run = lambda **kw: minhash_dedup_checkpointed([dup_docs_file], out, num_buckets=8, **kw)  # noqa: E731
    assert _executions_of(executions, lambda: run(fail_after=3)) == 1
    assert _executions_of(executions, run) == 0


@pytest.mark.parametrize("family", ["minhash", "simhash"])
def test_pair_buckets_share_one_store_pass(ray_session, dup_docs_file, tmp_path, monkeypatch, family):
    """The bucket tasks get their rows from one producer pass over the
    signature store (one task per CPU for a small store), launched once for
    the pending buckets and exploding only theirs: once for a crashed run,
    once for its resume, and not at all for a rerun whose result is
    recorded."""
    from rayhll.stages import build
    from rayhll.state import checkpoint

    passes, colocate = [], build.colocate

    def counted(jobs, slices, key):
        assert (slices, key) == (8, "key") and 1 <= len(jobs) <= build.avail_cpus()
        passes.append([list(args[-1]) for _, args, _ in jobs])
        return colocate(jobs, slices, key)

    monkeypatch.setattr(build, "colocate", counted)
    runner = getattr(checkpoint, f"{family}_dedup_checkpointed")
    run = lambda out, **kw: runner([dup_docs_file], str(tmp_path / out), num_buckets=8, **kw)  # noqa: E731

    with pytest.raises(RuntimeError, match="simulated crash after 3 partitions"):
        run("crash", fail_after=3)
    resumed = run("crash")
    assert run("crash").equals(resumed)
    assert [set(map(tuple, p)) for p in passes] == [{(0, 1, 2)}, {(3, 4, 5, 6, 7)}]
    assert run("clean").equals(resumed)


def _sleepy_partial_fn(runs_dir: str, fail_pid: str, slow_pid: str):
    """A partial_fn over pid inputs: ``fail_pid`` raises once ``slow_pid``
    has started; ``slow_pid`` sleeps 2 s, then writes ``runs_dir/<pid>.late``
    before it returns."""

    def partial_fn(pid: str) -> pa.Table:
        import time

        started = os.path.join(runs_dir, f"{slow_pid}.started")
        if pid == slow_pid:
            open(started, "w").close()
            time.sleep(2)
            open(os.path.join(runs_dir, f"{pid}.late"), "w").close()
        if pid == fail_pid:
            deadline = time.time() + 60
            while time.time() < deadline and not os.path.exists(started):
                time.sleep(0.01)
            raise RuntimeError(f"partition {pid} failed")
        return pa.table({"pid": [pid]})

    return partial_fn


def test_failed_task_settles_every_task_before_raising(ray_session, tmp_path):
    """When a partition's task raises, no task of that run still writes
    after run_checkpointed re-raises: the slow sibling has finished or been
    cancelled, and a receipt that landed is in the manifest."""
    import time

    pids = [f"p{i}" for i in range(8)]  # more than the session's 4 CPUs
    out, runs = tmp_path / "out", tmp_path / "runs"
    runs.mkdir()
    fn = _sleepy_partial_fn(str(runs), fail_pid="p0", slow_pid="p1")

    with pytest.raises(Exception, match="partition p0 failed"):
        run_checkpointed(
            str(out), pids, lambda pending: {p: p for p in pending}, fn, _concat_partials
        )
    before_out, before_runs = _mtimes(str(out)), _mtimes(str(runs))
    time.sleep(3)
    assert _mtimes(str(out)) == before_out
    assert _mtimes(str(runs)) == before_runs
    manifest = json.load(open(out / "manifest.json"))
    for pid in pids:
        landed = os.path.exists(out / "metrics" / f"part-{pid}.json")
        assert (manifest["partitions"][pid]["status"] == "done") == landed
    assert manifest["partitions"]["p0"]["status"] == "pending"


def test_resume_flushes_the_manifest_once_for_all_receipts_on_disk(
    ray_session, tmp_path, monkeypatch
):
    """A resume that finds N receipts on disk that the manifest does not
    record writes the manifest a fixed number of times, not N."""
    pids = [f"p{i:02d}" for i in range(12)]
    inputs = {p: p for p in pids}
    out, runs = tmp_path / "out", tmp_path / "runs"
    runs.mkdir()
    clean = run_checkpointed(
        str(out), pids, lambda _: inputs, _recording_partial_fn(str(runs)), _concat_partials
    )
    manifest = json.load(open(out / "manifest.json"))
    manifest["partitions"] = {p: {"status": "pending"} for p in pids}
    manifest["result"] = None
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f)

    flushes = [0]
    flush = Manifest.flush

    def counted(self):
        flushes[0] += 1
        flush(self)

    monkeypatch.setattr(Manifest, "flush", counted)
    resumed = run_checkpointed(
        str(out), pids, lambda _: inputs, _recording_partial_fn(str(runs)), _concat_partials
    )
    assert resumed.equals(clean)
    assert {p: _runs(runs, p) for p in pids} == {p: 1 for p in pids}  # nothing re-ran
    assert flushes[0] == 2  # the receipts, then the result
    assert all(st["status"] == "done" for st in json.load(open(out / "manifest.json"))["partitions"].values())
