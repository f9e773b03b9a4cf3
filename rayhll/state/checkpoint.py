"""Checkpointed, resumable runs: the one resume primitive every resumable
operator in the engine is built on.

The contract, shared by all four on-disk layouts below:

* **atomic write** (:func:`atomic_write`) — every unit of output (a
  parquet file, a parquet directory, a JSON record) is written to
  ``<path>.tmp`` and renamed into place, so a crash leaves the whole unit
  or none of it; the next write removes a stale ``.tmp``;
* **fingerprint** (:func:`check_fingerprint`) — the settings that
  determine a run's output are recorded once next to it and compared whole
  (every recorded key but the run's progress); a rerun under the
  same directory with different settings raises ``ValueError`` instead of
  mixing two runs' units;
* **receipts** — a unit's done-receipt is written only after the unit's
  output has landed, so a unit without a receipt is simply re-run.  Units
  are pure functions of (input, settings), hence a resumed run is
  byte-identical to a clean one wherever the previous run died (asserted in
  tests/test_checkpoint.py).

The four layouts::

    run_checkpointed (flagship_checkpointed, *_dedup_checkpointed):
      manifest.json                fingerprint (settings_hash) + per-partition
                                   status / attempts — the driver's index of
                                   the receipts — + result: the partition ids
                                   result.parquet merges
      partials/part-<id>.parquet   one file per completed partition
      metrics/part-<id>.json       its receipt, written by the task that
                                   computed the partial, after it: partition,
                                   rows_out, bytes_out, wall_s, attempts
      result/result.parquet        final merged output

    pipelines.components.connected_components_checkpointed:
      cc_manifest.json             fingerprint (settings_hash, num_buckets) +
                                   per-round (n, checksum) receipts, converged flag
      round-NNNN/                  one round's edge multiset (last two kept)
      result/                      final (node, component) labels

    pipelines.shuffle.write_shards:
      _MANIFEST.json               fingerprint: digest of the shuffle manifest
                                   (its id, rank, shard, pos rows)
      shard-NNNNN.parquet          one shard's rows in permutation order
      shard-NNNNN.done.json        its receipt (shard, n_rows, pos_contiguous,
                                   first, last)

    pipelines.dedup signature stores (``<out_dir>/sigs`` for the runners here):
      _MANIFEST.json               fingerprint: the signing parameters
      *.parquet                    the signatures

A signature store's parquet and ``_MANIFEST.json`` are renamed into place
together, so a store directory without a manifest is foreign and refused,
while an interrupted build leaves only ``sigs.tmp`` and is rebuilt.

A *partition* of :func:`run_checkpointed` is one input file (or one pair
bucket) — the unit of skip-on-resume.  At 100 TB the partition table is the
file list, a rerun costs only the unfinished tail, and the merge input is
partials/ (thousands of KB-scale sketch files), not the corpus.  Each
pending partition runs as one plain Ray task (no Ray Data execution: the
partitions are not a dataset), and the driver rewrites ``manifest.json``
once per batch of receipts it collects, not once per partition.  The
pending pair buckets of the ``*_dedup_checkpointed`` runners get their
rows from one pass over the signature store (``stages.build.colocate``:
producer tasks over runs of store files, each keeping and slicing the
pending buckets' keyed rows), launched only when some bucket is pending.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq


def settings_fingerprint(obj) -> str:
    """Stable fingerprint of a settings-like object (repr-based)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def atomic_write(path: str, data, manifest: dict | None = None) -> int:
    """Write ``data`` to ``path`` all-or-nothing: into ``path + ".tmp"``,
    then renamed into place.

    ``data`` is a dict (one JSON file), a ``pyarrow.Table`` (one parquet
    file) or a Ray Dataset (one parquet directory, replacing any directory
    already at ``path`` — the orphan of a crash before its receipt).  For a
    directory, ``manifest`` is written into it as ``_MANIFEST.json`` before
    the rename, so the two land together.  Returns the bytes written for a
    file, 0 for a directory."""
    tmp = path + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if isinstance(data, dict):
        with open(tmp, "w") as f:
            json.dump(data, f, indent=1)
    elif isinstance(data, pa.Table):
        pq.write_table(data, tmp)
    else:
        data.write_parquet(tmp)
        os.makedirs(tmp, exist_ok=True)  # an empty dataset writes no file
        if manifest is not None:
            with open(os.path.join(tmp, "_MANIFEST.json"), "w") as f:
                json.dump(manifest, f)
        if os.path.isdir(path):
            shutil.rmtree(path)
    os.replace(tmp, path)
    return 0 if os.path.isdir(path) else os.path.getsize(path)


def read_record(path: str) -> dict | None:
    """The JSON record at ``path``, or None if there is none yet."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def check_fingerprint(path: str, fingerprint: dict, what: str, progress=(), record=True) -> dict:
    """Resume guard: the JSON record at ``path`` names the settings its
    directory's output was built with, next to the run's ``progress`` keys.
    If it exists, everything in it except ``progress`` must equal
    ``fingerprint``, else ``ValueError`` — resuming would silently mix two
    runs.  If not, ``fingerprint`` is recorded, unless ``record=False``
    (the caller commits it with its first unit).  Returns the record."""
    found = read_record(path)
    if found is None:
        if record:
            atomic_write(path, fingerprint)
        return dict(fingerprint)
    settings = {k: v for k, v in found.items() if k not in progress}
    if settings != fingerprint:
        raise ValueError(
            f"settings mismatch: {what} holds a run with different settings — "
            f"it was built with {settings}, but this run needs {fingerprint}; use "
            "a fresh directory, or delete it to rebuild"
        )
    return found


@dataclass
class Manifest:
    out_dir: str
    settings_hash: str = ""
    partitions: dict[str, dict] = field(default_factory=dict)
    result: list[str] | None = None  # partition ids result/result.parquet merges

    @property
    def path(self) -> str:
        return os.path.join(self.out_dir, "manifest.json")

    @classmethod
    def load_or_create(cls, out_dir: str, settings_hash: str, partition_ids: list[str]) -> "Manifest":
        m = cls(out_dir=out_dir, settings_hash=settings_hash)
        fingerprint, progress = {"settings_hash": settings_hash}, ("partitions", "result")
        record = check_fingerprint(m.path, fingerprint, f"checkpoint {out_dir}", progress)
        m.partitions = record.get("partitions", {})
        m.result = record.get("result")
        new = [pid for pid in partition_ids if pid not in m.partitions]
        if new:
            m.partitions.update({pid: {"status": "pending"} for pid in new})
            m.flush()
        return m

    def flush(self) -> None:
        record = {"settings_hash": self.settings_hash, "partitions": self.partitions}
        atomic_write(self.path, {**record, "result": self.result})

    def pending(self) -> list[str]:
        return [p for p, st in self.partitions.items() if st.get("status") != "done"]

    def mark_done(self, pid: str, **metrics) -> None:
        self.record([{"partition": pid, **metrics}])

    def record(self, receipts: list[dict]) -> None:
        """Mark the partition of every receipt done with the receipt's
        metrics, in one write of the manifest (none for no receipt)."""
        for receipt in receipts:
            metrics = dict(receipt)
            self.partitions[metrics.pop("partition")] = {"status": "done", **metrics}
        if receipts:
            self.flush()

    def mark_result(self, pids: list[str] | None) -> None:
        self.result = pids
        self.flush()


def run_checkpointed(
    out_dir: str,
    pids: list[str],
    inputs,
    partial_fn,
    merge_fn,
    settings_obj=None,
    fail_after: int | None = None,
):
    """Run ``partial_fn(partition_input) -> pyarrow.Table`` for every
    pending partition of ``pids``, one plain Ray task per partition, its
    input from ``inputs(pending) -> {pid: partition_input}``, called once
    with the pending pids (not at all when none is): the task writes its
    partial atomically, then its metrics receipt, and the driver records the
    receipts in the manifest as they land, one manifest write per batch of
    receipts.  Then ``merge_fn(list_of_partial_paths) -> pyarrow.Table``
    runs on the driver over ALL partials, written to
    ``result/result.parquet``.  The manifest's ``result`` key names the
    partitions that file merges (cleared before the file is replaced, set
    after it lands); a rerun over exactly those partitions returns the
    stored result and writes nothing.  Returns the final table.

    ``partial_fn`` runs inside a Ray task: it must be picklable (with the
    partition inputs).  A pending partition whose receipt is on disk (the
    driver died before recording it) counts as done.  When a task raises,
    the tasks not yet finished are cancelled and every task of the run has
    stopped before the first error is re-raised, so nothing of this run
    writes into ``out_dir`` after it returns.

    :param fail_after: test hook — run only the first N pending partitions,
        then raise once their receipts have landed, to simulate a crash for
        resume testing.
    """
    import ray

    pids = sorted(pids)
    manifest = Manifest.load_or_create(out_dir, settings_fingerprint(settings_obj), pids)
    result_path = os.path.join(out_dir, "result", "result.parquet")
    if manifest.result == pids and os.path.exists(result_path):
        return pq.read_table(result_path)

    pending, landed = _receipts_on_disk(out_dir, manifest, pids)
    manifest.record(landed)
    crash = fail_after is not None and len(pending) >= fail_after
    if crash:
        pending = pending[:fail_after]

    if pending:
        fn, given = ray.put(partial_fn), inputs(pending)
        task = _partition_task()
        running = [
            task.remote(
                out_dir, pid, fn, given[pid], manifest.partitions[pid].get("attempts", 0) + 1
            )
            for pid in pending
        ]
        error = None
        while running:
            ray.wait(running, num_returns=1, fetch_local=False)
            ready, running = ray.wait(running, num_returns=len(running), timeout=0)
            landed = []
            for ref in ready:
                try:
                    landed.append(ray.get(ref))
                except ray.exceptions.RayError as e:  # a failed, or then a cancelled, task
                    if error is None:
                        error = e
                        for other in running:
                            ray.cancel(other)
            manifest.record(landed)
        if error is not None:
            # a task cancelled between its receipt and its return left the receipt
            manifest.record(_receipts_on_disk(out_dir, manifest, pending)[1])
            raise error
    if crash:
        raise RuntimeError(f"simulated crash after {len(pending)} partitions")

    final = merge_fn([_part_path(out_dir, pid) for pid in pids])
    if manifest.result is not None:
        manifest.mark_result(None)
    atomic_write(result_path, final)
    manifest.mark_result(pids)
    return final


def _receipts_on_disk(out_dir: str, manifest: Manifest, pids: list[str]) -> tuple[list, list]:
    """(the ``pids`` the manifest does not record as done and that have no
    receipt on disk, the receipts on disk of the others not recorded)."""
    missing, found = [], []
    for pid in pids:
        if manifest.partitions[pid].get("status") == "done":
            continue
        receipt = read_record(_receipt_path(out_dir, pid))
        if receipt is None:
            missing.append(pid)
        else:
            found.append(receipt)
    return missing, found


def _part_path(out_dir: str, pid: str) -> str:
    return os.path.join(out_dir, "partials", f"part-{pid}.parquet")


def _receipt_path(out_dir: str, pid: str) -> str:
    return os.path.join(out_dir, "metrics", f"part-{pid}.json")


@functools.cache
def _partition_task():
    import ray

    return ray.remote(_run_partition)


def _run_partition(out_dir: str, pid: str, partial_fn, partition_input, attempts: int) -> dict:
    """One partition of :func:`run_checkpointed`: its partial, then its
    receipt, each written atomically.  Returns the receipt."""
    t0 = time.perf_counter()
    table = partial_fn(partition_input)
    receipt = {
        "partition": pid,
        "rows_out": table.num_rows,
        "bytes_out": atomic_write(_part_path(out_dir, pid), table),
        "wall_s": round(time.perf_counter() - t0, 4),
        "attempts": attempts,
    }
    atomic_write(_receipt_path(out_dir, pid), receipt)
    return receipt


def flagship_checkpointed(
    input_files: list[str], out_dir: str, settings=None, fail_after: int | None = None
):
    """Checkpointed flagship run: one partition per input parquet file.

    Partial = grouped multi-key sketch rows for that file, read as polars
    frames of only the columns ``MultiKeyBuild`` declares, 262,144 rows at a
    time (``stages.build.read_batches``, as the direct path reads) and built
    one at a time; merge = ``stages.build.reduce``
    over all partials, whose split tasks read the files (the driver reads
    none); result = per-(repo, lang) estimates.  Byte-deterministic across
    resumes.  The fingerprint covers the settings and the input file list
    (partition ids index it)."""
    from rayhll.core.settings import HllSettings
    from rayhll.pipelines import distinct
    from rayhll.stages import build as bs

    settings = settings or HllSettings(11, 5)

    def partial_fn(path: str) -> pa.Table:
        multi = distinct.MultiKeyBuild(settings=settings, grouped=True)
        schema = pq.read_schema(path)
        wanted = set(multi.input_columns)
        schema = pa.schema([field for field in schema if field.name in wanted], schema.metadata)
        parts = []
        for frame in bs.read_batches([(path, None, {})], schema, 262144):
            parts.append(multi.build(frame, schema))
            del frame  # the next batch is read with this one freed
        return pa.concat_tables(parts or [multi(schema.empty_table())])

    def merge_fn(paths: list[str]) -> pa.Table:
        import ray

        merger = bs.make_bucket_merger(
            list(distinct.GROUP_COLS),
            list(distinct.SKETCH_COLS),
            list(distinct.EST_COLS),
            include_sketch=True,
        )
        slices, sizes = bs.avail_cpus(), [os.path.getsize(p) for p in paths]
        runs = bs.runs(paths, sizes, bs.producer_count(sizes, slices))
        merged = bs.reduce([(_read_tables, run, {}) for run in runs], merger, slices, bs.GHASH_COL)
        merged = pa.concat_tables(ray.get([ref for ref, _ in merged]), promote_options="default")
        # canonical order for byte-stable output
        return merged.sort_by([("repo", "ascending"), ("lang", "ascending")])

    files = {f"{i:05d}": p for i, p in enumerate(sorted(input_files))}
    return run_checkpointed(
        out_dir, list(files), lambda _: files, partial_fn, merge_fn,
        settings_obj=(settings, list(files.values())), fail_after=fail_after,
    )


def _read_tables(*paths: str) -> pa.Table:
    return pa.concat_tables([pq.read_table(p) for p in paths])


def _pair_dedup_checkpointed(
    input_files, out_dir, params, fail_after, read_cols, sign, build_store, store_cols,
    explode, verify, score,
):
    """The checkpoint runner behind every ``*_dedup_checkpointed`` family.

    Two-level resume:

    * the SIGNATURE pass (``sign`` over ``read_cols`` of the inputs — the
      expensive leg) runs once into the parquet store ``out_dir/sigs``
      (``build_store(signed, sig_store_dir)``), fingerprinted by its
      ``_MANIFEST.json`` and reused across runs;
    * the PAIR output is partitioned by co-locating bucket
      (``key % params["num_buckets"]``).  One producer pass over the store
      feeds every pending bucket: plain Ray tasks over runs of store files
      (``stages.build.colocate``) turn each record batch of ``store_cols``
      into the family's ``(key, *payload)`` rows (``explode``, its streaming
      map), keep the pending buckets' rows and slice them by bucket.  Each
      pending bucket's task turns its slices into ``(id_a, id_b, <score>)``
      pairs with ``verify`` (the streaming kernel) — a pure function of the
      store, written atomically with its receipt, skipped on resume.  A run
      with no bucket pending launches no producer.

    Merge = global pair dedup (a pair can surface from several buckets) +
    canonical ``(id_a, id_b)`` sort, so the final pair set is byte-identical
    no matter where a previous run died.  ``score`` = (name, type) of the
    score column."""
    import polars as pl
    import ray.data as rd

    from rayhll.stages import build as bs

    sig_store_dir = os.path.join(out_dir, "sigs")
    signed = rd.read_parquet(sorted(input_files), columns=read_cols).map_batches(
        sign, batch_format="pyarrow", zero_copy_batch=True
    )
    build_store(signed, sig_store_dir)
    num_buckets = params["num_buckets"]

    def inputs(pending: list[str]) -> dict:
        import ray

        buckets = [int(pid[1:]) for pid in pending]
        files = sorted(pads.dataset(sig_store_dir, format="parquet").files)  # skips _MANIFEST.json
        sizes = [os.path.getsize(f) for f in files]
        runs = bs.runs(files, sizes, bs.producer_count(sizes, bs.avail_cpus()))
        args = (store_cols, explode, num_buckets, buckets)
        slices = bs.colocate([(_exploded, (run, *args), {}) for run in runs], num_buckets, "key")
        refs = [ref for refs in slices for ref in refs]
        # start the bucket tasks once every slice exists: one blocked in ray.get makes Ray
        # start another worker (about 1 s of a SimHash stress run)
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
        return {pid: slices[b] for pid, b in zip(pending, buckets)}

    def partial_fn(slices: list) -> pa.Table:
        import ray

        from rayhll.pipelines.dedup import _bucket_task

        return _bucket_task(verify, score, *ray.get(slices))

    def merge_fn(paths: list[str]) -> pa.Table:
        all_pairs = pa.concat_tables([pq.read_table(p) for p in paths])
        if len(all_pairs) == 0:
            return all_pairs
        return (
            pl.from_arrow(all_pairs)
            .unique(subset=["id_a", "id_b"])
            .sort(["id_a", "id_b"])
            .to_arrow()
        )

    pids = [f"b{b:04d}" for b in range(num_buckets)]
    return run_checkpointed(
        out_dir, pids, inputs, partial_fn, merge_fn, settings_obj=params, fail_after=fail_after
    )


def _exploded(paths: list[str], columns: list[str], explode, num_buckets: int, buckets) -> pa.Table:
    """The ``explode`` rows of each record batch of the ``columns`` of the
    parquet files ``paths``, in order, whose ``key % num_buckets`` is in
    ``buckets``."""
    from rayhll.stages.build import _concat

    kept = []
    for path in paths:
        for batch in pq.ParquetFile(path).iter_batches(columns=columns):
            rows = explode(pa.Table.from_batches([batch]))
            if len(buckets) < num_buckets:
                slot = rows.column("key").to_numpy().view(np.uint64) % np.uint64(num_buckets)
                rows = rows.filter(np.isin(slot, buckets))
            kept.append(rows)
    return _concat(*kept)


def simhash_dedup_checkpointed(
    input_files: list[str],
    out_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_bucket_size: int = 4096,
    num_buckets: int = 16,
    fail_after: int | None = None,
):
    """Checkpointed SimHash near-dup pair extraction (see
    :func:`_pair_dedup_checkpointed`): the signature store holds
    ``SimHashStage`` rows ``(id, simhash64)``, buckets co-locate the 4
    chunk keys derived from ``simhash64`` (``chunk_key % num_buckets``) and
    pairs are hamming-verified.  A store written with the former
    ``chunk_0..3`` columns resumes unchanged.  The final pair set matches
    the streaming ``simhash_pairs`` on the same input (both pinned)."""
    from rayhll.pipelines.dedup import (
        SimHashStage,
        _chunk_keys,
        _explode,
        _make_simhash_bucket_pairs_fn,
        build_simhash_sig_store,
    )

    params = dict(
        max_hamming=max_hamming, max_bucket_size=max_bucket_size, num_buckets=num_buckets,
        text_col=text_col, id_col=id_col, inputs=sorted(input_files),
    )
    return _pair_dedup_checkpointed(
        input_files, out_dir, params, fail_after,
        read_cols=[id_col, text_col],
        sign=SimHashStage(text_col, id_col),
        build_store=lambda signed, d: build_simhash_sig_store(signed, d, text_col, id_col),
        store_cols=[id_col, "simhash64"],
        explode=lambda batch: _explode(
            batch.select([id_col, "simhash64"]), _chunk_keys(batch, "simhash64")
        ),
        verify=_make_simhash_bucket_pairs_fn(id_col, max_hamming, max_bucket_size),
        score=("hamming", pa.int64()),
    )


def embedding_dedup_checkpointed(
    input_files: list[str],
    out_dir: str,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    dim: int = 64,
    threshold: float = 0.95,
    num_planes: int = 16,
    num_tables: int = 4,
    max_bucket_size: int = 4096,
    verify_block: int = 1024,
    num_buckets: int = 16,
    fail_after: int | None = None,
):
    """Checkpointed embedding near-dup pair extraction (see
    :func:`_pair_dedup_checkpointed`): the signature store holds the id,
    float32 normalized vector and per-table hyperplane sigs, buckets
    co-locate the sig values (``sig_t % num_buckets``) with their id and
    vector, and pairs are cosine-verified.  Parity with streaming
    ``embedding_near_dup_pairs`` is pinned in tests."""
    from rayhll.pipelines.dedup import (
        HyperplaneStage,
        _explode,
        _make_embedding_bucket_pairs_fn,
        _table_keys,
        build_embedding_sig_store,
    )

    params = dict(
        threshold=threshold, dim=dim, num_planes=num_planes, num_tables=num_tables,
        max_bucket_size=max_bucket_size, verify_block=verify_block, num_buckets=num_buckets,
        vec_col=vec_col, id_col=id_col, inputs=sorted(input_files),
    )
    return _pair_dedup_checkpointed(
        input_files, out_dir, params, fail_after,
        read_cols=[id_col, vec_col],
        sign=HyperplaneStage(vec_col, id_col, dim, num_planes, num_tables),
        build_store=lambda signed, d: build_embedding_sig_store(
            signed, d, vec_col, id_col, dim, num_planes, num_tables
        ),
        store_cols=[id_col, "norm_vec"] + [f"sig_{t}" for t in range(num_tables)],
        explode=lambda batch: _explode(
            batch.select([id_col, "norm_vec"]), _table_keys(batch, num_tables)
        ),
        verify=_make_embedding_bucket_pairs_fn(id_col, threshold, max_bucket_size, verify_block),
        score=("cosine", pa.float64()),
    )


def minhash_dedup_checkpointed(
    input_files: list[str],
    out_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 128,
    num_bands: int = 32,
    gram: int = 3,
    max_bucket_size: int = 1000,
    num_buckets: int = 16,
    sig_slot_bytes: int = 2,
    verify_text_hash: bool = False,
    fail_after: int | None = None,
):
    """Checkpointed MinHash+LSH near-dup pair extraction (see
    :func:`_pair_dedup_checkpointed`): buckets co-locate the band keys of
    the stored signatures (``band_key % num_buckets``) with their ids and
    truncated signatures, and pairs are verified by the streaming kernel.

    Verification truncates signature slots exactly like the streaming
    path (``sig_slot_bytes``), so the pair set matches
    ``minhash_lsh_pairs`` on the same input.  ``verify_text_hash=True``
    additionally requires the 64-bit text hashes to match (the exact-dedup
    shape at ``threshold=1.0`` — same contract as the streaming variant):
    the sig store then carries a ``texthash`` column, keyed in its
    manifest."""
    from rayhll.pipelines.dedup import (
        MinHashStage,
        _make_minhash_bucket_pairs_fn,
        _make_minhash_explode_fn,
        build_minhash_sig_store,
    )

    params = dict(
        threshold=threshold, num_perm=num_perm, num_bands=num_bands, gram=gram,
        max_bucket_size=max_bucket_size, num_buckets=num_buckets, sig_slot_bytes=sig_slot_bytes,
        verify_text_hash=verify_text_hash, text_col=text_col, id_col=id_col,
        inputs=sorted(input_files),
    )
    texthash = ["texthash"] if verify_text_hash else []
    return _pair_dedup_checkpointed(
        input_files, out_dir, params, fail_after,
        read_cols=[id_col, text_col],
        sign=MinHashStage(
            text_col, id_col, num_perm, num_bands, gram, emit_texthash=verify_text_hash
        ),
        build_store=lambda signed, d: build_minhash_sig_store(
            signed, d, text_col, id_col, num_perm, num_bands, gram, texthash=verify_text_hash
        ),
        store_cols=[id_col, "signature"] + [f"band_{b}" for b in range(num_bands)] + texthash,
        explode=_make_minhash_explode_fn(
            id_col, num_perm, num_bands, sig_slot_bytes, verify_text_hash
        ),
        verify=_make_minhash_bucket_pairs_fn(
            id_col, threshold, num_perm, max_bucket_size, sig_slot_bytes, verify_text_hash
        ),
        score=("jaccard", pa.float64()),
    )
