"""Deterministic global-shuffle manifest: every row's position in a
seeded random permutation of the corpus, as metadata — ``(doc_id, rank,
shard, pos)`` where ``rank`` is the row's index in the permutation,
``shard = rank % num_shards`` and ``pos = rank // num_shards``.  A
training loader reads shard files round-robin and gets the exact global
permutation without any data ever moving: epoch shuffling becomes a
manifest join (new seed = new manifest), reproducible across reruns,
resumable mid-epoch at any (shard, pos).

The permutation key is the first 8 bytes (big-endian) of
``sha256(f"{id}:{seed}")`` with ``(key, id)`` lexicographic order — sha256
so the DuckDB oracle can mirror the EXACT permutation
(``ORDER BY substring(sha256(id || ':' || seed), 1, 16), id``; the first
16 hex chars order identically to the uint64 key, and the id tie-break
pins the ~2^-65-probability key-collision case both sides).  The per-row
sha256 runs over the tiny id string only — the same documented hashlib
exception as :func:`rayhll.functions.hashing.sha256_hex`, NOT a per-row
loop over content.

Global rank is a running row count in ``(key, id)`` order: ONE
projection to compact ``(id, key)`` rows, then
:func:`rayhll.stages.prefix.range_prefix` (weight = one per row) gives each
row the count of rows before it.  The key is sha256 output, uniform by
construction, so the sampled key ranges split evenly.  Nothing text-sized
moves at all.

Input contract: ``id_col`` is UNIQUE and non-null (a null or duplicate
id raises ``ValueError``); for the SQL mirror to hold it must render
identically via ``str(id)`` and ``CAST(id AS VARCHAR)`` (integer ids do).

reference: no counterpart in /root/reference (python-hll is sketch-only);
builder-brief training-data-pipeline requirement (epoch shuffling).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from rayhll.stages.prefix import range_prefix, with_known_id_type

__all__ = ["shuffle_manifest", "write_shards"]


def shuffle_manifest(
    ds,
    id_col: str = "doc_id",
    seed: int = 0,
    num_shards: int = 64,
    target_rows_per_range: int = 1_000_000,
    max_ranges: int = 4096,
    stats_out: dict | None = None,
):
    """Seeded permutation manifest: ``(id_col, rank, shard, pos)`` rows.

    ``rank`` ∈ [0, n) is the row's position in the permutation induced by
    the seeded hash key; ``shard``/``pos`` lay the permutation out
    round-robin across ``num_shards`` shard files.  All-integer output —
    the driver oracle gates it hash-exactly."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    suffix = f":{int(seed)}"

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        keys = np.empty(len(ids), dtype=np.uint64)
        for i, v in enumerate(ids.to_pylist()):
            s = v if isinstance(v, str) else str(v)
            keys[i] = int.from_bytes(
                hashlib.sha256((s + suffix).encode()).digest()[:8], "big"
            )
        return pa.table({id_col: ids, "_k": pa.array(keys, type=pa.uint64())})

    def rank_range(tbl: pa.Table, offset: int) -> pa.Table:
        rank = offset + np.arange(tbl.num_rows, dtype=np.int64)
        return pa.table(
            {
                id_col: tbl.column(id_col),
                "rank": pa.array(rank, type=pa.int64()),
                "shard": pa.array(rank % num_shards, type=pa.int64()),
                "pos": pa.array(rank // num_shards, type=pa.int64()),
            }
        )

    return range_prefix(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        id_col,
        "_k",
        None,
        with_known_id_type(rank_range, ds, id_col),
        target_rows_per_range,
        max_ranges,
        stats_out,
    )


def _manifest_digest(manifest, id_col: str, finished: np.ndarray) -> tuple[dict, int]:
    """What :func:`write_shards` output is a function of: the shuffle
    manifest's row count and an order-free 64-bit sum of its mixed
    ``(id, rank, shard, pos)`` rows — ``shard``/``pos`` carry
    ``num_shards``, which ``rank`` alone does not.  Integer ids mix in
    directly, other ids through sha256 (as the permutation key itself
    does).  The same pass counts the rows of shards not in ``finished``,
    the ones a resume still has to write."""
    from rayhll.functions.hashing import sha256_raw64, splitmix64

    def digest(t: pa.Table) -> pa.Table:
        ids = t.column(id_col)
        h = ids.to_numpy().astype(np.int64) if pa.types.is_integer(ids.type) else sha256_raw64(ids)
        mixed = h.view(np.uint64)
        for col in ("rank", "shard", "pos"):
            mixed = splitmix64(mixed ^ t.column(col).to_numpy().view(np.uint64))
        pending = ~np.isin(t.column("shard").to_numpy(), finished)
        return pa.table(
            {
                "_rows": [t.num_rows],
                "_sum": pa.array([mixed.sum(dtype=np.uint64)], type=pa.uint64()),
                "_pending": [int(pending.sum())],
            }
        )

    rows = total = pending = 0
    parts = manifest.map_batches(digest, batch_format="pyarrow", batch_size=None)
    for t in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        if "_rows" in t.column_names:  # empty blocks pass through unmapped
            rows += sum(t.column("_rows").to_pylist())
            total += sum(t.column("_sum").to_pylist())
            pending += sum(t.column("_pending").to_pylist())
    return {"id_col": id_col, "rows": rows, "digest": f"{total % 2**64:016x}"}, pending


def write_shards(
    ds,
    manifest,
    out_dir: str,
    id_col: str = "doc_id",
    num_buckets: int | None = None,
):
    """Apply a :func:`shuffle_manifest` to the corpus and write ONE
    parquet file per shard, rows in exact permutation (``pos``) order —
    the resumable training-shard layout: a loader streams
    ``shard-NNNNN.parquet`` files round-robin and sees the global seeded
    permutation.

    Resume (the ``state.checkpoint`` contract): each shard file is written
    temp-and-rename, then its ``shard-NNNNN.done.json`` receipt; a rerun
    skips every shard with a receipt.  ``_MANIFEST.json`` records a digest
    of ``manifest`` (row count, order-free hash of its ``(id, rank, shard,
    pos)`` rows); a rerun under the same ``out_dir`` with another
    manifest (a new seed, ``num_shards`` or corpus) raises ``ValueError``
    instead of mixing two permutations.  ``manifest`` is materialized
    once, for the digest, the resume filter and the join.

    Shape: ONE bucketed equi-join attaches (rank, shard, pos) to the
    corpus, then a shard-keyed groupby sorts each shard locally by
    ``pos`` and its reduce task writes the file — every shard is an
    independent task, so shard COUNT is the memory knob (one shard's
    rows incl. payloads sit in one task; size ``num_shards`` so a shard
    fits a worker, exactly how training loaders size their files).

    Returns per-shard receipt rows ``(shard, n_rows, pos_contiguous,
    first_<id>, last_<id>)`` as a Dataset — integers/booleans, so a SQL
    mirror can gate the whole layout hash-exactly."""
    import ray.data as rd

    from rayhll.functions.join import bucket_equi_join
    from rayhll.state.checkpoint import atomic_write, check_fingerprint, read_record

    def _load_done() -> dict[int, dict]:
        # the per-shard .done.json receipts ARE the resume state: each is
        # written atomically by the worker AFTER its parquet landed, so a
        # crashed run's finished shards survive with no global state file
        # to lose
        names = [n for n in os.listdir(out_dir) if n.endswith(".done.json")]
        return {int(r["shard"]): r for r in (read_record(os.path.join(out_dir, n)) for n in names)}

    def _receipt_table(done: dict[int, dict]) -> pa.Table:
        rows = [
            {
                "shard": s,
                "n_rows": v["n_rows"],
                "pos_contiguous": v["pos_contiguous"],
                f"first_{id_col}": v["first"],
                f"last_{id_col}": v["last"],
            }
            for s, v in sorted(done.items())
        ]
        return pa.Table.from_pylist(rows)

    os.makedirs(out_dir, exist_ok=True)
    done = _load_done()
    finished = np.fromiter(sorted(done), dtype=np.int64)
    # one pass over the compact manifest both fingerprints it and counts
    # what is left to write — a fully-finished rerun must not shuffle the
    # corpus at all
    manifest = manifest.materialize()
    fingerprint, pending = _manifest_digest(manifest, id_col, finished)
    check_fingerprint(
        os.path.join(out_dir, "_MANIFEST.json"), fingerprint, f"write_shards output {out_dir}"
    )
    if done:
        if pending == 0:
            return rd.from_arrow(_receipt_table(done))

        # true partition resume: drop finished shards' manifest rows
        # BEFORE the join, so their corpus rows never enter the exchange
        def pending_only(t: pa.Table) -> pa.Table:
            keep = ~np.isin(t.column("shard").to_numpy(), finished)
            return t.filter(pa.array(keep))

        manifest = manifest.map_batches(pending_only, batch_format="pyarrow")

    joined = bucket_equi_join(ds, manifest, on=id_col, num_buckets=num_buckets)

    def write_shard(tbl: pa.Table) -> pa.Table:
        shard = int(tbl.column("shard")[0].as_py())
        pos = tbl.column("pos").to_numpy()
        order = np.argsort(pos)
        tbl = tbl.take(pa.array(order)).drop_columns(["shard"])
        atomic_write(os.path.join(out_dir, f"shard-{shard:05d}.parquet"), tbl)
        pos_sorted = pos[order]
        contiguous = bool(
            len(pos_sorted) == 0
            or (np.diff(pos_sorted) == 1).all()
        )
        ids = tbl.column(id_col)
        receipt = {
            "shard": shard,
            "n_rows": tbl.num_rows,
            "pos_contiguous": contiguous,
            "first": ids[0].as_py(),
            "last": ids[len(ids) - 1].as_py(),
        }
        atomic_write(os.path.join(out_dir, f"shard-{shard:05d}.done.json"), receipt)
        return pa.table(
            {
                "shard": pa.array([shard], type=pa.int64()),
                "n_rows": pa.array([tbl.num_rows], type=pa.int64()),
            }
        )

    # drive the writes to completion; receipts come from the .done files
    # (the only source of truth a crash can't split from the parquet)
    joined.groupby("shard").map_groups(
        write_shard, batch_format="pyarrow"
    ).materialize()
    return rd.from_arrow(_receipt_table(_load_done()))
