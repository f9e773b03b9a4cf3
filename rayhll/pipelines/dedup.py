"""Deduplication pipelines: exact, MinHash+LSH, SimHash, embedding-cosine.

Shapes (the only wide op is ``stages.build``'s co-location reduce, on
plain Ray tasks, over compact derived rows, never over document payloads):

* **exact**: vectorized content hash per batch → rows co-located by
  ``hash % num_buckets`` → keep min-id per hash (vectorized within each
  slice).  The exchange carries (id, hash) rows only.
* **MinHash+LSH**: tokenize → shingle hashes → per-doc MinHash signature
  (one ragged ``reduceat`` per permutation) → one key per band →
  candidate pairs within equal keys → signature-verified Jaccard ≥
  threshold.
* **SimHash** (and :func:`hamming64_pairs` over any 64-bit fingerprint):
  64-bit simhash per doc (sign-sum of token-hash bits) → one key per
  16-bit chunk (pigeonhole: hamming ≤ 3 ⇒ some chunk equal) → verify
  hamming within equal keys.
* **embedding**: random-hyperplane simhash of normalized vectors, one
  ``sig_t`` key per table → exact cosine verify within equal keys (the
  scale path for all-pairs near-dup; brute-force all-pairs is quadratic
  and never materialized).

The three LSH families share one path: a key function per family
(:func:`_band_keys`, :func:`_chunk_keys`, :func:`_table_keys`), one
:func:`_explode` that tiles the payload columns beside the keys, and one
pair reduce (:func:`_lsh_pairs`): the producers (one per CPU, more past
``stages.build.PRODUCER_BYTES``) co-locate the keyed rows by ``key %
num_buckets``, one bucket task per slice verifies its pairs with the
family's kernel, and one pair-distinct task per ``id_a % B`` slice keeps
each pair once (``stages.build.colocate`` / ``reduce``; no Ray Data
exchange).  Over a bare ``read_parquet`` the signing and explode maps run
inside the producers, with no Ray Data execution.  The streaming entry
points run when called and return a materialized dataset.  The
checkpointed runners (``state.checkpoint.*_dedup_checkpointed``) use the
same key functions, explode, co-location and kernels over their
signature store, one receipt per bucket.
"""

from __future__ import annotations

import logging

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

from rayhll.functions.hashing import hash64_table, splitmix64

logger = logging.getLogger(__name__)
from rayhll.pipelines.text import TOKEN_PATTERN
from rayhll.sketches.minhash import band_hashes, signatures_for_offsets

# ----------------------------------------------------------------------
# exact dedup


def exact_dedup_keep_ids(ds, text_col: str, id_col: str, num_buckets: int | None = None):
    """Dataset of the ids kept by exact dedup (min id per distinct text).

    Equivalent SQL: ``SELECT MIN(id) FROM t GROUP BY text``.  The ``(id,
    hash)`` rows are co-located in ``num_buckets`` slices by hash
    (``stages.build.reduce``; it runs when called), auto-sized from
    the input row count when ``None`` (``functions.partitioning``)."""
    from rayhll.functions.partitioning import resolve_num_buckets
    from rayhll.stages import build

    num_buckets = resolve_num_buckets(ds, num_buckets)

    def hash_stage(batch: pa.Table) -> pa.Table:
        h = hash64_table(batch, [text_col], seed=0xDD)
        return pa.table({id_col: batch.column(id_col), "_h": pa.array(h, type=pa.int64())})

    def keep_min(tbl: pa.Table) -> pa.Table:
        if not tbl.num_rows:
            return pa.table({id_col: pa.array([])})
        df = pl.from_arrow(tbl)
        out = df.group_by("_h").agg(pl.col(id_col).min()).select([id_col])
        return out.to_arrow()

    hashed = ds.map_batches(hash_stage, batch_format="pyarrow", zero_copy_batch=True)
    jobs = build.producers(hashed, num_buckets)
    return build.dataset_of(build.reduce(jobs, keep_min, num_buckets, "_h"))


# ----------------------------------------------------------------------
# MinHash + LSH near-dup


class MinHashStage:
    """Per-batch: tokenize, shingle, MinHash-sign every document.

    Emits (id, band_0..band_{B-1}) plus the signature bytes.  Stateful
    actor-friendly: permutation seeds fixed in ``__init__``.
    """

    def __init__(
        self,
        text_col: str,
        id_col: str,
        num_perm: int = 128,
        num_bands: int = 32,
        gram: int = 3,
        emit_texthash: bool = False,
    ):
        self.text_col = text_col
        self.id_col = id_col
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.gram = gram
        self.emit_texthash = emit_texthash

    def shingle_hashes(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(flat shingle hashes uint64, offsets int64[n+1]) for the batch."""
        df = pl.from_arrow(batch.select([self.text_col]))
        toks = df.select(
            pl.col(self.text_col).fill_null("").str.extract_all(TOKEN_PATTERN).alias("t")
        )["t"]
        lengths = toks.list.len().to_numpy().astype(np.int64)
        flat = toks.explode().drop_nulls()
        tok_h = (
            pl.DataFrame({"t": flat})
            .select(pl.col("t").hash(seed=41).alias("h"))["h"]
            .to_numpy()
            .astype(np.uint64)
        )
        g = self.gram
        rolled = tok_h.copy()
        for k in range(1, g):
            rolled = splitmix64(rolled ^ np.roll(tok_h, -k))
        valid = np.maximum(lengths - g + 1, 0)
        # short docs: use their token hashes directly as shingles
        shingle_counts = np.where(valid > 0, valid, lengths)
        tok_offsets = np.concatenate(([0], np.cumsum(lengths)))
        out_offsets = np.concatenate(([0], np.cumsum(shingle_counts)))
        total = int(shingle_counts.sum())
        flat_shingles = np.empty(total, dtype=np.uint64)
        nz = np.flatnonzero(shingle_counts)
        if len(nz):
            cnt = shingle_counts[nz]
            seg_starts = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            within = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(seg_starts, cnt)
            src = np.repeat(tok_offsets[nz], cnt) + within
            use_rolled = np.repeat(valid[nz] > 0, cnt)
            flat_shingles[np.repeat(out_offsets[nz], cnt) + within] = np.where(
                use_rolled, rolled[src], tok_h[src]
            )
        return flat_shingles, out_offsets

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, offsets = self.shingle_hashes(batch)
        sigs = signatures_for_offsets(flat, offsets, self.num_perm)
        bands = band_hashes(sigs, self.num_bands)
        out = {self.id_col: batch.column(self.id_col)}
        out["signature"] = pa.array(
            [s.tobytes() for s in sigs.astype("<u8")], type=pa.binary()
        )
        if self.emit_texthash:
            th = hash64_table(batch, [self.text_col], seed=0x7E47)
            out["texthash"] = pa.array(th, type=pa.int64())
        for b in range(self.num_bands):
            out[f"band_{b}"] = pa.array(bands[:, b], type=pa.int64())
        return pa.table(out)


def _binary_fixed_matrix(col, width: int, dtype: str = "<u8") -> np.ndarray:
    """Zero-copy decode of a fixed-length binary column into a
    (n, width) matrix of ``dtype`` straight from the Arrow buffers.
    Rows must all be ``width * itemsize`` bytes (signature/vector columns
    are by construction); anything else is a caller bug and raises."""
    itemsize = np.dtype(dtype).itemsize
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.empty((0, width), dtype=dtype)
    # polars round-trips binary as large_binary (64-bit offsets)
    if pa.types.is_large_binary(col.type):
        offs = np.frombuffer(
            col.buffers()[1], dtype=np.int64, count=len(col) + 1, offset=col.offset * 8
        )
    else:
        offs = np.frombuffer(
            col.buffers()[1], dtype=np.int32, count=len(col) + 1, offset=col.offset * 4
        )
    if not np.all(np.diff(offs) == width * itemsize):
        raise ValueError(
            f"expected fixed {width * itemsize}-byte binary rows; got ragged lengths"
        )
    return np.frombuffer(
        col.buffers()[2], dtype=dtype, count=len(col) * width, offset=int(offs[0])
    ).reshape(len(col), width)


def _fixed_binary_column(mat: np.ndarray) -> pa.Array:
    """(n, w) matrix -> binary column of n fixed-size row blobs (one buffer,
    no per-row bytes objects)."""
    n, w = mat.shape
    itemsize = mat.dtype.itemsize
    buf = pa.py_buffer(np.ascontiguousarray(mat).tobytes())
    offsets = pa.array(
        np.arange(0, (n + 1) * w * itemsize, w * itemsize, dtype=np.int32),
        type=pa.int32(),
    )
    return pa.BinaryArray.from_buffers(
        pa.binary(), n, [None, offsets.buffers()[1], buf]
    )


def _segment_bounds(sorted_keys: np.ndarray) -> np.ndarray:
    """Boundaries of equal-key runs in a sorted key array (incl. 0 and n)."""
    return np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_keys)) + 1, [len(sorted_keys)])
    )


#: target exploded rows per co-locating reduce task.  ~2M rows × ~0.3 KiB
#: (id + truncated signature slots) ≈ 600 MiB working set per task worst
#: case, comfortably inside a worker heap; on a cluster, more buckets only
#: add (cheap) sort keys, while too few buckets OOM the reduce tasks.
from rayhll.functions.partitioning import (  # noqa: E402 - canonical values
    TARGET_ROWS_PER_TASK,
    buckets_for_rows,
)


def _resolve_num_buckets(
    ds, num_buckets, rows_per_doc: int, approx_rows: int | None = None
) -> int:
    """Co-locating bucket fanout S of the dedup pair reduces.

    Explicit ``num_buckets`` wins.  ``None`` auto-sizes from the input row
    count so each of the S bucket tasks (:func:`_lsh_pairs`) sees roughly
    ``TARGET_ROWS_PER_TASK`` exploded rows (docs × rows_per_doc — bands,
    simhash chunks, or hyperplane tables), the fix for the fixed 64-way
    fanout that would OOM reduce tasks at 100-TB inputs however vectorized
    the kernel is (the producers feeding them are bounded by
    ``stages.build.PRODUCER_BYTES``).  Sizing uses the dataset's METADATA
    count only (``functions.partitioning``) — transformed inputs fall back
    to 64 rather than executing the plan.  Result is a power of two in
    [64, 2^20] — pair sets are invariant to the choice (pinned by
    tests/test_ray_pipelines.py::test_dedup_pairs_bucket_invariance)."""
    from rayhll.functions.partitioning import resolve_num_buckets

    return resolve_num_buckets(
        ds, num_buckets, rows_per_input_row=rows_per_doc, approx_rows=approx_rows
    )


def check_integer_ids(ds, id_col: str, op: str):
    """``ds``, with ``id_col`` required to be an integer column: raise
    ``ValueError`` naming it at once when ``ds``'s schema is known without
    running its plan, else from a first map over every batch.  Fetching the
    schema of a transformed input would run its first block, which the
    operator then computes again."""
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        return ds.map_batches(
            _IntegerIds(id_col, op), batch_format="pyarrow", zero_copy_batch=True
        )
    _require_integer_ids(schema, id_col, op)
    return ds


def _require_integer_ids(schema, id_col: str, op: str) -> None:
    id_type = dict(zip(schema.names, schema.types)).get(id_col)
    if not (isinstance(id_type, pa.DataType) and pa.types.is_integer(id_type)):
        raise ValueError(f"{op}: {id_col!r} must be an integer id column, got {id_type}")


class _IntegerIds:
    """Identity map raising :func:`check_integer_ids`'s error on a batch
    whose ``id_col`` is not an integer column."""

    def __init__(self, id_col: str, op: str):
        self.id_col = id_col
        self.op = op

    def __call__(self, batch: pa.Table) -> pa.Table:
        _require_integer_ids(batch.schema, self.id_col, self.op)
        return batch


# ----------------------------------------------------------------------
# LSH bucket keys: one function per family turns a signed batch into its
# keys, key-major (all rows' first key, then all rows' second key, ...);
# :func:`_explode` tiles the payload beside them, for the streaming pair
# reduce (:func:`_lsh_pairs`) and the checkpointed runners alike.


def _band_keys(batch: pa.Table, num_bands: int) -> np.ndarray:
    """MinHash band keys of a :class:`MinHashStage` batch: band ``b``'s
    hash with ``b + 1`` folded in, so different bands never collide."""
    return np.concatenate(
        [
            splitmix64(batch.column(f"band_{b}").to_numpy().view(np.uint64) ^ np.uint64(b + 1))
            .view(np.int64)
            for b in range(num_bands)
        ]
    )


def _chunk_keys(batch: pa.Table, hash_col: str) -> np.ndarray:
    """The 4 x 16-bit chunk keys of a 64-bit fingerprint column: chunk ``c``
    of ``h`` is ``((h >> 16c) & 0xFFFF) * 4 + c``, so equal chunks at
    different positions never collide."""
    h = batch.column(hash_col).to_numpy().astype(np.int64).view(np.uint64)
    return np.concatenate(
        [((h >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64) * 4 + c for c in range(4)]
    )


def _table_keys(batch: pa.Table, num_tables: int) -> np.ndarray:
    """Hyperplane keys of a :class:`HyperplaneStage` batch: its ``sig_t``
    columns (each already salts its table index in)."""
    return np.concatenate([batch.column(f"sig_{t}").to_numpy() for t in range(num_tables)])


def _explode(payload: pa.Table, keys: np.ndarray) -> pa.Table:
    """One ``(key, *payload)`` row per key: ``keys`` (from a key function)
    holds a whole number of keys per payload row, and each payload column
    is tiled beside them."""
    reps = len(keys) // len(payload) if len(payload) else 1
    cols = {"key": pa.array(keys, type=pa.int64())}
    for name, col in zip(payload.column_names, payload.columns):
        cols[name] = pa.concat_arrays([col.combine_chunks()] * reps)
    return pa.table(cols)


def _lsh_pairs(rows, bucket_pairs, score: tuple, num_buckets: int):
    """The pair reduce of every LSH family, on ``stages.build``'s plain Ray
    tasks: the keyed ``rows`` (a dataset ending in a family's explode map)
    are co-located by ``key % num_buckets``, and one task per bucket turns
    its rows into ``(id_a, id_b, <score>)`` pairs with ``bucket_pairs``
    (:func:`_bucket_task`).  A pair can surface under several keys, so those
    tasks slice their pairs by ``id_a % B`` and one pair-distinct task per
    slice keeps each ``(id_a, id_b)`` once.  Runs when called; returns a
    materialized dataset.  ``score`` = (name, type) of the score column."""
    from rayhll.stages import build

    buckets = build.colocate(build.producers(rows, num_buckets), num_buckets, "key")
    verify = [(_bucket_task, (bucket_pairs, score, *refs), {}) for refs in buckets]
    distinct = build.reduce(verify, _distinct_pairs(score), build.avail_cpus(), "id_a")
    return build.dataset_of(distinct)


def _bucket_task(bucket_pairs, score: tuple, *slices) -> pa.Table:
    """``bucket_pairs`` of one bucket's rows (its slice of every producer),
    or no pairs when the bucket has no rows."""
    from rayhll.stages.build import _concat

    rows = _concat(*slices)
    return bucket_pairs(rows) if rows.num_rows else _no_pairs(score)


def _no_pairs(score: tuple) -> pa.Table:
    """Zero ``(id_a, id_b, <score>)`` pairs; ``score`` = (name, type)."""
    ids = pa.array([], type=pa.int64())
    return pa.table({"id_a": ids, "id_b": ids, score[0]: pa.array([], type=score[1])})


def _distinct_pairs(score: tuple):
    """The pair-distinct merge: each ``(id_a, id_b)`` of a slice once."""

    def distinct(pairs: pa.Table) -> pa.Table:
        if not pairs.num_rows:
            return _no_pairs(score)
        return pl.from_arrow(pairs).unique(subset=["id_a", "id_b"]).to_arrow()

    return distinct


def minhash_lsh_pairs(
    ds,
    text_col: str,
    id_col: str,
    threshold: float = 0.7,
    num_perm: int = 128,
    num_bands: int = 32,
    gram: int = 3,
    max_bucket_size: int = 1000,
    verify_text_hash: bool = False,
    sig_slot_bytes: int = 2,
    num_buckets: int | None = None,
    approx_rows: int | None = None,
):
    """Dataset of near-duplicate pairs ``(id_a, id_b, jaccard)`` with
    ``id_a < id_b`` and signature-estimated Jaccard >= threshold.

    ``verify_text_hash=True`` additionally requires the 64-bit text hashes
    to match — the LSH-prefilter + exact verify shape for exact dedup at
    ``threshold=1.0``, where all-signature collisions between
    very-high-Jaccard near-dups would otherwise surface.

    ``sig_slot_bytes`` (1, 2, 4 or 8): each doc's signature travels inside
    its band rows, with slots truncated to this many low bytes —
    slot-equality false positives add only ~256^-b to the Jaccard estimate
    (1.5e-5 at the 2-byte default, far below the 1/num_perm estimator
    granularity) while cutting the sort payload 8/b× (measured 95% of dedup
    wall, PERF_NOTES #12-13).  Buckets larger than ``max_bucket_size`` are
    skipped (degenerate content; quadratic pair blow-up).

    ``id_col`` must be an integer column (pairs are int64); another id type
    raises ``ValueError`` at entry.

    ``num_buckets`` sizes the co-locating reduce fanout (see
    ``_resolve_num_buckets``); ``None`` auto-targets ~2M exploded rows per
    reduce task, sizing from ``approx_rows`` when ``ds`` is a transformed
    dataset with no metadata count.  Pair sets are invariant to the value."""
    if sig_slot_bytes not in (1, 2, 4, 8):
        raise ValueError("sig_slot_bytes must be 1, 2, 4 or 8")
    ds = check_integer_ids(ds, id_col, "minhash_lsh_pairs")
    num_buckets = _resolve_num_buckets(ds, num_buckets, num_bands, approx_rows)
    stage = MinHashStage(
        text_col, id_col, num_perm, num_bands, gram, emit_texthash=verify_text_hash
    )
    rows = ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        _make_minhash_explode_fn(id_col, num_perm, num_bands, sig_slot_bytes, verify_text_hash),
        batch_format="pyarrow",
    )
    bucket_pairs = _make_minhash_bucket_pairs_fn(
        id_col, threshold, num_perm, max_bucket_size, sig_slot_bytes, verify_text_hash
    )
    return _lsh_pairs(rows, bucket_pairs, ("jaccard", pa.float64()), num_buckets)


def _make_minhash_explode_fn(
    id_col: str, num_perm: int, num_bands: int, sig_slot_bytes: int, verify_text_hash: bool
):
    """One ``(band key, id, truncated signature[, texthash])`` row per band
    of each ``MinHashStage`` row (the signature store's rows are such rows
    too): the exchange payload is ``num_perm * sig_slot_bytes`` per row."""
    slot_dtype = f"<u{sig_slot_bytes}"

    def explode_bands(batch: pa.Table) -> pa.Table:
        sig_mat = _binary_fixed_matrix(batch.column("signature"), num_perm)
        payload = {
            id_col: batch.column(id_col),
            "signature": _fixed_binary_column(sig_mat.astype(slot_dtype)),
        }
        if verify_text_hash:
            payload["texthash"] = batch.column("texthash")
        return _explode(pa.table(payload), _band_keys(batch, num_bands))

    return explode_bands


def _make_minhash_bucket_pairs_fn(
    id_col: str, threshold: float, num_perm: int, max_bucket_size: int, sig_slot_bytes: int,
    verify_text_hash: bool,
):
    """MinHash verify kernel over exploded band rows: the pairs of each band
    key whose truncated signatures agree on at least ``threshold`` of their
    slots (and, with ``verify_text_hash``, whose text hashes are equal)."""
    slot_dtype = f"<u{sig_slot_bytes}"

    def bucket_pairs(tbl: pa.Table) -> pa.Table:
        # vectorized bucket segmentation: one lexsort over the whole task's
        # rows; the Python loop below runs only over multi-member band
        # buckets (near-dup clusters + rare collisions), never the millions
        # of singleton buckets (PERF_NOTES #12)
        keys = tbl.column("key").to_numpy()
        all_ids = tbl.column(id_col).to_numpy()
        sig_mat = _binary_fixed_matrix(tbl.column("signature"), num_perm, slot_dtype)
        all_th = tbl.column("texthash").to_numpy() if verify_text_hash else None
        order = np.lexsort((all_ids, keys))
        k_sorted = keys[order]
        bounds = _segment_bounds(k_sorted)
        sizes = np.diff(bounds)
        cand = np.flatnonzero((sizes >= 2) & (sizes <= max_bucket_size))
        a_ids, b_ids, jac = [], [], []
        for s in cand.tolist():
            sel = order[bounds[s] : bounds[s + 1]]
            ids = all_ids[sel]
            uniq_ids, first = np.unique(ids, return_index=True)
            if len(uniq_ids) < 2:
                continue
            sigs = sig_mat[sel[first]]
            th = all_th[sel[first]] if all_th is not None else None
            for i in range(len(uniq_ids) - 1):
                eq = (sigs[i + 1 :] == sigs[i]).mean(axis=1)
                hit = eq >= threshold
                if th is not None:
                    hit &= th[i + 1 :] == th[i]
                hit = np.flatnonzero(hit)
                for j in hit:
                    a_ids.append(int(uniq_ids[i]))
                    b_ids.append(int(uniq_ids[i + 1 + j]))
                    jac.append(float(eq[j]))
        return pa.table(
            {
                "id_a": pa.array(a_ids, type=pa.int64()),
                "id_b": pa.array(b_ids, type=pa.int64()),
                "jaccard": pa.array(jac, type=pa.float64()),
            }
        )

    return bucket_pairs


def _write_or_validate_sig_store(signed, sig_store_dir: str, manifest: dict) -> None:
    """Write ``signed`` as a parquet signature store with ``manifest``, or —
    when the store already exists — validate its ``_MANIFEST.json`` against
    the parameters that determine signature CONTENT and reuse it (the
    signing pass is the expensive leg).  Any mismatch (including
    ``format_version``, which covers the hashing scheme itself) raises
    instead of producing silently wrong candidate pairs.  The parquet and
    its manifest land together (``state.checkpoint.atomic_write``), so an
    interrupted build is rebuilt while a manifest-less store is refused."""
    import os

    from rayhll.state.checkpoint import atomic_write, check_fingerprint

    manifest_path = os.path.join(sig_store_dir, "_MANIFEST.json")
    if not (os.path.isdir(sig_store_dir) and os.listdir(sig_store_dir)):
        atomic_write(sig_store_dir, signed, manifest=manifest)
    elif not os.path.exists(manifest_path):
        raise ValueError(
            f"signature store {sig_store_dir} has no _MANIFEST.json "
            "(pre-manifest store?) — delete the directory to rebuild"
        )
    else:
        check_fingerprint(manifest_path, manifest, f"signature store {sig_store_dir}")


def build_minhash_sig_store(
    signed,
    sig_store_dir: str,
    text_col: str,
    id_col: str,
    num_perm: int,
    num_bands: int,
    gram: int,
    texthash: bool = False,
) -> None:
    """Write (or validate and reuse) the MinHash parquet signature store
    (``signed`` = MinHashStage output) — see
    :func:`_write_or_validate_sig_store` for the reuse contract.
    ``texthash=True`` marks a store whose rows also carry the 64-bit text
    hash (``MinHashStage(emit_texthash=True)``) for exact-dedup
    verification; the manifest keys the flag so a store without the column
    is never silently reused by a run that needs it."""
    from rayhll.sketches.base import Sketch

    manifest = {
        "format_version": Sketch.format_version,
        "num_perm": num_perm,
        "num_bands": num_bands,
        "gram": gram,
        "text_col": text_col,
        "id_col": id_col,
    }
    if texthash:
        manifest["texthash"] = True
    _write_or_validate_sig_store(signed, sig_store_dir, manifest)


#: max distinct candidate-pair member ids the verify-join prefilter will
#: broadcast (int64 ids: ~256 MiB at this value).  Above it the prefilter
#: is skipped — the bucketed join stays exact, it just pays the full
#: payload-side shuffle; a candidate set that dense means near-everything
#: is a dup and semi-filtering would not shrink the payload anyway.
PREFILTER_MAX_IDS = 32_000_000


def _prefilter_payload_by_candidates(cand, payload, id_col: str, max_ids: int | None = None):
    """Semi-filter the corpus-scale payload side of a pair-verify join down
    to candidate-pair members BEFORE the bucketed equi-join.

    The shingle side of the verify join is one row per
    corpus document while the candidate-pair side is sparse (LSH contract) —
    without this, the join shuffles the whole corpus a second time (~2×
    exchange bytes at 100 TB).  Collects the distinct pair-member ids from
    the MATERIALIZED ``cand`` (one pass over compact id pairs), broadcasts
    them ONCE via ``ray.put``, and filters ``payload`` per batch with a
    vectorized ``pyarrow.compute.is_in`` — the ``bloom_semijoin`` pattern
    with an exact id set (zero false positives, so downstream results are
    byte-identical to the unfiltered join; pinned by tests).

    Returns ``(prefiltered_payload, n_member_ids | None)`` — ``None`` means
    the id set exceeded ``max_ids`` (module-level :data:`PREFILTER_MAX_IDS`
    when ``None``) and the payload passes through unfiltered (correctness
    unaffected)."""
    import ray

    if max_ids is None:
        max_ids = PREFILTER_MAX_IDS

    id_type = dict(zip(cand.schema().names, cand.schema().types))["id_a"]

    def block_ids(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [t.column("id_a").combine_chunks(), t.column("id_b").combine_chunks()]
        )
        return pa.table({"cid": pc.unique(both).cast(id_type)})

    parts = ray.get(cand.map_batches(block_ids, batch_format="pyarrow").to_arrow_refs())
    # empty input blocks pass through map_batches with the INPUT schema
    chunks = [
        c for t in parts if "cid" in t.column_names for c in t.column("cid").chunks
    ]
    if sum(len(c) for c in chunks) > max_ids:
        # per-block distinct already exceeds the cap pre-union: skip early
        logger.warning(
            "pair-verify prefilter skipped: >%d candidate member ids; "
            "the payload side of the verify join shuffles unfiltered",
            max_ids,
        )
        return payload, None
    ids = (
        pc.unique(pa.concat_arrays(chunks))
        if chunks
        else pa.array([], type=id_type)
    )
    if len(ids) > max_ids:
        logger.warning(
            "pair-verify prefilter skipped: %d candidate member ids > max_ids=%d",
            len(ids),
            max_ids,
        )
        return payload, None
    ids_ref = ray.put(ids)

    def semifilter(batch: pa.Table) -> pa.Table:
        value_set = ray.get(ids_ref)  # per-worker deserialization cache
        return batch.filter(pc.is_in(batch.column(id_col), value_set=value_set))

    return (
        payload.map_batches(semifilter, batch_format="pyarrow", zero_copy_batch=True),
        len(ids),
    )


# ----------------------------------------------------------------------
# exact n-gram Jaccard near-dup (LSH candidates + exact set verify)


class ShingleSetStage:
    """Per-doc sorted-unique shingle-hash set, serialized as little-endian
    uint64 bytes — the compact exact representation for n-gram Jaccard.
    Reuses MinHashStage's vectorized shingling."""

    def __init__(self, text_col: str, id_col: str, gram: int = 3):
        self._mh = MinHashStage(text_col, id_col, num_perm=1, num_bands=1, gram=gram)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, offsets = self._mh.shingle_hashes(batch)
        # one lexsort dedups every doc's shingle set simultaneously
        # (same trick as core/batchbuild): sort by (doc, hash), drop
        # consecutive duplicates within a doc, then slice per doc.
        n = len(batch)
        counts = np.diff(offsets)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((flat, doc_idx))
        d = doc_idx[order]
        h = flat[order]
        keep = np.r_[True, (d[1:] != d[:-1]) | (h[1:] != h[:-1])]
        d = d[keep]
        le = h[keep].astype("<u8")
        starts = np.searchsorted(d, np.arange(n, dtype=np.int64))
        ends = np.r_[starts[1:], len(d)]
        buf = le.tobytes()
        blobs = [buf[s * 8 : e * 8] for s, e in zip(starts.tolist(), ends.tolist())]
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "shingles": pa.array(blobs, type=pa.binary()),
            }
        )


def _binary_ragged_u64(col) -> tuple[np.ndarray, np.ndarray]:
    """Ragged little-endian-uint64 binary column -> (flat values, per-row
    counts), decoded straight from the Arrow buffers (no ``to_pylist``).
    Rows must be multiples of 8 bytes (shingle-set blobs are by
    construction)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    # polars round-trips binary as large_binary (64-bit offsets)
    if pa.types.is_large_binary(col.type):
        offs = np.frombuffer(
            col.buffers()[1], dtype=np.int64, count=len(col) + 1, offset=col.offset * 8
        )
    else:
        offs = np.frombuffer(
            col.buffers()[1], dtype=np.int32, count=len(col) + 1, offset=col.offset * 4
        ).astype(np.int64)
    lengths = np.diff(offs)
    if np.any(lengths % 8):
        raise ValueError("expected rows of little-endian uint64 (multiples of 8 bytes)")
    flat = np.frombuffer(
        col.buffers()[2],
        dtype="<u8",
        count=int(offs[-1] - offs[0]) // 8,
        offset=int(offs[0]),
    ).astype(np.uint64)
    return flat, (lengths // 8).astype(np.int64)


def ngram_jaccard_pairs(
    ds,
    text_col: str,
    id_col: str,
    threshold: float = 0.7,
    gram: int = 3,
    candidate_slack: float = 0.15,
    num_perm: int = 128,
    num_bands: int = 32,
    max_bucket_size: int = 1000,
    num_buckets: int | None = None,
    approx_rows: int | None = None,
):
    """Pairs with EXACT n-gram (shingle-set) Jaccard >= threshold.

    Shape: MinHash+LSH generates candidates at ``threshold -
    candidate_slack`` (recall head-room for the estimator's ±1/√num_perm
    noise) over the SAME ``gram`` shingles as the exact verify, the per-doc
    sorted shingle-hash sets are joined back to each pair side with the
    engine's bucketed equi-join, and the exact Jaccard |A∩B| / |A∪B| is
    computed for ALL candidates in one vectorized merge pass (one lexsort
    over the batch's concatenated sorted sets; equal adjacent values within
    a pair count the intersection — each side is duplicate-free, so a value
    appears at most twice per pair).  Returns (id_a, id_b, jaccard) with
    exact values."""
    from rayhll.functions.join import bucket_equi_join

    cand = minhash_lsh_pairs(
        ds,
        text_col,
        id_col,
        approx_rows=approx_rows,
        threshold=max(threshold - candidate_slack, 0.0),
        num_perm=num_perm,
        num_bands=num_bands,
        gram=gram,
        max_bucket_size=max_bucket_size,
        num_buckets=num_buckets,
    ).drop_columns(["jaccard"])
    # semi-filter the corpus to candidate-pair members BEFORE shingling
    # (pairs are sparse): non-candidate docs skip both the shingle compute
    # and the verify-join shuffle
    cand = cand.materialize()
    ds_members, n_members = _prefilter_payload_by_candidates(cand, ds, id_col)
    join_buckets = buckets_for_rows(2 * cand.count() + n_members) if n_members is not None else None

    shingles = ds_members.map_batches(
        ShingleSetStage(text_col, id_col, gram),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def renamed(dst: str):
        return shingles.map_batches(
            lambda t, d=dst: t.rename_columns([d, f"shingles_{d}"]),
            batch_format="pyarrow",
        )

    joined = bucket_equi_join(cand, renamed("id_a"), on="id_a", how="inner", num_buckets=join_buckets)
    joined = bucket_equi_join(joined, renamed("id_b"), on="id_b", how="inner", num_buckets=join_buckets)

    def verify(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _no_pairs(("jaccard", pa.float64()))
        n = len(batch)
        flat_a, cnt_a = _binary_ragged_u64(batch.column("shingles_id_a"))
        flat_b, cnt_b = _binary_ragged_u64(batch.column("shingles_id_b"))
        rng = np.arange(n, dtype=np.int64)
        pair_idx = np.concatenate([np.repeat(rng, cnt_a), np.repeat(rng, cnt_b)])
        vals = np.concatenate([flat_a, flat_b])
        order = np.lexsort((vals, pair_idx))
        p, v = pair_idx[order], vals[order]
        dup = (p[1:] == p[:-1]) & (v[1:] == v[:-1])
        inter = np.bincount(p[1:][dup], minlength=n)
        union = cnt_a + cnt_b - inter
        # two empty sets: trivially identical
        jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        keep = jac >= threshold
        return pa.table(
            {
                "id_a": batch.column("id_a").filter(pa.array(keep)),
                "id_b": batch.column("id_b").filter(pa.array(keep)),
                "jaccard": pa.array(jac[keep], type=pa.float64()),
            }
        )

    return joined.map_batches(verify, batch_format="pyarrow")


# ----------------------------------------------------------------------
# SimHash near-dup


class SimHashStage:
    """64-bit SimHash per document (Charikar 2002): sign of the per-bit sum
    of token hashes.  Vectorized: popcount via bit-unpacking of the token
    hash matrix, one ``reduceat`` per batch.  Emits ``(id, simhash64)``;
    the pair paths derive the chunk keys from ``simhash64``
    (:func:`_chunk_keys`)."""

    def __init__(self, text_col: str, id_col: str):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select([self.text_col]))
        toks = df.select(
            pl.col(self.text_col).fill_null("").str.extract_all(TOKEN_PATTERN).alias("t")
        )["t"]
        lengths = toks.list.len().to_numpy().astype(np.int64)
        flat = toks.explode().drop_nulls()
        tok_h = (
            pl.DataFrame({"t": flat})
            .select(pl.col("t").hash(seed=314).alias("h"))["h"]
            .to_numpy()
            .astype(np.uint64)
        )
        n = len(lengths)
        sim = np.zeros(n, dtype=np.uint64)
        if len(tok_h):
            bits = np.unpackbits(tok_h.view(np.uint8).reshape(-1, 8), axis=1).astype(
                np.int32
            )  # (n_tokens, 64) in little-endian-byte order (consistent, that's all we need)
            contrib = 2 * bits - 1
            starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            nonempty = lengths > 0
            sums = np.add.reduceat(contrib, starts[nonempty], axis=0)
            bitvals = (sums > 0).astype(np.uint8)
            packed = np.packbits(bitvals, axis=1).copy().view(np.uint64).ravel()
            sim[nonempty] = packed
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "simhash64": pa.array(sim.view(np.int64), type=pa.int64()),
            }
        )


def _make_simhash_bucket_pairs_fn(
    id_col: str, max_hamming: int, max_bucket_size: int, hash_col: str = "simhash64"
):
    """In-bucket hamming pair kernel over (key, id, <hash64>) rows:
    one lexsort segments the task's rows into equal-chunk-key buckets,
    Python loops only over multi-member buckets (shared by the streaming
    and checkpointed SimHash variants and :func:`hamming64_pairs`)."""

    def bucket_pairs(tbl: pa.Table) -> pa.Table:
        keys = tbl.column("key").to_numpy()
        all_ids = tbl.column(id_col).to_numpy()
        all_sims = tbl.column(hash_col).to_numpy().astype(np.int64).view(np.uint64)
        order = np.lexsort((all_ids, keys))
        bounds = _segment_bounds(keys[order])
        sizes = np.diff(bounds)
        cand = np.flatnonzero((sizes >= 2) & (sizes <= max_bucket_size))
        a_ids, b_ids, dist = [], [], []
        for s in cand.tolist():
            sel = order[bounds[s] : bounds[s + 1]]
            ids = all_ids[sel]
            uniq_ids, first = np.unique(ids, return_index=True)
            sims = all_sims[sel[first]]
            if len(uniq_ids) < 2:
                continue
            for i in range(len(uniq_ids) - 1):
                x = sims[i + 1 :] ^ sims[i]
                hd = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
                hit = np.flatnonzero(hd <= max_hamming)
                for j in hit:
                    a_ids.append(int(uniq_ids[i]))
                    b_ids.append(int(uniq_ids[i + 1 + j]))
                    dist.append(int(hd[j]))
        return pa.table(
            {
                "id_a": pa.array(a_ids, type=pa.int64()),
                "id_b": pa.array(b_ids, type=pa.int64()),
                "hamming": pa.array(dist, type=pa.int64()),
            }
        )

    return bucket_pairs


def build_simhash_sig_store(signed, sig_store_dir: str, text_col: str, id_col: str) -> None:
    """Write (or validate and reuse) a SimHash signature store: the
    SimHashStage output (id, simhash64) as parquet — see
    :func:`_write_or_validate_sig_store` for the reuse contract.  A store
    written with the former ``chunk_0..3`` columns is reused as it is: the
    runner reads only ``(id, simhash64)``."""
    from rayhll.sketches.base import Sketch

    _write_or_validate_sig_store(
        signed,
        sig_store_dir,
        {
            "format_version": Sketch.format_version,
            "family": "simhash",
            "text_col": text_col,
            "id_col": id_col,
        },
    )


def simhash_pairs(
    ds,
    text_col: str,
    id_col: str,
    max_hamming: int = 3,
    max_bucket_size: int = 4096,
    num_buckets: int | None = None,
    approx_rows: int | None = None,
):
    """Near-duplicate pairs by SimHash hamming distance <= max_hamming.

    Chunk buckets larger than ``max_bucket_size`` are skipped (same
    degenerate-content contract as the MinHash and embedding paths: a
    bucket that large means near-identical content en masse, which exact
    dedup handles; verifying it would be O(b²) pairs).  ``num_buckets``
    as in ``minhash_lsh_pairs`` (auto-sized when ``None``, from
    ``approx_rows`` for transformed inputs).  ``id_col`` must be an integer
    column; another id type raises ``ValueError`` at entry."""
    ds = check_integer_ids(ds, id_col, "simhash_pairs")
    signed = ds.map_batches(
        SimHashStage(text_col, id_col), batch_format="pyarrow", zero_copy_batch=True
    )
    return hamming64_pairs(
        signed,
        id_col,
        hash_col="simhash64",
        max_hamming=max_hamming,
        max_bucket_size=max_bucket_size,
        num_buckets=_resolve_num_buckets(ds, num_buckets, 4, approx_rows),
    )


def hamming64_pairs(
    ds,
    id_col: str,
    hash_col: str = "simhash64",
    max_hamming: int = 3,
    max_bucket_size: int = 4096,
    num_buckets: int | None = None,
    approx_rows: int | None = None,
):
    """Near-duplicate id pairs by hamming distance over ANY 64-bit
    fingerprint column — SimHash text prints, perceptual image dHashes
    (``multimodal.PerceptualHashStage``), or caller-computed signatures.

    4x16-bit chunk bucketing: the pigeonhole principle GUARANTEES recall
    for ``max_hamming <= 3`` (two hashes within 3 bit flips share at least
    one intact 16-bit chunk); above 3 the candidate stage is best-effort.
    Oversized chunk buckets are skipped under the same degenerate-content
    contract as ``simhash_pairs``.  Null fingerprints never pair.
    ``id_col`` must be an integer column; another id type raises
    ``ValueError`` at entry."""
    ds = check_integer_ids(ds, id_col, "hamming64_pairs")
    num_buckets = _resolve_num_buckets(ds, num_buckets, 4, approx_rows)
    bucket_pairs = _make_simhash_bucket_pairs_fn(
        id_col, max_hamming, max_bucket_size, hash_col=hash_col
    )

    def explode(batch: pa.Table) -> pa.Table:
        col = batch.column(hash_col)
        if col.null_count:
            batch = batch.filter(pc.is_valid(col.combine_chunks()))
        return _explode(batch.select([id_col, hash_col]), _chunk_keys(batch, hash_col))

    rows = ds.map_batches(explode, batch_format="pyarrow")
    return _lsh_pairs(rows, bucket_pairs, ("hamming", pa.int64()), num_buckets)


# ----------------------------------------------------------------------
# embedding-cosine near-dup


class HyperplaneStage:
    """Multi-table random-hyperplane signature of normalized embeddings
    (vector SimHash): ``num_tables`` independent sets of ``num_planes``
    seeded hyperplanes; per table, signature bit = sign of projection.
    Repetition (tables) buys recall the same way MinHash bands do; planes
    buy bucket granularity.  All plane matrices are generated once per actor
    in ``__init__``; vector extraction is the zero-copy flatten-reshape
    (no per-row Python objects)."""

    def __init__(
        self,
        vec_col: str,
        id_col: str,
        dim: int,
        num_planes: int = 16,
        num_tables: int = 4,
        seed: int = 0,
    ):
        from rayhll.pipelines.similarity import _vec_matrix

        self._vec_matrix = _vec_matrix
        self.vec_col = vec_col
        self.id_col = id_col
        rng = np.random.default_rng(seed)
        # one (dim, num_planes) matrix per table, all from one seeded stream
        self.planes = rng.standard_normal((num_tables, dim, num_planes))
        self.num_planes = num_planes
        self.num_tables = num_tables

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = self._vec_matrix(batch, self.vec_col)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.maximum(norms, 1e-12)
        n, d = mat.shape
        # zero-copy list column: flat values + arithmetic offsets.  float32:
        # the vector only feeds the in-bucket cosine verify, where ~1e-7
        # rounding is far below any sane threshold margin — and it halves
        # the shuffle payload (the dominant cost class, PERF_NOTES #13)
        norm_col = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32), type=pa.int32()),
            pa.array(mat.ravel().astype(np.float32), type=pa.float32()),
        )
        out = {self.id_col: batch.column(self.id_col), "norm_vec": norm_col}
        weights = np.uint64(1) << np.arange(self.num_planes, dtype=np.uint64)
        for t in range(self.num_tables):
            bits = (mat @ self.planes[t] > 0).astype(np.uint64)
            sig = bits @ weights  # pack sign bits into one uint64 per row
            # salt the table index in so different tables never share buckets
            key = splitmix64(sig ^ (np.uint64(0xBEE) * np.uint64(t + 1)))
            out[f"sig_{t}"] = pa.array(key.view(np.int64), type=pa.int64())
        return pa.table(out)


def _chunked_cosine_pairs(
    ids: np.ndarray, mat: np.ndarray, threshold: float, block: int = 1024
) -> tuple[list, list, list]:
    """All (i < j) pairs with ``mat[i] @ mat[j] >= threshold``, computed in
    ``block``-row strips so peak memory is O(block × n), never O(n²)."""
    a_out, b_out, c_out = [], [], []
    for i0 in range(0, len(ids), block):
        sub = mat[i0 : i0 + block]
        sims = sub @ mat.T  # (<=block, n)
        ii, jj = np.nonzero(sims >= threshold)
        keep = (ii + i0) < jj  # upper triangle only
        if keep.any():
            a_out.append(ids[ii[keep] + i0])
            b_out.append(ids[jj[keep]])
            c_out.append(sims[ii[keep], jj[keep]])
    return a_out, b_out, c_out


def _make_embedding_bucket_pairs_fn(
    id_col: str, threshold: float, max_bucket_size: int, verify_block: int
):
    """In-bucket cosine-verify kernel over (key, id, norm_vec) rows: one
    lexsort segments equal-key buckets, chunked strip verify per bucket
    (shared by the streaming and checkpointed variants)."""

    def bucket_pairs(tbl: pa.Table) -> pa.Table:
        from rayhll.pipelines.similarity import _vec_matrix

        df_ids = tbl.column(id_col).to_numpy()
        sigs = tbl.column("key").to_numpy()
        mats = _vec_matrix(tbl, "norm_vec")
        order = np.lexsort((df_ids, sigs))
        bounds = _segment_bounds(sigs[order])
        a_out, b_out, c_out = [], [], []
        for s in range(len(bounds) - 1):
            lo, hi = bounds[s], bounds[s + 1]
            if hi - lo < 2:
                continue
            sel = order[lo:hi]
            ids = df_ids[sel]
            uniq_ids, first = np.unique(ids, return_index=True)
            if len(uniq_ids) < 2 or len(uniq_ids) > max_bucket_size:
                continue  # singleton or degenerate bucket (see docstring)
            a, b, c = _chunked_cosine_pairs(
                uniq_ids, mats[sel][first], threshold, verify_block
            )
            a_out += a
            b_out += b
            c_out += c
        if not a_out:
            return _no_pairs(("cosine", pa.float64()))
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(a_out), type=pa.int64()),
                "id_b": pa.array(np.concatenate(b_out), type=pa.int64()),
                "cosine": pa.array(np.concatenate(c_out), type=pa.float64()),
            }
        )

    return bucket_pairs


def build_embedding_sig_store(
    signed,
    sig_store_dir: str,
    vec_col: str,
    id_col: str,
    dim: int,
    num_planes: int,
    num_tables: int,
    seed: int = 0,
) -> None:
    """Write (or validate and reuse) a hyperplane signature store: the
    HyperplaneStage output (id, norm_vec float32, sig_0..sig_{T-1}) as
    parquet with a parameter manifest — same contract as
    :func:`build_minhash_sig_store`."""
    from rayhll.sketches.base import Sketch

    _write_or_validate_sig_store(
        signed,
        sig_store_dir,
        {
            "format_version": Sketch.format_version,
            "family": "hyperplane",
            "vec_col": vec_col,
            "id_col": id_col,
            "dim": dim,
            "num_planes": num_planes,
            "num_tables": num_tables,
            "seed": seed,
        },
    )


def embedding_near_dup_pairs(
    ds,
    vec_col: str,
    id_col: str,
    dim: int,
    threshold: float = 0.95,
    num_planes: int = 16,
    num_tables: int = 4,
    max_bucket_size: int = 4096,
    verify_block: int = 1024,
    num_buckets: int | None = None,
    approx_rows: int | None = None,
):
    """Pairs with cosine similarity >= threshold via multi-table
    hyperplane-LSH buckets and chunked exact-cosine verification.

    Scale contract (the 100 TB story):

    * each normalized float32 vector travels inside its table rows, so the
      exchange carries num_tables× the vector volume (PERF_NOTES #61: at
      768 dimensions this beat joining the two vectors back to each
      candidate pair on wall time and peak memory).
    * buckets with more than ``max_bucket_size`` members are SKIPPED — a
      bucket that large means degenerate content (e.g. millions of identical
      vectors), which exact dedup handles; verifying it would be O(b²).
    * within a bucket the cosine verify runs in ``verify_block``-row strips
      (O(block × b) peak memory), never materializing a b×b matrix.
    * recall comes from ``num_tables`` independent plane sets (band-style
      repetition); granularity from ``num_planes`` (2^planes buckets/table).
    * ``num_buckets`` as in ``minhash_lsh_pairs`` (auto-sized when
      ``None``).

    ``id_col`` must be an integer column; another id type raises
    ``ValueError`` at entry.
    """
    ds = check_integer_ids(ds, id_col, "embedding_near_dup_pairs")
    num_buckets = _resolve_num_buckets(ds, num_buckets, num_tables, approx_rows)
    stage = HyperplaneStage(vec_col, id_col, dim, num_planes, num_tables)

    def explode_tables(batch: pa.Table) -> pa.Table:
        return _explode(batch.select([id_col, "norm_vec"]), _table_keys(batch, num_tables))

    rows = ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        explode_tables, batch_format="pyarrow"
    )
    bucket_pairs = _make_embedding_bucket_pairs_fn(
        id_col, threshold, max_bucket_size, verify_block
    )
    return _lsh_pairs(rows, bucket_pairs, ("cosine", pa.float64()), num_buckets)
