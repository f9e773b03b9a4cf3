"""Live incremental sketch service — the raw-Ray-actor archetype.

Everything batch-shaped in this engine is a Dataset pipeline; the ONE
semantic the Dataset API genuinely cannot express is a *shared mutable
index*: a continuously-updatable distinct-count service that absorbs event
micro-batches as they arrive and answers cardinality queries at any moment
(the instructions' "drop to raw Ray actors only where the Dataset API can't
express the semantics").

``LiveSketchService`` shards per-key HLL state across N ``@ray.remote``
actors by key hash (same bucketing discipline as the batch shuffle).
Updates are vectorized inside each actor: the grouped one-pass builder
sketches a micro-batch, and one ``batchmerge`` call unions every touched
key's old and new sketch (the same union as every batch merge, also for
``seed``).  Snapshots serialize per-key storage-spec bytes, so a live
service can be seeded FROM a batch job's output and drained back INTO one —
the two execution styles share the byte contract.

Partitioning assumption: a key's entire state lives on exactly one actor
(hash sharding); rebalancing means snapshot + reshard.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from rayhll.core import batchmerge
from rayhll.core.batchbuild import build_grouped_sketches
from rayhll.core.serde import from_bytes
from rayhll.core.settings import HllSettings
from rayhll.functions import hashing


@ray.remote
class SketchShardActor:
    """Holds {group_key_hash -> serialized sketch} for one shard."""

    def __init__(self, settings_args: tuple):
        self.settings = HllSettings(*settings_args)
        self.state: dict[int, bytes] = {}
        self.key_names: dict[int, object] = {}
        self.rows_seen = 0

    def update(self, ghash: np.ndarray, raws: np.ndarray, keys: list) -> int:
        """Fold a pre-hashed micro-batch into the shard; returns rows."""
        uniq, first_idx, _, blobs = build_grouped_sketches(self.settings, ghash, raws)
        groups = uniq.tolist()
        self.key_names.update(zip(groups, [keys[i] for i in first_idx.tolist()]))
        self._merge(groups, blobs)
        self.rows_seen += len(raws)
        return len(raws)

    def seed(self, ghash: int, key, blob: bytes) -> None:
        """Union a serialized sketch (e.g. from a batch job's output) into
        this shard's state for ``key``."""
        self.key_names[ghash] = key
        self._merge([ghash], [blob])

    def _merge(self, groups: list[int], blobs: list[bytes]) -> None:
        """Union ``blobs[i]`` into the state of ``groups[i]`` (distinct
        groups), all in one ``batchmerge`` call over the old and new blobs."""
        old = [g for g in groups if g in self.state]
        codes = np.array(old + groups, dtype=np.int64)
        col = [self.state[g] for g in old] + blobs
        uniq, _, merged = batchmerge.merge_grouped_blobs(self.settings, codes, col)
        self.state.update(zip(uniq.tolist(), merged))

    def cardinality(self, ghash: int) -> int:
        blob = self.state.get(ghash)
        return 0 if blob is None else from_bytes(blob).cardinality()

    def snapshot(self) -> pa.Table:
        keys = [self.key_names[g] for g in self.state]
        return pa.table(
            {
                "key": pa.array([str(k) for k in keys], type=pa.string()),
                "sketch": pa.array(list(self.state.values()), type=pa.binary()),
            }
        )

    def stats(self) -> dict:
        return {"keys": len(self.state), "rows_seen": self.rows_seen}


class LiveSketchService:
    """Client facade: shards update/query traffic across the actor pool."""

    def __init__(self, num_shards: int = 4, settings: HllSettings | None = None):
        settings = settings or HllSettings(11, 5)
        self._args = (settings.log2m, settings.regwidth, settings.expthresh, settings.sparseon)
        self.num_shards = num_shards
        self.actors = [
            SketchShardActor.remote(self._args) for _ in range(num_shards)
        ]

    def _shard_of(self, ghash: np.ndarray) -> np.ndarray:
        return (ghash.view(np.uint64) % np.uint64(self.num_shards)).astype(np.int64)

    def update_batch(self, batch: pa.Table, key_col: str, value_cols: list[str]) -> None:
        """Vectorized fan-out of one micro-batch to the shard actors."""
        ghash = hashing.hash64_table(batch, [key_col], seed=0x11FE)
        raws = hashing.hash64_table(batch, value_cols)
        keys = batch.column(key_col).to_pylist()
        shards = self._shard_of(ghash)
        refs = []
        for s in range(self.num_shards):
            mask = shards == s
            if mask.any():
                idx = np.flatnonzero(mask)
                refs.append(
                    self.actors[s].update.remote(
                        ghash[idx], raws[idx], [keys[i] for i in idx]
                    )
                )
        ray.get(refs)

    def cardinality(self, key) -> int:
        ghash = hashing.hash64_table(pa.table({"k": [key]}), ["k"], seed=0x11FE)
        shard = int(self._shard_of(ghash)[0])
        return ray.get(self.actors[shard].cardinality.remote(int(ghash[0])))

    def seed(self, key, blob: bytes) -> None:
        """Union a batch job's serialized sketch into the live state for
        ``key`` (batch -> live handoff; bytes are the shared contract)."""
        ghash = hashing.hash64_table(pa.table({"k": [key]}), ["k"], seed=0x11FE)
        shard = int(self._shard_of(ghash)[0])
        ray.get(self.actors[shard].seed.remote(int(ghash[0]), key, blob))

    def snapshot(self) -> pa.Table:
        tables = ray.get([a.snapshot.remote() for a in self.actors])
        return pa.concat_tables([t for t in tables if t.num_rows])

    def stats(self) -> list[dict]:
        return ray.get([a.stats.remote() for a in self.actors])

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
