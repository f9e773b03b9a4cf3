"""Large-scale dedup stress over three near-dup families.

Text: synthesize N docs (~80 tokens from a 2,000-word pool, deterministic
per id), plant near-duplicates for the first P ids (id+10M = copy with 2
tokens replaced), write them to 4 parquet files (untimed), then time exact
dedup, streaming MinHash+LSH, the checkpointed MinHash runner (a clean run,
then a simulated crash after half the pair buckets plus its resume), and
streaming and checkpointed SimHash over those files.

Embeddings: N/10 seeded 768-dim float32 vectors plus a near-copy (the
vector plus 1% Gaussian noise, cosine ~0.99995) at id+10M for the first P
ids, in 4 parquet files; then time streaming ``embedding_near_dup_pairs``
and the checkpointed embedding runner.

Every run reports its wall time, its peak RSS (the summed RSS of this
process and its Ray workers, sampled by ``perfbench/host.PeakRss``),
planted-pair recall and its count of non-planted pairs.
A SimHash pair is found only within ``max_hamming`` = 3 bits, and replacing
2 of 80 tokens moves a SimHash by more than that for most twins, so the
SimHash recall is over the planted pairs whose SimHashes are within reach
(``simhash_planted_in_reach``).

Usage: python tools/stress_dedup.py [n_docs] [n_planted] [num_cpus]
(num_cpus defaults to the CPUs this process may run on).
"""
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
os.environ.setdefault("POLARS_MAX_THREADS", "1")

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
P = int(sys.argv[2]) if len(sys.argv) > 2 else 500
NCPU = int(sys.argv[3]) if len(sys.argv) > 3 else len(os.sched_getaffinity(0))

import ray

from perfbench.host import PeakRss

ray.init(address="local", num_cpus=NCPU, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
import ray.data as rd

from rayhll.functions.hashing import splitmix64
from rayhll.pipelines.dedup import (
    SimHashStage,
    embedding_near_dup_pairs,
    exact_dedup_keep_ids,
    minhash_lsh_pairs,
    simhash_pairs,
)
from rayhll.state.checkpoint import (
    embedding_dedup_checkpointed,
    minhash_dedup_checkpointed,
    simhash_dedup_checkpointed,
)

WORDS = np.array([f"w{w:04d}" for w in range(2000)])
DOC_LEN = 80
TWIN = 10_000_000
DIM = 768
MAX_HAMMING = 3


def _texts_for(ids: np.ndarray) -> list[str]:
    cells = ids[:, None] * np.uint64(131) + np.arange(DOC_LEN, dtype=np.uint64)[None, :]
    wi = (splitmix64(cells.ravel()) % np.uint64(len(WORDS))).reshape(len(ids), DOC_LEN)
    flat = WORDS[wi]
    return [" ".join(row) for row in flat]


def _twins_of(texts: list[str]) -> list[str]:
    twins = []
    for t in texts:
        toks = t.split(" ")
        toks[3] = "zzz3"
        toks[40] = "zzz40"
        twins.append(" ".join(toks))
    return twins


def gen(batch: pa.Table) -> pa.Table:
    ids = batch["id"].to_numpy().astype(np.uint64)
    texts = _texts_for(ids)
    out_ids = ids.view(np.int64).tolist()
    # planted near-dups: ids < P get a twin at id+10M with 2 tokens replaced
    plant = ids[ids < P]
    if len(plant):
        texts += _twins_of(_texts_for(plant))
        out_ids += (plant.view(np.int64) + TWIN).tolist()
    return pa.table({"doc_id": pa.array(out_ids, type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


def gen_vectors(ids: np.ndarray) -> pa.Table:
    """Seeded 768-dim vectors for ``ids``, plus the near-copy at id+10M of
    each id < P; one generator per file, so the files do not depend on N."""
    rng = np.random.default_rng(int(ids[0]) if len(ids) else 0)
    vecs = rng.standard_normal((len(ids), DIM)).astype(np.float32)
    plant = ids < P
    copies = vecs[plant] + np.float32(0.01) * rng.standard_normal(
        (int(plant.sum()), DIM)
    ).astype(np.float32)
    all_ids = np.concatenate([ids, ids[plant] + TWIN])
    flat = np.concatenate([vecs, copies]).ravel()
    return pa.table({"vec_id": pa.array(all_ids, type=pa.int64()),
                     "embedding": pa.FixedSizeListArray.from_arrays(pa.array(flat), DIM)})


FILES = 4
NUM_BUCKETS = 16
N_VEC = max(N // 10, P)
work = tempfile.mkdtemp(prefix="stress_dedup_")
files = [os.path.join(work, f"docs-{f}.parquet") for f in range(FILES)]
for f, ids in enumerate(np.array_split(np.arange(N, dtype=np.int64), FILES)):
    pq.write_table(gen(pa.table({"id": ids})), files[f])
vec_files = [os.path.join(work, f"vecs-{f}.parquet") for f in range(FILES)]
for f, ids in enumerate(np.array_split(np.arange(N_VEC, dtype=np.int64), FILES)):
    pq.write_table(gen_vectors(ids), vec_files[f])
ds = rd.read_parquet(files)
vec_ds = rd.read_parquet(vec_files)
planted = {(i, i + TWIN) for i in range(P)}
vec_planted = {(i, i + TWIN) for i in range(min(P, N_VEC))}

# the planted pairs whose SimHashes are within MAX_HAMMING bits
base_ids = np.arange(P, dtype=np.int64)
base_texts = _texts_for(base_ids.astype(np.uint64))
sims = [
    SimHashStage("text", "doc_id")(pa.table({"doc_id": base_ids, "text": texts}))
    .column("simhash64").to_numpy().view(np.uint64)
    for texts in (base_texts, _twins_of(base_texts))
]
hd = np.unpackbits((sims[0] ^ sims[1]).view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
sim_planted = {(int(i), int(i) + TWIN) for i in base_ids[hd <= MAX_HAMMING]}


def recall_of(pairs, want=planted, among=planted) -> tuple[float, int]:
    got = set(zip(pairs.id_a, pairs.id_b))
    return len(got & want) / max(len(want), 1), len(got - among)


RSS_MB = {}


def timed(name, fn):
    """``fn()`` and its wall seconds; its peak RSS goes to ``RSS_MB[name]``."""
    with PeakRss() as rss:
        t0 = time.perf_counter()
        out = fn()
        wall = round(time.perf_counter() - t0, 1)
    RSS_MB[name] = round(rss.peak_mb)
    return out, wall


def crashed():
    try:
        ckpt("crash", fail_after=NUM_BUCKETS // 2)
    except RuntimeError as e:
        if "simulated crash" not in str(e):
            raise
        return
    raise AssertionError("the simulated crash did not fire")


kept, t_exact = timed("exact_dedup", lambda: exact_dedup_keep_ids(ds, "text", "doc_id").count())

pairs, t_minhash = timed(
    "minhash", lambda: minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.7).to_pandas()
)
recall, extras = recall_of(pairs)

ckpt = lambda out, **kw: minhash_dedup_checkpointed(  # noqa: E731
    files, os.path.join(work, out), threshold=0.7, num_buckets=NUM_BUCKETS, **kw
)
ckpt_pairs, t_ckpt = timed("ckpt_clean", lambda: ckpt("clean"))
ckpt_recall, ckpt_extras = recall_of(ckpt_pairs.to_pandas())

_, t_crash = timed("ckpt_crash", crashed)
resumed, t_resume = timed("ckpt_resume", lambda: ckpt("crash"))
assert resumed.equals(ckpt_pairs), "the resumed pair set differs from the clean run's"

sim_pairs, t_sim = timed(
    "simhash",
    lambda: simhash_pairs(ds, "text", "doc_id", max_hamming=MAX_HAMMING).to_pandas()
)
sim_recall, sim_extras = recall_of(sim_pairs, sim_planted)
sim_ckpt, t_sim_ckpt = timed(
    "simhash_ckpt",
    lambda: simhash_dedup_checkpointed(
        files, os.path.join(work, "simhash"), max_hamming=MAX_HAMMING, num_buckets=NUM_BUCKETS
    ).to_pandas()
)
sim_ckpt_recall, sim_ckpt_extras = recall_of(sim_ckpt, sim_planted)

emb_pairs, t_emb = timed(
    "embedding",
    lambda: embedding_near_dup_pairs(vec_ds, "embedding", "vec_id", dim=DIM).to_pandas()
)
emb_recall, emb_extras = recall_of(emb_pairs, vec_planted, vec_planted)
emb_ckpt, t_emb_ckpt = timed(
    "embedding_ckpt",
    lambda: embedding_dedup_checkpointed(
        vec_files, os.path.join(work, "embedding"), dim=DIM, num_buckets=NUM_BUCKETS
    ).to_pandas()
)
emb_ckpt_recall, emb_ckpt_extras = recall_of(emb_ckpt, vec_planted, vec_planted)
shutil.rmtree(work, ignore_errors=True)

def with_rss(report: dict) -> dict:
    """``report`` with each runner's peak RSS right after its wall time."""
    out = {}
    for key, value in report.items():
        out[key] = value
        name = key.removesuffix("_sec")
        if name in RSS_MB:
            out[f"{name}_peak_rss_mb"] = RSS_MB[name]
    return out


print(
    json.dumps(
        with_rss({
            "docs": N + P,
            "num_cpus": NCPU,
            "exact_dedup_sec": t_exact,
            "exact_kept": kept,
            "minhash_sec": t_minhash,
            "minhash_docs_per_sec": round((N + P) / t_minhash),
            "planted": P,
            "planted_recall": recall,
            "non_planted_pairs": extras,
            "ckpt_clean_sec": t_ckpt,
            "ckpt_crash_sec": t_crash,
            "ckpt_resume_sec": t_resume,
            "ckpt_planted_recall": ckpt_recall,
            "ckpt_non_planted_pairs": ckpt_extras,
            "simhash_planted_in_reach": len(sim_planted),
            "simhash_sec": t_sim,
            "simhash_planted_recall": sim_recall,
            "simhash_non_planted_pairs": sim_extras,
            "simhash_ckpt_sec": t_sim_ckpt,
            "simhash_ckpt_planted_recall": sim_ckpt_recall,
            "simhash_ckpt_non_planted_pairs": sim_ckpt_extras,
            "vectors": N_VEC + len(vec_planted),
            "embedding_sec": t_emb,
            "embedding_planted_recall": emb_recall,
            "embedding_non_planted_pairs": emb_extras,
            "embedding_ckpt_sec": t_emb_ckpt,
            "embedding_ckpt_planted_recall": emb_ckpt_recall,
            "embedding_ckpt_non_planted_pairs": emb_ckpt_extras,
        })
    )
)
ray.shutdown()
