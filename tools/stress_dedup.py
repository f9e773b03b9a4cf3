"""Large-scale text-dedup stress: synthesize N docs (~80 tokens from a
2,000-word pool, deterministic per id), plant near-duplicates for the first
P ids (id+10M = copy with 2 tokens replaced), write them to 4 parquet
files (untimed), run exact dedup, streaming MinHash+LSH and the
checkpointed MinHash runner (a clean run, then a simulated crash after half
the pair buckets plus its resume) over those files, and report wall times +
planted-pair recall.

Usage: python tools/stress_dedup.py [n_docs] [n_planted] [num_cpus]
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
NCPU = int(sys.argv[3]) if len(sys.argv) > 3 else 32

import ray

ray.init(address="local", num_cpus=NCPU, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
import ray.data as rd

from rayhll.functions.hashing import splitmix64
from rayhll.pipelines.dedup import exact_dedup_keep_ids, minhash_lsh_pairs
from rayhll.state.checkpoint import minhash_dedup_checkpointed

WORDS = np.array([f"w{w:04d}" for w in range(2000)])
DOC_LEN = 80


def _texts_for(ids: np.ndarray) -> list[str]:
    cells = ids[:, None] * np.uint64(131) + np.arange(DOC_LEN, dtype=np.uint64)[None, :]
    wi = (splitmix64(cells.ravel()) % np.uint64(len(WORDS))).reshape(len(ids), DOC_LEN)
    flat = WORDS[wi]
    return [" ".join(row) for row in flat]


def gen(batch: pa.Table) -> pa.Table:
    ids = batch["id"].to_numpy().astype(np.uint64)
    texts = _texts_for(ids)
    out_ids = ids.view(np.int64).tolist()
    # planted near-dups: ids < P get a twin at id+10M with 2 tokens replaced
    plant = ids[ids < P]
    if len(plant):
        twins = []
        for t in _texts_for(plant):
            toks = t.split(" ")
            toks[3] = "zzz3"
            toks[40] = "zzz40"
            twins.append(" ".join(toks))
        texts += twins
        out_ids += (plant.view(np.int64) + 10_000_000).tolist()
    return pa.table({"doc_id": pa.array(out_ids, type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


FILES = 4
NUM_BUCKETS = 16
work = tempfile.mkdtemp(prefix="stress_dedup_")
files = [os.path.join(work, f"docs-{f}.parquet") for f in range(FILES)]
for f, ids in enumerate(np.array_split(np.arange(N, dtype=np.int64), FILES)):
    pq.write_table(gen(pa.table({"id": ids})), files[f])
ds = rd.read_parquet(files)
planted = {(i, i + 10_000_000) for i in range(P)}


def recall_of(pairs) -> tuple[float, int]:
    got = set(zip(pairs.id_a, pairs.id_b))
    return len(got & planted) / P, len(got - planted)


t0 = time.perf_counter()
kept = exact_dedup_keep_ids(ds, "text", "doc_id").count()
t_exact = time.perf_counter() - t0

t0 = time.perf_counter()
pairs = minhash_lsh_pairs(ds, "text", "doc_id", threshold=0.7).to_pandas()
t_minhash = time.perf_counter() - t0
recall, extras = recall_of(pairs)

ckpt = lambda out, **kw: minhash_dedup_checkpointed(  # noqa: E731
    files, os.path.join(work, out), threshold=0.7, num_buckets=NUM_BUCKETS, **kw
)
t0 = time.perf_counter()
ckpt_pairs = ckpt("clean")
t_ckpt = time.perf_counter() - t0
ckpt_recall, ckpt_extras = recall_of(ckpt_pairs.to_pandas())

t0 = time.perf_counter()
try:
    ckpt("crash", fail_after=NUM_BUCKETS // 2)
    raise AssertionError("the simulated crash did not fire")
except RuntimeError as e:
    if "simulated crash" not in str(e):
        raise
t_crash = time.perf_counter() - t0
t0 = time.perf_counter()
resumed = ckpt("crash")
t_resume = time.perf_counter() - t0
assert resumed.equals(ckpt_pairs), "the resumed pair set differs from the clean run's"
shutil.rmtree(work, ignore_errors=True)

print(
    json.dumps(
        {
            "docs": N + P,
            "num_cpus": NCPU,
            "exact_dedup_sec": round(t_exact, 1),
            "exact_kept": kept,
            "minhash_sec": round(t_minhash, 1),
            "minhash_docs_per_sec": round((N + P) / t_minhash),
            "planted": P,
            "planted_recall": recall,
            "non_planted_pairs": extras,
            "ckpt_clean_sec": round(t_ckpt, 1),
            "ckpt_crash_sec": round(t_crash, 1),
            "ckpt_resume_sec": round(t_resume, 1),
            "ckpt_planted_recall": ckpt_recall,
            "ckpt_non_planted_pairs": ckpt_extras,
        }
    )
)
ray.shutdown()
