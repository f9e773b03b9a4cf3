"""Deterministic synthesis of the BASELINE `input_hint` source-code table.

Schema (BASELINE.json ``input_hint``): ``repo:string, path:string,
commit:string, lang:string, content:string``.  Everything derives from the
row id through SplitMix64 streams — no RNG state, no time — so any subset of
rows can be generated independently on any worker (``synth_code_dataset``
fans the generation out with ``ray.data.range + map_batches``), reruns are
bit-identical, and the exact distinct counts used by tests can be recomputed
from the table itself.

Skew is deliberate (FIXTURES.md §1): repo ids are drawn with a cubed-uniform
transform so a few repos dominate, exercising the skew-bounded grouped
aggregation (the shuffle only ever sees per-(block,group) sketch rows).
``code_table_from_documents`` maps the driver's ``documents`` table into the
same shape, so driver-provided data can feed the flagship pipeline too.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from rayhll.functions.hashing import sha256_hex, splitmix64

N_REPOS_PER_MILLION = 2000
LANGS = ["py", "js", "java", "go", "rs", "c", "md"]
LANG_NAMES = ["python", "javascript", "java", "go", "rust", "c", "markdown"]
DUP_CONTENT_FRACTION = 0.2  # ~20% of rows reuse an earlier row's content


def synth_code_batch(ids: np.ndarray, total_rows: int, seed: int = 42) -> pa.Table:
    """Generate the rows with the given ids (0-based) of a ``total_rows``-row
    synthetic corpus.  Pure function of (ids, total_rows, seed)."""
    ids = np.asarray(ids, dtype=np.int64)
    n_repos = max(7, int(N_REPOS_PER_MILLION * total_rows / 1_000_000))
    base = splitmix64(ids.astype(np.uint64) ^ np.uint64(seed))

    u = splitmix64(base + np.uint64(1)).astype(np.float64) / 2.0**64
    repo_id = (n_repos * u**3).astype(np.int64)  # cubed-uniform -> skew
    org_id = repo_id % 7
    commits_per_repo = 1 + (splitmix64(repo_id.astype(np.uint64)) % np.uint64(16)).astype(
        np.int64
    )
    commit_idx = (splitmix64(base + np.uint64(2)) % commits_per_repo.astype(np.uint64)).astype(np.int64)
    path_id = (splitmix64(base + np.uint64(3)) % np.uint64(max(1, total_rows // 4))).astype(
        np.int64
    )
    lang_id = path_id % len(LANGS)
    # content identity: DUP_CONTENT_FRACTION of rows alias a smaller id space
    dup = (splitmix64(base + np.uint64(4)) % np.uint64(100)) < np.uint64(
        int(DUP_CONTENT_FRACTION * 100)
    )
    content_id = np.where(
        dup,
        (splitmix64(base + np.uint64(5)) % np.uint64(max(1, total_rows // 10))).astype(np.int64),
        ids + total_rows,  # unique space disjoint from the dup space
    )

    df = pl.DataFrame(
        {
            "org_id": org_id,
            "repo_id": repo_id,
            "commit_key": repo_id * 1_000_003 + commit_idx,
            "dir0": path_id % 13,
            "dir1": path_id % 97,
            "path_id": path_id,
            "ext": pl.Series([LANGS[i] for i in lang_id.tolist()]),
            "lang": pl.Series([LANG_NAMES[i] for i in lang_id.tolist()]),
            "cid": content_id,
            "c1": (content_id * 2654435761) % 1_000_000,
            "c2": (content_id * 40503) % 9973,
        }
    )
    # commit id: 40-char token from two splitmix streams of the commit key
    # (fully vectorized in polars — synthesis must not be the benchmark
    # bottleneck; a digest-realistic hex string adds nothing)
    ck = df["commit_key"].to_numpy().astype(np.uint64)
    df = df.with_columns(
        pl.Series("ch1", splitmix64(ck)),
        pl.Series("ch2", splitmix64(ck ^ np.uint64(0xDEADBEEF))),
    )
    df = df.with_columns(
        pl.format("org{}/repo{}", "org_id", "repo_id").alias("repo"),
        pl.format("src/{}/{}/file_{}.{}", "dir0", "dir1", "path_id", "ext").alias("path"),
        pl.format("c{}{}", "ch1", "ch2").str.slice(0, 40).alias("commit"),
        pl.format(
            "// synthetic module {}\n"
            "const SEED_{} = {};\n"
            "fn compute_{}(x) {{ return (x * {}) % {}; }}\n"
            "fn check_{}(y) {{ return y ^ {}; }}\n"
            "// end of module {}\n",
            "cid", "c2", "c1", "cid", "c1", "c2", "c2", "cid", "cid",
        ).alias("content"),
    )
    out = df.select(["repo", "path", "commit", "lang", "content"]).to_arrow()
    # polars emits large_string; cast to the input_hint's plain string schema
    return out.cast(
        pa.schema(
            [
                ("repo", pa.string()),
                ("path", pa.string()),
                ("commit", pa.string()),
                ("lang", pa.string()),
                ("content", pa.string()),
            ]
        )
    )


def synth_code_dataset(total_rows: int, seed: int = 42, override_num_blocks: int | None = None):
    """Distributed synthesis: each Ray task generates its own id range."""
    import ray.data as rd

    ds = rd.range(total_rows, override_num_blocks=override_num_blocks)

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy()
        return synth_code_batch(ids, total_rows, seed)

    return ds.map_batches(gen, batch_format="pyarrow", zero_copy_batch=True)


def code_table_from_documents(docs: pa.Table) -> pa.Table:
    """Deterministically shape the driver's ``documents`` table
    (doc_id, text, lang, source, n_chars) into the input_hint schema."""
    df = pl.from_arrow(docs)
    df = df.with_columns(
        pl.format("corpus/{}", "source").alias("repo"),
        pl.format("docs/{}/doc_{}.txt", "lang", "doc_id").alias("path"),
        pl.col("text")
        .map_batches(lambda s: pl.Series(sha256_hex(s.to_list())).str.slice(0, 40))
        .alias("commit"),
        pl.col("text").alias("content"),
    )
    return (
        df.select(["repo", "path", "commit", "lang", "content"])
        .to_arrow()
        .cast(
            pa.schema(
                [
                    ("repo", pa.string()),
                    ("path", pa.string()),
                    ("commit", pa.string()),
                    ("lang", pa.string()),
                    ("content", pa.string()),
                ]
            )
        )
    )
