"""Seeded benchmark inputs, written to Parquet and cached on disk.

Every table comes from ``rayhll.sources.synth.synth_code_batch`` with the
run's ``--seed``; the exact distinct counts the gates compare against are
computed here with polars, never with rayhll.  A cache entry is keyed by
(kind, seed, rows) and lives under ``.bench_data/`` in the checkout, so a
second run of one seed skips generation.  Nothing here is timed.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import polars as pl
import pyarrow.parquet as pq

from rayhll.sources.synth import LANG_NAMES, synth_code_batch

#: Corpus shape of the three corpus workloads: FILES Parquet files of
#: ROWS_PER_FILE rows.  The build batch equals one file, so every build task
#: sees exactly one file and the partial-row counts repeat for a seed.
FILES = 8
ROWS_PER_FILE = 32768

#: small_queries tables: rows per table.  50k rows gives the synthetic
#: corpus 100 repos, i.e. about 100 groups for the q1-like shape.
SMALL_ROWS = 50_000
SMALL_LANGS = LANG_NAMES[:5]  # the q3-like shape groups by 5 languages


def _write_files(table: pl.DataFrame, out_dir: str, files: int) -> list[str]:
    per = -(-table.height // files)
    paths = []
    for i in range(files):
        path = os.path.join(out_dir, f"part-{i:03d}.parquet")
        pq.write_table(table.slice(i * per, per).to_arrow(), path)
        paths.append(path)
    return paths


def _cached(root: str, key: str, build) -> dict:
    """Return the cached entry ``key`` under ``root``, building it first
    into a temporary directory renamed into place (a crash leaves no
    half-written entry)."""
    final = os.path.join(root, ".bench_data", key)
    meta_path = os.path.join(final, "meta.json")
    if not os.path.exists(meta_path):
        tmp = final + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        meta = build(tmp)
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    with open(meta_path) as f:
        meta = json.load(f)
    meta["files"] = [os.path.join(final, p) for p in meta["files"]]
    return meta


def corpus(root: str, seed: int, files: int = FILES, rows_per_file: int = ROWS_PER_FILE) -> dict:
    """The source-code corpus plus exact global and per-(repo, lang) counts."""
    rows = files * rows_per_file

    def build(out_dir: str) -> dict:
        df = pl.from_arrow(synth_code_batch(np.arange(rows), rows, seed=seed))
        paths = _write_files(df, out_dir, files)
        keys = [
            pl.col("content").n_unique().alias("content"),
            pl.col("path").n_unique().alias("path"),
            pl.struct("repo", "commit").n_unique().alias("repo_commit"),
        ]
        total = df.select(keys).row(0, named=True)
        groups = df.group_by("repo", "lang").agg(*keys, pl.len().alias("rows"))
        return {
            "rows": rows,
            "batch_size": rows_per_file,
            "files": [os.path.basename(p) for p in paths],
            "exact_global": total,
            "exact_groups": groups.sort("repo", "lang").to_dicts(),
        }

    return _cached(root, f"corpus-s{seed}-n{rows}-f{files}", build)


def small_tables(root: str, seed: int, rows: int = SMALL_ROWS) -> dict:
    """Three small tables for the closed query loop, each one Parquet file:
    ``docs`` (group by repo, ~100 groups), ``commits`` (global composite
    key), ``events`` (group by one of 5 languages)."""

    def build(out_dir: str) -> dict:
        meta: dict = {"files": [], "rows": {}, "exact": {}}
        for i, name in enumerate(("docs", "commits", "events")):
            df = pl.from_arrow(synth_code_batch(np.arange(rows), rows, seed=seed + i))
            if name == "events":
                df = df.filter(pl.col("lang").is_in(SMALL_LANGS))
            sub = os.path.join(out_dir, name)
            os.makedirs(sub)
            _write_files(df, sub, 1)
            meta["files"].append(os.path.join(name, "part-000.parquet"))
            meta["rows"][name] = df.height
            if name == "docs":
                ex = df.group_by("repo").agg(pl.col("path").n_unique().alias("n"))
                meta["exact"][name] = dict(ex.select("repo", "n").iter_rows())
            elif name == "commits":
                meta["exact"][name] = df.select(pl.struct("path", "commit").n_unique()).item()
            else:
                ex = df.group_by("lang").agg(pl.col("content").n_unique().alias("n"))
                meta["exact"][name] = dict(ex.select("lang", "n").iter_rows())
        return meta

    return _cached(root, f"small-s{seed}-n{rows}", build)
