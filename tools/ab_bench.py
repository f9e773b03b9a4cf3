#!/usr/bin/env python3
"""A/B the benchmark between a parent revision and this checkout.

    python tools/ab_bench.py --parent <rev> --workload small_queries --pairs 10

Exports ``<rev>`` with ``git archive`` into a temporary directory, then runs
``perfbench/run.py --trace 0`` in pairs, one run of the parent and one of
this checkout's working tree per pair, each in its own checkout.  Pair ``i``
uses seed ``--seed + i`` on both sides, and the side that runs first
alternates from pair to pair, so a warm-up or order effect falls on both
sides alike.

Prints one line per run: the side, the seed, the four end-to-end metrics,
and ``ray_workers`` and ``steal_frac`` from the run's ``#`` line (peak RSS
grows with the worker count, which warm-up can leave higher).  Then, per
side, the median and interquartile range of each metric, and on how many
pairs this checkout had the lower ``query_cpu_ms``.  A run that prints no
result, or reports failed operations, is shown and left out of the
statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "rows_per_cpu_s", "query_cpu_ms", "peak_rss_mb")
HASH_LINE = ("ray_workers", "steal_frac")


def export(rev: str, dest: str) -> None:
    """The committed files of ``rev``, written under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One ``perfbench/run.py`` run in ``checkout``: its metrics and the
    ``#`` line's fields, or None when it printed no correct result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    fields, result = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("#"):
            for name in HASH_LINE:
                m = re.search(rf"\b{name}=(\S+)", line)
                if m:
                    fields[name] = float(m.group(1))
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return {**{k: v["value"] for k, v in result["metrics"].items()}, **fields}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=21, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args()

    tmp = tempfile.mkdtemp(prefix="ab_bench-")
    try:
        export(args.parent, tmp)
        sides = {"parent": tmp, "change": ROOT}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        wins = pairs = 0
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {}
            for side in order:
                got[side] = run_once(sides[side], args.workload, seed, args.seconds)
                if got[side] is None:
                    print(f"{side:6s} seed={seed} FAILED", flush=True)
                    continue
                runs[side].append(got[side])
                shown = " ".join(f"{k}={got[side].get(k, float('nan')):.4g}" for k in METRICS + HASH_LINE)
                print(f"{side:6s} seed={seed} {shown}", flush=True)
            if got["parent"] and got["change"]:
                pairs += 1
                wins += got["change"]["query_cpu_ms"] < got["parent"]["query_cpu_ms"]
        for side, rs in runs.items():
            if not rs:
                continue
            print(f"{side}: {len(rs)} runs")
            for k in METRICS:
                q1, med, q3 = quartiles([r[k] for r in rs])
                print(f"  {k:15s} median={med:.4g} iqr={q3 - q1:.4g}")
        print(f"change lower query_cpu_ms in {wins} of {pairs} pairs")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
