#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at a tiny size, untraced
and traced.  Asserts that each run exits 0, passes every gate, and prints
exactly the metrics ``BENCHMARK.json`` names, each with its unit.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--seconds", "1", "--files", "2", "--rows-per-file", "2048"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    script = os.path.join(ROOT, *bench["command"][1:])
    bad = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, script, "--workload", w["name"], "--seed", "7", "--trace", str(trace)]
            proc = subprocess.run(cmd + TINY, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
                got = {k: m["unit"] for k, m in res["metrics"].items()}
                ok = proc.returncode == 0 and res["correct"] and not res["failed"] and got == want[trace]
            except (IndexError, ValueError, KeyError, TypeError):
                ok = False
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} trace={trace}")
            if not ok:
                bad.append(w["name"])
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
