"""Pinned documentation of the Ray hash-shuffle hang (VERDICT r1 item 9).

``groupby().map_groups`` under ``ShuffleStrategy.HASH_SHUFFLE`` deadlocks in
this Ray version (2.49) on local sessions — the shuffle aggregator actors
and map tasks starve each other.  The hang is NONDETERMINISTIC above
2 CPUs: the r1/r2 probes saw num_cpus=16 hang on 100k rows, while the r3
re-probe saw 4 and 16 complete repeatedly under identical configs
(load-dependent scheduling race).  num_cpus=2 hangs every time — that is
what this pin runs.  An intermittent deadlock is equally disqualifying
for production, so the workaround stays until the RACE is fixed, not
until one probe happens to pass; ``tools/probe_hash_shuffle.py``
re-probes interactively.

Because of this, every rayhll co-location groupby stays on the default sort
shuffle, and every equi-join uses the bucketed tag-union join in
rayhll.functions.join (``bucket_equi_join``) instead of ``Dataset.join``
(whose hash-shuffle machinery has the same failure mode at small CPU
counts).

This test runs the minimal repro in a subprocess with a timeout:

* subprocess TIMES OUT  -> the bug is still present -> test PASSES (the
  workaround stays);
* subprocess COMPLETES  -> upstream fixed it -> test FAILS with the action:
  delete the workaround (functions/join.bucket_equi_join) and re-point its
  callers at Dataset.join.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

REPRO = """
import numpy as np
import pyarrow as pa
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False)
import ray.data as rd
from ray.data.context import DataContext, ShuffleStrategy
DataContext.get_current().shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
n = 100_000
t = pa.table({"k": pa.array(np.arange(n) % 500), "v": pa.array(np.arange(n))})
def agg(tbl):
    return pa.table({"k": [tbl.column("k")[0].as_py()], "n": [len(tbl)]})
out = rd.from_arrow(t).repartition(8).groupby("k").map_groups(
    agg, batch_format="pyarrow").take_all()
assert len(out) == 500
ray.shutdown()
"""


def test_hash_shuffle_map_groups_still_hangs_at_small_cpu_counts():
    try:
        proc = subprocess.run(
            [sys.executable, "-c", REPRO],
            timeout=25,
            capture_output=True,
        )
    except subprocess.TimeoutExpired:
        return  # still hangs: documented, workaround stays
    if proc.returncode == 0:
        pytest.fail(
            "Ray hash-shuffle map_groups now completes at num_cpus=2 — the "
            "upstream bug is fixed.  Delete the bucketed tag-union join "
            "workaround (rayhll/functions/join.py::bucket_equi_join) and "
            "re-point its callers at Dataset.join."
        )
    # nonzero exit = crashed rather than hung; surface it
    pytest.fail(
        f"hash-shuffle repro exited rc={proc.returncode}:\n"
        f"{proc.stderr.decode()[-2000:]}"
    )
