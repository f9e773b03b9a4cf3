"""Host-side helpers: CPU count, Ray sessions, the process tree and RSS."""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import sys
import threading
import time

#: ``nproc`` and numpy honour ``OMP_NUM_THREADS``; the CPUs this process may
#: run on are the ones Ray can use.
NUM_CPUS = len(os.sched_getaffinity(0))
OBJECT_STORE_BYTES = 512 << 20


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields after it are fixed
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z":
            kids.setdefault(int(fields[1]), []).append(int(entry))
    return kids


def descendants(pid: int = 0) -> list[int]:
    """Live (non-zombie) descendants of ``pid`` (default: this process)."""
    kids = _children_map()
    out, todo = [], [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


#: what ``calibrate`` takes on a calm host; CPU times are reported at this speed
REF_CALIBRATE_S = 0.013


def calibrate() -> float:
    """Wall seconds a fixed single-threaded work unit (an interpreter loop
    and a sha256) takes right now: the host's current speed, read next to
    each timed operation."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    h = hashlib.sha256()
    for _ in range(2000):
        h.update(b"x" * 256)
    return time.perf_counter() - t0


def tree_cpu_ticks() -> dict[int, int]:
    """CPU ticks (``utime + stime``) used so far by this process and each
    live descendant (the Ray session: GCS, raylet and workers), by pid."""
    ticks = {}
    for pid in [os.getpid()] + descendants():
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks[pid] = int(fields[11]) + int(fields[12])
    return ticks


def cpu_s_between(before: dict[int, int], after: dict[int, int]) -> float:
    """CPU seconds the process tree used between two ``tree_cpu_ticks``.
    Per pid, so a worker that exits in between takes only its own ticks
    with it; a process started in between counts from zero."""
    ticks = sum(t - before.get(pid, 0) for pid, t in after.items())
    return ticks / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) ticks of all CPUs since boot, from ``/proc/stat``.
    Steal is time the hypervisor gave this machine's CPUs to other guests;
    a run with much of it measured a slower machine."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


class PeakRss:
    """Samples the summed RSS of this process and its Ray workers every
    ``interval`` seconds while running; ``peak_mb`` is the largest sum."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak_mb = 0.0
        self.max_workers = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        workers: list[int] = []
        rescan = 0.0
        while not self._stop.is_set():
            now = time.monotonic()
            if now >= rescan:  # workers come and go; the tree scan is the costly part
                workers = [p for p in descendants() if _is_worker(p)]
                self.max_workers = max(self.max_workers, len(workers))
                rescan = now + 1.0
            total = _rss_mb(os.getpid()) + sum(_rss_mb(p) for p in workers)
            self.peak_mb = max(self.peak_mb, total)
            self._stop.wait(self.interval)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def start_ray(root: str, num_cpus: int = NUM_CPUS, hook: str | None = None) -> None:
    """Start a local Ray session whose workers import this checkout's
    ``rayhll`` and ``perfbench``, and keep Ray's files inside it."""
    import ray
    from ray.data import DataContext

    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if root not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([root] + paths)
    ray.init(
        address="local",
        num_cpus=num_cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=ray_temp_dir(root),
        runtime_env={"worker_process_setup_hook": hook} if hook else None,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    ctx.execution_options.verbose_progress = False


#: Ray's socket paths add about 62 characters to its temp dir, and a Unix
#: socket path may hold at most 107
MAX_TEMP_DIR = 45


def ray_temp_dir(root: str) -> str | None:
    """Ray's temp dir inside the checkout, or None (Ray's default) when the
    checkout's path is too long for Ray's socket paths."""
    path = os.path.join(root, ".bench_ray")
    if len(path) <= MAX_TEMP_DIR:
        return path
    sys.stderr.write(f"perfbench: {path} is too long for Ray's sockets; using Ray's default temp dir\n")
    return None


def warm_workers(num_cpus: int = NUM_CPUS) -> None:
    """Start one worker per CPU and import the pipeline modules in each."""
    import ray.data as rd

    def touch(batch):
        import rayhll.pipelines.distinct  # noqa: F401
        import rayhll.ray_agg  # noqa: F401

        time.sleep(0.05)  # hold the worker so the next block starts another
        return batch

    rd.range(num_cpus * 2, override_num_blocks=num_cpus * 2).map_batches(
        touch, batch_format="pyarrow"
    ).materialize()


def stop_ray(timeout: float = 30.0) -> None:
    """Shut the session down and wait until every process it started has
    ended; whatever is left after ``timeout`` seconds is killed."""
    import ray

    # snapshot first: a worker whose raylet exits is re-parented away from us
    started = set(descendants())
    session_dir = ray._private.worker._global_node.get_session_dir_path()
    ray.shutdown()
    deadline = time.monotonic() + timeout
    while _alive(started) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in _alive(started):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while _alive(started):
        time.sleep(0.1)
    shutil.rmtree(session_dir, ignore_errors=True)  # logs and spill files


def _alive(pids: set[int]) -> set[int]:
    live = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] != "Z":
                    live.add(pid)
        except OSError:
            pass
    return live
