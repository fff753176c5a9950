"""Plumbing shared by the benchmark workloads: the run's scratch root,
the Ray session, per-operation deadlines, host probes, percentiles,
process reaping and the pass/fail tally.

Everything here runs in the benchmark process (or the server launcher);
nothing touches the program's configuration, so the program's own
defaults are what gets measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import signal
import subprocess
import time

import numpy as np

#: scratch root under the working directory, emptied at the start of a run
TMP_DIRNAME = ".bench_tmp"
#: reference answers kept across runs (see :func:`run_reference`)
CACHE_DIRNAME = ".bench_cache"
#: CPUs handed to the one Ray session a run may start; leaves two of the
#: host's four for the generator, the reference and other tenants
RAY_NUM_CPUS = 2
#: Ray's temp dir, inside the scratch root.  Ray puts AF_UNIX sockets
#: there, and a socket path (dir + ~42-char session name +
#: "/sockets/plasma_store") must stay under 108 bytes however deep the
#: checkout is; every Ray process runs in the repository root, so this
#: short absolute spelling of ``<root>/.bench_tmp/ray`` works for all.
RAY_TMP_DIR = "/proc/self/cwd/" + TMP_DIRNAME + "/ray"
#: a fixed object store, so Ray does not size it from the memory the
#: shared host happens to have free when the run starts
RAY_OBJECT_STORE_BYTES = 512 << 20

#: the two generated corpora.  C is indexed by ingest/query/serve, S feeds
#: the pipelines.  Both are fixed: the seed argument drives the request
#: sequences, never the corpus, so index-size metrics compare across seeds.
CORPUS_C = {"n_convs": 2000, "avg_turns": 16, "avg_tokens": 60}
C_PARTITIONS = 16
CORPUS_S = {"n_convs": 500, "avg_turns": 16, "avg_tokens": 60}


class OpTimeout(Exception):
    """An operation ran past its deadline; counted as a failure."""


def tmp_root() -> str:
    return os.path.join(os.getcwd(), TMP_DIRNAME)


def reset_tmp_root() -> str:
    root = tmp_root()
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    return root


def n_turns(spec: dict) -> int:
    from raysearch.gen import turns_for_conv

    return sum(turns_for_conv(i, spec["avg_turns"]) for i in range(spec["n_convs"]))


def write_corpus(out_dir: str, spec: dict) -> None:
    from raysearch.gen import write_corpus as gen

    gen(out_dir, **spec)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`OpTimeout` in the main thread if the block runs
    longer than ``seconds`` (SIGALRM; the benchmark is single-threaded
    on the caller side)."""

    def fire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds:g}s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class RaySession:
    """One local Ray session with a fixed CPU count and object store;
    ``close`` is idempotent.

    The session's settings are the benchmark's own, not the host's: the
    same run must start the same Ray wherever the checkout lives and
    whatever the caller's environment holds."""

    def __init__(self):
        # no usage report leaves the machine, whatever the caller's config
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        import ray

        self._ray = ray
        kwargs = {
            "address": "local",
            "num_cpus": RAY_NUM_CPUS,
            "object_store_memory": RAY_OBJECT_STORE_BYTES,
            "include_dashboard": False,
            "log_to_driver": False,
            "_temp_dir": RAY_TMP_DIR,
            "_system_config": {
                # Ray starts workers at nice 15; on a shared host other
                # tenants' processes then starve them and a build's time
                # swings by a third.  At normal priority it measures steadily.
                "worker_niceness": 0,
                # Ray's memory monitor kills workers when the *machine* is
                # nearly full; on a shared host that is other tenants'
                # memory, and a killed build task fails the run
                "memory_monitor_refresh_ms": 0,
            },
        }
        ray.init(**kwargs)
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False

    def close(self) -> None:
        if self._ray.is_initialized():
            self._ray.shutdown()


def descendants(pid: int) -> list[int]:
    """Live descendant pids of ``pid`` (from /proc; no psutil here)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def reap_descendants(timeout: float = 10.0) -> None:
    """Terminate whatever this process still has running below it and
    wait until it is gone (Ray leaves nothing after ``shutdown``; this
    is the backstop for a run that failed half-way)."""
    me = os.getpid()
    pids = descendants(me)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in pids:
            with contextlib.suppress(OSError):
                os.kill(p, sig)
        end = time.monotonic() + timeout / 2
        while time.monotonic() < end:
            for p in pids:
                with contextlib.suppress(ChildProcessError, OSError):
                    os.waitpid(p, os.WNOHANG)
            pids = [p for p in pids if os.path.exists(f"/proc/{p}") and not _zombie(p)]
            if not pids:
                return
            time.sleep(0.05)


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def cpu_probe(seconds: float = 0.25) -> float:
    """Fixed single-thread integer loop, in loop iterations per second —
    read before and after a workload it tells host weather apart from
    code changes."""
    x, n = 1, 0
    t0 = time.perf_counter()
    end = t0 + seconds
    while time.perf_counter() < end:
        for _ in range(2000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        n += 2000
    return n / (time.perf_counter() - t0)


def host_info() -> dict:
    return {
        "host.affinity_cpus": len(os.sched_getaffinity(0)),
        "host.ray_num_cpus": RAY_NUM_CPUS,
    }


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50)


def lexicon_digest(index_dir: str) -> str:
    """sha256 over the merged lexicon's (term, df, cf) rows in term order."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(index_dir, "merged", "lexicon.parquet"), columns=["term", "df", "cf"]
    ).sort_by("term")
    return digest_rows(zip(t["term"].to_pylist(), t["df"].to_pylist(), t["cf"].to_pylist()))


def digest_rows(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(("\t".join(map(str, row)) + "\n").encode("utf-8"))
    return h.hexdigest()


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


class Tally:
    """Attempted/failed operation counts plus the first few failure
    reasons (printed to stderr so a failed run says why)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self, passed: bool, reason: str = "") -> None:
        self.attempted += 1
        if not passed:
            self.fail(reason, attempted=False)

    def fail(self, reason: str, attempted: bool = True) -> None:
        if attempted:
            self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(reason)


#: query terms are drawn Zipf(1.3) over vocabulary rank (rank 0 is also the
#: corpus's most frequent lemma)
QUERY_ZIPF_S = 1.3


def exact_mix(rng, n: int, weights: dict) -> list:
    """``n`` labels in exactly the given proportions (largest remainder),
    in seeded order — so every seed's mix is the same."""
    keys = list(weights)
    w = np.array([weights[k] for k in keys], dtype=np.float64)
    share = w / w.sum() * n
    counts = np.floor(share).astype(int)
    for k in np.argsort(-(share - counts))[: n - counts.sum()]:
        counts[k] += 1
    out = [k for k, c in zip(keys, counts) for _ in range(c)]
    return [out[i] for i in rng.permutation(n)]


def zipf_ranks(rng, n: int, n_ranks: int, s: float = QUERY_ZIPF_S) -> np.ndarray:
    """``n`` draws from Zipf(s) truncated to ``n_ranks``, stratified: one
    uniform per n-quantile, in seeded order.  Every seed gets the same
    rank distribution up to within-stratum jitter, which keeps
    percentile metrics from moving with the seed's luck."""
    cdf = np.cumsum(1.0 / np.arange(1, n_ranks + 1, dtype=np.float64) ** s)
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.minimum(np.searchsorted(cdf / cdf[-1], u, side="right"), n_ranks - 1)


def query_pool(rng, n: int, weights: dict[str, float], n_convs: int) -> list[dict]:
    """``n`` seeded query specs of 1–3 lemmas (a third each); ``kind`` is
    ``and``, ``or`` or ``scoped`` (AND inside one conversation, drawn
    uniformly) in exactly the given proportions."""
    from raysearch.gen import conv_name
    from raysearch.vocab import LEMMAS

    kinds = exact_mix(rng, n, weights)
    sizes = exact_mix(rng, n, {1: 1, 2: 1, 3: 1})
    ranks = iter(zipf_ranks(rng, sum(sizes), len(LEMMAS)).tolist())
    pool = []
    for kind, size in zip(kinds, sizes):
        spec = {"kind": kind, "q": " ".join(LEMMAS[next(ranks)] for _ in range(size))}
        if kind == "scoped":
            spec["scope"] = conv_name(int(rng.integers(0, n_convs)))
        pool.append(spec)
    return pool


def run_reference(args: list[str], timeout: float = 60.0) -> dict:
    """Run ``benchmark/reference.py`` in a child process; return its JSON.

    ``args`` ends with the output path.  The answers depend only on the
    input files named in ``args`` and on the reference and program source,
    so they are computed once per checkout and kept in
    ``.bench_cache/<digest of all of those>.json``; reference.py writes it
    atomically, so a killed run leaves no partial entry."""
    import json
    import sys

    *inputs, _ = args
    out = os.path.join(os.getcwd(), CACHE_DIRNAME, reference_key(inputs) + ".json")
    if not os.path.exists(out):
        os.makedirs(os.path.dirname(out), exist_ok=True)
        subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "reference.py"), *inputs, out],
            check=True,
            timeout=timeout,
            stdout=subprocess.DEVNULL,
        )
    with open(out) as f:
        return json.load(f)


def reference_key(inputs: list[str]) -> str:
    """sha256 over the reference's arguments, the bytes of every file they
    name (directories walked in name order) and the ``.py`` source of
    ``benchmark/`` and ``raysearch/``."""
    h = hashlib.sha256()
    root = os.getcwd()
    sources = [os.path.join(root, d) for d in ("benchmark", "raysearch")]
    for item in [*inputs, *sources]:
        h.update(item.encode() + b"\0")
        if os.path.isdir(item):
            files = sorted(
                os.path.join(dp, f)
                for dp, dns, fs in os.walk(item)
                for f in fs
                if item not in sources or f.endswith(".py")
            )
        else:
            files = [item] if os.path.isfile(item) else []
        for path in files:
            h.update(os.path.relpath(path, item).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()
