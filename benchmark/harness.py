"""The closed loop every workload shares.

A run is: set-up (timed, reported as ``setup_s``), reference answers
(untimed, in a child process), a closed loop of operations for
``--seconds`` (one caller; the next operation starts when the last one
returned), deferred output checks, and teardown.  A traced run repeats
the same operations with span wrappers installed and reports per-layer
numbers instead of end-to-end ones.
"""

from __future__ import annotations

import os
import sys
import time
import traceback

from benchmark.common import Tally, cpu_probe, deadline, host_info
from benchmark.spans import Tracer

#: seconds a workload's set-up may take (normally 10–20)
SETUP_TIMEOUT = 120.0


class Workload:
    """Subclasses fill in the hooks; ``op(i)`` runs the i-th operation of
    the seeded sequence and must be repeatable for the traced pass."""

    name = ""
    #: per-operation deadline, seconds
    op_timeout = 30.0
    #: a run ends only after a whole number of blocks of this many
    #: operations (at least one), so every run asks the same mix
    op_block = 1
    #: per-layer metrics this workload reports in a traced run, with units
    LAYER_UNITS: dict[str, str] = {}
    #: set while the traced pass runs
    tracer = None

    def __init__(self, root: str, seed: int, tally: Tally):
        self.root = root
        self.seed = seed
        self.tally = tally
        self.setup_s = 0.0
        #: workload-specific figures printed beside the metrics
        self.detail: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        pass

    def op(self, i: int) -> None:
        raise NotImplementedError

    def reset_samples(self) -> None:
        """Forget the samples and pending checks of the previous pass."""

    def check(self) -> None:
        """Compare every recorded output against the reference."""

    def e2e(self) -> dict:
        """``work_per_s``, ``p50_ms`` and ``p95_ms`` as ``(value, unit)``."""
        raise NotImplementedError

    def install_spans(self, tracer: Tracer) -> None:
        pass

    def layers(self, tracer: Tracer, n_ops: int) -> dict:
        raise NotImplementedError

    def rss_mb(self) -> float:
        from benchmark.common import vm_hwm_mb

        return vm_hwm_mb()

    def close(self) -> None:
        pass


def closed_loop(w: Workload, seconds: float | None, n_ops: int | None = None) -> tuple[int, float]:
    """Run whole blocks of ``w.op_block`` operations until ``seconds``
    elapsed (or exactly ``n_ops`` operations); returns (operations run, loop wall seconds).  An operation that
    raises or times out is a counted failure and ends the loop, because
    the state it left behind is unknown."""
    i = 0
    t0 = time.perf_counter()
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i > 0 and i % w.op_block == 0 and time.perf_counter() - t0 >= seconds:
            break
        try:
            with deadline(w.op_timeout):
                w.op(i)
        except Exception as e:  # noqa: BLE001 — counted, reported
            w.tally.fail(f"op {i}: {type(e).__name__}: {e}")
            traceback.print_exc()
            i += 1
            break
        i += 1
    return i, time.perf_counter() - t0


def run_workload(w: Workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Drive one run; returns (metrics, host probes).  Metrics map a
    name to ``(value, unit)``."""
    host = dict(host_info())
    host["host.cpu_probe_before"] = cpu_probe()
    t0 = time.perf_counter()

    def log(what: str) -> None:
        print(f"[bench] {time.perf_counter() - t0:7.2f}s {what}", file=sys.stderr, flush=True)

    try:
        # a hung set-up becomes a reported failure, not a killed run
        with deadline(SETUP_TIMEOUT):
            w.setup()
        log(f"set-up done ({w.setup_s:.2f}s)")
        w.reference()
        log("reference done")
        if not trace:
            closed_loop(w, seconds)
            w.check()
            metrics = w.e2e()
            metrics["setup_s"] = (w.setup_s, "s")
            metrics["ok_frac"] = (
                (w.tally.attempted - w.tally.failed) / max(1, w.tally.attempted), "frac"
            )
            metrics["peak_rss_mb"] = (w.rss_mb(), "MiB")
        else:
            # an untraced pass fixes the operation count and the reference
            # wall time, then the same operations run again traced
            n, plain_wall = closed_loop(w, seconds / 2)
            w.check()
            w.reset_samples()
            tracer = Tracer()
            w.install_spans(tracer)
            try:
                _, traced_wall = closed_loop(w, None, n_ops=n)
            finally:
                tracer.restore()
            w.check()
            metrics = w.layers(tracer, max(1, n))
            tracer.dump(os.path.join(w.root, f"spans-{w.name}.json"))
            self_total = sum(tracer.self_times().values())
            metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
            metrics["trace.coverage"] = (self_total / traced_wall, "frac")
        log("loop and checks done")
    finally:
        w.close()
        log("closed")
    host["host.cpu_probe_after"] = cpu_probe()
    if trace:
        units = {"host.cpu_probe_before": "1/s", "host.cpu_probe_after": "1/s"}
        metrics.update({k: (v, units.get(k, "count")) for k, v in host.items()})
    return metrics, host
