"""raysearch benchmark — one command for every workload.

    python3 benchmark/run.py --workload {ingest,query,serve,curate} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root: Ray workers import ``raysearch`` from
the working directory.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Two lines before it carry the
host probes and the workload's own figures.  Generated data lives under
``.bench_tmp/``, which each run empties first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

ROOT = os.getcwd()
# the repository root, not this directory, so no module here shadows another
sys.path[0] = ROOT

#: end-to-end metrics every untraced run reports, with units
E2E_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MiB",
}


def workloads() -> dict:
    from benchmark.curate import Curate
    from benchmark.ingest import Ingest
    from benchmark.query import Query
    from benchmark.serve import Serve

    return {w.name: w for w in (Ingest, Query, Serve, Curate)}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric any workload reports, with its unit; a
    workload reports 0 for the layers it does not exercise."""
    out: dict[str, str] = {}
    for w in workloads().values():
        out.update(w.LAYER_UNITS)
    out.update(
        {
            "trace.overhead_frac": "frac",
            "trace.coverage": "frac",
            "host.affinity_cpus": "count",
            "host.ray_num_cpus": "count",
            "host.cpu_probe_before": "1/s",
            "host.cpu_probe_after": "1/s",
        }
    )
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "raysearch", "__init__.py")):
        print("run from the repository root: raysearch/ is not here", file=sys.stderr)
        return 2

    from benchmark.common import Tally, reap_descendants, reset_tmp_root

    table = workloads()
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    from benchmark.harness import run_workload

    tally = Tally()
    w = table[args.workload](reset_tmp_root(), args.seed, tally)
    metrics: dict = {}
    try:
        metrics, host = run_workload(w, args.seconds, bool(args.trace))
        print(json.dumps({"host": host}))
        print(json.dumps({"detail": {args.workload: w.detail}}))
    except Exception as e:  # noqa: BLE001 — a broken run still reports
        traceback.print_exc()
        tally.fail(f"run aborted: {type(e).__name__}: {e}")
    finally:
        reap_descendants()
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    wanted = per_layer_units() if args.trace else E2E_UNITS
    out = {}
    for name, unit in wanted.items():
        # a run that broke off reports 0 for what it could not measure
        value, unit = metrics.get(name, (0.0, unit))
        out[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and tally.attempted > 0,
                "attempted": max(1, tally.attempted),
                "failed": tally.failed,
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
