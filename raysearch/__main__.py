"""CLI entry points — the new engine's analog of the reference's REST
surface (controllers/ApiController.java:28-52) for `ray job submit`:

    python -m raysearch build   --input DIR --out DIR [--mode latin]
                                [--partitions N]
                                [--validate]          # startIndexing analog
    python -m raysearch search  --index DIR QUERY [--k 10] [--offset 0]
                                [--scope CONV] [--scorer bm25]   # /api/search
    python -m raysearch stats   --index DIR          # /api/statistics
    python -m raysearch rebuild --input DIR --index DIR
                                (--partition N | --conv CONV)  # /api/indexPage

Each command owns its Ray session (`ray job submit` runs this as the
driver script); the library itself never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus: int | None):
    """Init Ray if this process doesn't have a session yet; returns
    (ray, owns_session) — shutdown only what we started (an embedding
    process, e.g. pytest, keeps its session)."""
    import ray

    if ray.is_initialized():
        return ray, False
    kwargs = {"include_dashboard": False}
    if num_cpus:
        kwargs["num_cpus"] = num_cpus
    ray.init(address="local", **kwargs)
    return ray, True


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="raysearch")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="full index build (startIndexing analog)")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--mode", default="latin", choices=["latin", "reference", "simple"])
    b.add_argument("--partitions", type=int, default=None)
    b.add_argument("--validate", action="store_true")
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--strip-html", action="store_true")

    s = sub.add_parser("search", help="top-k query (GET /api/search analog)")
    s.add_argument("--index", required=True)
    s.add_argument("query")
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--offset", type=int, default=0)
    s.add_argument("--scope", default=None)
    s.add_argument("--scorer", default="bm25", choices=["bm25", "reference"])

    t = sub.add_parser("stats", help="index statistics (GET /api/statistics analog)")
    t.add_argument("--index", required=True)

    r = sub.add_parser("rebuild", help="partition-scoped reindex (POST /api/indexPage analog)")
    r.add_argument("--input", required=True)
    r.add_argument("--index", required=True)
    g = r.add_mutually_exclusive_group(required=True)
    g.add_argument("--partition", type=int, default=None)
    g.add_argument("--conv", default=None)

    v = sub.add_parser(
        "serve", help="HTTP API server (ApiController.java:28-52 analog)"
    )
    v.add_argument("--index", required=True)
    v.add_argument("--input", default=None)
    v.add_argument("--port", type=int, default=8080)
    v.add_argument("--mode", default="latin", choices=["latin", "reference", "simple"])
    v.add_argument("--partitions", type=int, default=None)
    v.add_argument("--fresh", action="store_true",
                   help="startIndexing rebuilds from scratch (S8 analog) "
                        "instead of resuming committed waves")

    args = p.parse_args(argv)

    if args.cmd == "build":
        ray, owns = _ray_init(args.num_cpus)
        from raysearch.build import build_index

        meta = build_index(
            args.input,
            args.out,
            mode=args.mode,
            n_partitions=args.partitions,
            resume=not args.no_resume,
            validate=args.validate,
            strip_html=args.strip_html,
        )
        print(json.dumps(meta, default=str))
        if owns:
            ray.shutdown()
    elif args.cmd == "search":
        from raysearch.search import IndexSearcher

        resp = IndexSearcher(args.index).search_response(
            args.query,
            k=args.k,
            offset=args.offset,
            scope=args.scope,
            scorer=args.scorer,
        )
        print(json.dumps(resp, ensure_ascii=False))
        return 0 if resp.get("result") else 1
    elif args.cmd == "stats":
        from raysearch.stats_api import index_stats

        print(json.dumps(index_stats(args.index)))
    elif args.cmd == "rebuild":
        ray, owns = _ray_init(args.num_cpus)
        from raysearch.build import rebuild_partition

        meta = rebuild_partition(
            args.input, args.index, partition_id=args.partition, conv_id=args.conv
        )
        print(json.dumps(meta, default=str))
        if owns:
            ray.shutdown()
    elif args.cmd == "serve":
        from raysearch.serve import main_serve

        return main_serve(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
