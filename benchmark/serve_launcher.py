"""Start ``python -m raysearch serve`` in this process, the way the
benchmark's untraced and traced runs both do, so they share one process
layout.

    python benchmark/serve_launcher.py SPANS_JSON -- <raysearch serve args>

Each request's ``rid`` query parameter (added by the benchmark's client)
becomes the request id of the spans it causes.  SIGUSR1 installs the
span wrappers and then creates ``SPANS_JSON.ready``; SIGTERM writes the
recorded spans to ``SPANS_JSON`` and exits.
"""

from __future__ import annotations

import os
import signal
import sys
from urllib.parse import parse_qs, urlparse

# the repository root, not this directory, so no module here shadows another
sys.path[0] = os.getcwd()


def main(argv: list[str]) -> int:
    import raysearch.serve

    from benchmark.spans import Tracer, install_engine_spans

    spans_path, rest = argv[0], argv[argv.index("--") + 1 :]
    tracer = Tracer()
    make_handler = raysearch.serve.make_handler

    def rid_handler(engine):
        class Handler(make_handler(engine)):
            def do_GET(self):
                tracer.rid = int(parse_qs(urlparse(self.path).query).get("rid", ["-1"])[0])
                super().do_GET()

        return Handler

    raysearch.serve.make_handler = rid_handler

    def start_tracing(signum, frame):
        install_engine_spans(tracer)
        for route in ("search", "suggest", "statistics"):
            tracer.wrap(raysearch.serve.EngineServer, route, "serve.engine")
        with open(spans_path + ".ready", "w"):
            pass

    def dump_and_exit(signum, frame):
        tracer.dump(spans_path)
        os._exit(0)

    signal.signal(signal.SIGUSR1, start_tracing)
    signal.signal(signal.SIGTERM, dump_and_exit)
    from raysearch.__main__ import main as raysearch_main

    return raysearch_main(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
