"""``serve``: the HTTP API over corpus C.

The server is ``python -m raysearch serve`` in a subprocess (started
through ``serve_launcher.py``).  One client connection at a time sends
60% AND, 20% ``mode=or`` and 10% ``site=``-scoped ``/api/search``
requests, 8% ``/api/suggest`` with a misspelled lemma and 2%
``/api/statistics``; each request waits for the last reply.  Document
fetch, snippets, suggest and HTTP do the work here.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from urllib.parse import urlencode

import numpy as np

from benchmark.common import (
    CORPUS_C,
    exact_mix,
    median,
    pct,
    query_pool,
    stop_process,
    vm_hwm_mb,
    zipf_ranks,
)
from benchmark.harness import Workload
from benchmark.query import POOL_SEED, K, build_c_index, reference_answers, same_answer

ROUTES = {"and": 0.60, "or": 0.20, "scoped": 0.10, "suggest": 0.08, "statistics": 0.02}
ROUTE_CYCLE = 50
#: two route cycles: 60 AND, 20 OR, 10 scoped, 8 suggest, 2 statistics
BLOCK = 2 * ROUTE_CYCLE
#: search queries, as many of each kind as a block asks for
POOL = 90
#: misspelled lemmas for /api/suggest, asked in turn (fixed set, seeded order)
N_TYPOS = 8
SEARCH_KINDS = ("and", "or", "scoped")


def misspell(rng, word: str) -> str:
    """One seeded edit (substitute, drop or swap) — within suggest's reach."""
    i = int(rng.integers(0, len(word)))
    edit = int(rng.integers(0, 3))
    if edit == 0:
        return word[:i] + "q" + word[i + 1 :]
    if edit == 1 and len(word) > 3:
        return word[:i] + word[i + 1 :]
    j = min(i + 1, len(word) - 1)
    w = list(word)
    w[i], w[j] = w[j], w[i]
    return "".join(w)


class Serve(Workload):
    name = "serve"
    op_timeout = 20.0
    #: a block asks every pool query and every suggest typo exactly once,
    #: so every run asks the same requests, only in another order
    op_block = BLOCK
    #: per request, or per /api/search request where noted in layers()
    LAYER_UNITS = {
        "serve.http_ms": "ms",
        "serve.engine_ms": "ms",
        "serve.rank_ms": "ms",
        "search.search_response_ms": "ms",
        "search.fetch_docs_ms": "ms",
        "search.doc_read_ms": "ms",
        "search.docs_fetched": "count",
        "search.doc_rows_per_result": "ratio",
        "snippet.build_snippet_ms": "ms",
        "search.suggest_ms": "ms",
        "stats_api.index_stats_ms": "ms",
        "serve.errors.search": "count",
        "serve.errors.suggest": "count",
        "serve.errors.statistics": "count",
    }

    def setup(self) -> None:
        from raysearch.vocab import LEMMAS

        fixed = np.random.default_rng(POOL_SEED)
        weights = {k: ROUTES[k] for k in SEARCH_KINDS}
        self.pool = query_pool(fixed, POOL, weights, CORPUS_C["n_convs"])
        self.typos = [misspell(fixed, LEMMAS[r]) for r in zipf_ranks(fixed, N_TYPOS, len(LEMMAS))]
        rng = np.random.default_rng(self.seed)
        # each kind's queries are asked in a seeded order, in turn
        self.by_kind = {
            k: rng.permutation([j for j, q in enumerate(self.pool) if q["kind"] == k]).tolist()
            for k in SEARCH_KINDS
        }
        # routes come in shuffled cycles of 50 holding the exact mix, so
        # the slow routes' share (and the p95 it sets) is the same per run
        self.route_seq = [r for _ in range(1 << 10) for r in exact_mix(rng, ROUTE_CYCLE, ROUTES)]
        self.spans_path = os.path.join(self.root, "server-spans.json")
        t0 = time.perf_counter()
        self.corpus, self.index = build_c_index(self.root)
        self._start_server()
        for j in range(POOL):
            self._request(self._search_path(j, -1))
        self._request("/api/suggest?" + urlencode({"term": self.typos[0], "rid": -1}))
        self._request("/api/statistics?rid=-1")
        self.setup_s = time.perf_counter() - t0
        self.reset_samples()

    def _start_server(self) -> None:
        launcher = os.path.join(os.path.dirname(__file__), "serve_launcher.py")
        self.proc = subprocess.Popen(
            # unbuffered: the port line must reach the pipe whatever the
            # caller's environment says about buffering
            [sys.executable, "-u", launcher, self.spans_path, "--", "serve",
             "--index", self.index, "--input", self.corpus, "--port", "0"],
            stdout=subprocess.PIPE,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        if not ready:
            raise RuntimeError("server did not report its port within 60s")
        self.port = json.loads(self.proc.stdout.readline())["port"]

    def _search_path(self, j: int, rid: int) -> str:
        q = self.pool[j]
        params = {"query": q["q"], "limit": K, "rid": rid}
        if q["kind"] == "or":
            params["mode"] = "or"
        if q["kind"] == "scoped":
            params["site"] = q["scope"]
        return "/api/search?" + urlencode(params)

    def _request(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.op_timeout)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def reference(self) -> None:
        self.ref = reference_answers(self.root, self.corpus, self.pool)

    def reset_samples(self) -> None:
        self.lat_ms: list[float] = []
        self.replies: list[tuple[str, int, int, bytes]] = []  # route, pool idx, status, body
        self.errors = dict.fromkeys(("search", "suggest", "statistics"), 0)
        self.asked = dict.fromkeys(ROUTES, 0)
        self.routes: list[str] = []

    def op(self, i: int) -> None:
        route = self.route_seq[i % len(self.route_seq)]
        n = self.asked[route]
        self.asked[route] += 1
        j = -1
        if route in SEARCH_KINDS:
            idx = self.by_kind[route]
            j = idx[n % len(idx)]
            path = self._search_path(j, i)
        elif route == "suggest":
            path = "/api/suggest?" + urlencode({"term": self.typos[n % N_TYPOS], "rid": i})
        else:
            path = f"/api/statistics?rid={i}"
        if self.tracer is not None:
            self.tracer.rid = i
            with self.tracer.span("serve.http"):
                t0 = time.perf_counter()
                status, body = self._request(path)
        else:
            t0 = time.perf_counter()
            status, body = self._request(path)
        self.lat_ms.append((time.perf_counter() - t0) * 1e3)
        self.replies.append((route, j, status, body))
        self.routes.append(route)

    def check(self) -> None:
        want = self.ref["answers"]
        for route, j, status, body in self.replies:
            family = "search" if route in SEARCH_KINDS else route
            ok, why = False, f"HTTP {status}"
            if status == 200:
                reply = json.loads(body)
                ok, why = bool(reply.get("result")), f"result false: {reply.get('error')}"
                if ok and j >= 0:
                    data = reply["data"]
                    ok = same_answer(
                        [d["doc_id"] for d in data], [d["relevance"] for d in data], reply["count"], want[j]
                    )
                    why = f"{route} {self.pool[j]['q']!r}: response differs from reference"
            if not ok:
                self.errors[family] += 1
            self.tally.ok(ok, why)
        self.replies.clear()

    def e2e(self) -> dict:
        # responses per second of each complete route cycle, median
        full = len(self.lat_ms) // ROUTE_CYCLE * ROUTE_CYCLE
        rps = median(
            [ROUTE_CYCLE / (sum(self.lat_ms[k : k + ROUTE_CYCLE]) / 1e3) for k in range(0, full, ROUTE_CYCLE)]
        )
        # the tail of /api/search: over all routes, p95 falls inside the 8%
        # suggest requests, 24 samples of a run whose level follows the
        # server's single-thread speed, and ten seeds spread it by 0.31
        search_ms = [ms for ms, route in zip(self.lat_ms, self.routes) if route in SEARCH_KINDS]
        self.detail = {
            "requests": len(self.lat_ms),
            "serve_rps": rps,
            "serve_p50_ms": median(self.lat_ms),
            "serve_p95_ms": pct(self.lat_ms, 95),
            "search_p95_ms": pct(search_ms, 95),
            "route_p50_ms": {
                r: median([ms for ms, route in zip(self.lat_ms, self.routes) if route == r])
                for r in set(self.routes)
            },
        }
        return {
            "work_per_s": (rps, "1/s"),
            "p50_ms": (median(self.lat_ms), "ms"),
            "p95_ms": (pct(search_ms, 95), "ms"),
        }

    def rss_mb(self) -> float:
        return vm_hwm_mb() + vm_hwm_mb(self.proc.pid)

    def install_spans(self, tracer) -> None:
        ready = self.spans_path + ".ready"
        self.proc.send_signal(signal.SIGUSR1)
        end = time.monotonic() + 30
        while not os.path.exists(ready):
            if time.monotonic() > end:
                raise RuntimeError("server did not install span wrappers")
            time.sleep(0.01)
        self.tracer = tracer

    def layers(self, tracer, n_ops: int) -> dict:
        # collect the server's spans and hang each request's top span
        # under the client span of the same rid
        stop_process(self.proc)
        with open(self.spans_path) as f:
            payload = json.load(f)
        client = {s[4]: k for k, s in enumerate(tracer.spans) if s[0] == "serve.http"}
        base = len(tracer.spans)
        tracer.merge(payload)
        for s in tracer.spans[base:]:
            if s[3] == -1 and s[4] in client:
                s[3] = client[s[4]]
        st, c = tracer.self_times(), tracer.counters
        n = max(1, n_ops)
        n_search = max(1, sum(1 for r in self.route_seq[:n_ops] if r in SEARCH_KINDS))
        docs = c.get("search.docs_fetched", 0.0)

        def ms(name: str, per: int = n) -> tuple:
            return (st.get(name, 0.0) * 1e3 / per, "ms")

        out = {
            "serve.http_ms": ms("serve.http"),
            "serve.engine_ms": ms("serve.engine"),
            "serve.rank_ms": (
                (tracer.inclusive("search.search") + tracer.inclusive("search.search_or")) * 1e3 / n_search,
                "ms",
            ),
            "search.search_response_ms": ms("search.search_response", n_search),
            "search.fetch_docs_ms": (tracer.inclusive("search.fetch_docs") * 1e3 / n_search, "ms"),
            "search.doc_read_ms": ms("pyarrow.read_table", n_search),
            "search.docs_fetched": (docs / n_search, "count"),
            "search.doc_rows_per_result": (c.get("search.doc_rows_read", 0.0) / docs if docs else 0.0, "ratio"),
            "snippet.build_snippet_ms": ms("snippet.build_snippet", n_search),
            "search.suggest_ms": ms("search.suggest"),
            "stats_api.index_stats_ms": ms("stats_api.index_stats"),
        }
        for family, errs in self.errors.items():
            out[f"serve.errors.{family}"] = (errs, "count")
        return out

    def close(self) -> None:
        if hasattr(self, "proc"):
            stop_process(self.proc)
            self.proc.stdout.close()
