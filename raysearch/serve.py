"""Long-lived HTTP serving surface — the analog of the reference's REST
API (controllers/ApiController.java:28-52):

* ``GET  /api/statistics``    → index totals + per-conversation detail
  (dto/statistics/StatisticsResponse.java:6-8 shape: ``{result,
  statistics: {total, detailed}}``; TotalStatistics.java:7-10 fields
  sites/pages/lemmas/indexing map to conversations/turns/terms/
  is_indexing).
* ``GET  /api/startIndexing`` → full build of the configured input as a
  BACKGROUND subprocess (IndexingServiceImpl.java:42-51: reject when
  already running with the reference's exact error string).
* ``GET  /api/stopIndexing``  → terminate the running build
  (IndexingServiceImpl.java:53-78 ``shutdownNow`` analog).  Each
  partition commits itself as one wave, so a stop keeps every
  partition finished before it and the next startIndexing resumes
  from them — which is the stop feature's whole value here, vs the
  reference marking every site FAILED.
* ``POST /api/indexConv?conv_id=`` → partition-scoped rebuild of the
  conversation (the /api/indexPage analog,
  IndexingServiceImpl.java:137-152, including the out-of-scope error).
* ``GET  /api/search?query=&offset=&limit=&site=&mode=`` → top-k
  search (``site`` = conv scope, SearchServiceImpl.java:33-54;
  ``mode=or`` switches to disjunctive BM25 over the exact union of
  the query terms' postings — no reference analog, round 5; a
  negative ``offset`` or ``limit`` is an error).
* ``GET  /api/suggest?term=&limit=`` → did-you-mean lexicon
  candidates for a misspelled query word (no reference analog —
  the reference returns empty for unknown lemmas; round 5).

The server process itself never calls ``ray.init``: queries are served
in-process from an :class:`IndexSearcher` (reopened when the ``merged``
link names a new generation), and build/rebuild run as ``python -m raysearch``
subprocesses that own their Ray session — the serve process is the
``ray job submit`` driver box, not a Ray worker.

Documented divergences from the reference:

* startIndexing RESUMES from committed waves by default instead of the
  reference's delete-everything re-crawl (S8's destructive re-init is
  expressed here as "point --out at a fresh directory", or pass
  ``fresh=True``);
* DetailedStatisticsItem's per-site ``lemmas`` count IS reported per
  conversation (round 3): each merged generation writes the sparse
  distinct-lemma count per conversation (``merged/convlex.parquet``,
  from the waves' statistics) and the detail row carries it alongside
  ``tokens`` (sum of doc lengths).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

# Minimal self-contained dashboard (templates/index.html +
# static/assets/js/scripts.js analog): the reference ships a three-tab
# SPA (Dashboard statistics / Management start-stop / Search) over the
# same five API routes; this single page mirrors that surface with no
# external assets.  Original markup — semantics parity only.
DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>raysearch</title>
<style>
 body{font-family:sans-serif;margin:2em auto;max-width:60em;color:#222}
 h2{border-bottom:1px solid #ccc;padding-bottom:.2em}
 .stat{display:inline-block;margin:0 2em 1em 0}
 .stat b{font-size:1.6em;display:block}
 table{border-collapse:collapse}td,th{border:1px solid #ddd;padding:.3em .6em}
 button{margin-right:.5em}input[type=text]{width:24em}
 .snippet b{background:#ffef9e}
 #err{color:#b00}
</style></head><body>
<h1>raysearch</h1>
<h2>Dashboard</h2>
<div id="totals"></div>
<table id="detail"><thead><tr><th>conversation</th><th>turns</th>
<th>tokens</th><th>lemmas</th></tr></thead><tbody></tbody></table>
<h2>Management</h2>
<button onclick="hit('/api/startIndexing')">Start indexing</button>
<button onclick="hit('/api/stopIndexing')">Stop indexing</button>
<span id="err"></span>
<h2>Search</h2>
<form onsubmit="return doSearch()">
<input type="text" id="q" placeholder="query">
<input type="text" id="site" placeholder="conversation scope (optional)" size="24">
<button type="submit">Search</button></form>
<div id="results"></div>
<script>
function esc(s){var d=document.createElement('div');d.innerText=s;return d.innerHTML}
function stats(){fetch('/api/statistics').then(r=>r.json()).then(j=>{
 if(!j.result)return;var t=j.statistics.total;
 document.getElementById('totals').innerHTML=
  '<span class=stat><b>'+t.sites+'</b>conversations</span>'+
  '<span class=stat><b>'+t.pages+'</b>turns</span>'+
  '<span class=stat><b>'+t.lemmas+'</b>terms</span>'+
  '<span class=stat><b>'+(t.indexing?'yes':'no')+'</b>indexing</span>';
 var tb=document.querySelector('#detail tbody');tb.innerHTML='';
 (j.statistics.detailed||[]).slice(0,50).forEach(function(d){
  tb.insertAdjacentHTML('beforeend','<tr><td>'+esc(d.url||d.conv_id||'')+
   '</td><td>'+d.pages+'</td><td>'+(d.tokens!=null?d.tokens:'')+
   '</td><td>'+(d.lemmas!=null?d.lemmas:'')+'</td></tr>');});
})}
function hit(p){fetch(p).then(r=>r.json()).then(j=>{
 document.getElementById('err').innerText=j.result?'':(j.error||'');stats();})}
function doSearch(){var q=encodeURIComponent(document.getElementById('q').value);
 var s=encodeURIComponent(document.getElementById('site').value);
 fetch('/api/search?query='+q+(s?'&site='+s:'')).then(r=>r.json()).then(j=>{
  var out=document.getElementById('results');
  if(!j.result){out.innerHTML='<p id=err>'+esc(j.error||'error')+'</p>';return}
  out.innerHTML='<p>'+j.count+' results</p>'+j.data.map(function(d){
   return '<p><b>'+esc(d.conv_id)+'#'+d.turn_idx+'</b> ('+
    d.relevance.toFixed(4)+')<br><span class=snippet>'+d.snippet+
    '</span></p>';}).join('');});
 return false}
stats();setInterval(stats,10000);
</script></body></html>"""

ALREADY_RUNNING_ERROR = "Индексация уже запущена"
NOT_RUNNING_ERROR = "Индексация не запущена"
OUT_OF_SCOPE_ERROR = (
    "Данная страница находится за пределами сайтов, "
    "указанных в конфигурационном файле"
)
STOPPED_BY_USER_ERROR = "Индексация остановлена пользователем"


class EngineServer:
    """State + handlers behind the HTTP routes (one per process; build
    subprocess tracked so start/stop/indexConv serialize like the
    reference's global run flag, IndexingServiceImpl.java:38)."""

    def __init__(
        self,
        index_dir: str,
        input_dir: str | None = None,
        mode: str = "latin",
        n_partitions: int | None = None,
        fresh: bool = False,
        detail_limit: int = 100,
        num_cpus: int | None = None,
    ):
        self.index_dir = index_dir
        self.input_dir = input_dir
        self.mode = mode
        self.n_partitions = n_partitions
        self.fresh = fresh
        self.detail_limit = detail_limit
        self.num_cpus = num_cpus
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()
        self._last_error: str | None = None
        self._searcher = None
        self._conv_lemmas_cache: tuple[str, np.ndarray] | None = None

    # -- searcher lifecycle -------------------------------------------------

    def get_searcher(self):
        """Serve from one IndexSearcher; reopen it when the ``merged``
        link names another generation than the one it serves."""
        from raysearch.build import published_generation
        from raysearch.search import IndexSearcher

        gen = published_generation(self.index_dir)
        if not os.path.exists(os.path.join(gen, "meta.json")):
            return None
        with self._lock:
            if self._searcher is None or self._searcher.generation != gen:
                self._searcher = IndexSearcher(self.index_dir)
            return self._searcher

    def _build_running(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def _conv_lemmas(self, s) -> np.ndarray:
        """Distinct-lemma count per conversation (DetailedStatisticsItem
        lemma analog) — the sparse ``convlex.parquet`` of searcher
        ``s``'s generation, which every generation writes from its
        waves' statistics (exact also for a conversation that
        straddles partitions).  Cached per generation."""
        import pyarrow.parquet as pq

        cached = self._conv_lemmas_cache
        if cached is not None and cached[0] == s.generation:
            return cached[1]
        out = np.zeros(len(s._conv_ids), dtype=np.int64)
        t = pq.read_table(os.path.join(s.generation, "convlex.parquet"))
        out[t["conv_idx"].to_numpy()] = t["lemmas"].to_numpy()
        self._conv_lemmas_cache = (s.generation, out)
        return out

    # -- routes -------------------------------------------------------------

    def statistics(self) -> dict:
        from raysearch.stats_api import index_stats

        indexing = self._build_running()
        if not os.path.exists(os.path.join(self.index_dir, "input_meta.json")):
            return {
                "result": True,
                "statistics": {
                    "total": {
                        "sites": 0, "pages": 0, "lemmas": 0,
                        "indexing": indexing,
                    },
                    "detailed": [],
                },
            }
        st = index_stats(self.index_dir)
        detailed = []
        s = self.get_searcher()
        if s is not None:
            meta = os.path.join(s.generation, "meta.json")
            status_time = int(os.path.getmtime(meta) * 1000)
            offs = s._conv_offsets
            turns = s._conv_turns
            # per-conv token totals: one reduceat over the doc-length
            # array at conv boundaries (exact, no input scan)
            tok = (
                np.add.reduceat(s.doc_lens, offs)
                if len(offs)
                else np.empty(0, np.int64)
            )
            lem = self._conv_lemmas(s)
            for i, conv in enumerate(s._conv_ids[: self.detail_limit]):
                detailed.append(
                    {
                        "url": conv,
                        "name": conv,
                        "status": "INDEXED",
                        "statusTime": status_time,
                        "error": self._last_error or "",
                        "pages": int(turns[i]),
                        "tokens": int(tok[i]),
                        "lemmas": int(lem[i]),
                    }
                )
        return {
            "result": True,
            "statistics": {
                "total": {
                    "sites": len(s._conv_ids) if s is not None else 0,
                    "pages": st["total"]["docs"],
                    "lemmas": st["total"]["terms"] or 0,
                    "indexing": indexing or bool(st["total"]["is_indexing"]),
                },
                "detailed": detailed,
            },
        }

    def _spawn(self, args: list[str]) -> subprocess.Popen:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        return subprocess.Popen(
            [sys.executable, "-m", "raysearch", *args],
            cwd=repo_root,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def start_indexing(self) -> dict:
        with self._lock:
            if self._build_running():
                return {"result": False, "error": ALREADY_RUNNING_ERROR}
            if not self.input_dir:
                return {"result": False, "error": "no input_dir configured"}
            args = ["build", "--input", self.input_dir, "--out", self.index_dir,
                    "--mode", self.mode]
            if self.n_partitions:
                args += ["--partitions", str(self.n_partitions)]
            if self.fresh:
                args += ["--no-resume"]
            if self.num_cpus:
                args = ["--num-cpus", str(self.num_cpus)] + args
            self._last_error = None
            self._proc = self._spawn(args)
            return {"result": True}

    def stop_indexing(self) -> dict:
        with self._lock:
            if not self._build_running():
                return {"result": False, "error": NOT_RUNNING_ERROR}
            self._proc.terminate()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
            self._last_error = STOPPED_BY_USER_ERROR
            return {"result": True}

    def index_conv(self, conv_id: str | None) -> dict:
        if not conv_id:
            return {"result": False, "error": OUT_OF_SCOPE_ERROR}
        s = self.get_searcher()
        if s is None or s.conv_range(conv_id) is None:
            return {"result": False, "error": OUT_OF_SCOPE_ERROR}
        with self._lock:
            if self._build_running():
                return {"result": False, "error": ALREADY_RUNNING_ERROR}
            if not self.input_dir:
                return {"result": False, "error": "no input_dir configured"}
            args = ["rebuild", "--input", self.input_dir,
                    "--index", self.index_dir, "--conv", conv_id]
            if self.num_cpus:
                args = ["--num-cpus", str(self.num_cpus)] + args
            self._proc = self._spawn(args)
        # the reference's indexPage waits for the single page
        # (IndexingServiceImpl.java:173-183); mirror that synchronously
        rc = self._proc.wait()
        return {"result": rc == 0} if rc == 0 else {
            "result": False, "error": f"rebuild failed (exit {rc})"
        }

    def search(self, query: str, offset: int, limit: int, site: str | None,
               mode: str = "and") -> dict:
        s = self.get_searcher()
        if s is None:
            return {"result": False, "error": "index not built"}
        return s.search_response(
            query, k=limit, offset=offset, scope=site or None,
            mode="or" if mode == "or" else "and",
        )

    def suggest(self, term: str, limit: int) -> dict:
        """Did-you-mean endpoint: close lexicon terms for a
        misspelled query word (IndexSearcher.suggest ranking)."""
        s = self.get_searcher()
        if s is None:
            return {"result": False, "error": "index not built"}
        if not term:
            return {"result": False, "error": "empty term"}
        return {"result": True, "data": s.suggest(term, limit=limit)}


def make_handler(engine: EngineServer):
    class Handler(BaseHTTPRequestHandler):
        def _send(self, payload: dict) -> None:
            body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # quiet
            pass

        @staticmethod
        def _int_param(q: dict, name: str, default: int) -> int:
            """Defensive int parse — malformed values become the
            default instead of a handler-killing ValueError."""
            try:
                return int(q.get(name, [str(default)])[0])
            except (TypeError, ValueError):
                return default

        def _send_html(self, html: str) -> None:
            body = html.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            # any escape (malformed params, a failed read) must still
            # produce a structured JSON error, like the reference API's
            # result/error envelope
            try:
                u = urlparse(self.path)
                q = parse_qs(u.query)
                if u.path in ("/", "/index.html"):
                    self._send_html(DASHBOARD_HTML)
                elif u.path == "/api/statistics":
                    self._send(engine.statistics())
                elif u.path == "/api/startIndexing":
                    self._send(engine.start_indexing())
                elif u.path == "/api/stopIndexing":
                    self._send(engine.stop_indexing())
                elif u.path == "/api/search":
                    self._send(
                        engine.search(
                            q.get("query", [""])[0],
                            self._int_param(q, "offset", 0),
                            self._int_param(q, "limit", 10),
                            q.get("site", [None])[0],
                            q.get("mode", ["and"])[0],
                        )
                    )
                elif u.path == "/api/suggest":
                    self._send(
                        engine.suggest(
                            q.get("term", [""])[0],
                            self._int_param(q, "limit", 5),
                        )
                    )
                else:
                    self._send({"result": False, "error": f"unknown path {u.path}"})
            except Exception as e:  # noqa: BLE001 — boundary guard
                try:
                    self._send({"result": False, "error": str(e)})
                except Exception:
                    pass  # client hung up mid-response

        def do_POST(self):
            try:
                u = urlparse(self.path)
                q = parse_qs(u.query)
                length = int(self.headers.get("Content-Length") or 0)
                if length:
                    body = parse_qs(self.rfile.read(length).decode("utf-8"))
                    for k, v in body.items():
                        q.setdefault(k, v)
                if u.path == "/api/indexConv":
                    self._send(engine.index_conv(q.get("conv_id", [None])[0]))
                else:
                    self._send({"result": False, "error": f"unknown path {u.path}"})
            except Exception as e:  # noqa: BLE001 — boundary guard
                try:
                    self._send({"result": False, "error": str(e)})
                except Exception:
                    pass

    return Handler


def serve(engine: EngineServer, port: int = 8080) -> ThreadingHTTPServer:
    """Bind and return the server (caller runs serve_forever / shuts
    down — tests run it on an ephemeral port in a thread)."""
    return ThreadingHTTPServer(("127.0.0.1", port), make_handler(engine))


def main_serve(args) -> int:
    engine = EngineServer(
        index_dir=args.index,
        input_dir=args.input,
        mode=args.mode,
        n_partitions=args.partitions,
        fresh=args.fresh,
        num_cpus=args.num_cpus,
    )
    httpd = serve(engine, port=args.port)
    print(json.dumps({"serving": True, "port": httpd.server_address[1]}))
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
    return 0
