"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side: :meth:`Tracer.wrap`
replaces a public function or method of a ``raysearch`` module (or a
pyarrow entry point it calls) with a timing shim, and
:meth:`Tracer.restore` puts the original back.  Each span is
``[name, start, end, parent, request_id]``; parents come from a
per-thread stack, so nesting inside one request is exact.  A layer's
self time is its span duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, RID = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: prepended to span and counter names (e.g. a workload phase)
        self.prefix = ""

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @property
    def rid(self):
        return getattr(self._local, "rid", None)

    @rid.setter
    def rid(self, value) -> None:
        self._local.rid = value

    def parent_name(self) -> str | None:
        """Name of the innermost open span on this thread, unprefixed."""
        st = self._stack()
        return self.spans[st[-1]][NAME][len(self.prefix):] if st else None

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> list:
        st = self._stack()
        rec = [self.prefix + name, 0.0, 0.0, st[-1] if st else -1, self.rid]
        with self._lock:
            st.append(len(self.spans))
            self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[self.prefix + name] += n

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``;
        ``on_result(tracer, args, kwargs, result)`` may add counters."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def shim(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(rec)
            if on_result is not None:
                on_result(tracer, args, kwargs, out)
            return out

        setattr(owner, attr, shim)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[NAME]] += (s[END] - s[START]) - child[i]
        return dict(out)

    def inclusive(self, name: str) -> float:
        """Total seconds inside spans called ``name``, children included."""
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s[NAME]] += 1
        return dict(out)

    def children_named(self, parent: str, child: str) -> tuple[int, int]:
        """(spans named ``parent``, those with a direct child ``child``)."""
        has = set()
        for s in self.spans:
            p = s[PARENT]
            if s[NAME] == child and p >= 0 and self.spans[p][NAME] == parent:
                has.add(p)
        total = sum(1 for s in self.spans if s[NAME] == parent)
        return total, len(has)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": self.counters}, f)

    def merge(self, payload: dict) -> None:
        """Append spans recorded by another process (indices rebased)."""
        base = len(self.spans)
        for s in payload["spans"]:
            self.spans.append(
                [s[NAME], s[START], s[END], s[PARENT] + base if s[PARENT] >= 0 else -1, s[RID]]
            )
        for k, v in payload["counters"].items():
            self.counters[k] += v


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)
        return self.rec

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


# ---------------------------------------------------------------------------
# The engine's layer boundaries.  ``search.py`` binds ``decode_postings``,
# ``search_postings`` and ``build_snippet`` into its own namespace with
# ``from ... import``, so those are wrapped where search.py looks them up.
# ---------------------------------------------------------------------------


def _count_row_group(tracer, args, kwargs, table):
    tracer.count("search.row_groups_read")
    tracer.count("search.row_group_bytes", table.nbytes)


def _count_decode(tracer, args, kwargs, out):
    tracer.count("codec.postings_decoded", len(out[0]))


def _count_search_postings(tracer, args, kwargs, out):
    tracer.count("scoring.candidates", out[2])
    tracer.count("scoring.results", len(out[0]))


def _count_fetch_docs(tracer, args, kwargs, out):
    tracer.count("search.docs_fetched", len(args[1]))


def _count_read_table(tracer, args, kwargs, table):
    if tracer.parent_name() == "search.fetch_docs":
        tracer.count("search.doc_rows_read", table.num_rows)


def install_engine_spans(tracer: Tracer) -> None:
    """Wrap the query/serve path's public layer boundaries."""
    import pyarrow.parquet as pq

    import raysearch.lex
    import raysearch.search
    import raysearch.stats_api

    S = raysearch.search.IndexSearcher
    tracer.wrap(S, "__init__", "search.open")
    tracer.wrap(S, "search", "search.search")
    tracer.wrap(S, "search_or", "search.search_or")
    tracer.wrap(S, "query_terms", "search.query_terms")
    tracer.wrap(S, "fetch_postings", "search.fetch_postings")
    tracer.wrap(S, "fetch_docs", "search.fetch_docs", _count_fetch_docs)
    tracer.wrap(S, "suggest", "search.suggest")
    tracer.wrap(S, "search_response", "search.search_response")
    tracer.wrap(raysearch.lex.Lexer, "split_to_lemmas", "lex.split_to_lemmas")
    tracer.wrap(raysearch.search, "decode_postings", "codec.decode", _count_decode)
    tracer.wrap(
        raysearch.search, "search_postings", "scoring.search_postings", _count_search_postings
    )
    tracer.wrap(raysearch.search, "build_snippet", "snippet.build_snippet")
    tracer.wrap(raysearch.stats_api, "index_stats", "stats_api.index_stats")
    tracer.wrap(pq.ParquetFile, "read_row_group", "search.row_group_read", _count_row_group)
    tracer.wrap(pq, "read_table", "pyarrow.read_table", _count_read_table)
