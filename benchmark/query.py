"""``query``: the in-process read path over corpus C, document fetch and
snippets left out.

One long-lived ``IndexSearcher`` (warmed by one pass over the query
pool) answers a Zipf mix of 70% AND, 20% OR and 10% conversation-scoped
AND queries.  After every ``WARM_PER_COLD`` of those, a cold session
opens a fresh ``IndexSearcher`` — the state a server is in right after
an index swap — and runs a burst of ``COLD_BURST`` AND queries.  Cold
queries are a fixed fifth of all queries, so the pooled median reads
the warm path (lexicon lookup, intersect, score, rank; the term cache
hits) and the pooled p95 reads the cold path (row-group reads and
posting decode).  Throughput is the median over warm+cold cycles of
queries per second, searcher opens included, so a short stall on the
shared host moves one cycle, not the figure.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from benchmark.common import (
    C_PARTITIONS,
    CORPUS_C,
    RaySession,
    median,
    pct,
    query_pool,
    run_reference,
    write_corpus,
)
from benchmark.harness import Workload

K = 10
POOL = 512
#: the query pool is the same for every run; ``--seed`` orders it.  A
#: seed-drawn pool of this size moved the median by up to a fifth between
#: seeds, which would hide the regressions the bounds are meant to catch
POOL_SEED = 1
WEIGHTS = {"and": 0.7, "or": 0.2, "scoped": 0.1}
WARM_PER_COLD = 64
COLD_BURST = 16

#: per-layer metrics reported for each phase (prefix ``warm.`` / ``cold.``),
#: per query of that phase
PHASE_LAYERS = {
    "lex.split_to_lemmas_ms": "ms",
    "search.query_terms_ms": "ms",
    "search.search_ms": "ms",
    "search.search_or_ms": "ms",
    "search.fetch_postings_ms": "ms",
    "search.fetch_postings_calls": "count",
    "search.term_cache_hit_ratio": "ratio",
    "search.row_groups_read": "count",
    "search.row_group_bytes": "bytes",
    "search.row_group_read_ms": "ms",
    "codec.decode_ms": "ms",
    "codec.decode_calls": "count",
    "codec.postings_decoded": "count",
    "scoring.search_postings_ms": "ms",
    "scoring.candidates": "count",
    "scoring.results_per_candidate": "ratio",
}


def build_c_index(root: str) -> tuple[str, str]:
    """Ray start, corpus C, index build, Ray stop; returns (corpus, index).
    Only the build needs Ray, so the measured loop runs without it."""
    from raysearch.build import build_index

    corpus = os.path.join(root, "C")
    index = os.path.join(root, "index")
    ray = RaySession()
    try:
        write_corpus(corpus, CORPUS_C)
        build_index(corpus, index, n_partitions=C_PARTITIONS)
    finally:
        ray.close()
    return corpus, index


def reference_answers(root: str, corpus: str, pool: list[dict]) -> dict:
    path = os.path.join(root, "pool.json")
    with open(path, "w") as f:
        json.dump(pool, f)
    return run_reference(["engine", corpus, path, os.path.join(root, "ref.json")])


def same_answer(got_ids, got_scores, got_count, want: dict) -> bool:
    return (
        list(map(int, got_ids)) == want["ids"]
        and list(map(float, got_scores)) == want["scores"]
        and int(got_count) == want["count"]
    )


class Query(Workload):
    name = "query"
    op_timeout = 30.0
    op_block = WARM_PER_COLD + 1  # one warm+cold cycle
    LAYER_UNITS = {
        **{p + k: u for p in ("warm.", "cold.") for k, u in PHASE_LAYERS.items()},
        "cold.search.open_ms": "ms",
    }

    def setup(self) -> None:
        from raysearch.search import IndexSearcher

        self.pool = query_pool(np.random.default_rng(POOL_SEED), POOL, WEIGHTS, CORPUS_C["n_convs"])
        rng = np.random.default_rng(self.seed)
        self.and_idx = [j for j, q in enumerate(self.pool) if q["kind"] == "and"]
        # each pass over the pool (and over its AND part for cold bursts)
        # is a fresh seeded permutation, so every query is asked equally often
        self.seq = np.concatenate([rng.permutation(POOL) for _ in range(256)])
        self.cold_seq = np.concatenate([rng.permutation(self.and_idx) for _ in range(256)])
        t0 = time.perf_counter()
        self.corpus, self.index = build_c_index(self.root)
        self.searcher = IndexSearcher(self.index)
        for j in range(POOL):
            self._ask(self.searcher, j)
        self.setup_s = time.perf_counter() - t0
        self.reset_samples()

    def reference(self) -> None:
        self.ref = reference_answers(self.root, self.corpus, self.pool)

    def reset_samples(self) -> None:
        self.warm_ms: list[float] = []
        self.cold_ms: list[float] = []
        self.open_ms: list[float] = []
        self.answers: list[tuple[int, tuple]] = []
        self.n_warm = self.n_cold = 0
        self.cycle_rates: list[float] = []  # queries/s of each warm+cold cycle
        self._cycle_t0 = None

    def _ask(self, s, j: int) -> tuple:
        q = self.pool[j]
        if q["kind"] == "or":
            ids, scores = s.search_or(q["q"], k=K)
            return ids, scores, len(ids)
        return s.search(q["q"], k=K, scope=q.get("scope"))

    def op(self, i: int) -> None:
        from raysearch.search import IndexSearcher

        pos = i % (WARM_PER_COLD + 1)
        if pos == 0:
            self._cycle_t0 = time.perf_counter()
        if pos < WARM_PER_COLD:
            j = int(self.seq[self.n_warm % len(self.seq)])
            self.n_warm += 1
            if self.tracer is not None:
                self.tracer.prefix = "warm."
            t0 = time.perf_counter()
            out = self._ask(self.searcher, j)
            self.warm_ms.append((time.perf_counter() - t0) * 1e3)
            self.answers.append((j, out))
            return
        if self.tracer is not None:
            self.tracer.prefix = "cold."
        t0 = time.perf_counter()
        s = IndexSearcher(self.index)
        self.open_ms.append((time.perf_counter() - t0) * 1e3)
        for _ in range(COLD_BURST):
            j = int(self.cold_seq[self.n_cold % len(self.cold_seq)])
            self.n_cold += 1
            t0 = time.perf_counter()
            out = self._ask(s, j)
            self.cold_ms.append((time.perf_counter() - t0) * 1e3)
            self.answers.append((j, out))
        if self._cycle_t0 is not None:
            self.cycle_rates.append((WARM_PER_COLD + COLD_BURST) / (time.perf_counter() - self._cycle_t0))

    def check(self) -> None:
        want = self.ref["answers"]
        for j, (ids, scores, count) in self.answers:
            q = self.pool[j]
            self.tally.ok(
                same_answer(ids, scores, count, want[j]),
                f"{q['kind']} {q['q']!r} scope={q.get('scope')}: engine differs from reference",
            )
        self.answers.clear()

    def e2e(self) -> dict:
        lat = self.warm_ms + self.cold_ms
        self.detail = {
            "warm_queries": len(self.warm_ms),
            "cold_queries": len(self.cold_ms),
            "query_p50_ms": median(self.warm_ms),
            "query_p95_ms": pct(self.warm_ms, 95),
            "query_qps": len(self.warm_ms) / (sum(self.warm_ms) / 1e3),
            "cold_p50_ms": median(self.cold_ms),
            "cold_p95_ms": pct(self.cold_ms, 95),
            "cold_open_ms": median(self.open_ms),
            "cycles": len(self.cycle_rates),
        }
        return {
            "work_per_s": (median(self.cycle_rates), "1/s"),
            "p50_ms": (median(lat), "ms"),
            "p95_ms": (pct(lat, 95), "ms"),
        }

    def install_spans(self, tracer) -> None:
        from benchmark.spans import install_engine_spans

        self.tracer = tracer
        install_engine_spans(tracer)

    def layers(self, tracer, n_ops: int) -> dict:
        out = {}
        for phase, n_q in (("warm.", len(self.warm_ms)), ("cold.", len(self.cold_ms))):
            out.update(phase_layers(tracer, phase, max(1, n_q)))
        out["cold.search.open_ms"] = (
            tracer.inclusive("cold.search.open") * 1e3 / max(1, len(self.open_ms)), "ms"
        )
        return out


def phase_layers(tracer, prefix: str, n_q: int) -> dict:
    """Per-query layer figures for spans and counters named ``prefix…``."""
    st = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters

    def ms(name: str) -> float:
        return st.get(prefix + name, 0.0) * 1e3 / n_q

    fetches, decoded = tracer.children_named(prefix + "search.fetch_postings", prefix + "codec.decode")
    cand = c.get(prefix + "scoring.candidates", 0.0)
    values = {
        "lex.split_to_lemmas_ms": ms("lex.split_to_lemmas"),
        "search.query_terms_ms": ms("search.query_terms"),
        "search.search_ms": ms("search.search"),
        "search.search_or_ms": ms("search.search_or"),
        "search.fetch_postings_ms": ms("search.fetch_postings"),
        "search.fetch_postings_calls": fetches / n_q,
        "search.term_cache_hit_ratio": (fetches - decoded) / fetches if fetches else 0.0,
        "search.row_groups_read": c.get(prefix + "search.row_groups_read", 0.0) / n_q,
        "search.row_group_bytes": c.get(prefix + "search.row_group_bytes", 0.0) / n_q,
        "search.row_group_read_ms": ms("search.row_group_read"),
        "codec.decode_ms": ms("codec.decode"),
        "codec.decode_calls": calls.get(prefix + "codec.decode", 0) / n_q,
        "codec.postings_decoded": c.get(prefix + "codec.postings_decoded", 0.0) / n_q,
        "scoring.search_postings_ms": ms("scoring.search_postings"),
        "scoring.candidates": cand / n_q,
        "scoring.results_per_candidate": c.get(prefix + "scoring.results", 0.0) / cand if cand else 0.0,
    }
    return {prefix + k: (values[k], u) for k, u in PHASE_LAYERS.items()}
