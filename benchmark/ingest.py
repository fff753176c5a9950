"""``ingest``: the write path.  Pairs of single-conversation refreshes
alternate with full ``build_index`` runs of corpus C into fresh
directories; a refresh is ``rebuild_partition(conv_id=…)`` followed by
opening an ``IndexSearcher``, the state a server is in after it picks up
the new index.  No query code runs."""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np

from benchmark.common import (
    C_PARTITIONS,
    CORPUS_C,
    RaySession,
    dir_bytes,
    lexicon_digest,
    median,
    n_turns,
    run_reference,
    write_corpus,
)
from benchmark.harness import Workload

STAGES = ("setup", "partition_build", "merge", "lexicon")


class Ingest(Workload):
    name = "ingest"
    op_timeout = 90.0
    #: two refreshes and one full build: a refresh takes about half a
    #: build, and refresh_p50 over two refreshes a run spread by 0.20
    op_block = 3
    #: per full build (build.*) or per refresh (refresh.*, search.open_ms)
    LAYER_UNITS = {
        **{f"build.{st}_s": "s" for st in STAGES},
        "build.partition_skew": "ratio",
        "build.tokens": "count",
        "build.postings": "count",
        "build.flushes": "count",
        "build.segment_bytes": "bytes",
        "build.index_bytes": "bytes",
        **{f"refresh.{st}_s": "s" for st in STAGES[1:]},
        "search.open_ms": "ms",
    }

    def setup(self) -> None:
        from raysearch.build import build_index

        t0 = time.perf_counter()
        self.ray = RaySession()
        self.corpus = os.path.join(self.root, "C")
        write_corpus(self.corpus, CORPUS_C)
        # the first build in a fresh Ray session pays worker start-up;
        # it is set-up, and its index is the one refreshes rewrite
        self.index = os.path.join(self.root, "index")
        self.base = build_index(self.corpus, self.index, n_partitions=C_PARTITIONS)
        self.setup_s = time.perf_counter() - t0
        self.turns = n_turns(CORPUS_C)
        self.digest = lexicon_digest(self.index)
        self.rng = np.random.default_rng(self.seed)
        self.refresh_convs: list[str] = []
        self._last_pids: list[int] = []
        self.n_refreshed = 0
        self.reset_samples()

    def reference(self) -> None:
        pool = os.path.join(self.root, "pool.json")
        with open(pool, "w") as f:
            json.dump([], f)
        ref = run_reference(["engine", self.corpus, pool, os.path.join(self.root, "ref.json")])
        got = (self.base["n_docs"], self.base["total_tokens"], self.digest)
        want = (ref["n_docs"], ref["total_tokens"], ref["lexicon_digest"])
        self.tally.ok(got == want, f"setup build lexicon {got[:2]} != reference {want[:2]}")

    def reset_samples(self) -> None:
        self.builds: list[tuple[float, dict, str]] = []  # (seconds, meta, index dir)
        self.refreshes: list[tuple[float, float, dict, str]] = []  # (s, open s, meta, conv)

    def _conv(self, j: int) -> str:
        """The j-th conversation to refresh: seeded, and never in the
        partition refreshed just before.  ``build_index`` skips the merge
        when the wave list is unchanged, so refreshing one partition twice
        in a row costs a sixth of a refresh; a stream of edits spread over
        the corpus re-merges every time."""
        from raysearch.build import partitions_of
        from raysearch.gen import conv_name

        while len(self.refresh_convs) <= j:
            conv = conv_name(int(self.rng.integers(0, CORPUS_C["n_convs"])))
            pids = partitions_of(self.index, conv)
            if pids != self._last_pids:
                self.refresh_convs.append(conv)
                self._last_pids = pids
        return self.refresh_convs[j]

    def op(self, i: int) -> None:
        from raysearch.build import build_index, rebuild_partition
        from raysearch.search import IndexSearcher

        if i % 3 == 2:
            out = os.path.join(self.root, f"build-{i}")
            t0 = time.perf_counter()
            meta = build_index(self.corpus, out, n_partitions=C_PARTITIONS)
            dt = time.perf_counter() - t0
            self._check_index(out, meta, f"build {i}")
            self._record_build(out, meta, dt)
        else:
            # counted across passes, so the traced pass refreshes new
            # conversations instead of repeating the last partition
            conv = self._conv(self.n_refreshed)
            self.n_refreshed += 1
            t0 = time.perf_counter()
            meta = rebuild_partition(self.corpus, self.index, conv_id=conv)
            t1 = time.perf_counter()
            IndexSearcher(self.index)
            t2 = time.perf_counter()
            self._check_index(self.index, meta, f"refresh {conv}")
            self.refreshes.append((t2 - t0, t2 - t1, meta, conv))

    def _check_index(self, index: str, meta: dict, what: str) -> None:
        got = (meta["n_docs"], meta["total_tokens"], lexicon_digest(index))
        want = (self.base["n_docs"], self.base["total_tokens"], self.digest)
        self.tally.ok(got == want, f"{what}: lexicon differs from the set-up build")

    def _record_build(self, out: str, meta: dict, dt: float) -> None:
        """Keep the build's on-disk facts, then drop the directory."""
        parts = []
        for m in glob.glob(os.path.join(out, "waves", "*", "manifest.json")):
            with open(m) as f:
                parts.extend(json.load(f)["per_partition"].values())
        facts = {
            "stage_times": meta["stage_times"],
            "parts": parts,
            "segment_bytes": sum(
                os.path.getsize(p)
                for p in glob.glob(os.path.join(out, "waves", "*", "segments", "*.parquet"))
            ),
            "index_bytes": dir_bytes(os.path.join(out, "merged")),
        }
        self.builds.append((dt, facts, out))
        shutil.rmtree(out, ignore_errors=True)

    def e2e(self) -> dict:
        build_s = sum(b[0] for b in self.builds)
        lat = [r[0] * 1e3 for r in self.refreshes]
        self.detail = {
            "builds": len(self.builds),
            "refreshes": len(self.refreshes),
            "build_turns_per_s": self.turns * len(self.builds) / build_s,
            "refresh_p50_ms": median(lat),
            "refresh_ms": lat,
            "build_s": [b[0] for b in self.builds],
            "index_bytes_per_turn": self.builds[0][1]["index_bytes"] / self.turns,
        }
        return {
            "work_per_s": (self.turns * len(self.builds) / build_s, "1/s"),
            "p50_ms": (median(lat), "ms"),
            # a run has too few operations for any percentile above the
            # median to have ten samples beyond it, so the tail is the median
            "p95_ms": (median(lat), "ms"),
        }

    def layers(self, tracer, n_ops: int) -> dict:
        out = {}
        nb = max(1, len(self.builds))
        for st in STAGES:
            out[f"build.{st}_s"] = (sum(b[1]["stage_times"].get(st, 0.0) for b in self.builds) / nb, "s")
        skews, tokens, postings, flushes = [], 0, 0, 0
        for _, facts, _ in self.builds:
            bs = [p["build_s"] for p in facts["parts"]]
            skews.append(max(bs) / median(bs))
            tokens += sum(p["n_tokens"] for p in facts["parts"])
            postings += sum(p["n_postings"] for p in facts["parts"])
            flushes += sum(p["n_flushes"] for p in facts["parts"])
        out["build.partition_skew"] = (median(skews) if skews else 0.0, "ratio")
        out["build.tokens"] = (tokens / nb, "count")
        out["build.postings"] = (postings / nb, "count")
        out["build.flushes"] = (flushes / nb, "count")
        out["build.segment_bytes"] = (sum(b[1]["segment_bytes"] for b in self.builds) / nb, "bytes")
        out["build.index_bytes"] = (sum(b[1]["index_bytes"] for b in self.builds) / nb, "bytes")
        nr = max(1, len(self.refreshes))
        for st in ("partition_build", "merge", "lexicon"):
            out[f"refresh.{st}_s"] = (
                sum(r[2]["stage_times"].get(st, 0.0) for r in self.refreshes) / nr, "s"
            )
        out["search.open_ms"] = (sum(r[1] for r in self.refreshes) * 1e3 / nr, "ms")
        return out

    def install_spans(self, tracer) -> None:
        import raysearch.build
        import raysearch.search

        tracer.wrap(raysearch.build, "build_index", "build.build_index")
        tracer.wrap(raysearch.build, "rebuild_partition", "build.rebuild_partition")
        tracer.wrap(raysearch.search.IndexSearcher, "__init__", "search.open")

    def close(self) -> None:
        if hasattr(self, "ray"):
            self.ray.close()
