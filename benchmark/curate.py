"""``curate``: the Ray Data pipelines over corpus S.  One operation is a
``pipelines.convstats.conv_curation(k=8)`` pass followed by a
``pipelines.sketch.heavy_hitters`` pass, both materialised.  It shares
no hot path with the search engine, so engine changes are predicted
not to move it."""

from __future__ import annotations

import os
import re
import time

from benchmark.common import CORPUS_S, RaySession, median, n_turns, run_reference, write_corpus
from benchmark.harness import Workload
from benchmark.reference import curation_rows, hh_rows


#: "Operator 4 Aggregate: executed in 7.36s", "Operator 2 ReadParquet->…:
#: 4 tasks executed, 4 blocks produced in 0.31s"
_OP_LINE = re.compile(r"^Operator \d+ .*?in ([\d.]+)s\s*$", re.M)


def op_walls(stats: str) -> list[float]:
    """Per-operator wall seconds from ``Dataset.stats()`` text."""
    return [float(x) for x in _OP_LINE.findall(stats)]


def _rows(out) -> list[tuple]:
    """A pipeline's output as plain tuples (Dataset or pandas)."""
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    return list(df.itertuples(index=False, name=None))


class Curate(Workload):
    name = "curate"
    op_timeout = 120.0
    #: per pass
    LAYER_UNITS = {
        "pipelines.convstats.conv_curation_s": "s",
        "pipelines.sketch.heavy_hitters_s": "s",
        "curate.input_rows": "count",
        "curate.curation_rows": "count",
        "curate.heavy_hitter_rows": "count",
        "curate.dataset_ops": "count",
        "curate.dataset_max_op_s": "s",
    }

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.ray = RaySession()
        self.corpus = os.path.join(self.root, "S")
        write_corpus(self.corpus, CORPUS_S)
        self.reset_samples()
        # warm-up: the first Ray Data job in a fresh session starts the
        # workers; a heavy-hitters pass is the cheapest job that does it
        import ray.data as rd

        from raysearch.pipelines.sketch import heavy_hitters

        _rows(heavy_hitters(rd.read_parquet(self.corpus, columns=["text"])))
        self.setup_s = time.perf_counter() - t0
        self.turns = n_turns(CORPUS_S)
        self.reset_samples()

    def reference(self) -> None:
        self.ref = run_reference(["curate", self.corpus, os.path.join(self.root, "ref.json")])

    def reset_samples(self) -> None:
        self.passes: list[tuple[float, float]] = []  # (curation s, heavy-hitter s)
        self.outputs: list[tuple[list, list]] = []
        self.op_walls: list[list[float]] = []
        self.rows = (0, 0)

    def _span(self, name: str):
        import contextlib

        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def op(self, i: int) -> None:
        import ray.data as rd

        from raysearch.pipelines.convstats import conv_curation
        from raysearch.pipelines.sketch import heavy_hitters

        t0 = time.perf_counter()
        with self._span("pipelines.convstats.conv_curation"):
            cur = conv_curation(
                rd.read_parquet(self.corpus, columns=["conv_id", "turn_idx", "role", "text"]), k=8
            ).materialize()
        t1 = time.perf_counter()
        with self._span("pipelines.sketch.heavy_hitters"):
            hh = _rows(heavy_hitters(rd.read_parquet(self.corpus, columns=["text"])))
        t2 = time.perf_counter()
        self.passes.append((t1 - t0, t2 - t1))
        self.outputs.append((_rows(cur), hh))
        self.op_walls.append(op_walls(cur.stats()))

    def check(self) -> None:
        from benchmark.common import digest_rows

        for cur, hh in self.outputs:
            self.rows = (len(cur), len(hh))
            got = (len(cur), digest_rows(curation_rows(cur)), len(hh), digest_rows(hh_rows(hh)))
            c, h = self.ref["curation"], self.ref["heavy_hitters"]
            want = (c["rows"], c["digest"], h["rows"], h["digest"])
            self.tally.ok(got == want, f"pipeline output {got[::2]} rows differs from DuckDB twin {want[::2]}")
        self.outputs.clear()

    def e2e(self) -> dict:
        lat = [(a + b) * 1e3 for a, b in self.passes]
        self.detail = {
            "passes": len(self.passes),
            "curate_turns_per_s": self.turns * len(lat) / (sum(lat) / 1e3),
            "conv_curation_s": median([a for a, _ in self.passes]),
            "heavy_hitters_s": median([b for _, b in self.passes]),
        }
        return {
            "work_per_s": (self.turns * len(lat) / (sum(lat) / 1e3), "1/s"),
            "p50_ms": (median(lat), "ms"),
            # a run has too few operations for any percentile above the
            # median to have ten samples beyond it, so the tail is the median
            "p95_ms": (median(lat), "ms"),
        }

    def install_spans(self, tracer) -> None:
        self.tracer = tracer

    def layers(self, tracer, n_ops: int) -> dict:
        n = max(1, len(self.passes))
        walls = [w for ws in self.op_walls for w in ws]
        return {
            "pipelines.convstats.conv_curation_s": (sum(a for a, _ in self.passes) / n, "s"),
            "pipelines.sketch.heavy_hitters_s": (sum(b for _, b in self.passes) / n, "s"),
            "curate.input_rows": (self.turns, "count"),
            "curate.curation_rows": (self.rows[0], "count"),
            "curate.heavy_hitter_rows": (self.rows[1], "count"),
            "curate.dataset_ops": (len(walls) / n, "count"),
            "curate.dataset_max_op_s": (max(walls, default=0.0), "s"),
        }

    def close(self) -> None:
        if hasattr(self, "ray"):
            self.ray.close()
