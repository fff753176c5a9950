"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest benchmark/tests -q      # from the repository root

The traced-run tests start Ray and take a few minutes in total.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, REPO)

from benchmark.common import Tally, digest_rows  # noqa: E402
from benchmark.spans import Tracer  # noqa: E402

#: traced self times must account for this share of the traced loop's wall
#: time; the rest is the benchmark's own client code between calls
COVERAGE_MIN, COVERAGE_MAX = 0.85, 1.02


def run_bench(*args: str, cwd: str = REPO, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(REPO, "benchmark", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


# -- spans ---------------------------------------------------------------------


def test_self_times_partition_the_root_span():
    t = Tracer()
    with t.span("root"):
        time.sleep(0.01)
        with t.span("a"):
            time.sleep(0.02)
            with t.span("b"):
                time.sleep(0.01)
        with t.span("b"):
            time.sleep(0.01)
    st = t.self_times()
    root = t.spans[0]
    assert sum(st.values()) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert st["b"] >= 0.02 and st["a"] >= 0.02 and st["root"] >= 0.01


def test_wrap_records_nesting_and_restores():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    t = Tracer()
    t.wrap(Box, "outer", "outer")
    t.wrap(Box, "inner", "inner", lambda tr, a, kw, out: tr.count("inner.calls"))
    assert Box().outer() == 2
    assert [s[0] for s in t.spans] == ["outer", "inner"]
    assert t.spans[1][3] == 0
    assert t.children_named("outer", "inner") == (1, 1)
    assert t.counters["inner.calls"] == 1
    t.restore()
    Box().outer()
    assert len(t.spans) == 2


# -- output checks reject wrong answers ----------------------------------------


def test_same_answer_rejects_any_difference():
    from benchmark.query import same_answer

    want = {"ids": [3, 1], "scores": [2.5, 1.25], "count": 7}
    assert same_answer(np.array([3, 1]), np.array([2.5, 1.25]), 7, want)
    assert not same_answer(np.array([1, 3]), np.array([2.5, 1.25]), 7, want)
    assert not same_answer(np.array([3, 1]), np.array([2.5, np.nextafter(1.25, 2)]), 7, want)
    assert not same_answer(np.array([3, 1]), np.array([2.5, 1.25]), 8, want)
    assert not same_answer(np.array([3]), np.array([2.5]), 7, want)


def test_serve_check_counts_bad_replies(tmp_path):
    from benchmark.serve import Serve

    w = Serve(str(tmp_path), 0, Tally())
    w.pool = [{"kind": "and", "q": "x"}]
    w.ref = {"answers": [{"ids": [4], "scores": [1.5], "count": 2}]}
    w.reset_samples()
    good = json.dumps({"result": True, "count": 2, "data": [{"doc_id": 4, "relevance": 1.5}]})
    wrong = json.dumps({"result": True, "count": 2, "data": [{"doc_id": 5, "relevance": 1.5}]})
    w.replies = [
        ("and", 0, 200, good.encode()),
        ("and", 0, 200, wrong.encode()),
        ("and", 0, 500, b""),
        ("suggest", -1, 200, b'{"result": false, "error": "x"}'),
        ("statistics", -1, 200, b'{"result": true}'),
    ]
    w.check()
    assert (w.tally.attempted, w.tally.failed) == (5, 3)
    assert w.errors == {"search": 2, "suggest": 1, "statistics": 0}


def test_curate_check_rejects_changed_rows(tmp_path):
    from benchmark.curate import Curate
    from benchmark.reference import curation_rows, hh_rows

    cur = [("c1", 1, "p", "r"), ("c2", 3, "p2", "r2")]
    hh = [("fido", 9)]
    w = Curate(str(tmp_path), 0, Tally())
    w.ref = {
        "curation": {"rows": 2, "digest": digest_rows(curation_rows(cur))},
        "heavy_hitters": {"rows": 1, "digest": digest_rows(hh_rows(hh))},
    }
    w.reset_samples()
    w.outputs = [(list(reversed(cur)), hh), (cur[:1] + [("c2", 3, "p2", "R2")], hh), (cur, [("fido", 8)])]
    w.check()
    assert (w.tally.attempted, w.tally.failed) == (3, 2)


def test_or_reference_matches_naive_scorer(tmp_path):
    """The brute-force OR reference equals a dict-based per-doc sum."""
    import collections

    from raysearch.gen import write_corpus
    from raysearch.oracle import Oracle
    from raysearch.scoring import bm25_idf
    from raysearch.vocab import LEMMAS

    from benchmark.reference import or_topk

    write_corpus(str(tmp_path), n_convs=40, avg_turns=6, avg_tokens=20)
    o = Oracle(str(tmp_path))
    for q in (f"{LEMMAS[3]} {LEMMAS[40]}", f"{LEMMAS[7]} {LEMMAS[2]} {LEMMAS[90]}", "zzzunknown"):
        acc = collections.defaultdict(float)
        for t in o.query_terms(q):
            p = o.postings[t]
            idf = bm25_idf(p.df, o.n_docs)
            for d, tf in zip(p.doc_ids.tolist(), p.tfs.tolist()):
                norm = 1.2 * (1.0 - 0.75 + 0.75 * (o.doc_lens[d] / o.avg_doc_len))
                acc[d] += idf * (tf * 2.2) / (tf + norm)
        want = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        ids, scores = or_topk(o, q)
        assert ids == [d for d, _ in want]
        assert scores == pytest.approx([s for _, s in want], rel=1e-12)


@pytest.fixture
def ray_session():
    import ray

    ray.init(address="local", num_cpus=2, include_dashboard=False, log_to_driver=False)
    yield
    ray.shutdown()


def test_query_loop_flags_a_wrong_engine(tmp_path, monkeypatch, ray_session):
    """Drive the query workload in-process against an engine that drops
    the last hit of every AND result: every such answer must fail."""
    import raysearch.search
    from benchmark import query

    monkeypatch.chdir(REPO)
    monkeypatch.setitem(query.CORPUS_C, "n_convs", 60)
    monkeypatch.setattr(query, "POOL", 24)
    monkeypatch.setattr(query, "build_c_index", lambda root: _small_index(root))
    w = query.Query(str(tmp_path), 5, Tally())
    w.setup()
    w.reference()
    for i in range(40):
        w.op(i)
    w.check()
    assert w.tally.failed == 0 and w.tally.attempted > 0

    real = raysearch.search.IndexSearcher.search

    def drop_last(self, *a, **kw):
        ids, scores, total = real(self, *a, **kw)
        return ids[:-1], scores[:-1], total

    monkeypatch.setattr(raysearch.search.IndexSearcher, "search", drop_last)
    w.reset_samples()
    for i in range(40):
        w.op(i)
    w.check()
    assert w.tally.failed > 0


def _small_index(root: str) -> tuple[str, str]:
    from raysearch.build import build_index
    from raysearch.gen import write_corpus

    corpus, index = os.path.join(root, "C"), os.path.join(root, "index")
    write_corpus(corpus, n_convs=60, avg_turns=16, avg_tokens=60)
    build_index(corpus, index, n_partitions=2)
    return corpus, index


# -- the command itself ----------------------------------------------------------


def test_ray_temp_dir_is_in_the_checkout_and_short(monkeypatch):
    """Ray's sockets live under its temp dir; however deep the checkout,
    the socket path must fit AF_UNIX's 108 bytes and stay in the checkout."""
    from benchmark.common import RAY_TMP_DIR, TMP_DIRNAME

    monkeypatch.chdir(REPO)
    assert os.path.realpath(RAY_TMP_DIR) == os.path.join(os.path.realpath(REPO), TMP_DIRNAME, "ray")
    # "session_YYYY-mm-dd_HH-MM-SS_ffffff_<pid up to 7 digits>"
    session = "session_2000-01-01_00-00-00_000000_4194304"
    assert len(f"{RAY_TMP_DIR}/{session}/sockets/plasma_store") < 108


def test_reference_key_follows_every_input_byte(tmp_path, monkeypatch):
    from benchmark.common import reference_key

    monkeypatch.chdir(REPO)
    corpus = tmp_path / "C"
    corpus.mkdir()
    (corpus / "part-0.parquet").write_bytes(b"abc")
    pool = tmp_path / "pool.json"
    pool.write_text("[]")
    args = ["engine", str(corpus), str(pool)]
    key = reference_key(args)
    assert reference_key(args) == key
    (corpus / "part-0.parquet").write_bytes(b"abd")
    assert reference_key(args) != key
    (corpus / "part-0.parquet").write_bytes(b"abc")
    pool.write_text('[{"kind": "and", "q": "x"}]')
    assert reference_key(args) != key


def test_refuses_to_run_outside_the_repository(tmp_path):
    proc = run_bench("--workload", "query", "--seed", "1", "--seconds", "1", cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_traced_run_emits_every_layer_and_covers_wall_time(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "4", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr[-3000:]
    names = {m["name"] for m in spec()["per_layer"]}
    assert set(result["metrics"]) == names
    from benchmark.run import workloads

    own = workloads()[workload].LAYER_UNITS
    assert any(result["metrics"][n]["value"] for n in own)
    cov = result["metrics"]["trace.coverage"]["value"]
    assert COVERAGE_MIN <= cov <= COVERAGE_MAX, cov


@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "4", "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr[-3000:]
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
