"""HTTP serving surface tests (ApiController.java:28-52 analog):
statistics shape, search parity with the in-process searcher, the
reference's exact error strings for start/stop/indexPage misuse, and a
full startIndexing → poll → search lifecycle through subprocess builds."""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
import urllib.request

import pytest

from raysearch.serve import (
    ALREADY_RUNNING_ERROR,
    NOT_RUNNING_ERROR,
    OUT_OF_SCOPE_ERROR,
    EngineServer,
    serve,
)
from raysearch.vocab import LEMMAS


def _get(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as r:
        return json.loads(r.read().decode("utf-8"))


def _post(port: int, path: str) -> dict:
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}", method="POST", data=b"")
    with urllib.request.urlopen(req, timeout=300) as r:
        return json.loads(r.read().decode("utf-8"))


@pytest.fixture(scope="module")
def server(ray_session, tiny_corpus, tmp_path_factory):
    from raysearch.build import build_index

    index = str(tmp_path_factory.mktemp("serveidx") / "idx")
    build_index(tiny_corpus, index, mode="latin", n_partitions=2)
    engine = EngineServer(index, input_dir=tiny_corpus, num_cpus=4)
    httpd = serve(engine, port=0)
    t = threading.Thread(target=httpd.serve_forever, daemon=True)
    t.start()
    yield engine, httpd.server_address[1], index
    httpd.shutdown()


def test_statistics_shape(server):
    engine, port, _ = server
    resp = _get(port, "/api/statistics")
    assert resp["result"] is True
    total = resp["statistics"]["total"]
    assert total["sites"] == 20  # conversations
    assert total["pages"] > 0 and total["lemmas"] > 0
    assert total["indexing"] is False
    detailed = resp["statistics"]["detailed"]
    assert len(detailed) == 20
    item = detailed[0]
    assert {"url", "name", "status", "statusTime", "error", "pages", "tokens", "lemmas"} <= set(item)
    assert item["status"] == "INDEXED" and item["pages"] > 0
    assert total["pages"] == sum(d["pages"] for d in detailed)
    # per-conv distinct lemmas: positive, and bounded by the conv's
    # token total and the global term count
    for d in detailed:
        assert d["lemmas"] is not None and 0 < d["lemmas"] <= d["tokens"]
        assert d["lemmas"] <= total["lemmas"]


def test_search_parity_and_validation(server):
    from raysearch.search import IndexSearcher

    engine, port, index = server
    q = LEMMAS[10]
    got = _get(port, f"/api/search?query={urllib.parse.quote(q)}&limit=5")
    want = IndexSearcher(index).search_response(q, k=5)
    assert got["result"] is True
    assert got["count"] == want["count"]
    assert [d["doc_id"] for d in got["data"]] == [d["doc_id"] for d in want["data"]]
    # empty query → reference wording (SearchServiceImpl.java:36-41)
    bad = _get(port, "/api/search?query=")
    assert bad["result"] is False and "пустой" in bad["error"]
    # scoped search via site param
    from raysearch.gen import conv_name

    scoped = _get(
        port,
        f"/api/search?query={urllib.parse.quote(q)}&limit=5&site={conv_name(3)}",
    )
    assert scoped["result"] is True


def test_stop_without_start_and_bad_conv(server):
    engine, port, _ = server
    stop = _get(port, "/api/stopIndexing")
    assert stop == {"result": False, "error": NOT_RUNNING_ERROR}
    bad = _post(port, "/api/indexConv?conv_id=not-a-conv")
    assert bad == {"result": False, "error": OUT_OF_SCOPE_ERROR}


def test_index_conv_rebuild(server):
    from raysearch.gen import conv_name

    engine, port, index = server
    resp = _post(port, f"/api/indexConv?conv_id={conv_name(3)}")
    assert resp["result"] is True
    # index still serves identical results after the rebuild
    after = _get(port, "/api/statistics")
    assert after["statistics"]["total"]["pages"] > 0
    assert after["statistics"]["total"]["indexing"] is False


def test_routes_answer_while_a_conversation_reindexes(server):
    """While ``/api/indexConv`` refreshes conversations in one thread,
    ``/api/search`` (AND and OR) and ``/api/statistics`` in another
    always answer from a published generation: never "index not
    built", never an error envelope."""
    from raysearch.gen import conv_name

    engine, port, _ = server
    q = urllib.parse.quote(f"{LEMMAS[10]} {LEMMAS[100]}")
    paths = [
        f"/api/search?query={q}&limit=5",
        f"/api/search?query={q}&limit=5&mode=or",
        "/api/statistics",
    ]
    stop, answered, bad = threading.Event(), [], []

    def poll():
        while not stop.is_set():
            path = paths[len(answered) % len(paths)]
            resp = _get(port, path)
            answered.append(path)
            if resp.get("result") is not True:
                bad.append((path, resp))

    before = engine.get_searcher().generation
    t = threading.Thread(target=poll, daemon=True)
    t.start()
    try:
        for conv in (conv_name(5), conv_name(15)):
            assert _post(port, f"/api/indexConv?conv_id={conv}") == {"result": True}
    finally:
        stop.set()
        t.join(timeout=60)
    assert not bad, bad[:3]
    assert len(answered) >= len(paths)
    assert engine.get_searcher().generation != before


def test_start_indexing_lifecycle(ray_session, tiny_corpus, tmp_path_factory):
    index = str(tmp_path_factory.mktemp("serveidx2") / "idx")
    engine = EngineServer(index, input_dir=tiny_corpus, num_cpus=4)
    httpd = serve(engine, port=0)
    port = httpd.server_address[1]
    t = threading.Thread(target=httpd.serve_forever, daemon=True)
    t.start()
    try:
        # nothing built yet: statistics is empty but well-formed
        empty = _get(port, "/api/statistics")
        assert empty["statistics"]["total"]["pages"] == 0
        start = _get(port, "/api/startIndexing")
        assert start == {"result": True}
        again = _get(port, "/api/startIndexing")
        assert again == {"result": False, "error": ALREADY_RUNNING_ERROR}
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            st = _get(port, "/api/statistics")
            if (
                not st["statistics"]["total"]["indexing"]
                and st["statistics"]["total"]["pages"] > 0
            ):
                break
            time.sleep(2)
        else:
            pytest.fail("build did not finish in time")
        q = urllib.parse.quote(LEMMAS[10])
        got = _get(port, f"/api/search?query={q}&limit=3")
        assert got["result"] is True and len(got["data"]) > 0
    finally:
        httpd.shutdown()


def test_malformed_params_get_structured_json(server):
    """Round-3 ADVICE: malformed query params must not kill the
    connection — the handler parses ints defensively (bad value →
    default) and any other escape returns a result/error envelope."""
    engine, port, _ = server
    q = urllib.parse.quote(LEMMAS[3])
    # limit=abc: defensive parse -> default limit, normal response
    got = _get(port, f"/api/search?query={q}&limit=abc&offset=xyz")
    assert got["result"] in (True, False)  # structured JSON either way
    if got["result"]:
        assert len(got["data"]) <= 10  # default limit applied
    # unknown path still enveloped
    got = _get(port, "/api/nosuch")
    assert got == {"result": False, "error": "unknown path /api/nosuch"}


def test_dashboard_page_served(server):
    """GET / returns the self-contained dashboard HTML (the reference
    templates/index.html analog) wired to the same API routes."""
    engine, port, _ = server
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/", timeout=30) as r:
        assert r.headers.get_content_type() == "text/html"
        html = r.read().decode("utf-8")
    for marker in ("/api/statistics", "/api/startIndexing", "/api/search",
                   "Dashboard", "Management", "Search"):
        assert marker in html


def test_or_mode_with_site_rejected(server):
    """mode=or searches the whole index, so a site= scope gets a
    structured error rather than being dropped."""
    from raysearch.gen import conv_name

    _, port, _ = server
    q = urllib.parse.quote(f"{LEMMAS[10]} {LEMMAS[100]}")
    got = _get(port, f"/api/search?query={q}&limit=5&mode=or&site={conv_name(3)}")
    assert got["result"] is False and "site" in got["error"]
    assert _get(port, f"/api/search?query={q}&limit=5&mode=or")["result"] is True


def test_search_rejects_negative_limit_and_offset(server):
    """A negative ``limit`` or ``offset`` on ``/api/search`` is a
    structured error in AND and OR mode alike, never a slice of the
    ranking (a negative limit once returned every candidate)."""
    _, port, _ = server
    q = urllib.parse.quote(f"{LEMMAS[5]} {LEMMAS[10]}")
    for mode in ("and", "or"):
        for params in ("limit=-1", "offset=-3", "limit=-2&offset=-1"):
            got = _get(port, f"/api/search?query={q}&mode={mode}&{params}")
            assert got["result"] is False and "negative" in got["error"], (mode, params)
            assert "data" not in got
        ok = _get(port, f"/api/search?query={q}&mode={mode}&limit=3&offset=2")
        assert ok["result"] is True and len(ok["data"]) == 3


def test_suggest_rejects_negative_limit(server):
    """A negative ``limit`` on ``/api/suggest`` is a structured error,
    never a slice of the ranking (``-1`` once dropped the last
    candidate)."""
    _, port, _ = server
    missp = urllib.parse.quote(LEMMAS[10][:-1] + "zz")
    for limit in (-1, -5):
        got = _get(port, f"/api/suggest?term={missp}&limit={limit}")
        assert got["result"] is False and "negative" in got["error"], limit
        assert "data" not in got
    ok = _get(port, f"/api/suggest?term={missp}&limit=0")
    assert ok["result"] is True and ok["data"] == []
    assert _get(port, f"/api/suggest?term={missp}&limit=5")["result"] is True


def test_or_mode_and_suggest_routes(server):
    """mode=or returns the disjunctive ranking (superset-or-equal
    of the AND results for a multi-term query, equal for one term);
    /api/suggest returns lexicon candidates ranked (d, df desc, term)
    and errors structurally on an empty term."""
    from raysearch.search import IndexSearcher

    engine, port, index = server
    s = IndexSearcher(index)
    q = LEMMAS[10]
    got_or = _get(port, f"/api/search?query={urllib.parse.quote(q)}&limit=5&mode=or")
    assert got_or["result"] is True
    ids_or, _ = s.search_or(q, k=5)
    assert [d["doc_id"] for d in got_or["data"]] == list(ids_or[:5])
    # single-term queries coincide across modes
    got_and = _get(port, f"/api/search?query={urllib.parse.quote(q)}&limit=5")
    assert [d["doc_id"] for d in got_or["data"]] == [
        d["doc_id"] for d in got_and["data"]
    ]
    # suggest: misspell a known lemma by dropping its last char
    term = LEMMAS[10]
    missp = term[:-1] + "zz"
    sug = _get(port, f"/api/suggest?term={urllib.parse.quote(missp)}")
    assert sug["result"] is True
    assert any(d["term"] == term for d in sug["data"])
    ds = [d["d"] for d in sug["data"]]
    assert ds == sorted(ds)
    bad = _get(port, "/api/suggest?term=")
    assert bad["result"] is False
