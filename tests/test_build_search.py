"""End-to-end conformance: Ray engine vs single-process oracle
(SURVEY.md §5 items (d)/(e): rank-identity of doc_ids AND scores for
both scorer modes, across partition counts; per-turn text equality
under stable (conv_id, turn_idx) order)."""

import numpy as np
import pyarrow as pa
import pytest

from raysearch.gen import conv_name
from raysearch.oracle import Oracle
from raysearch.vocab import LEMMA_FORMS, LEMMAS


@pytest.fixture(scope="module")
def built(ray_session, small_corpus, tmp_path_factory):
    from raysearch.build import build_index

    out = str(tmp_path_factory.mktemp("index") / "idx")
    meta = build_index(
        small_corpus, out, mode="latin", n_partitions=4, validate=True
    )
    return small_corpus, out, meta


@pytest.fixture(scope="module")
def searcher(built):
    from raysearch.search import IndexSearcher

    return IndexSearcher(built[1])


@pytest.fixture(scope="module")
def oracle(built):
    return Oracle(built[0], mode="latin")


def _query_set(oracle):
    """FIXTURES.md §2 query-set shapes."""
    rare = next(
        l for l in LEMMAS[400:] if l in oracle.postings and oracle.postings[l].df < 20
    )
    hot = LEMMAS[1]
    pruned = LEMMAS[0]  # df/N > 0.95 on the Zipf corpus → K2-pruned
    inflected = next(
        LEMMA_FORMS[l][1]
        for l in LEMMAS[:50]
        if len(LEMMA_FORMS[l]) > 1 and l in oracle.postings
    )
    return [
        rare,
        hot,
        pruned,
        f"{hot} {rare}",
        f"{rare} {LEMMAS[450]} {LEMMAS[451]}",  # likely empty intersection
        f"{hot} {LEMMAS[10]} {LEMMAS[100]}",  # rarest-first order matters
        f"{hot} unknownzz",  # unknown term dropped
        inflected,
        "",  # empty
    ]


def test_meta_counts(built, oracle):
    meta = built[2]
    assert meta["n_docs"] == oracle.n_docs
    assert meta["total_tokens"] == oracle.total_tokens
    assert meta["avg_doc_len"] == pytest.approx(oracle.avg_doc_len)
    assert meta["n_terms"] == len(oracle.postings)


def test_lexicon_matches_oracle(searcher, oracle):
    want = oracle.lexicon()
    assert set(searcher._lex_terms) == set(want)
    for i, t in enumerate(searcher._lex_terms):
        assert int(searcher._lex_df[i]) == want[t][0], t


def test_postings_match_oracle(searcher, oracle):
    # spot-check hot, medium, rare terms: decoded postings identical
    for t in [LEMMAS[0], LEMMAS[1], LEMMAS[50], LEMMAS[400]]:
        if t not in oracle.postings:
            continue
        got = searcher.fetch_postings(t)
        want = oracle.postings[t]
        assert got.doc_ids.tolist() == want.doc_ids.tolist(), t
        assert got.tfs.tolist() == want.tfs.tolist(), t


def test_rank_identity_both_scorers(searcher, oracle):
    for q in _query_set(oracle):
        for scorer in ["bm25", "reference"]:
            ids_e, sc_e, tot_e = searcher.search(q, k=10, scorer=scorer)
            ids_o, sc_o, tot_o = oracle.search(q, k=10, scorer=scorer)
            assert ids_e.tolist() == ids_o.tolist(), (q, scorer)
            assert sc_e.tolist() == sc_o.tolist(), (q, scorer)  # exact floats
            assert tot_e == tot_o, (q, scorer)


def test_scoped_rank_identity(searcher, oracle):
    scope = conv_name(3)
    for scorer in ["bm25", "reference"]:
        a = searcher.search(LEMMAS[1], k=10, scope=scope, scorer=scorer)
        b = oracle.search(LEMMAS[1], k=10, scope=scope, scorer=scorer)
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()
    assert searcher.search(LEMMAS[1], k=5, scope="conv-none")[2] == 0


def test_doc_lens_match(searcher, oracle):
    assert searcher.doc_lens.tolist() == oracle.doc_lens.tolist()


def _input_rows(corpus: str) -> list[tuple]:
    """(conv_id, turn_idx, role, text) of every input turn, in doc_id
    order (stable (conv_id, turn_idx) order)."""
    import duckdb

    return duckdb.sql(
        f"SELECT conv_id, turn_idx, role, text FROM read_parquet('{corpus}/*.parquet') "
        f"ORDER BY conv_id, turn_idx"
    ).fetchall()


def _doc_rows(searcher) -> list[tuple]:
    docs = searcher.fetch_docs(list(range(searcher.n_docs)))
    assert docs["doc_id"].to_pylist() == list(range(searcher.n_docs))
    return list(
        zip(*(docs[c].to_pylist() for c in ("conv_id", "turn_idx", "role", "text")))
    )


def test_text_equality_invariant(ray_session, small_corpus, tmp_path):
    """Per-turn text byte-identity under stable (conv_id, turn_idx)
    order (BASELINE.json input_hint per-row invariant): every doc's
    conv_id, turn_idx, role and text, at one and three partitions."""
    from raysearch.build import build_index
    from raysearch.search import IndexSearcher

    rows = _input_rows(small_corpus)
    for n_partitions in (1, 3):
        out = str(tmp_path / f"idx{n_partitions}")
        build_index(small_corpus, out, mode="latin", n_partitions=n_partitions)
        assert _doc_rows(IndexSearcher(out)) == rows, n_partitions  # byte-identical


def test_conversation_split_across_partitions_renders(
    ray_session, small_corpus, tmp_path
):
    """A conversation whose turns straddle two input files (so two
    partitions, two doc stores) renders every turn byte-identically."""
    import pyarrow.parquet as pq

    from raysearch.build import build_index
    from raysearch.search import IndexSearcher

    table = pq.read_table(small_corpus).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    convs = table["conv_id"].to_pylist()
    cut = table.num_rows // 2
    while convs[cut - 1] != convs[cut]:
        cut += 1
    corpus = tmp_path / "split"
    corpus.mkdir()
    pq.write_table(table.slice(0, cut), str(corpus / "part-0.parquet"))
    pq.write_table(table.slice(cut), str(corpus / "part-1.parquet"))
    out = str(tmp_path / "idx")
    build_index(str(corpus), out, mode="latin", n_partitions=2)
    s = IndexSearcher(out)
    readers, starts, row_of = s._doc_store()
    assert len(readers) == 2
    lo, hi = s.conv_range(convs[cut])
    assert lo < cut < hi  # the conversation's docs live in both files
    assert _doc_rows(s) == _input_rows(str(corpus))


def test_partition_count_invariance(ray_session, small_corpus, tmp_path, oracle):
    """doc_ids + scores identical under a different partitioning (and
    so bucket) count (SURVEY §4 'Ordering assumptions')."""
    from raysearch.build import build_index
    from raysearch.search import IndexSearcher

    out = str(tmp_path / "idx2")
    build_index(small_corpus, out, mode="latin", n_partitions=7)
    s2 = IndexSearcher(out)
    for q in _query_set(oracle)[:6]:
        a = s2.search(q, k=10)
        b = oracle.search(q, k=10)
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()


def test_bucket_count_follows_build(built, tmp_path, oracle, monkeypatch):
    """The merge has ``max(n_partitions, ceil(input bytes /
    BUCKET_INPUT_BYTES))`` buckets: one per partition on a small input,
    more once the input outgrows them — with the same doc_ids and
    scores — and a partition rebuild keeps the count the index has."""
    import glob
    import math
    import os

    import raysearch.build as build
    from raysearch.search import IndexSearcher

    corpus, index, meta = built
    assert meta["buckets"] == meta["n_partitions"] == 4
    for sub in ("postings/*.parquet", "lexparts/*.arrow"):
        files = glob.glob(os.path.join(index, "merged", sub))
        assert 0 < len(files) <= meta["n_partitions"], sub

    input_bytes = sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(corpus, "*.parquet"))
    )
    monkeypatch.setattr(build, "BUCKET_INPUT_BYTES", input_bytes // 10)
    out = str(tmp_path / "idx_many")
    many = build.build_index(corpus, out, mode="latin", n_partitions=2)
    assert many["buckets"] == math.ceil(input_bytes / (input_bytes // 10)) > 2
    queries = _query_set(oracle)[:6]

    def assert_oracle_identical():
        s = IndexSearcher(out)
        for q in queries:
            a, b = s.search(q, k=10), oracle.search(q, k=10)
            assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()

    assert_oracle_identical()
    monkeypatch.undo()  # the rule would now give 2 buckets
    rebuilt = build.rebuild_partition(corpus, out, partition_id=1)
    assert rebuilt["buckets"] == many["buckets"]
    assert rebuilt["waves_digest"] != many["waves_digest"]
    assert_oracle_identical()


def test_validate_names_duplicated_turn(ray_session, tmp_path):
    """``validate=True`` rejects a corpus holding one (conv_id,
    turn_idx) twice — here split across two input files, so the
    partial aggregates' combine must count both rows — and names the
    conversation."""
    import pyarrow.parquet as pq

    from raysearch.build import build_index

    corpus = tmp_path / "dup"
    corpus.mkdir()
    cols = {"role": ["user", "assistant"], "text": ["hello there", "hi"]}
    pq.write_table(
        pa.table({"conv_id": ["c-a", "c-b"], "turn_idx": [0, 0], **cols}),
        corpus / "part-00000.parquet",
    )
    pq.write_table(
        pa.table({"conv_id": ["c-b", "c-b"], "turn_idx": [1, 1], **cols}),
        corpus / "part-00001.parquet",
    )
    with pytest.raises(ValueError, match="'c-b'"):
        build_index(str(corpus), str(tmp_path / "idx"), validate=True)


def test_search_response_and_snippet(searcher, oracle):
    term = next(
        l
        for l in LEMMAS[5:]
        if l in oracle.postings and oracle.postings[l].df / oracle.n_docs <= 0.95
    )
    resp = searcher.search_response(term, k=5)
    assert resp["result"] and resp["count"] > 0
    assert len(resp["data"]) <= 5
    row = resp["data"][0]
    assert set(row) == {"conv_id", "turn_idx", "doc_id", "role", "snippet", "relevance"}
    assert "<b>" in row["snippet"]
    # M8 validation errors (reference wording)
    assert searcher.search_response("")["result"] is False
    assert searcher.search_response("леопард")["result"] is False  # latin index


@pytest.mark.parametrize("mode", ["and", "or"])
def test_search_response_builds_one_snippet_per_row(searcher, monkeypatch, mode):
    """``search_response`` calls ``build_snippet`` through
    ``raysearch.search``'s own namespace, once per rendered row: the
    name the benchmark's ``snippet.build_snippet`` span wraps."""
    import raysearch.search as search_mod

    real = search_mod.build_snippet
    calls = []

    def counting(text, query_lemmas, lexer):
        calls.append((text, list(query_lemmas)))
        return real(text, query_lemmas, lexer)

    monkeypatch.setattr(search_mod, "build_snippet", counting)
    query = LEMMAS[10] if mode == "and" else f"{LEMMAS[10]} {LEMMAS[100]}"
    resp = searcher.search_response(query, k=7, mode=mode)
    assert resp["result"] and resp["data"]
    assert len(calls) == len(resp["data"])
    assert [row["snippet"] for row in resp["data"]] == [
        real(text, lemmas, searcher.lexer) for text, lemmas in calls
    ]


def _assert_or_matches_brute_force(searcher, oracle, q, k=10):
    """search_or's top-k must equal a naive full OR BM25 scorer over the
    oracle's postings (doc ids exactly, scores to 1e-12)."""
    import collections

    from raysearch.scoring import bm25_idf

    ids, scores = searcher.search_or(q, k=k)
    acc = collections.defaultdict(float)
    for t in oracle.query_terms(q):
        p = oracle.postings[t]
        idf = bm25_idf(p.df, oracle.n_docs)
        for d, tf in zip(p.doc_ids.tolist(), p.tfs.tolist()):
            dl = oracle.doc_lens[d]
            norm = 1.2 * (1.0 - 0.75 + 0.75 * (dl / oracle.avg_doc_len))
            acc[d] += idf * (tf * 2.2) / (tf + norm)
    want = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    got = sorted(zip(ids.tolist(), scores.tolist()), key=lambda kv: (-kv[1], kv[0]))
    assert [d for d, _ in got] == [d for d, _ in want], q
    for (dg, sg), (dw, sw) in zip(got, want):
        assert sg == pytest.approx(sw, rel=1e-12), q


def test_search_or_superset_of_and(searcher, oracle):
    """OR mode: exact per-doc scores must match a naive full OR
    scorer."""
    _assert_or_matches_brute_force(searcher, oracle, f"{LEMMAS[10]} {LEMMAS[100]}")


def test_batch_query_actor(ray_session, built, searcher, oracle):
    import ray.data as rd

    from raysearch.search import SearcherActor

    queries = [LEMMAS[1], LEMMAS[10], f"{LEMMAS[1]} {LEMMAS[10]}"]
    qt = pa.table(
        {
            "query_id": pa.array(range(len(queries)), pa.int64()),
            "query": pa.array(queries, pa.string()),
            "scope": pa.array([""] * len(queries), pa.string()),
            "k": pa.array([10] * len(queries), pa.int32()),
        }
    )
    out = (
        rd.from_arrow(qt)
        .map_batches(
            SearcherActor,
            fn_constructor_kwargs={"index_dir": built[1]},
            batch_format="pyarrow",
            concurrency=2,
        )
        .to_pandas()
    )
    for qid, q in enumerate(queries):
        got = out[out.query_id == qid].sort_values("rank")
        ids_o, sc_o, _ = oracle.search(q, k=10)
        assert got.doc_id.tolist() == ids_o.tolist()
        assert got.score.tolist() == sc_o.tolist()


def test_hot_term_multi_chunk(ray_session, tiny_corpus, tmp_path, oracle):
    """Hot-term skew path: a Zipf-hot term's postings are one row per
    partition flush (four partitions, 64-posting spill budget), and the
    query path (row concat + shard slicing) must stay rank-identical,
    and OR search over the concatenated lists matches brute force."""
    import duckdb

    from raysearch.build import build_index
    from raysearch.search import IndexSearcher, ShardedSearcher

    out = str(tmp_path / "chunked")
    build_index(
        tiny_corpus, out, mode="latin", n_partitions=4, spill_rows=64, read_batch_rows=8
    )
    top = duckdb.sql(
        f"SELECT term, count(*) AS n_rows, sum(len(doc_ids)) AS df FROM "
        f"read_parquet('{out}/merged/postings/*.parquet') "
        f"GROUP BY term ORDER BY df DESC LIMIT 1"
    ).fetchone()
    assert top[1] > 4, "hot term should span several rows per partition"
    s = IndexSearcher(out)
    tiny_oracle = Oracle(tiny_corpus, mode="latin")
    for q in (str(top[0]), LEMMAS[1], f"{LEMMAS[1]} {LEMMAS[10]}"):
        ids_e, sc_e, tot_e = s.search(q, k=10)
        ids_o, sc_o, tot_o = tiny_oracle.search(q, k=10)
        assert ids_e.tolist() == ids_o.tolist(), q
        assert sc_e.tolist() == sc_o.tolist(), q
        assert tot_e == tot_o
    for q in (
        str(top[0]),
        f"{LEMMAS[1]} {LEMMAS[10]}",
        f"{LEMMAS[2]} {LEMMAS[30]} {LEMMAS[60]}",
    ):
        _assert_or_matches_brute_force(s, tiny_oracle, q)
    # sharded searcher across row boundaries
    sh = ShardedSearcher(out, n_shards=2)
    ids_s, sc_s, tot_s = sh.search(str(top[0]), k=10)
    ids_1, sc_1, tot_1 = s.search(str(top[0]), k=10)
    assert ids_s.tolist() == ids_1.tolist()
    assert sc_s.tolist() == sc_1.tolist() and tot_s == tot_1


def test_sharded_searcher_rank_identity(ray_session, built, searcher, oracle):
    """Doc-range shard actors + driver merge must reproduce the
    single-node ranking bit-for-bit (scores, tie-breaks, counts) for
    both scorers, including scoped and OR-mode queries."""
    from raysearch.search import ShardedSearcher

    sharded = ShardedSearcher(built[1], n_shards=3)
    queries = _query_set(oracle)
    for q in queries:
        for scorer in ("bm25", "reference"):
            ids_s, sc_s, tot_s = sharded.search(q, k=10, scorer=scorer)
            ids_1, sc_1, tot_1 = searcher.search(q, k=10, scorer=scorer)
            assert ids_s.tolist() == ids_1.tolist(), (q, scorer)
            assert sc_s.tolist() == sc_1.tolist(), (q, scorer)
            assert tot_s == tot_1, (q, scorer)
    # scoped query through the shard that owns the conversation
    scope = conv_name(3)
    q = next(q for q in queries if q)
    ids_s, sc_s, tot_s = sharded.search(q, k=10, scope=scope)
    ids_1, sc_1, tot_1 = searcher.search(q, k=10, scope=scope)
    assert ids_s.tolist() == ids_1.tolist()
    assert sc_s.tolist() == sc_1.tolist() and tot_s == tot_1
    # OR-mode (exact union per shard, exact merge)
    q2 = f"{LEMMAS[10]} {LEMMAS[100]}"
    ids_s, sc_s = sharded.search_or(q2, k=10)
    ids_1, sc_1 = searcher.search_or(q2, k=10)
    assert ids_s.tolist() == ids_1.tolist()
    assert np.allclose(sc_s, sc_1, rtol=1e-12)


def test_sharded_searcher_more_shards_than_cpus(ray_session, built, searcher, oracle):
    """More shard actors than cluster CPUs still all start and answer
    (a whole-CPU reservation per actor once left the extra shards
    pending forever), and the merged ranking equals the single node's."""
    import ray

    from raysearch.search import ShardedSearcher

    n_shards = int(ray.cluster_resources()["CPU"]) + 2
    sharded = ShardedSearcher(built[1], n_shards=n_shards)
    try:
        q = next(q for q in _query_set(oracle) if q)
        # a bounded wait: a shard that never schedules fails here
        parts = ray.get(
            [s.search.remote(q, 10, None, "bm25") for s in sharded.shards],
            timeout=120,
        )
        assert len(parts) == n_shards
        ids_s, sc_s, tot_s = sharded.search(q, k=10)
        ids_1, sc_1, tot_1 = searcher.search(q, k=10)
        assert ids_s.tolist() == ids_1.tolist()
        assert sc_s.tolist() == sc_1.tolist() and tot_s == tot_1
    finally:
        for s in sharded.shards:
            ray.kill(s)


def test_stats(built):
    from raysearch.stats_api import index_stats

    st = index_stats(built[1])
    assert st["total"]["docs"] == built[2]["n_docs"]
    assert st["total"]["is_indexing"] is False
    assert st["committed_partitions"] == st["n_partitions"] == 4
    assert all("n_postings" in v for v in st["partitions"].values())


def test_conv_lemma_counts_sidecar(built, oracle):
    """``merged/convlex.parquet``, combined from the waves' statistics,
    holds the exact distinct-lemma count per conversation
    (DetailedStatisticsItem lemma analog,
    StatisticsServiceImpl.java:34-70)."""
    import os

    import pyarrow.parquet as pq

    _, out, _ = built
    offsets = pq.read_table(os.path.join(out, "conv_offsets.parquet"))
    conv_ids = offsets["conv_id"].to_pylist()
    got = np.zeros(len(conv_ids), dtype=np.int64)
    t = pq.read_table(os.path.join(out, "merged", "convlex.parquet"))
    got[t["conv_idx"].to_numpy()] = t["lemmas"].to_numpy()
    assert got.sum() > 0
    from collections import Counter

    want: Counter = Counter()
    for tp in oracle.postings.values():
        for conv in {oracle.conv_ids[d] for d in tp.doc_ids}:
            want[conv] += 1
    exp = np.array([want[c] for c in conv_ids], dtype=np.int64)
    assert np.array_equal(got, exp)


def test_suggest_eager_and_lazy_identical(built, searcher):
    """IndexSearcher.suggest ranks (d, df desc, term) and returns the
    identical list from an eager and a lazy-lexicon searcher (the
    lazy path loads the lexicon parquet once on first use)."""
    from raysearch.search import IndexSearcher

    term = searcher._lex_terms[5]
    missp = term + "q"
    eager = searcher.suggest(missp, max_d=2, limit=5)
    assert any(d["term"] == term for d in eager)
    ds = [d["d"] for d in eager]
    assert ds == sorted(ds)
    lazy = IndexSearcher(built[1], lazy_lexicon=True).suggest(
        missp, max_d=2, limit=5
    )
    assert eager == lazy


def test_or_mode_rejects_scope_and_scorer(searcher):
    """mode='or' is BM25 over the whole index: a scope or another scorer
    gets a structured error instead of being silently ignored."""
    q = f"{LEMMAS[10]} {LEMMAS[100]}"
    assert searcher.search_response(q, mode="or")["result"] is True
    for kw in ({"scope": conv_name(3)}, {"scorer": "reference"}):
        resp = searcher.search_response(q, mode="or", **kw)
        assert resp["result"] is False and resp["error"], kw


def test_search_response_or_mode(searcher, oracle):
    """mode='or' routes through search_or: multi-term responses rank
    by the disjunctive scores and count equals returned rows."""
    q = f"{searcher._lex_terms[5]} {searcher._lex_terms[9]}"
    resp = searcher.search_response(q, k=5, mode="or")
    assert resp["result"] is True
    ids, scores = searcher.search_or(q, k=5)
    assert [d["doc_id"] for d in resp["data"]] == list(ids)
    assert resp["count"] == len(resp["data"])
