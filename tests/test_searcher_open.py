"""The searcher's on-disk layout and the serving paths around it:

* an eager searcher opens in three table reads (lexicon, doc lengths,
  conv offsets) and a lazy one reads one lexicon slice per bucket;
* a shard's doc lengths and cached posting lists are the matching
  slices of the full searcher's, and cached lists own their memory;
* a result's text is the committed snapshot, not the live input, a
  searcher opened before a refresh keeps serving its own generation,
  and a warm response reads no parquet file;
* ``suggest`` ranks exactly like a scan of the whole lexicon;
* ``trending_terms`` keys do not overflow on a large batch vocabulary.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raysearch.vocab import LEMMAS

pytest.importorskip("ray")


@pytest.fixture(scope="module")
def built(ray_session, small_corpus, tmp_path_factory):
    from raysearch.build import build_index

    out = str(tmp_path_factory.mktemp("open_idx") / "idx")
    build_index(small_corpus, out, mode="latin", n_partitions=4)
    return small_corpus, out


def _count_reads(monkeypatch) -> list[str]:
    calls: list[str] = []
    orig = pq.read_table

    def counting(source, *args, **kwargs):
        calls.append(os.path.basename(str(source)))
        return orig(source, *args, **kwargs)

    monkeypatch.setattr(pq, "read_table", counting)
    return calls


def test_eager_open_reads_three_tables(built, monkeypatch):
    from raysearch.search import IndexSearcher

    calls = _count_reads(monkeypatch)
    IndexSearcher(built[1])
    assert sorted(calls) == ["conv_offsets.parquet", "doclens.parquet", "lexicon.parquet"]


def test_lazy_bucket_slice_is_one_read(built, monkeypatch):
    from raysearch.build import term_bucket
    from raysearch.search import IndexSearcher

    lazy = IndexSearcher(built[1], lazy_lexicon=True)
    calls = _count_reads(monkeypatch)
    orig = pa.ipc.open_file

    def counting(source, *args, **kwargs):
        calls.append(os.path.basename(str(source)))
        return orig(source, *args, **kwargs)

    monkeypatch.setattr(pa.ipc, "open_file", counting)
    b = term_bucket(LEMMAS[10], lazy.buckets)
    entries = lazy._bucket_map(b)
    assert calls == [f"lexicon-{b:04d}.arrow"]
    assert LEMMAS[10] in entries
    lazy._bucket_map(b)  # cached
    assert len(calls) == 1


def test_merged_doclens_cover_every_doc(built):
    """One doc_id-ordered file replaces the per-partition wave files,
    with the same rows."""
    import pyarrow as pa

    merged = pq.read_table(os.path.join(built[1], "merged", "doclens.parquet"))
    waves = pa.concat_tables(
        pa.ipc.open_file(p).read_all()
        for p in glob.glob(os.path.join(built[1], "waves", "*", "doclens.arrow"))
    ).sort_by("doc_id")
    assert merged["doc_id"].to_numpy().tolist() == list(range(merged.num_rows))
    assert merged.equals(waves)


def test_shard_doc_lens_are_full_slice(built):
    from raysearch.search import IndexSearcher

    full = IndexSearcher(built[1])
    n = full.n_docs
    for lo, hi in ((0, n // 3), (n // 3, n - 7), (n - 7, n)):
        for lazy in (False, True):
            shard = IndexSearcher(built[1], doc_range=(lo, hi), lazy_lexicon=lazy)
            assert np.array_equal(shard.doc_lens, full.doc_lens[lo:hi])
            assert np.array_equal(shard.doc_norms, full.doc_norms[lo:hi])


def test_shard_caches_only_its_doc_range(built):
    """Every posting list a shard caches is the full searcher's list
    cut to ``[doc_lo, doc_hi)``; a term with no doc in the range is not
    cached at all."""
    from raysearch.search import IndexSearcher

    full = IndexSearcher(built[1])
    n = full.n_docs
    terms = full._lex_terms[::7]
    for lo, hi in ((0, n // 3), (n // 3, n - 7), (n - 7, n)):
        for lazy in (False, True):
            shard = IndexSearcher(built[1], doc_range=(lo, hi), lazy_lexicon=lazy)
            for t in terms:
                shard.fetch_postings(t)
            assert shard._term_cache
            for t in terms:
                want = full.fetch_postings(t)
                keep = (want.doc_ids >= lo) & (want.doc_ids < hi)
                got = shard._term_cache.get(t)
                if not keep.any():
                    assert got is None, t
                    continue
                assert lo <= got.doc_ids[0] and got.doc_ids[-1] < hi
                assert got.doc_ids.tolist() == want.doc_ids[keep].tolist(), t
                assert got.tfs.tolist() == want.tfs[keep].tolist(), t
                assert got.df == want.df


def test_term_cache_owns_its_arrays(built):
    """Cached posting lists are copies, not views of the row group they
    were sliced from (a view would pin the whole row group while the
    cache counts only the term), so ``_term_cache_bytes`` is what the
    cache holds — for the full searcher and a shard alike."""
    from raysearch.search import IndexSearcher

    full = IndexSearcher(built[1])
    n = full.n_docs
    for searcher in (full, IndexSearcher(built[1], doc_range=(n // 3, n - 7))):
        for t in full._lex_terms[::5]:
            searcher.fetch_postings(t)
        entries = list(searcher._term_cache.values())
        assert len(entries) > 100
        for e in entries:
            for arr in (e.doc_ids, e.tfs, e.block_max):
                assert arr.flags.owndata, e.term
        assert searcher._term_cache_bytes == sum(
            e.doc_ids.nbytes + e.tfs.nbytes + e.block_max.nbytes for e in entries
        )


def _edit_turn(corpus: str, conv_id: str, turn_idx: int, text: str) -> None:
    """Replace one turn's text in the input, in place."""
    import pyarrow as pa
    import pyarrow.compute as pc

    for path in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
        t = pq.read_table(path)
        hit = pc.and_(pc.equal(t["conv_id"], conv_id), pc.equal(t["turn_idx"], turn_idx))
        if pc.any(hit).as_py():
            i = t.schema.get_field_index("text")
            new = pc.if_else(hit, pa.scalar(text, t.schema.field(i).type), t["text"])
            pq.write_table(t.set_column(i, t.schema.field(i), new), path)
            return
    raise AssertionError("turn not found in the input")


def test_result_text_is_the_committed_snapshot(ray_session, tiny_corpus, tmp_path):
    """A result's text is the one committed with its scores: an input
    edit after the build changes no response (snippet included), a
    wave evicted under an open searcher keeps its text there, and a
    refresh of the conversation moves snippet and score together."""
    from raysearch.build import (
        build_index,
        evict_partition,
        partitions_of,
        rebuild_partition,
    )
    from raysearch.search import IndexSearcher
    from raysearch.snippet import build_snippet

    corpus = str(tmp_path / "corpus")
    shutil.copytree(tiny_corpus, corpus)
    index = str(tmp_path / "idx")
    build_index(corpus, index, mode="latin", n_partitions=2)
    s = IndexSearcher(index)
    query = next(
        q for q in (LEMMAS[3], LEMMAS[5], LEMMAS[8], LEMMAS[10])
        if len(s.search(q, k=10)[0]) >= 5
    )
    before = s.search_response(query, k=10)
    hit = before["data"][2]
    old_text = s.fetch_docs([hit["doc_id"]])["text"][0].as_py()
    new_text = f"quokka {query} {old_text} {query}"
    _edit_turn(corpus, hit["conv_id"], hit["turn_idx"], new_text)

    assert s.search_response(query, k=10) == before
    assert IndexSearcher(index).search_response(query, k=10) == before

    # evict the edited turn's wave under two open searchers, one whose
    # doc store is already mapped and one that maps it afterwards
    unmapped = IndexSearcher(index)
    for pid in partitions_of(index, hit["conv_id"]):
        assert evict_partition(index, pid) is not None
    for searcher in (s, unmapped):
        assert searcher.fetch_docs([hit["doc_id"]])["text"][0].as_py() == old_text
        assert searcher.search_response(query, k=10) == before

    rebuild_partition(corpus, index, conv_id=hit["conv_id"])
    assert s.fetch_docs([hit["doc_id"]])["text"][0].as_py() == old_text
    fresh = str(tmp_path / "fresh")
    build_index(corpus, fresh, mode="latin", n_partitions=2)
    after = IndexSearcher(index).search_response(query, k=10)
    assert after == IndexSearcher(fresh).search_response(query, k=10)
    row = next(r for r in after["data"] if r["doc_id"] == hit["doc_id"])
    assert row["relevance"] > hit["relevance"]
    assert row["snippet"] == build_snippet(new_text, s.query_terms(query), s.lexer)
    assert row["snippet"] != hit["snippet"]


def test_searcher_serves_its_generation_across_a_refresh(
    ray_session, tiny_corpus, tmp_path
):
    """A searcher opened before a refresh keeps serving the generation
    it opened: ``search``, ``fetch_docs`` and a lazy-lexicon ``search``
    return its pre-refresh doc ids, float64 scores and text, although
    their first reads of the posting files, doc store and lexicon
    slices come after the ``merged`` link moved on.  A searcher opened
    after the refresh serves the edit."""
    from raysearch.build import build_index, rebuild_partition
    from raysearch.gen import conv_name
    from raysearch.search import IndexSearcher

    corpus = str(tmp_path / "corpus")
    shutil.copytree(tiny_corpus, corpus)
    index = str(tmp_path / "idx")
    build_index(corpus, index, mode="latin", n_partitions=2)
    eager = IndexSearcher(index)
    lazy = IndexSearcher(index, lazy_lexicon=True)
    doc = eager.conv_range(conv_name(0))[0]
    queries = [LEMMAS[10], f"{LEMMAS[5]} {LEMMAS[40]}", "quokka"]
    # the pre-refresh answers, read in full before the refresh
    ref = IndexSearcher(index)
    want = {q: ref.search(q) for q in queries}
    want_text = ref.fetch_docs([doc])["text"][0].as_py()
    _edit_turn(corpus, conv_name(0), 0, f"EDITED quokka {LEMMAS[10]}")
    rebuild_partition(corpus, index, conv_id=conv_name(0))
    assert eager.fetch_docs([doc])["text"][0].as_py() == want_text
    for q in queries:
        for s in (eager, lazy):
            ids, scores, total = s.search(q)
            assert ids.tolist() == want[q][0].tolist(), q
            assert scores.tolist() == want[q][1].tolist(), q
            assert total == want[q][2], q
    assert not len(want["quokka"][0])
    fresh = IndexSearcher(index)
    assert fresh.generation != eager.generation == lazy.generation
    assert fresh.fetch_docs([doc])["text"][0].as_py() == f"EDITED quokka {LEMMAS[10]}"
    assert fresh.search("quokka")[0].tolist() == [doc]
    assert fresh.search(LEMMAS[10])[1].tolist() != want[LEMMAS[10]][1].tolist()


def test_warm_search_response_reads_no_parquet(built, monkeypatch):
    """Once a query's postings are cached and the doc store is mapped,
    rendering its results opens and reads no parquet file."""
    from raysearch.search import IndexSearcher

    s = IndexSearcher(built[1])
    queries = [(LEMMAS[10], "and"), (f"{LEMMAS[10]} {LEMMAS[30]}", "or")]
    want = [s.search_response(q, k=10, mode=m) for q, m in queries]
    assert all(w["data"] for w in want)
    calls: list[str] = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on a warm request")

        return record

    monkeypatch.setattr(pq, "read_table", forbidden("read_table"))
    monkeypatch.setattr(pq, "ParquetFile", forbidden("ParquetFile"))
    assert [s.search_response(q, k=10, mode=m) for q, m in queries] == want
    assert calls == []


def _suggest_brute_force(s, term: str, max_d: int, limit: int) -> list[dict]:
    """The ranking over every lexicon term (distance asc, df desc,
    term asc) with no length grouping."""
    from raysearch.pipelines.dedup import _lev_capped

    q = term.lower()
    out = []
    for t, df in zip(s._lex_terms, s._lex_df):
        d = _lev_capped(q, t, max_d)
        if d <= max_d:
            out.append((d, -int(df), t))
    out.sort()
    return [{"term": t, "d": d, "df": -ndf} for d, ndf, t in out[:limit]]


def test_suggest_matches_full_lexicon_scan(built):
    from raysearch.search import IndexSearcher

    s = IndexSearcher(built[1])
    lazy = IndexSearcher(built[1], lazy_lexicon=True)
    probes = ["", "a", "zz", "unknownzz", "Q" + s._lex_terms[0]]
    for t in s._lex_terms[::181]:
        probes += [t, t + "q", t[:-1], t[1:], t[::-1], t[:2] + "x" + t[3:]]
    for max_d in (1, 2):
        for q in probes:
            ranked = _suggest_brute_force(s, q, max_d, len(s._lex_terms))
            for limit in (5, 1000):
                want = ranked[:limit]
                assert s.suggest(q, max_d=max_d, limit=limit) == want, (q, max_d)
                assert lazy.suggest(q, max_d=max_d, limit=limit) == want, (q, max_d)


def test_trending_terms_large_batch_vocabulary(ray_session):
    """One batch with 6,000 distinct terms at 2026 dates: the (day,
    term) key must not wrap, so every count equals a pandas groupby."""
    import pandas as pd
    import ray.data as rd

    from raysearch.pipelines.convstats import trending_terms

    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = [
        "w" + letters[i // 676] + letters[i // 26 % 26] + letters[i % 26]
        for i in range(6000)
    ]
    t0 = np.datetime64("2026-10-17T09:30", "us")
    day = np.timedelta64(86_400_000_000, "us")
    ev = pd.DataFrame(
        {
            "text": [" ".join(vocab), " ".join(vocab[:3000] * 2), "wbbb wccc"],
            "ts": [t0, t0 + day, t0 + 2 * day + np.timedelta64(3, "h")],
        }
    )
    got = trending_terms(rd.from_pandas(ev), k=10_000).to_pandas()
    tokens = ev.assign(term=ev["text"].str.split(), day=ev["ts"].dt.floor("D"))
    want = tokens.explode("term").groupby(["day", "term"]).size()
    assert len(want) == 9002
    rows = sorted(zip(got["day"].astype("datetime64[ns]"), got["term"], got["n"]))
    assert rows == [(d, t, n) for (d, t), n in want.items()]
