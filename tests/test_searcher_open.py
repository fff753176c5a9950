"""The searcher's on-disk layout and the serving paths around it:

* an eager searcher opens in three table reads (lexicon, doc lengths,
  conv offsets) and a lazy one reads one lexicon slice per bucket;
* a shard's doc lengths are the matching slice of the full array;
* a turn missing from the input blanks its own result only;
* ``suggest`` ranks exactly like a scan of the whole lexicon;
* ``trending_terms`` keys do not overflow on a large batch vocabulary.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
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
    b = term_bucket(LEMMAS[10], lazy.buckets)
    entries = lazy._bucket_map(b)
    assert calls == [f"lexicon-{b:04d}.parquet"]
    assert LEMMAS[10] in entries
    lazy._bucket_map(b)  # cached
    assert len(calls) == 1


def test_merged_doclens_cover_every_doc(built):
    """One doc_id-ordered file replaces the per-partition wave files,
    with the same rows."""
    import pyarrow as pa

    merged = pq.read_table(os.path.join(built[1], "merged", "doclens.parquet"))
    waves = pa.concat_tables(
        pq.read_table(p, columns=["doc_id", "doc_len"])
        for p in glob.glob(os.path.join(built[1], "waves", "*", "doclens", "*.parquet"))
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


def test_missing_turn_blanks_only_its_result(ray_session, tiny_corpus, tmp_path):
    """A matched turn deleted from the input after the build renders
    with an empty role and snippet; every other result keeps its own
    text (rows are matched by doc_id, not position)."""
    import pyarrow.compute as pc

    from raysearch.build import build_index
    from raysearch.search import IndexSearcher

    corpus = str(tmp_path / "corpus")
    shutil.copytree(tiny_corpus, corpus)
    index = str(tmp_path / "idx")
    build_index(corpus, index, mode="latin", n_partitions=2)
    s = IndexSearcher(index)
    query = next(
        q for q in (LEMMAS[3], LEMMAS[5], LEMMAS[8], LEMMAS[10])
        if len(s.search(q, k=10)[0]) >= 5
    )
    before = s.search_response(query, k=10)["data"]
    gone = before[2]

    for path in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
        t = pq.read_table(path)
        keep = pc.invert(
            pc.and_(
                pc.equal(t["conv_id"], gone["conv_id"]),
                pc.equal(t["turn_idx"], gone["turn_idx"]),
            )
        )
        if not pc.all(keep).as_py():
            pq.write_table(t.filter(keep), path)
            break
    else:
        raise AssertionError("matched turn not found in the input")

    after = s.search_response(query, k=10)["data"]
    assert [r["doc_id"] for r in after] == [r["doc_id"] for r in before]
    for b, a in zip(before, after):
        if b["doc_id"] == gone["doc_id"]:
            assert a["role"] == "" and a["snippet"] == ""
        else:
            assert a == b


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
