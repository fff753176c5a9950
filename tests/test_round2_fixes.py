"""Regression tests for the round-2 correctness fixes (ADVICE.md):

* sharded ``search_or`` must not lose a shard's results when every
  term's globally-best block lies outside the shard's doc range;
* snippet fallback loop mirrors the reference's aliased-list loop
  (SnippetSearch.java:56-68): ceil(n/2) shrinking attempts, the
  surviving (never reset) lemma list drives the ``<b>`` highlight;
* ``rank_results`` with k=0 returns empty instead of raising;
* ``partitions_of`` returns EVERY partition whose file conv range
  covers the conversation (straddling convs rebuild all of them);
* batch and scalar tokenize paths lower-case identically on
  non-ASCII input (pc.utf8_lower == str.lower).
"""

import json
import os

import numpy as np
import pytest

from raysearch.lex import Lexer
from raysearch.snippet import build_snippet
from raysearch.vocab import LEMMAS

pytest.importorskip("ray")


@pytest.fixture(scope="module")
def built(ray_session, small_corpus, tmp_path_factory):
    from raysearch.build import build_index

    out = str(tmp_path_factory.mktemp("r2idx") / "idx")
    build_index(small_corpus, out, mode="latin", n_partitions=4)
    return small_corpus, out


def test_sharded_or_keeps_out_of_seed_shards(built):
    """ADVICE high: a shard owning none of the globally-best blocks
    used to return empty from search_or.  Every matching doc must
    surface from exactly one shard when k is large enough."""
    from raysearch.oracle import Oracle
    from raysearch.search import IndexSearcher

    corpus, index = built
    oracle = Oracle(corpus, mode="latin")
    single = IndexSearcher(index)
    q = f"{LEMMAS[10]} {LEMMAS[100]}"
    terms = single.query_terms(q)
    assert terms
    union = sorted(
        set().union(*[set(oracle.postings[t].doc_ids.tolist()) for t in terms])
    )
    bounds = np.linspace(0, single.n_docs, 6).astype(int)
    got: list[int] = []
    for i in range(5):
        sh = IndexSearcher(index, doc_range=(int(bounds[i]), int(bounds[i + 1])))
        ids, scores = sh.search_or(q, k=len(union) + 10)
        # scores must be the exact global scores (global stats)
        gids, gscores = single.search_or(q, k=len(union) + 10)
        gmap = dict(zip(gids.tolist(), gscores.tolist()))
        for d, s in zip(ids.tolist(), scores.tolist()):
            assert s == pytest.approx(gmap[d], rel=1e-12)
        got.extend(ids.tolist())
    assert sorted(got) == union  # no shard lost docs, no duplicates


def test_rank_results_k0():
    from raysearch.scoring import rank_results

    cand = np.array([1, 2, 3], dtype=np.int64)
    scores = np.array([0.5, 0.9, 0.1])
    ids, sc = rank_results(cand, scores, 0)
    assert len(ids) == 0 and len(sc) == 0


def test_search_k0(built):
    from raysearch.search import IndexSearcher

    s = IndexSearcher(built[1])
    ids, scores, total = s.search(LEMMAS[10], k=0)
    assert len(ids) == 0 and total >= 0


def test_snippet_fallback_mirrors_reference_loop():
    """SnippetSearch.java:56-68: `lemmaList` ALIASES the query list so a
    2-lemma query gets ONE attempt; the failed query renders the
    [0,20] head window and bolds via the surviving list."""
    lexer = Lexer("simple")
    words = [f"w{i}" for i in range(30)]
    words[25] = "alpha"  # present, but never tried alone (n=2 → 1 attempt)
    text = " ".join(words)
    snip = build_snippet(text, ["alpha", "zzmissing"], lexer)
    rendered = snip.split()
    assert rendered[0] == "w0" and len(rendered) == 21  # head window
    assert "<b>" not in snip  # alpha is outside the window


def test_snippet_single_lemma_total_miss_bolds_nothing():
    """n=1 failure empties the list → reference bolds nothing."""
    lexer = Lexer("simple")
    text = " ".join(f"w{i}" for i in range(25))
    snip = build_snippet(text, ["absent"], lexer)
    assert "<b>" not in snip and snip.startswith("w0 ")


def test_snippet_found_window_still_bolds():
    lexer = Lexer("simple")
    words = [f"w{i}" for i in range(40)]
    words[30] = "alpha"
    words[32] = "beta"
    snip = build_snippet(" ".join(words), ["alpha", "beta"], lexer)
    assert "<b>alpha</b>" in snip and "<b>beta</b>" in snip


def test_batch_scalar_lowercase_identity():
    """U+212A KELVIN SIGN lowers to 'k' in BOTH tokenize paths, so
    index-time and query-time lemmas agree (rank identity)."""
    import pyarrow as pa

    text = "boiling 373K exactly"
    for mode in ("latin", "simple"):
        lexer = Lexer(mode)
        parent, codes, uniq = lexer.token_parent_codes(pa.array([text]))
        batch_tokens = sorted(uniq[codes].tolist())
        scalar_tokens = sorted(lexer.tokenize(text))
        assert batch_tokens == scalar_tokens


def test_partitions_of_straddling_conv(tmp_path):
    """A conv covered by files in two partitions must report both."""
    from raysearch.build import partitions_of

    out = tmp_path / "idx"
    out.mkdir()
    meta = {
        "files": ["a.parquet", "b.parquet", "c.parquet", "d.parquet"],
        "n_partitions": 2,
        "file_ranges": [
            {"path": "a.parquet", "conv_min": "conv-000", "conv_max": "conv-009"},
            {"path": "b.parquet", "conv_min": "conv-009", "conv_max": "conv-019"},
            {"path": "c.parquet", "conv_min": "conv-020", "conv_max": "conv-029"},
            {"path": "d.parquet", "conv_min": "conv-030", "conv_max": "conv-039"},
        ],
    }
    with open(out / "input_meta.json", "w") as f:
        json.dump(meta, f)
    # conv-009 straddles files a (partition 0) and b (partition 1)
    assert partitions_of(str(out), "conv-009") == [0]
    meta["file_ranges"][1]["conv_min"] = "conv-005"
    with open(out / "input_meta.json", "w") as f:
        json.dump(meta, f)
    assert partitions_of(str(out), "conv-009") == [0]  # both files in p0
    # now spread the straddle across the partition boundary
    meta["file_ranges"][2]["conv_min"] = "conv-009"
    with open(out / "input_meta.json", "w") as f:
        json.dump(meta, f)
    assert partitions_of(str(out), "conv-009") == [0, 1]
    with pytest.raises(KeyError):
        partitions_of(str(out), "conv-999")


@pytest.fixture(scope="module")
def dense_index(built, tmp_path_factory):
    """A one-partition (so one-bucket) build that flushes every 512
    postings, so a hot term has many rows (one per flush) and its
    bucket file many row groups."""
    from raysearch.build import build_index

    corpus, _ = built
    out = str(tmp_path_factory.mktemp("r2dense") / "idx")
    build_index(
        corpus, out, mode="latin", n_partitions=1,
        spill_rows=512, read_batch_rows=64,
    )
    return out


def _scan_postings(postings_dir: str) -> dict[str, list[tuple[str, int, int]]]:
    """bucket file → one (term, row group, values) per posting row, in
    file order, from a scan of every row group."""
    import glob

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    scan = {}
    for path in sorted(glob.glob(os.path.join(postings_dir, "*.parquet"))):
        pf = pq.ParquetFile(path)
        rows = scan[os.path.basename(path)] = []
        for rg in range(pf.metadata.num_row_groups):
            t = pf.read_row_group(rg, columns=["term", "doc_ids"])
            n = pc.list_value_length(t["doc_ids"]).to_pylist()
            rows.extend((term, rg, v) for term, v in zip(t["term"].to_pylist(), n))
    return scan


def test_lexicon_row_group_ranges_match_scan(built, dense_index):
    """Each lexicon row's ``(rg, row_lo, row_hi)`` slice of its bucket
    file is exactly the rows a full scan finds the term in — on the
    default build, and on the dense one-bucket build, where a hot
    term's rows fill a long slice."""
    import pyarrow.parquet as pq

    _, index = built
    long_slices = 0
    for idx in (index, dense_index):
        merged = os.path.join(idx, "merged")
        lex = pq.read_table(os.path.join(merged, "lexicon.parquet")).to_pylist()
        scan = _scan_postings(os.path.join(merged, "postings"))
        where: dict[str, list[tuple[str, int, int]]] = {}
        for name, rows in scan.items():
            rg_start = {}
            for i, (term, rg, _) in enumerate(rows):
                rg_start.setdefault(rg, i)
                where.setdefault(term, []).append((name, rg, i - rg_start[rg]))
        assert len(lex) == len(where)
        for row in lex:
            name = f"bucket-{row['bucket']:04d}.parquet"
            span = range(row["row_lo"], row["row_hi"])
            assert where[row["term"]] == [(name, row["rg"], i) for i in span]
            long_slices += len(span) > 1
    assert long_slices  # the dense build exercises multi-row slices


def test_posting_row_groups_hold_whole_terms(dense_index):
    """Every merged bucket file's row groups start at a term start, no
    term spans two of them, and each holds at most
    ``POSTING_RG_VALUES`` values besides its last term's; a term longer
    than that is alone in its row group.  The dense build has row
    groups of several terms and terms of many rows."""
    from raysearch.build import POSTING_RG_VALUES

    scan = _scan_postings(os.path.join(dense_index, "merged", "postings"))
    assert len(scan) == 1
    multi_term_groups = 0
    max_term_rows = 0
    for rows in scan.values():
        groups: dict[int, list[tuple[str, int]]] = {}
        for term, rg, n in rows:
            groups.setdefault(rg, []).append((term, n))
        assert sorted(groups) == list(range(len(groups))) and len(groups) > 1
        seen: set[str] = set()
        for rg in sorted(groups):
            if rg:  # starts at a term start
                assert groups[rg][0][0] != groups[rg - 1][-1][0], rg
            terms = list(dict.fromkeys(t for t, _ in groups[rg]))
            assert not seen & set(terms), rg  # no term spans two groups
            seen |= set(terms)
            values = {t: sum(n for u, n in groups[rg] if u == t) for t in terms}
            assert sum(values.values()) - values[terms[-1]] <= POSTING_RG_VALUES
            if any(v > POSTING_RG_VALUES for v in values.values()):
                assert len(terms) == 1, rg
            multi_term_groups += len(terms) > 1
            for t in terms:
                max_term_rows = max(max_term_rows, sum(u == t for u, _ in groups[rg]))
    assert multi_term_groups and max_term_rows >= 8


def test_lazy_lexicon_shard_state_and_identity(built):
    """lazy_lexicon searchers hold no vocab-scale dicts and return
    bit-identical results to the full searcher."""
    from raysearch.search import LAZY_BUCKETS, IndexSearcher

    _, index = built
    full = IndexSearcher(index)
    lazy = IndexSearcher(index, lazy_lexicon=True)
    assert lazy._lazy
    assert not lazy._lex_index and not lazy._lex_terms  # nothing global
    for q in (LEMMAS[10], f"{LEMMAS[10]} {LEMMAS[100]}", LEMMAS[1], "unknownzz"):
        i1, s1, t1 = full.search(q, k=10)
        i2, s2, t2 = lazy.search(q, k=10)
        assert i1.tolist() == i2.tolist()
        assert s1.tolist() == s2.tolist() and t1 == t2
        o1 = full.search_or(q, k=10)
        o2 = lazy.search_or(q, k=10)
        assert o1[0].tolist() == o2[0].tolist()
    # bucket cache is bounded
    assert len(lazy._bucket_cache) <= LAZY_BUCKETS
