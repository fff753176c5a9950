"""``scoring.search_postings_or`` (the OR-mode scorer) against a
brute-force union scorer written like ``benchmark/reference.py``
``or_topk``: bit-identical doc ids and float64 scores on random posting
lists, with no Ray and no index."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from raysearch.scoring import (
    BM25_B,
    BM25_K1,
    TermPostings,
    bm25_idf,
    precompute_norms,
    search_postings_or,
)


@st.composite
def or_queries(draw):
    """(postings, n_docs, doc_lens of the range, avg_doc_len, doc_offset, k):
    1–4 terms over a doc range ``[lo, hi)`` of an ``n_docs`` index (a
    shard slice when ``lo > 0``), lists empty to dense, overlapping or
    disjoint, tfs up to 5, and k of 0, below or at least the union."""
    n_docs = draw(st.integers(1, 80))
    lo = draw(st.integers(0, n_docs - 1))
    hi = draw(st.integers(lo + 1, n_docs))
    doc_lens = np.array(
        draw(st.lists(st.integers(1, 40), min_size=hi - lo, max_size=hi - lo)),
        dtype=np.int64,
    )
    avg_doc_len = draw(st.floats(1.0, 40.0))
    n_terms = draw(st.integers(1, 4))
    owner = None
    if draw(st.booleans()):  # disjoint: each doc belongs to at most one term
        owner = draw(
            st.lists(st.integers(-1, n_terms - 1), min_size=hi - lo, max_size=hi - lo)
        )
    postings = []
    for t in range(n_terms):
        if owner is None:
            docs = sorted(draw(st.sets(st.integers(lo, hi - 1), max_size=hi - lo)))
        else:
            docs = [lo + i for i, o in enumerate(owner) if o == t]
        tfs = draw(st.lists(st.integers(1, 5), min_size=len(docs), max_size=len(docs)))
        df = draw(st.integers(len(docs), n_docs))  # global df covers the range's
        postings.append(
            TermPostings(
                f"t{t}", df, np.array(docs, dtype=np.int64), np.array(tfs, dtype=np.int64)
            )
        )
    union = len(set().union(*(p.doc_ids.tolist() for p in postings)))
    k = draw(
        st.one_of(
            st.just(0),
            st.integers(1, max(1, union - 1)),
            st.integers(union, union + 3),
        )
    )
    return postings, n_docs, doc_lens, avg_doc_len, lo, k


def _brute_force(postings, n_docs, doc_lens, avg_doc_len, doc_offset, k):
    docs = np.unique(np.concatenate([p.doc_ids for p in postings]))
    dl = doc_lens[docs - doc_offset].astype(np.float64)
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / avg_doc_len))
    scores = np.zeros(len(docs), dtype=np.float64)
    for p in postings:
        idf = bm25_idf(p.df, n_docs)
        tf = np.zeros(len(docs), dtype=np.float64)
        tf[np.searchsorted(docs, p.doc_ids)] = p.tfs
        hit = tf > 0
        scores[hit] += idf * (tf[hit] * (BM25_K1 + 1.0)) / (tf[hit] + norm[hit])
    order = np.lexsort((docs, -scores))[:k]
    return docs[order].tolist(), scores[order].tolist()


@settings(max_examples=300, deadline=None)
@given(or_queries())
def test_or_scorer_matches_brute_force_union(case):
    postings, n_docs, doc_lens, avg_doc_len, doc_offset, k = case
    ids, scores = search_postings_or(
        postings, n_docs, precompute_norms(doc_lens, avg_doc_len), k, doc_offset
    )
    assert ids.dtype == np.int64 and scores.dtype == np.float64
    want_ids, want_scores = _brute_force(
        postings, n_docs, doc_lens, avg_doc_len, doc_offset, k
    )
    assert ids.tolist() == want_ids
    assert scores.tolist() == want_scores
