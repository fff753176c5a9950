"""Shared query semantics: candidate retrieval + scoring.

Both the Ray engine's ``IndexSearcher`` (search.py) and the
single-process oracle (oracle.py) call EXACTLY these functions; they
differ only in where posting arrays come from (decoded compressed
segments vs an in-memory dict).  Rank-identity (doc_ids AND scores,
BASELINE.json north_rule) therefore reduces to posting-list equality,
and float summation order is pinned here once:
contributions are added term-by-term in (df asc, term asc) order with
float64 arithmetic, docs ascending — identical sequence of IEEE ops in
engine and oracle at any parallelism level (SURVEY §7 hard part (c)).

Reference semantics reproduced (cites into /root/reference):

* stop-lemma prune df/N > 0.95 — SearchServiceImpl.java:161-163 (K2);
  uses the GLOBAL doc count like the reference even for scoped queries.
* rarest-first ordering — SearchServiceImpl.java:166 (K1); the
  reference iterates a HashMap (nondeterministic tie order), our spec
  pins (df asc, term asc).
* conjunctive intersection — SearchServiceImpl.java:133-140 (J2):
  start from the rarest lemma's postings, drop docs absent from each
  further lemma's postings.  The reference does an O(n·m) List.contains
  scan; here it is a vectorized sorted-array intersection.
* reference scorer — SearchServiceImpl.java:96-115 (A4): absolute
  relevance = Σ tf over query lemmas; relevance = abs / max(abs).
* BM25 scorer — the north-star primary: k1=1.2, b=0.75,
  idf = ln((N - df + 0.5)/(df + 0.5) + 1).
* OR mode (no reference analog) — BM25 over the exact union of the
  query lemmas' postings, the same per-term contribution summed over
  the terms a doc holds.
* result order — score desc then doc_id asc (pinned tie-break; the
  reference leaves ties to HashMap order, SearchServiceImpl.java:59,70).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BM25_K1 = 1.2
BM25_B = 0.75
STOP_DF_FRACTION = 0.95


@dataclass
class TermPostings:
    term: str
    df: int  # global document frequency (lexicon)
    doc_ids: np.ndarray  # int64, ascending
    tfs: np.ndarray  # int64, parallel to doc_ids


def order_query_terms(terms_dfs: list[tuple[str, int]], n_docs: int) -> list[str]:
    """K1+K2: drop df/N > 0.95, sort (df asc, term asc).

    ``terms_dfs`` holds (term, df) for query lemmas FOUND in the
    lexicon (missing lemmas are dropped by the caller, mirroring
    SearchServiceImpl.java:157-160).
    """
    kept = [
        (df, t)
        for t, df in terms_dfs
        if n_docs == 0 or df / n_docs <= STOP_DF_FRACTION
    ]
    kept.sort()
    return [t for _, t in kept]


def intersect_postings(
    postings: list[TermPostings],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """J2: conjunctive intersection, rarest-first (list must already be
    in rarest-first order).  Returns (candidate doc_ids ascending,
    per-term tf arrays aligned to candidates, same order as input)."""
    if not postings:
        return np.empty(0, dtype=np.int64), []
    if len(postings) == 1:  # no intersection, tfs already aligned
        return postings[0].doc_ids, [postings[0].tfs]
    cand = postings[0].doc_ids
    for p in postings[1:]:
        if cand.size == 0 or p.doc_ids.size == 0:
            cand = cand[:0]
            break
        # galloping membership test: binary-search cand in the (sorted,
        # unique) posting list — O(|cand| log |postings|)
        pos = np.minimum(
            np.searchsorted(p.doc_ids, cand), p.doc_ids.size - 1
        )
        cand = cand[p.doc_ids[pos] == cand]
    tf_cols = []
    for p in postings:
        pos = np.searchsorted(p.doc_ids, cand)
        tf_cols.append(p.tfs[pos] if cand.size else p.tfs[:0])
    return cand, tf_cols


def bm25_idf(df: int, n_docs: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def precompute_norms(doc_lens: np.ndarray, avg_doc_len: float) -> np.ndarray:
    """Per-doc BM25 length normalization, computed once per index
    (bit-identical to the inline formula in score_candidates)."""
    dl = doc_lens.astype(np.float64)
    return BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / avg_doc_len))


def score_candidates(
    cand: np.ndarray,
    tf_cols: list[np.ndarray],
    postings: list[TermPostings],
    n_docs: int,
    avg_doc_len: float,
    doc_lens: np.ndarray,
    scorer: str = "bm25",
    doc_norms: np.ndarray | None = None,
    doc_offset: int = 0,
) -> np.ndarray:
    """Float64 scores for candidate docs; summation order pinned
    (term-by-term in the given rarest-first order, docs ascending).
    ``doc_norms`` may carry :func:`precompute_norms` output (identical
    IEEE ops, hoisted out of the per-query path); ``doc_offset`` maps
    global doc_ids into a shard-local lens/norms array.

    Scorers: ``bm25``; ``reference`` (tf-sum normalized by the max over
    the candidate set); ``reference_abs`` (tf-sum WITHOUT the
    normalization — the shard-side half of the reference scorer, so a
    distributed merge can divide by the GLOBAL candidate max)."""
    if cand.size == 0:
        return np.empty(0, dtype=np.float64)
    if scorer in ("reference", "reference_abs"):
        # Σ tf (exact integers), normalized by max — SearchServiceImpl.java:96-115
        abs_rank = np.zeros(cand.size, dtype=np.int64)
        for tfs in tf_cols:
            abs_rank += tfs
        if scorer == "reference_abs":
            return abs_rank.astype(np.float64)
        return abs_rank.astype(np.float64) / float(abs_rank.max())
    if scorer != "bm25":
        raise ValueError(f"unknown scorer {scorer!r}")
    if doc_norms is not None:
        norm = doc_norms[cand - doc_offset] if doc_offset else doc_norms[cand]
    else:
        dl = doc_lens[cand - doc_offset].astype(np.float64)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / avg_doc_len))
    scores = np.zeros(cand.size, dtype=np.float64)
    for tfs, p in zip(tf_cols, postings):
        idf = bm25_idf(p.df, n_docs)
        tf = tfs.astype(np.float64)
        scores += idf * ((tf * (BM25_K1 + 1.0)) / (tf + norm))
    return scores


def rank_results(
    cand: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """K3 with pinned tie-break: score desc, doc_id asc; top-k slice.

    ``cand`` ascending ⇒ a stable sort on (-score) yields doc_id-asc
    ties for free.  For k ≪ n an O(n) partition preselects the
    tie-inclusive top slice first — flatnonzero keeps doc-ascending
    order within the slice, so the stable sort over the slice is
    rank-identical to the full sort."""
    if cand.size == 0:
        return cand, scores
    if k == 0:
        # np.partition with kth == len would raise; k=0 is a valid
        # public search() parameter and means "no results"
        return cand[:0], scores[:0]
    if 0 < k < cand.size:
        kth = np.partition(scores, cand.size - k)[cand.size - k]
        idx = np.flatnonzero(scores >= kth)
        order = np.argsort(-scores[idx], kind="stable")[:k]
        return cand[idx][order], scores[idx][order]
    order = np.argsort(-scores, kind="stable")
    if k >= 0:
        order = order[:k]
    return cand[order], scores[order]


def search_postings(
    postings: list[TermPostings],
    n_docs: int,
    avg_doc_len: float,
    doc_lens: np.ndarray,
    k: int = 10,
    scorer: str = "bm25",
    doc_range: tuple[int, int] | None = None,
    doc_norms: np.ndarray | None = None,
    doc_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Full shared query path over already-fetched postings
    (rarest-first order).  ``doc_range=(lo, hi)`` is the optional
    conv-scope filter (J4 analog — doc_ids are conv-contiguous).
    Returns (top doc_ids, scores, total candidate count)."""
    if doc_range is not None:
        lo, hi = doc_range
        scoped = []
        for p in postings:
            i = np.searchsorted(p.doc_ids, lo)
            j = np.searchsorted(p.doc_ids, hi)
            scoped.append(TermPostings(p.term, p.df, p.doc_ids[i:j], p.tfs[i:j]))
        postings = scoped
    cand, tf_cols = intersect_postings(postings)
    scores = score_candidates(
        cand, tf_cols, postings, n_docs, avg_doc_len, doc_lens, scorer,
        doc_norms, doc_offset,
    )
    top_ids, top_scores = rank_results(cand, scores, k)
    return top_ids, top_scores, int(cand.size)


def search_postings_or(
    postings: list[TermPostings],
    n_docs: int,
    doc_norms: np.ndarray,
    k: int = 10,
    doc_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Disjunctive (OR-mode) BM25 top-k over the exact union of the
    postings (rarest-first order): each doc's score is the sum of the
    contributions of the terms it holds, added term by term in the
    given order.  ``doc_norms`` is :func:`precompute_norms` output
    indexed by ``doc_id - doc_offset`` (a shard's range)."""
    if not postings:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    lists = [p.doc_ids for p in postings]
    docs = lists[0] if len(lists) == 1 else np.unique(np.concatenate(lists))
    norm = doc_norms[docs - doc_offset]
    scores = np.zeros(docs.size, dtype=np.float64)
    for p in postings:
        at = np.searchsorted(docs, p.doc_ids)
        idf = bm25_idf(p.df, n_docs)
        tf = p.tfs.astype(np.float64)
        scores[at] += idf * (tf * (BM25_K1 + 1.0)) / (tf + norm[at])
    return rank_results(docs, scores, k)
