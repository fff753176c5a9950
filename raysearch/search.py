"""Query engine over the merged index (SURVEY.md §3.2 restated).

Replaces the reference's SQL-backed search
(services/SearchServiceImpl.java:33-115: lemma lookups J5, posting
fetch J1, conjunctive intersection J2, per-pair tf lookups J3, tf-sum
scoring A4) with an ``IndexSearcher`` that holds the lexicon and
segment handles once (actor-pool-friendly: construct per actor, reuse
across query batches) and fetches posting rows by their location: the
merge cuts each bucket file into row groups of whole terms (about
``build.POSTING_RG_VALUES`` values each), so a term's rows are one
row slice of one row group.  Opening one reads three tables the merge
wrote — ``lexicon.parquet`` (each row also names the term's bucket,
row group and row range there), ``doclens.parquet`` (doc_id order) and
``conv_offsets.parquet`` — and no posting file.  A posting row holds
its doc ids and tfs as Parquet list columns (doc ids delta-packed), so
a fetch is a two-column row-group read, a row slice and a list
flatten, with no term filter: Parquet's own decoder is the only
posting decode.  A refreshed index adds a delta tier
(``merged/delta/``): the lexicon row also locates the term's rows in
the delta posting file, and the base rows of the docs the delta
re-indexed are masked.  Every fetch takes that one path — base rows
minus masked docs, plus delta rows — and a fresh build's delta is
empty.

The candidate semantics + scorers live in scoring.py and are shared
verbatim with the oracle.  A result's role and snippet text come from
the index's doc store (``merged/docs/``: one doc_id-ordered Arrow IPC
file per committed wave, hard-linked by the merge), memory-mapped on
the first fetch; a doc is a ``searchsorted`` plus a record-batch slice,
not a re-read of the input parquet.  The text is the one committed
with the doc's scores, where the reference re-fetches the live page
(SearchServiceImpl.java:82-94, M9): an input edit shows only after its
partition is rebuilt.  A searcher reads one index generation: it
resolves the ``merged`` link once, at open, and reads every later file
(posting files, doc store, lexicon slices) from that generation's
directory, which no build rewrites.

Posting cache: one byte-bounded LRU keyed by term holds each decoded
posting list.  Both modes score exact sets (reference semantics demand
it for AND — the candidate count is part of the response,
SearchServiceImpl.java:66): conjunctive ``search`` the intersection,
disjunctive ``search_or`` the union of the query terms' lists.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.ipc as ipc
import pyarrow.parquet as pq

from raysearch.build import (
    DOC_BATCH_ROWS,
    DOC_STORE_SCHEMA,
    GENERATIONS,
    INDEX_FORMAT,
    decode_postings,
    published_generation,
    term_bucket,
)
from raysearch.lex import Lexer, validate_query
from raysearch.scoring import (
    TermPostings,
    order_query_terms,
    precompute_norms,
    search_postings,
    search_postings_or,
)
from raysearch.snippet import build_snippet

TERM_CACHE_BYTES = 1 << 30  # decoded doc ids + tfs per searcher
LAZY_BUCKETS = 64  # per-bucket lexicon slices a lazy searcher keeps


#: lexicon columns a searcher reads: a term, its df, its bucket and
#: its base and delta locators (see ``build._LEXICON_SCHEMA``)
_LEX_COLUMNS = [
    "term", "df", "bucket", "rg", "row_lo", "row_hi",
    "delta_rg", "delta_lo", "delta_hi",
]
#: ``_read_row_group``'s name for the delta posting file
DELTA = -1
_NO_ROWS = (np.empty(0, np.int64), np.empty(0, np.int64))


def _pylist(col: pa.ChunkedArray) -> list:
    """Column → Python values; via numpy, ~20x faster than ``to_pylist``
    for the int and string columns an open reads."""
    return col.to_numpy(zero_copy_only=False).tolist()


def _generation(path: str) -> tuple[str, str]:
    """(index dir, generation dir) of an index, its ``merged`` link
    resolved once, or of one of its generations (holds ``meta.json``)."""
    if not os.path.exists(os.path.join(path, "meta.json")):
        return path, published_generation(path)
    gen = os.path.realpath(path)
    root = os.path.dirname(gen)
    if os.path.basename(root) == GENERATIONS:
        root = os.path.dirname(root)
    return root, gen


def _lex_rows(lex: pa.Table) -> list[tuple[int, ...]]:
    """(df, bucket, rg, row_lo, row_hi, delta_rg, delta_lo, delta_hi)
    per lexicon row; delta locator columns left unread are empty."""
    return list(
        zip(
            *(
                _pylist(lex[c]) if c in lex.column_names else itertools.repeat(0)
                for c in _LEX_COLUMNS[1:]
            )
        )
    )


class IndexSearcher:
    """Holds lexicon (with posting locations) + doc-length table;
    stateless across queries, safe to use as a ``map_batches`` actor class.

    It serves the generation (``generation``) that ``index_dir``'s
    ``merged`` link named at open, or ``index_dir`` itself if it is one.

    ``doc_range=(lo, hi)`` builds a SHARD searcher that owns only that
    doc_id range: doc-length/norm arrays are sized to the range
    (predicate-pushdown reads), each decoded posting list is sliced to
    the range (one ``searchsorted``) before it is cached, and every
    search is implicitly range-scoped.  Global statistics (df, n_docs,
    avg_doc_len) stay global, so per-doc scores are identical to an
    unsharded searcher — :class:`ShardedSearcher` merges shard top-ks
    into exactly the single-node ranking."""

    def __init__(
        self,
        index_dir: str,
        doc_range: tuple[int, int] | None = None,
        warm_top_terms: int = 0,
        lazy_lexicon: bool = False,
    ):
        self.index_dir, self.generation = _generation(index_dir)
        gen = self.generation
        with open(os.path.join(gen, "meta.json")) as f:
            self.meta = json.load(f)
        if self.meta.get("format") != INDEX_FORMAT:
            raise ValueError(
                f"{index_dir} has index format {self.meta.get('format')!r}, "
                f"not {INDEX_FORMAT}; rebuild the index"
            )
        self.mode = self.meta["mode"]
        self.lexer = Lexer(self.mode)
        self.n_docs = self.meta["n_docs"]
        self.avg_doc_len = self.meta["avg_doc_len"]
        self.doc_lo, self.doc_hi = doc_range if doc_range else (0, self.n_docs)
        self.buckets = int(self.meta["buckets"])
        self._post_dir = os.path.join(gen, "postings")
        self._delta_path = os.path.join(gen, "delta", "postings.parquet")

        # Lexicon: a term's row is also its posting locator (bucket +
        # row group and row range).  Two regimes:
        #
        # * lazy (shard actors): NOTHING vocab-scale is loaded — a
        #   term's row is point-read from the per-bucket lexicon slice
        #   the merge wrote (term → bucket is a hash); slices are
        #   LRU-cached, so per-actor memory is O(cached_buckets ×
        #   vocab/buckets), flat in global vocabulary.
        # * full: load ``lexicon.parquet`` once; no posting-file reads.
        self._lazy = lazy_lexicon
        self._lex_index: dict[str, int] = {}
        self._lex_terms: list[str] = []
        self._lex_df = np.empty(0, dtype=np.int64)
        self._by_len: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        if self._lazy:
            self._lexparts_dir = os.path.join(gen, "lexparts")
            self._bucket_cache: OrderedDict[int, dict[str, tuple]] = OrderedDict()
        else:
            # an index without a delta tier has only empty delta locators
            lex = pq.read_table(
                os.path.join(gen, "lexicon.parquet"),
                columns=_LEX_COLUMNS if self.meta["delta_docs"] else _LEX_COLUMNS[:6],
            )
            self._lex_terms = _pylist(lex["term"])
            self._lex_df = lex["df"].to_numpy()
            self._lex_rows = _lex_rows(lex)
            self._lex_index = {t: i for i, t in enumerate(self._lex_terms)}
        self._pf_cache: dict[int, pq.ParquetFile] = {}  # by bucket
        # term LRU: repeated queries share terms (Zipf), so decoded
        # postings are kept hot.  Byte-bounded so a searcher over a huge
        # index stays within its actor heap.
        self._term_cache: OrderedDict[str, TermPostings] = OrderedDict()
        self._term_cache_bytes = 0

        # doc lengths (BM25 length normalization) for the owned range
        # only (shards never hold the global array — at 10^12 docs that
        # is the point of sharding); the merge wrote them in doc_id order
        filters = None
        if doc_range:
            filters = [("doc_id", ">=", self.doc_lo), ("doc_id", "<", self.doc_hi)]
        doclens = os.path.join(gen, "doclens.parquet")
        self.doc_lens = pq.read_table(doclens, columns=["doc_len"], filters=filters)[
            "doc_len"
        ].to_numpy()
        self.doc_norms = precompute_norms(self.doc_lens, self.avg_doc_len)
        # the docs of the waves refreshed since the base was merged: the
        # base's postings of these docs are stale, the delta's are not
        self._masked = None
        if self.meta["delta_docs"]:
            ids = pq.ParquetFile(os.path.join(gen, "delta", "masked.parquet"))
            ids = ids.read()["doc_id"].to_numpy()  # sorted
            lo, hi = np.searchsorted(ids, [self.doc_lo, self.doc_hi])
            self._masked = np.zeros(self.doc_hi - self.doc_lo, dtype=bool)
            self._masked[ids[lo:hi] - self.doc_lo] = True

        # serving warm-up: decode the N highest-df posting lists once at
        # startup (they dominate tail latency; everything else is small)
        if warm_top_terms and not self._lazy:
            order = np.argsort(-self._lex_df)[:warm_top_terms]
            for i in order:
                self.fetch_postings(self._lex_terms[int(i)])

        # conv scope ranges (J4 analog) + doc→(conv, turn) inverse
        offsets = pq.read_table(os.path.join(self.index_dir, "conv_offsets.parquet"))
        self._conv_ids = _pylist(offsets["conv_id"])
        self._conv_offsets = offsets["offset"].to_numpy()
        self._conv_turns = offsets["n_turns"].to_numpy()
        self._conv_index = {c: i for i, c in enumerate(self._conv_ids)}
        self._docs: tuple[list, np.ndarray, np.ndarray] | None = None

    # -- lexicon access (lazy per-bucket slices vs full arrays) ------------

    def _bucket_map(self, b: int) -> dict[str, tuple]:
        """term → lexicon row (see ``_lex_rows``) for one bucket,
        LRU-cached.  A bucket without a slice holds no term, but only
        while the generation is there: a retired one raises."""
        hit = self._bucket_cache.get(b)
        if hit is not None:
            self._bucket_cache.move_to_end(b)
            return hit
        out: dict[str, tuple] = {}
        lex_path = os.path.join(self._lexparts_dir, f"lexicon-{b:04d}.arrow")
        if os.path.exists(lex_path):
            lt = ipc.open_file(lex_path).read_all()
            out = dict(zip(_pylist(lt["term"]), _lex_rows(lt)))
        elif not os.path.isdir(self.generation):
            raise FileNotFoundError(f"index generation {self.generation} was retired")
        self._bucket_cache[b] = out
        while len(self._bucket_cache) > LAZY_BUCKETS:
            self._bucket_cache.popitem(last=False)
        return out

    def _lookup(self, term: str) -> tuple[int, ...] | None:
        """A term's lexicon row (see ``_lex_rows``), None if absent."""
        if self._lazy:
            return self._bucket_map(term_bucket(term, self.buckets)).get(term)
        i = self._lex_index.get(term)
        return None if i is None else self._lex_rows[i]

    # -- posting fetch (J1 analog) ----------------------------------------

    def _read_row_group(self, b: int, rg: int) -> pa.Table:
        pf = self._pf_cache.get(b)
        if pf is None:
            path = (
                self._delta_path
                if b == DELTA
                else os.path.join(self._post_dir, f"bucket-{b:04d}.parquet")
            )
            pf = self._pf_cache[b] = pq.ParquetFile(path)
        # the two columns of a row group (whole terms, ~POSTING_RG_VALUES
        # values) are small chunks: Arrow's thread pool costs more than
        # it saves on them
        return pf.read_row_group(rg, columns=["doc_ids", "tfs"], use_threads=False)

    def _rows(self, b: int, rg: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) of rows ``lo:hi`` of row group ``rg`` of a
        posting file, in this searcher's doc range.  A term's rows in a
        file are stored in doc order: the flattened lists ascend."""
        if hi <= lo:
            return _NO_ROWS
        doc_ids, tfs = decode_postings(
            self._read_row_group(b, rg).slice(lo, hi - lo)
        )
        if (self.doc_lo, self.doc_hi) != (0, self.n_docs):
            lo, hi = np.searchsorted(doc_ids, [self.doc_lo, self.doc_hi])
            doc_ids, tfs = doc_ids[lo:hi], tfs[lo:hi]
        return doc_ids, tfs

    def fetch_postings(self, term: str) -> TermPostings | None:
        """The term's decoded posting list (in this searcher's doc
        range), through the term LRU: its base rows without the masked
        docs, with its delta rows inserted in doc order (base and delta
        docs are disjoint)."""
        entry = self._lookup(term)
        if entry is None:
            return None
        hit = self._term_cache.get(term)
        if hit is not None:
            self._term_cache.move_to_end(term)
            return hit
        df, b, rg, row_lo, row_hi, d_rg, d_lo, d_hi = entry
        doc_ids, tfs = self._rows(b, rg, row_lo, row_hi)
        if self._masked is not None and len(doc_ids):
            keep = ~self._masked[doc_ids - self.doc_lo]
            doc_ids, tfs = doc_ids[keep], tfs[keep]
        delta_ids, delta_tfs = self._rows(DELTA, d_rg, d_lo, d_hi)
        if len(delta_ids):
            at = np.searchsorted(doc_ids, delta_ids[[0, -1]])
            if at[0] == at[1]:  # the delta fills one gap: splice it in
                doc_ids, tfs = (
                    np.concatenate((base[: at[0]], delta, base[at[0] :]))
                    for base, delta in ((doc_ids, delta_ids), (tfs, delta_tfs))
                )
            else:  # partitions' doc ranges interleave
                at = np.searchsorted(doc_ids, delta_ids)
                doc_ids = np.insert(doc_ids, at, delta_ids)
                tfs = np.insert(tfs, at, delta_tfs)
        if not len(doc_ids):
            return None
        # copies: a view of the slice would pin the whole row group's
        # buffers, which the cache's byte count would not see
        out = TermPostings(term, df, doc_ids.copy(), tfs.copy())
        self._term_cache[term] = out
        self._term_cache_bytes += doc_ids.nbytes + tfs.nbytes
        while self._term_cache_bytes > TERM_CACHE_BYTES and self._term_cache:
            _, old = self._term_cache.popitem(last=False)
            self._term_cache_bytes -= old.doc_ids.nbytes + old.tfs.nbytes
        return out

    # -- query plan (J5 + K1/K2 analog) -----------------------------------

    def query_terms(self, query: str) -> list[str]:
        lemmas = self.lexer.split_to_lemmas(query)
        found = []
        for t in lemmas:
            entry = self._lookup(t)
            if entry is not None:
                found.append((t, entry[0]))
        return order_query_terms(found, self.n_docs)

    def conv_range(self, conv_id: str) -> tuple[int, int] | None:
        i = self._conv_index.get(conv_id)
        if i is None:
            return None
        lo = int(self._conv_offsets[i])
        return lo, lo + int(self._conv_turns[i])

    # -- search (shared scoring path) -------------------------------------

    def search(
        self,
        query: str,
        k: int = 10,
        scope: str | None = None,
        scorer: str = "bm25",
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(top doc_ids, scores, total candidates) — must be
        rank-identical to Oracle.search on the same corpus."""
        terms = self.query_terms(query)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), 0)
        if not terms:
            return empty
        postings = []
        for t in terms:
            p = self.fetch_postings(t)
            if p is None:
                return empty
            postings.append(p)
        # effective range = conv scope ∩ shard range (either may be absent)
        lo, hi = self.doc_lo, self.doc_hi
        if scope:
            sr = self.conv_range(scope)
            if sr is None:
                return empty
            lo, hi = max(lo, sr[0]), min(hi, sr[1])
            if lo >= hi:
                return empty
        doc_range = None if (lo, hi) == (0, self.n_docs) else (lo, hi)
        return search_postings(
            postings,
            self.n_docs,
            self.avg_doc_len,
            self.doc_lens,
            k=k,
            scorer=scorer,
            doc_range=doc_range,
            doc_norms=self.doc_norms,
            doc_offset=self.doc_lo,
        )

    # -- disjunctive top-k ---------------------------------------------------

    def search_or(self, query: str, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """OR-semantics BM25 top-k over the exact union of the query
        terms' postings in this searcher's doc range
        (``scoring.search_postings_or``)."""
        postings = [
            p for p in map(self.fetch_postings, self.query_terms(query)) if p is not None
        ]
        return search_postings_or(
            postings, self.n_docs, self.doc_norms, k=k, doc_offset=self.doc_lo
        )

    # -- doc fetch (M9 analog: a slice of the committed doc store) --------

    def doc_locate(self, doc_id: int) -> tuple[str, int]:
        """doc_id → (conv_id, turn_idx) via the conv-offset table
        (inverse of the build's dense-rank assignment)."""
        i = int(np.searchsorted(self._conv_offsets, doc_id, side="right")) - 1
        conv = self._conv_ids[i]
        turn = doc_id - int(self._conv_offsets[i])
        if not 0 <= turn < int(self._conv_turns[i]):
            raise KeyError(f"doc_id {doc_id} out of range")
        return conv, int(turn)

    def _doc_store(self) -> tuple[list, np.ndarray, np.ndarray]:
        """(one IPC reader per ``merged/docs`` file, the files' first
        global rows, doc_id → global row), opened on the first fetch:
        the files are memory-mapped, so only the doc_id columns are
        read here."""
        if self._docs is None:
            docs_dir = os.path.join(self.generation, "docs")
            paths = sorted(glob.glob(os.path.join(docs_dir, "*.arrow")))
            readers = [ipc.open_file(pa.memory_map(p)) for p in paths]
            ids = [r.read_all()["doc_id"].to_numpy() for r in readers]
            starts = np.cumsum([0] + [len(i) for i in ids])
            row_of = np.full(self.n_docs, -1, dtype=np.int64)
            if ids:
                row_of[np.concatenate(ids)] = np.arange(starts[-1])
            if starts[-1] != self.n_docs or (row_of < 0).any():
                raise ValueError(f"{docs_dir} does not hold every doc_id once")
            self._docs = (readers, starts, row_of)
        return self._docs

    def fetch_docs(self, doc_ids: list[int]) -> pa.Table:
        """Turn rows (conv_id, turn_idx, role, text, doc_id) for result
        rendering, in request order: each doc is one row sliced out of
        one record batch of its wave's memory-mapped doc store."""
        located = [self.doc_locate(d) for d in doc_ids]
        readers, starts, row_of = self._doc_store()
        rows = row_of[np.asarray(doc_ids, dtype=np.int64)]
        files = np.searchsorted(starts, rows, side="right") - 1
        docs = pa.Table.from_batches(
            [
                readers[f].get_batch(r // DOC_BATCH_ROWS).slice(r % DOC_BATCH_ROWS, 1)
                for f, r in zip(files.tolist(), (rows - starts[files]).tolist())
            ],
            schema=DOC_STORE_SCHEMA,
        )
        return pa.table(
            {
                "conv_id": pa.array([c for c, _ in located], pa.string()),
                "turn_idx": pa.array([t for _, t in located], pa.int32()),
                "role": docs["role"],
                "text": docs["text"],
                "doc_id": docs["doc_id"],
            }
        )

    # -- full response (SearchData analog, dto/search/SearchData.java:6-13) --

    def suggest(self, term: str, max_d: int = 2, limit: int = 5) -> list[dict]:
        """Did-you-mean candidates over the INDEX lexicon — the
        serving-side sibling of ``pipelines.textstats.fuzzy_terms``
        (same ranking: Levenshtein distance asc, df desc, term asc;
        the same batched capped DP, ``dedup._lev_capped_many``).  Only
        terms whose length is within ``max_d`` of the query's can
        qualify, and only those whose code-point histogram is within
        L1 ``2 * max_d`` of the query's (a substitution moves two
        histogram units, an insert or delete one: the bound
        ``dedup.edit_distance_pairs`` prunes with).  So the lexicon is
        grouped by term length once, on first use, with one int16
        histogram per term over the bins any term uses (of 129; 21
        bins, 42 bytes a term, on the latin lexicon), and each request
        runs ONE DP over the survivors of one length window (a numpy
        step per query character over all of them).  In
        lazy-lexicon mode the full lexicon parquet is read then too
        — suggestion is a miss-path feature, not per-query work."""
        from raysearch.pipelines.dedup import _char_hists, _lev_capped_many

        def hists(terms: list[str]) -> np.ndarray:
            # clipping both sides keeps the L1 bound a lower bound
            return np.minimum(_char_hists(terms), np.iinfo(np.int16).max)

        q = term.lower()
        if self._by_len is None:
            if not self._lex_terms:
                lex = pq.read_table(
                    os.path.join(self.generation, "lexicon.parquet"),
                    columns=["term", "df"],
                )
                self._lex_terms = _pylist(lex["term"])
                self._lex_df = lex["df"].to_numpy()
            lens = np.array([len(t) for t in self._lex_terms], dtype=np.int64)
            order = np.argsort(lens, kind="stable")
            term_hists = hists([self._lex_terms[i] for i in order]).astype(np.int16)
            # only the bins some term uses: a query count in any other
            # bin adds to every term's L1 alike
            used = np.flatnonzero(term_hists.any(axis=0))
            self._by_len = (lens[order], order, term_hists[:, used], used)
        lens, order, term_hists, used = self._by_len
        lo, hi = np.searchsorted(lens, [len(q) - max_d, len(q) + max_d + 1])
        q_hist = hists([q])[0]
        l1 = np.abs(term_hists[lo:hi] - q_hist[used]).sum(axis=1) + (
            q_hist.sum() - q_hist[used].sum()
        )
        cand = order[lo:hi][l1 <= 2 * max_d]
        terms = [self._lex_terms[i] for i in cand.tolist()]
        dist = _lev_capped_many(q, terms, max_d)
        out = sorted(
            (int(dist[j]), -int(self._lex_df[cand[j]]), terms[j])
            for j in np.flatnonzero(dist <= max_d).tolist()
        )
        return [
            {"term": t, "d": d, "df": -ndf} for d, ndf, t in out[:limit]
        ]

    def search_response(
        self,
        query: str,
        k: int = 10,
        offset: int = 0,
        scope: str | None = None,
        scorer: str = "bm25",
        mode: str = "and",
    ) -> dict:
        err = validate_query(query, self.mode)
        if err:
            return {"result": False, "error": err}
        if k < 0 or offset < 0:
            return {"result": False, "error": "limit and offset must not be negative"}
        if mode == "or":
            # disjunctive path: BM25 only, whole index.  ``count`` is
            # the number of RETURNED rows, not the union's size: the
            # benchmark's reference answers, the serve check and the
            # ``transcripts_bm25_or`` gate row all pin that count.
            if scope:
                return {
                    "result": False,
                    "error": "mode=or searches the whole index; drop the scope (site=)",
                }
            if scorer != "bm25":
                return {
                    "result": False,
                    "error": f"mode=or supports only the bm25 scorer, not {scorer!r}",
                }
            ids, scores = self.search_or(query, k=offset + k)
            total = int(len(ids))
        else:
            ids, scores, total = self.search(
                query, k=offset + k, scope=scope, scorer=scorer
            )
        ids, scores = ids[offset : offset + k], scores[offset : offset + k]
        docs = self.fetch_docs(ids.tolist())
        query_lemmas = self.query_terms(query)
        data = [
            {
                "conv_id": conv,
                "turn_idx": turn,
                "doc_id": doc_id,
                "role": role,
                "snippet": build_snippet(text, list(query_lemmas), self.lexer),
                "relevance": score,
            }
            for conv, turn, role, text, doc_id, score in zip(
                *(_pylist(docs[c]) for c in docs.column_names), scores.tolist()
            )
        ]
        return {"result": True, "count": total, "data": data}


class ShardedSearcher:
    """Distributed query path: the doc space is split into N contiguous
    ranges, one shard actor per range (each holds ONLY its range's
    doc-length/norm arrays and slices posting lists to its range —
    nothing per-shard scales with global n_docs except the lexicon).
    Per query every shard computes its exact range-scoped result with
    GLOBAL statistics (df, n_docs, avg_doc_len), so merging the shard
    top-ks by (score desc, doc_id asc) reproduces the single-node
    ranking bit-for-bit; candidate counts add because ranges are
    disjoint.  The reference scorer's max-normalization is global, so
    shards return raw tf-sums (``reference_abs``) and the driver
    normalizes by the global candidate max (= max over shard maxima,
    since each shard's top-1 is its max).

    This is the §3.2 restatement at cluster scale: on N nodes each
    shard actor lives near its segment data; query fan-out is one RPC
    per shard, merge is k×N rows on the driver."""

    def __init__(self, index_dir: str, n_shards: int = 4):
        import ray

        # every shard opens the generation published now, however late
        # its actor starts; a lazy lexicon keeps no vocab-scale state
        _, gen = _generation(index_dir)
        with open(os.path.join(gen, "meta.json")) as f:
            n_docs = json.load(f)["n_docs"]
        bounds = np.linspace(0, n_docs, n_shards + 1).astype(int)
        # Ray's default actor needs a CPU to schedule and none to run,
        # so more shards than cluster CPUs still all start
        actor = ray.remote(IndexSearcher)
        self.shards = [
            actor.remote(gen, (int(bounds[i]), int(bounds[i + 1])), lazy_lexicon=True)
            for i in range(n_shards)
        ]
        self.n_shards = n_shards

    def search(
        self,
        query: str,
        k: int = 10,
        scope: str | None = None,
        scorer: str = "bm25",
    ) -> tuple[np.ndarray, np.ndarray, int]:
        import ray

        shard_scorer = "reference_abs" if scorer == "reference" else scorer
        parts = ray.get(
            [s.search.remote(query, k, scope, shard_scorer) for s in self.shards]
        )
        ids = np.concatenate([p[0] for p in parts])
        scores = np.concatenate([p[1] for p in parts])
        total = int(sum(p[2] for p in parts))
        if not len(ids):
            return ids, scores, total
        if scorer == "reference":
            # global max over ALL candidates = max over shard maxima
            # (each shard's rank-1 result is its candidate max)
            scores = scores / max(float(p[1][0]) for p in parts if len(p[1]))
        order = np.lexsort((ids, -scores))[:k]
        return ids[order], scores[order], total

    def search_or(self, query: str, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        import ray

        parts = ray.get([s.search_or.remote(query, k) for s in self.shards])
        ids = np.concatenate([p[0] for p in parts])
        scores = np.concatenate([p[1] for p in parts])
        if not len(ids):
            return ids, scores
        order = np.lexsort((ids, -scores))[:k]
        return ids[order], scores[order]


class SearcherActor:
    """Batch query evaluation stage: ``queries_ds.map_batches(SearcherActor,
    fn_constructor_kwargs={"index_dir": ...}, concurrency=N)`` — the Ray
    restatement of serving queries from a pool of IndexSearchers
    (SURVEY §3.2 step 5).  Input batch columns: query_id, query, scope
    (may be ""), k; output: one row per (query_id, rank)."""

    def __init__(self, index_dir: str, scorer: str = "bm25"):
        self.searcher = IndexSearcher(index_dir)
        self.scorer = scorer

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"query_id": [], "rank": [], "doc_id": [], "score": []}
        ks = batch["k"].to_pylist() if "k" in batch.column_names else None
        scopes = batch["scope"].to_pylist() if "scope" in batch.column_names else None
        for i, (qid, q) in enumerate(
            zip(batch["query_id"].to_pylist(), batch["query"].to_pylist())
        ):
            k = int(ks[i]) if ks else 10
            scope = scopes[i] if scopes and scopes[i] else None
            ids, scores, _ = self.searcher.search(q, k=k, scope=scope, scorer=self.scorer)
            for rank, (d, s) in enumerate(zip(ids.tolist(), scores.tolist())):
                out["query_id"].append(qid)
                out["rank"].append(rank)
                out["doc_id"].append(d)
                out["score"].append(s)
        return pa.table(
            {
                "query_id": pa.array(out["query_id"], pa.int64()),
                "rank": pa.array(out["rank"], pa.int32()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "score": pa.array(out["score"], pa.float64()),
            }
        )
