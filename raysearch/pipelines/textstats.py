"""Text-analysis operators over a (doc_id, text) table.

Every operator here has a deliberately SQL-expressible definition
(simple-mode tokenizer = DuckDB ``regexp_split_to_array(lower(text),
'[^a-z0-9]+')``), so the driver's DuckDB oracle can verify the Ray
pipeline end-to-end; the __ray_entry__ module carries the matching SQL.
These mirror the reference's tokenize/df/tf semantics (M2/A1/A2 in
SURVEY §2) minus lemmatization and stop words, which live in the
transcripts engine path.

All stages are vectorized: Arrow string kernels for tokenize, numpy
unique/bincount for counting, one small groupby for the wide step.
Floating aggregates that cross engines are rounded to 4 decimals so
IEEE summation-order differences cannot flip the comparison.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.lex import Lexer
from raysearch.util import round_half_away

#: fixed stop list for quality metrics — mirrored verbatim in oracle SQL
QUALITY_STOPWORDS = ("the", "a", "of", "and", "or", "in", "on", "to")
_STOPSET = frozenset(QUALITY_STOPWORDS)


class _TokenizeBatch:
    """Actor-pool stage: (doc_id, text) batch → exploded (doc_id, term,
    tf) with per-doc partial aggregation (A1 analog)."""

    def __init__(self):
        self.lexer = Lexer("simple")

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        parent, terms = self.lexer.token_parent_pairs(batch["text"])
        if not len(terms):
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                }
            )
        codes, uniq = pd.factorize(terms)
        key = parent.astype(np.int64) * len(uniq) + codes
        ukeys, counts = np.unique(key, return_counts=True)
        rows = ukeys // len(uniq)
        ucodes = ukeys % len(uniq)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[rows], pa.int64()),
                "term": pa.array(uniq[ucodes], pa.string()),
                "tf": pa.array(counts, pa.int64()),
            }
        )


_STAGE_CACHE: dict[str, object] = {}


def _cached(cls):
    """Per-worker cached stage instance: the state (a table lexer) is
    tiny, so task-based map_batches with worker-process caching beats
    an actor pool's cold-start ramp (see SURVEY §8)."""
    inst = _STAGE_CACHE.get(cls.__name__)
    if inst is None:
        inst = _STAGE_CACHE[cls.__name__] = cls()
    return inst


def _tokenize_task(batch: pa.Table) -> pa.Table:
    return _cached(_TokenizeBatch)(batch)


def _metrics_task(batch: pa.Table) -> pa.Table:
    return _cached(_DocMetrics)(batch)


def tokenize_docs(ds):
    """documents Dataset → exploded (doc_id, term, tf)."""
    return ds.map_batches(_tokenize_task, batch_format="pyarrow")


def term_df(ds):
    """term → document frequency (A2 analog, one small groupby over
    per-doc partials)."""
    from ray.data.aggregate import Count

    return (
        tokenize_docs(ds)
        .groupby("term")
        .aggregate(Count(alias_name="df"))
    )


def doc_postings(ds):
    """(term, doc_id, tf) exploded postings — the `index` table analog."""
    return tokenize_docs(ds)


def doc_stats(ds):
    """Single-row corpus stats (A3 analog): n_docs, n_tokens, avg_doc_len."""
    import ray.data as rd

    n_docs = ds.count()
    tok = tokenize_docs(ds)
    from ray.data.aggregate import Sum

    total = tok.aggregate(Sum("tf", alias_name="n_tokens"))["n_tokens"] or 0
    return rd.from_items(
        [
            {
                "n_docs": n_docs,
                "n_tokens": int(total),
                "avg_doc_len": (int(total) / n_docs) if n_docs else 0.0,
            }
        ]
    )


class _DocMetrics:
    """Per-doc text metrics in one vectorized pass: token count,
    distinct terms, stop-word ratio, quality score, language guess,
    fingerprint.  Quality formula (mirrored in oracle SQL):
    q = round(0.5*min(1, n_tokens/100) + 0.3*(distinct/n_tokens)
              + 0.2*(1 - stop_ratio), 4).
    Language guess is a stop-word-ratio heuristic (n-gram-free langid
    stand-in): 'en' when stop_ratio > 0.05 else 'unk'."""

    def __init__(self):
        self.lexer = Lexer("simple")

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        parent, codes, uniq = self.lexer.token_parent_codes(batch["text"])
        n_tokens, distinct, stop_ratio, quality = quality_metrics_from_codes(
            parent, codes, uniq, n
        )
        lang = np.where(stop_ratio > 0.05, "en", "unk")
        fp = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "distinct_terms": pa.array(distinct, pa.int64()),
                "stop_ratio": pa.array(round_half_away(stop_ratio, 4), pa.float64()),
                "quality": pa.array(quality, pa.float64()),
                "lang_guess": pa.array(lang, pa.string()),
                "fingerprint": pa.array(fp, pa.string()),
            }
        )


def quality_metrics_from_codes(
    parent: np.ndarray, codes: np.ndarray, uniq, nrows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quality metrics from an already-tokenized batch
    (``token_parent_codes`` output): ``(n_tokens, distinct_terms,
    stop_ratio_raw, quality_4dp)``.  Shared by :class:`_DocMetrics`
    and the curation pipeline's fused single-tokenize first pass so
    both compute bit-identical keep decisions.  ``stop_ratio_raw`` is
    UNROUNDED (the langid heuristic compares it at full precision);
    round to 4 dp for output parity with the oracle."""
    n_tokens = np.bincount(parent, minlength=nrows).astype(np.int64)
    if len(codes):
        stop_uniq = np.array([t in _STOPSET for t in uniq], dtype=np.int64)
        n_stop = np.bincount(
            parent, weights=stop_uniq[codes], minlength=nrows
        ).astype(np.int64)
        pairs = np.unique(parent.astype(np.int64) * len(uniq) + codes)
        distinct = np.bincount(pairs // len(uniq), minlength=nrows).astype(
            np.int64
        )
    else:
        n_stop = np.zeros(nrows, dtype=np.int64)
        distinct = np.zeros(nrows, dtype=np.int64)
    nt = n_tokens.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        stop_ratio = np.where(n_tokens > 0, n_stop / nt, 0.0)
        distinct_ratio = np.where(n_tokens > 0, distinct / nt, 0.0)
    quality = round_half_away(
        0.5 * np.minimum(1.0, nt / 100.0)
        + 0.3 * distinct_ratio
        + 0.2 * (1.0 - stop_ratio),
        4,
    )
    return n_tokens, distinct, stop_ratio, quality


def quality_keep_mask(
    n_tokens: np.ndarray,
    quality_4dp: np.ndarray,
    stop_ratio_4dp: np.ndarray,
    *,
    min_tokens: int,
    min_quality: float,
    max_stop_ratio: float,
) -> np.ndarray:
    """The :func:`quality_filter` keep rule on integer-scaled (×10⁴)
    4-dp metrics — shared so the fused curation pass and the
    standalone operator can never diverge on a last-ulp rounding."""
    q_thr = int(round(min_quality * 10000))
    s_thr = int(round(max_stop_ratio * 10000))
    qi = np.rint(quality_4dp * 10000)
    si = np.rint(stop_ratio_4dp * 10000)
    return (n_tokens >= min_tokens) & (qi >= q_thr) & (si <= s_thr)


def doc_metrics(ds):
    """Per-doc analysis table (token counting, quality scoring, langid
    heuristic, md5 fingerprint) — one actor-pool pass."""
    return ds.map_batches(_metrics_task, batch_format="pyarrow")


#: GPT-2-style pre-tokenizer chunks (simplified to RE2 so the DuckDB
#: oracle uses the IDENTICAL pattern): optional leading space + letter
#: run | digit run | punctuation run
BPE_ISH_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"


def token_counts(ds):
    """Per-doc token counts two ways — whitespace tokens and BPE-ish
    pre-tokenizer chunks — in ONE vectorized Arrow regex pass per
    column (`count_substring_regex`), no Python per row."""

    def count(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "ws_tokens": pc.cast(
                    pc.count_substring_regex(batch["text"], r"\S+"), pa.int64()
                ),
                "bpe_tokens": pc.cast(
                    pc.count_substring_regex(batch["text"], BPE_ISH_PATTERN),
                    pa.int64(),
                ),
            }
        )

    return ds.map_batches(count, batch_format="pyarrow")


class _RepetitionStats:
    """Per-doc Gopher-style bigram repetition metrics in one
    vectorized pass: ``n_bigrams``, ``top_bigram_frac`` (most frequent
    token bigram's share) and ``dup_bigram_frac`` (share of bigram
    instances that are repeats) — the standard repeated-content
    filters for training-data curation (line-level variants are
    degenerate here: the corpus has no newlines).

    All counting is batch-global numpy: per-doc bigram keys are
    factorized once, (doc, bigram) counts come from one ``np.unique``
    and per-doc max/distinct from segment ``reduceat`` — no Python
    loop over rows or tokens."""

    def __init__(self):
        self.lexer = Lexer("simple")

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        parent, codes, _uniq = self.lexer.token_parent_codes(batch["text"])
        nb = np.zeros(n_rows, np.int64)
        mx = np.zeros(n_rows, np.int64)
        dc = np.zeros(n_rows, np.int64)
        if len(parent) > 1:
            valid = parent[1:] == parent[:-1]
            bg_parent = parent[:-1][valid].astype(np.int64)
            if len(bg_parent):
                # factorize bigrams first so the (doc, bigram) key
                # stays within int64 regardless of vocab size
                first, second = codes[:-1][valid], codes[1:][valid]
                pair = first.astype(np.int64) * (int(codes.max()) + 1) + second
                bgs = np.unique(pair, return_inverse=True)[1]
                n_bg = int(bgs.max()) + 1
                combo = bg_parent * n_bg + bgs
                ukeys, counts = np.unique(combo, return_counts=True)
                rows = ukeys // n_bg
                starts = np.unique(rows, return_index=True)
                nb += np.bincount(bg_parent, minlength=n_rows)
                mx[starts[0]] = np.maximum.reduceat(counts, starts[1])
                dc += np.bincount(rows, minlength=n_rows)
        safe = np.maximum(nb, 1).astype(np.float64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bigrams": pa.array(nb, pa.int64()),
                "top_bigram_frac": pa.array(
                    round_half_away(mx / safe, 4), pa.float64()
                ),
                "dup_bigram_frac": pa.array(
                    round_half_away((nb - dc) / safe, 4), pa.float64()
                ),
            }
        )


def _repetition_task(batch: pa.Table) -> pa.Table:
    return _cached(_RepetitionStats)(batch)


def repetition_stats(ds):
    """documents Dataset → per-doc bigram repetition metrics (streaming
    map_batches, zero shuffle)."""
    return ds.map_batches(_repetition_task, batch_format="pyarrow")


class _LexicalDiversity:
    """Per-doc lexical-diversity statistics in one vectorized pass:
    ``n_tokens``, ``n_types`` (distinct terms), ``n_hapax`` (terms
    occurring exactly once) and the floor-scaled integer ratios
    ``ttr_q = (n_types * 10^9) // n_tokens`` (type-token ratio) and
    ``hapax_q = (n_hapax * 10^9) // n_tokens`` — classic
    vocabulary-richness signals used to flag templated / boilerplate
    documents in training-data curation (low TTR = repetitive
    machine-generated text; high hapax share = noisy OCR / gibberish).

    Integer floor-division outputs end-to-end, so rows are
    bit-identical across any batch / parallelism split.  Counting
    strategy mirrors :class:`_RepetitionStats`: one ``np.unique`` over
    the factorized (doc, term) key, per-doc reductions via
    ``bincount`` — no Python loop over rows or tokens.  Extends the
    reference's per-doc token accounting (Lexicon.java:31-44 doc
    length / distinct-term bookkeeping) with the richness ratios the
    reference never surfaces."""

    def __init__(self):
        self.lexer = Lexer("simple")

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        parent, codes, _uniq = self.lexer.token_parent_codes(batch["text"])
        nt = np.zeros(n_rows, np.int64)
        ty = np.zeros(n_rows, np.int64)
        hx = np.zeros(n_rows, np.int64)
        if len(parent):
            nt += np.bincount(parent, minlength=n_rows)
            v = int(codes.max()) + 1
            combo = parent.astype(np.int64) * v + codes
            ukeys, counts = np.unique(combo, return_counts=True)
            rows = (ukeys // v).astype(np.int64)
            ty += np.bincount(rows, minlength=n_rows)
            hx += np.bincount(rows[counts == 1], minlength=n_rows)
        safe = np.maximum(nt, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(nt, pa.int64()),
                "n_types": pa.array(ty, pa.int64()),
                "n_hapax": pa.array(hx, pa.int64()),
                "ttr_q": pa.array(ty * 1_000_000_000 // safe, pa.int64()),
                "hapax_q": pa.array(hx * 1_000_000_000 // safe, pa.int64()),
            }
        )


def _lexdiv_task(batch: pa.Table) -> pa.Table:
    return _cached(_LexicalDiversity)(batch)


def lexical_diversity(ds):
    """documents Dataset → per-doc lexical-diversity metrics (streaming
    map_batches, zero shuffle — scales linearly in corpus size)."""
    return ds.map_batches(_lexdiv_task, batch_format="pyarrow")


#: one past the max Unicode codepoint — the (doc, char) factorize base
_CODEPOINT_BASE = 0x110000


class _CharEntropy:
    """Per-doc character-level Shannon entropy (natural log), the
    cheap screen for binary junk, repeated-character spam and
    encoding damage that token-level metrics miss (a doc of one
    repeated character has entropy 0; uniform noise approaches
    ln(alphabet)).

    Order-proof float protocol (the :func:`js_divergence` idiom): each
    distinct character's contribution ``p·ln(1/p)`` is rounded to an
    integer at 10⁹ scale BEFORE the per-doc sum, so the result is
    bit-identical across any batch / parallelism split and across the
    DuckDB twin (same double ops verbatim).  Entropy is intrinsically
    per-row here — each doc's chars live in its own row — so the stage
    is a zero-shuffle streaming ``map_batches``; counting is
    batch-global numpy (one ``np.unique`` over the factorized
    (doc, codepoint) key, segment ``reduceat`` / ``bincount``
    reductions, no Python loop over rows or characters)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        texts = batch["text"].to_pylist()
        lens = np.array([len(t) for t in texts], dtype=np.int64)
        nc = lens.copy()
        dc = np.zeros(n_rows, np.int64)
        ent = np.zeros(n_rows, np.int64)
        total = int(lens.sum())
        if total:
            parent = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
            codes = np.frombuffer(
                "".join(texts).encode("utf-32-le"), dtype=np.uint32
            ).astype(np.int64)
            combo = parent * _CODEPOINT_BASE + codes
            ukeys, counts = np.unique(combo, return_counts=True)
            rows = (ukeys // _CODEPOINT_BASE).astype(np.int64)
            dc += np.bincount(rows, minlength=n_rows)
            s = lens[rows].astype(np.float64)
            n = counts.astype(np.float64)
            qi = round_half_away(
                (n / s) * np.log(s / n) * 1000000000.0, 0
            ).astype(np.int64)
            starts = np.unique(rows, return_index=True)
            ent[starts[0]] = np.add.reduceat(qi, starts[1])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(nc, pa.int64()),
                "n_distinct_chars": pa.array(dc, pa.int64()),
                "entropy_qi9": pa.array(ent, pa.int64()),
            }
        )


def _char_entropy_task(batch: pa.Table) -> pa.Table:
    return _cached(_CharEntropy)(batch)


def char_entropy(ds):
    """documents Dataset → per-doc character-entropy metrics
    (streaming map_batches, zero shuffle — linear in corpus bytes)."""
    return ds.map_batches(_char_entropy_task, batch_format="pyarrow")


def char_entropy_sql(table: str = "documents") -> str:
    """DuckDB twin of :func:`char_entropy` (same double ops, same
    per-character 10⁹ integer scaling before the per-doc sum)."""
    return (
        f"WITH ch AS (SELECT doc_id, substring(text, u.i, 1) AS c "
        f"FROM {table}, unnest(generate_series(1, length(text))) AS u(i)), "
        "cnt AS (SELECT doc_id, c, count(*) AS n FROM ch GROUP BY 1, 2), "
        "tot AS (SELECT doc_id, sum(n) AS s, count(*) AS d "
        "FROM cnt GROUP BY 1), "
        "contrib AS (SELECT cnt.doc_id, CAST(round("
        "(cnt.n * 1.0 / t.s) * ln(t.s * 1.0 / cnt.n) * 1000000000.0, 0) "
        "AS BIGINT) AS qi FROM cnt JOIN tot t USING (doc_id)), "
        "agg AS (SELECT doc_id, sum(qi) AS e FROM contrib GROUP BY 1) "
        "SELECT d.doc_id, CAST(length(d.text) AS BIGINT) AS n_chars, "
        "CAST(coalesce(t.d, 0) AS BIGINT) AS n_distinct_chars, "
        "CAST(coalesce(a.e, 0) AS BIGINT) AS entropy_qi9 "
        f"FROM {table} d LEFT JOIN tot t USING (doc_id) "
        "LEFT JOIN agg a USING (doc_id) ORDER BY d.doc_id"
    )


def lexical_diversity_sql(table: str = "documents") -> str:
    """DuckDB twin of :func:`lexical_diversity` (integer floor
    division ``//`` matches numpy's, so the scaled ratios are exact)."""
    return (
        "WITH tok AS (SELECT doc_id, t.term FROM (SELECT doc_id, "
        "unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) t WHERE t.term <> ''), "
        "tf AS (SELECT doc_id, term, count(*) AS c FROM tok GROUP BY 1, 2), "
        "agg AS (SELECT doc_id, sum(c) AS nt, count(*) AS ty, "
        "sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS hx FROM tf GROUP BY 1) "
        "SELECT d.doc_id, CAST(coalesce(a.nt, 0) AS BIGINT) AS n_tokens, "
        "CAST(coalesce(a.ty, 0) AS BIGINT) AS n_types, "
        "CAST(coalesce(a.hx, 0) AS BIGINT) AS n_hapax, "
        "CAST(coalesce((a.ty * 1000000000) // a.nt, 0) AS BIGINT) AS ttr_q, "
        "CAST(coalesce((a.hx * 1000000000) // a.nt, 0) AS BIGINT) AS hapax_q "
        f"FROM {table} d LEFT JOIN agg a USING(doc_id) ORDER BY d.doc_id"
    )


def quality_topfrac(ds, frac: float):
    """Adaptive quality filter: keep (approximately, ties included)
    the TOP ``frac`` share of docs by quality score — the
    percentile-threshold curation pattern, where the cut adapts to the
    corpus instead of a hand-tuned constant.

    Two passes, text tokenized ONCE: pass 1 computes per-doc metrics
    (:func:`doc_metrics`) projected to an integer-scaled quality
    ``qi = round(quality·10⁴)`` and MATERIALIZED (16 B/doc — object
    store, spillable); the threshold is ``quantile_disc(qi, 1-frac)``
    via the domain-bounded histogram (:func:`profile.exact_quantiles`
    — qi has ≤ 10⁴ distinct values by construction), and pass 2 is a
    vectorized filter over the materialized qi table.  Keeps
    ``qi >= threshold`` — deterministic, SQL-reproducible tie
    semantics.  Output ``(doc_id, qi)`` sorted by doc_id."""
    from raysearch.pipelines.profile import exact_quantiles

    def qi_col(b: pa.Table) -> pa.Table:
        qi = np.rint(
            b["quality"].to_numpy(zero_copy_only=False) * 10000
        ).astype(np.int64)
        return pa.table({"doc_id": b["doc_id"], "qi": pa.array(qi, pa.int64())})

    qtab = doc_metrics(ds).map_batches(qi_col, batch_format="pyarrow").materialize()
    thr_rows = exact_quantiles(qtab, "qi", [1.0 - frac]).take_all()
    thr = thr_rows[0]["value"]
    if thr is None:  # empty corpus
        return qtab

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["qi"], pa.scalar(thr, pa.int64())))

    return qtab.map_batches(keep, batch_format="pyarrow").sort("doc_id")


#: truncated-LM sizes — large enough that the sf-scale gate corpus is
#: untruncated (truncation semantics are pytest-pinned at small V);
#: mirrored in the oracle SQL's ORDER BY n DESC, w1, w2 LIMIT clauses
LM_TOP_BIGRAMS = 1 << 20
LM_TOP_UNIGRAMS = 1 << 20


class _LMScore:
    """Actor-pool scoring stage: the broadcast LM (pandas Indexes over
    the truncated unigram/bigram tables) is fetched and built ONCE per
    actor in ``__init__``; ``__call__`` is one vectorized
    ``get_indexer`` lookup + ``bincount`` fold per batch."""

    def __init__(self, lm_ref):
        import ray

        w1, w2, bn, ut, un, vu = ray.get(lm_ref)
        self.b_index = pd.Index(pd.Series(w1) + " " + pd.Series(w2))
        self.b_counts = np.asarray(bn, np.int64)
        self.u_index = pd.Index(ut)
        self.u_counts = np.asarray(un, np.int64)
        self.vu = int(vu)
        self.lexer = Lexer("simple")

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        parent, codes, uniq = self.lexer.token_parent_codes(batch["text"])
        sc = np.zeros(n_rows, np.float64)
        if len(parent) > 1:
            valid = parent[1:] == parent[:-1]
            bg_parent = parent[:-1][valid].astype(np.int64)
            if len(bg_parent):
                w1 = pd.Series(uniq[codes[:-1][valid]])
                w2 = pd.Series(uniq[codes[1:][valid]])
                bi = self.b_index.get_indexer(pd.Index(w1 + " " + w2))
                bc = np.where(bi >= 0, self.b_counts[bi], 0)
                ui = self.u_index.get_indexer(pd.Index(w1))
                uc = np.where(ui >= 0, self.u_counts[ui], 0)
                lnp = np.log((bc + 1.0) / (uc + self.vu))
                sums = np.bincount(bg_parent, weights=lnp, minlength=n_rows)
                cnts = np.bincount(bg_parent, minlength=n_rows)
                sc = np.where(cnts > 0, sums / np.maximum(cnts, 1), 0.0)
        qi = np.rint(round_half_away(sc, 4) * 10000).astype(np.int64)
        return pa.table(
            {"doc_id": batch["doc_id"], "lm_qi": pa.array(qi, pa.int64())}
        )


def _unigram_bigram_partial(batch: pa.Table) -> pa.Table:
    """Fused per-batch unigram+bigram partial counts, kind-tagged
    (kind 0 = unigram with ``w2=''``, kind 1 = bigram) — ONE tokenize
    pass feeding ONE ``groupby(kind, w1, w2)`` fold.  Shared by
    :func:`lm_score` and :func:`pmi_topk`; the fold's exchange is
    bounded by the distinct-n-gram count, never the token count."""
    lexer = _cached(_RepetitionStats).lexer
    parent, codes, uniq = lexer.token_parent_codes(batch["text"])
    empty_s = pa.array([], pa.string())
    empty_i = pa.array([], pa.int64())
    if not len(parent):
        return pa.table(
            {"kind": empty_i, "w1": empty_s, "w2": empty_s, "n": empty_i}
        )
    ucodes, ucounts = np.unique(codes, return_counts=True)
    kind = [np.zeros(len(ucodes), np.int64)]
    w1 = [uniq[ucodes]]
    w2 = [np.full(len(ucodes), "", dtype=object)]
    n = [ucounts.astype(np.int64)]
    if len(parent) > 1:
        valid = parent[1:] == parent[:-1]
        first, second = codes[:-1][valid], codes[1:][valid]
        if len(first):
            v = int(codes.max()) + 1
            pair = first.astype(np.int64) * v + second
            ukeys, counts = np.unique(pair, return_counts=True)
            kind.append(np.ones(len(ukeys), np.int64))
            w1.append(uniq[ukeys // v])
            w2.append(uniq[ukeys % v])
            n.append(counts.astype(np.int64))
    return pa.table(
        {
            "kind": pa.array(np.concatenate(kind), pa.int64()),
            "w1": pa.array(np.concatenate(w1), pa.string()),
            "w2": pa.array(np.concatenate(w2), pa.string()),
            "n": pa.array(np.concatenate(n), pa.int64()),
        }
    )


def lm_score(
    ds,
    top_bigrams: int = LM_TOP_BIGRAMS,
    top_unigrams: int = LM_TOP_UNIGRAMS,
):
    """CCNet-style n-gram LM fluency score: train a truncated add-one
    bigram LM on the corpus itself, then score every doc by its mean
    bigram log-probability ``ln((c(w1,w2)+1) / (c(w1)+|V|))`` —
    integer-scaled to ``lm_qi = round(score·10⁴)`` so the comparison
    is summation-order-proof.  Docs with no bigrams score 0.

    Plan: ONE tokenize pass emits fused unigram+bigram partial counts
    (kind-tagged rows, one groupby fold — exchange bounded by the
    distinct-n-gram count, the same bound as :func:`bigram_topk`; open
    vocabularies route to ``sketch.cm_token_counters``); the fold is
    materialized (vocab-bounded, spillable) to derive the exact
    distinct-unigram count plus the top-V truncated tables, which are
    ``ray.put``-broadcast into the :class:`_LMScore` actor pool for a
    second streaming pass over text.  Truncation ties pin on
    ``(n DESC, token asc)`` — a total order, so the truncated LM is
    identical at any partitioning.  Output ``(doc_id, lm_qi)`` sorted
    by doc_id."""
    import ray
    from ray.data.aggregate import Sum

    folded = (
        ds.map_batches(_unigram_bigram_partial, batch_format="pyarrow")
        .groupby(["kind", "w1", "w2"])
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def top_table(kind: int, v: int) -> pa.Table:
        # the fold co-locates each (kind, w1, w2): block-local top-V is
        # exact and the global sort sees <= V x blocks candidates
        def local_top(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b["kind"], pa.scalar(kind, pa.int64())))
            b = b.append_column("_negn", pc.multiply(b["n"], pa.scalar(-1)))
            order = pc.sort_indices(
                b,
                sort_keys=[("_negn", "ascending"), ("w1", "ascending"),
                           ("w2", "ascending")],
            )
            return b.take(order[:v])

        parts = (
            folded.map_batches(local_top, batch_format="pyarrow")
            .sort(["_negn", "w1", "w2"])
            .limit(v)
            .to_arrow_refs()
        )
        tabs = [t for t in ray.get(parts) if t.num_rows]
        return (
            pa.concat_tables(tabs)
            if tabs
            else pa.table(
                {"kind": pa.array([], pa.int64()),
                 "w1": pa.array([], pa.string()),
                 "w2": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64()),
                 "_negn": pa.array([], pa.int64())}
            )
        )

    uni = top_table(0, top_unigrams)
    big = top_table(1, top_bigrams)
    # exact |V| for the smoothing denominator: counted on the folded
    # table BEFORE truncation (one row per distinct unigram)
    vu = folded.map_batches(
        lambda b: pa.table(
            {"c": pa.array(
                [pc.sum(pc.cast(pc.equal(b["kind"], 0), pa.int64())).as_py()
                 or 0], pa.int64())}
        ),
        batch_format="pyarrow",
    ).sum("c")
    lm_ref = ray.put(
        (
            big["w1"].to_numpy(zero_copy_only=False),
            big["w2"].to_numpy(zero_copy_only=False),
            big["n"].to_numpy(zero_copy_only=False),
            uni["w1"].to_numpy(zero_copy_only=False),
            uni["n"].to_numpy(zero_copy_only=False),
            int(vu),
        )
    )
    return (
        ds.select_columns(["doc_id", "text"])
        .map_batches(
            _LMScore,
            batch_format="pyarrow",
            concurrency=(1, 4),
            fn_constructor_args=(lm_ref,),
        )
        .sort("doc_id")
    )


def bigram_topk(ds, k: int = 20):
    """Corpus-wide top-``k`` token bigrams — the n-gram LM / phrase
    statistics pass.  Per-batch partial counts (the same batch-global
    factorize as :class:`_RepetitionStats`, emitting one row per
    DISTINCT bigram per batch) → one ``groupby(w1, w2)`` fold →
    ``sort.limit(k)`` over the folded counts.  Ties pin on ascending
    ``(w1, w2)`` so the result is a total order.

    Scale note: the fold's exchange is bounded by the distinct-bigram
    count, which at 100 TB is itself huge — this operator is the EXACT
    path for bounded vocabularies; the sketch path for open-ended
    corpora is ``sketch.cm_token_counters`` (Count-Min) feeding a
    candidate re-count."""

    def partial(batch: pa.Table) -> pa.Table:
        lexer = _cached(_RepetitionStats).lexer
        parent, codes, uniq = lexer.token_parent_codes(batch["text"])
        if len(parent) > 1:
            valid = parent[1:] == parent[:-1]
            first, second = codes[:-1][valid], codes[1:][valid]
        else:
            first = second = np.empty(0, np.int64)
        if not len(first):
            return pa.table(
                {"w1": pa.array([], pa.string()),
                 "w2": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        pair = first.astype(np.int64) * (int(codes.max()) + 1) + second
        ukeys, counts = np.unique(pair, return_counts=True)
        v = int(codes.max()) + 1
        return pa.table(
            {
                "w1": pa.array(uniq[ukeys // v], pa.string()),
                "w2": pa.array(uniq[ukeys % v], pa.string()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    folded = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum("n", alias_name="n"))
    )

    # the fold hash-partitions bigrams, so each folded block holds
    # FINAL counts: block-local top-k is exact and the global sort
    # only sees <= k x blocks candidate rows, never the vocabulary
    def local_topk(b: pa.Table) -> pa.Table:
        b = b.append_column("_negn", pc.multiply(b["n"], pa.scalar(-1)))
        order = pc.sort_indices(
            b, sort_keys=[("_negn", "ascending"), ("w1", "ascending"),
                          ("w2", "ascending")]
        )
        return b.take(order[:k])

    def rank(b: pa.Table) -> pa.Table:
        b = b.drop_columns(["_negn"])
        return b.append_column(
            "rk", pa.array(np.arange(1, b.num_rows + 1, dtype=np.int64))
        ).select(["rk", "w1", "w2", "n"])

    return (
        folded.map_batches(local_topk, batch_format="pyarrow")
        .sort(["_negn", "w1", "w2"])
        .limit(k)
        .repartition(1)
        .map_batches(rank, batch_format="pyarrow")
    )


#: language-ID defaults — training docs per language and profile size,
#: mirrored in the DuckDB oracle SQL
LANGID_TRAIN_N = 20
LANGID_PROFILE_M = 64


def _pack_trigrams(text: str) -> np.ndarray:
    """All contiguous character trigrams of ``text`` packed into int64
    (21 bits per codepoint — full Unicode range).  Packed order equals
    UTF-8 byte order for 3-char strings, so sorts/tie-breaks agree
    with the SQL oracle's string collation."""
    c = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    if c.size < 3:
        return np.empty(0, dtype=np.int64)
    return (c[:-2] << 42) | (c[1:-1] << 21) | c[2:]


def lang_id_ngram(
    ds, train_n: int = LANGID_TRAIN_N, profile_m: int = LANGID_PROFILE_M
):
    """Character-n-gram language identification: learn a top-M trigram
    profile per language from the ``train_n`` lowest doc_ids of each
    ``lang`` label, then classify EVERY document by counting how many
    of its trigram positions hit each profile (ties: language asc).
    Returns (doc_id, lang_pred, matches); docs matching no profile are
    omitted (the SQL oracle's inner join agrees).

    Scale shape: training-id selection is a metadata-only pass
    (doc_id + lang columns, one tiny per-lang groupby); profile
    construction touches only train_n×n_langs docs and the resulting
    profiles (n_langs × M packed int64) are ray.put-broadcast into a
    vectorized ``map_batches`` classify stage — no shuffle over the
    corpus, no driver-side structure that grows with it."""
    import ray

    # ---- phase 1: smallest train_n doc_ids per language (no text) ----
    def _take_ids(group: pd.DataFrame) -> pd.DataFrame:
        return group.nsmallest(train_n, "doc_id")[["doc_id", "lang"]]

    train_ids = (
        ds.select_columns(["doc_id", "lang"])
        .groupby("lang")
        .map_groups(_take_ids, batch_format="pandas")
        .to_pandas()
    )
    id_set = set(train_ids["doc_id"].tolist())
    lang_of = dict(zip(train_ids["doc_id"], train_ids["lang"]))

    # ---- phase 2: per-language trigram counts over the tiny train set
    from collections import Counter, defaultdict

    counts: dict[str, Counter] = defaultdict(Counter)
    id_arr = pa.array(sorted(id_set), pa.int64())
    train_docs = ds.select_columns(["doc_id", "text"]).map_batches(
        lambda b: b.filter(pc.is_in(b["doc_id"], value_set=id_arr)),
        batch_format="pyarrow",
    )
    for row in train_docs.iter_rows():
        tg = _pack_trigrams(row["text"])
        if tg.size:
            v, n = np.unique(tg, return_counts=True)
            counts[lang_of[row["doc_id"]]].update(dict(zip(v.tolist(), n.tolist())))
    profiles: dict[str, np.ndarray] = {}
    for lang, ctr in counts.items():
        top = sorted(ctr.items(), key=lambda kv: (-kv[1], kv[0]))[:profile_m]
        profiles[lang] = np.sort(np.array([g for g, _ in top], dtype=np.int64))
    langs = sorted(profiles)
    prof_ref = ray.put({l: profiles[l] for l in langs})

    # ---- phase 3: vectorized classify over the full corpus ----
    def classify(batch: pa.Table) -> pa.Table:
        prof = ray.get(prof_ref)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_lang, out_m = [], [], []
        for did, text in zip(doc_ids, batch["text"].to_pylist()):
            tg = _pack_trigrams(text)
            if not tg.size:
                continue
            best_lang, best_m = None, 0
            for l in langs:  # asc order = deterministic tie-break
                m = int(np.isin(tg, prof[l]).sum())
                if m > best_m:
                    best_lang, best_m = l, m
            if best_lang is not None:
                out_id.append(did)
                out_lang.append(best_lang)
                out_m.append(best_m)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "lang_pred": pa.array(out_lang, pa.string()),
                "matches": pa.array(out_m, pa.int64()),
            }
        )

    return ds.select_columns(["doc_id", "text"]).map_batches(
        classify, batch_format="pyarrow"
    )


#: polynomial base for the k-gram rolling hash (odd, so multiplication
#: mod 2^64 is invertible); mirrored in the DuckDB oracle SQL
FP_BASE = 257
FP_K = 8  #: characters per gram
FP_W = 4  #: winnowing window (consecutive grams per min-selection)


def _winnow_hashes(codes: np.ndarray, k: int, w: int, base: int) -> np.ndarray:
    """Distinct winnowed k-gram hashes of one document.

    Hash of the gram at position i (0-based) is the Rabin-Karp
    polynomial  sum_{j=0..k-1} c[i+j] * base^(k-1-j)  mod 2^64 —
    computed here as k shifted vectorized multiply-adds over the whole
    codepoint array (the numpy form of the rolling recurrence; numpy
    uint64 arithmetic wraps mod 2^64 by definition, which IS the
    modulus).  Winnowing then keeps the minimum of every window of w
    consecutive gram hashes (standard local fingerprinting, Schleimer
    et al. 2003) and the distinct selected values are the document's
    fingerprint set.  Docs with fewer than k+w-1 characters yield no
    fingerprints (no complete window) — the oracle SQL agrees."""
    n = codes.size - k + 1
    if n < w:
        return np.empty(0, dtype=np.uint64)
    c = codes.astype(np.uint64)
    h = np.zeros(n, dtype=np.uint64)
    for j in range(k):  # k=8 vectorized passes, not per-char
        h += c[j : j + n] * np.uint64(base ** (k - 1 - j) & 0xFFFFFFFFFFFFFFFF)
    wins = np.lib.stride_tricks.sliding_window_view(h, w).min(axis=1)
    return np.unique(wins)


def doc_fingerprints(ds, k: int = FP_K, w: int = FP_W, base: int = FP_BASE):
    """Document fingerprinting by rolling k-gram hash + winnowing:
    documents Dataset → distinct (doc_id, fp) rows.

    The per-doc fingerprint set is what near-dup detection at crawl
    scale indexes (winnowing guarantees any shared substring of length
    ≥ k+w-1 contributes at least one common fingerprint).  Purely
    partition-local — no shuffle; output is ~|text|/w rows per doc.
    Codepoints come from one ``utf-32-le`` reinterpret per doc (no
    per-character Python), matching DuckDB ``unicode()`` semantics in
    the oracle."""

    def fp_task(batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_ids: list[np.ndarray] = []
        out_fps: list[np.ndarray] = []
        for did, text in zip(doc_ids, batch["text"].to_pylist()):
            codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            fps = _winnow_hashes(codes, k, w, base)
            if fps.size:
                out_ids.append(np.full(fps.size, did, dtype=np.int64))
                out_fps.append(fps)
        if not out_ids:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "fp": pa.array([], pa.uint64()),
                }
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_ids), pa.int64()),
                "fp": pa.array(np.concatenate(out_fps), pa.uint64()),
            }
        )

    return ds.map_batches(fp_task, batch_format="pyarrow")


def quality_filter(ds, *, min_tokens: int = 5, min_quality: float = 0.5,
                   max_stop_ratio: float = 0.6):
    """C4-style rule filter: keep documents whose metrics clear the
    thresholds (enough tokens, high enough composite quality, not
    stop-word-soup).  One :func:`doc_metrics` pass then a vectorized
    filter — streaming, no shuffle.

    Float thresholds are compared on the 4-dp-rounded metrics SCALED
    TO INTEGERS (×10⁴) on both the engine and oracle sides, so the
    keep decision can never flip on a last-ulp difference between
    numpy's and the SQL engine's rounding of the same value.

    Output: ``(doc_id, n_tokens, quality, stop_ratio)`` of survivors.
    """
    def keep(b: pa.Table) -> pa.Table:
        mask = quality_keep_mask(
            b["n_tokens"].to_numpy(zero_copy_only=False),
            b["quality"].to_numpy(zero_copy_only=False),
            b["stop_ratio"].to_numpy(zero_copy_only=False),
            min_tokens=min_tokens,
            min_quality=min_quality,
            max_stop_ratio=max_stop_ratio,
        )
        return b.filter(pa.array(mask)).select(
            ["doc_id", "n_tokens", "quality", "stop_ratio"]
        )

    return doc_metrics(ds).map_batches(keep, batch_format="pyarrow")


#: default PII-shaped redaction patterns (RE2 — the same engine Arrow
#: and DuckDB both embed, so engine and oracle agree on match sets)
REDACT_PATTERNS = {
    "email": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "phone": r"\+?[0-9][0-9()\- ]{6,}[0-9]",
    "ipv4": r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b",
}


def redact_text(ds, patterns: dict[str, str] | None = None,
                repl: str = "[REDACTED]"):
    """Regex redaction/scrubbing (the PII-removal step of a curation
    pipeline): apply each pattern IN DICT ORDER to the progressively
    redacted text, counting matches before each replacement.  Pure
    vectorized ``map_batches`` over Arrow RE2 kernels
    (``count_substring_regex`` / ``replace_substring_regex``) — no
    Python-per-row work, no shuffle, streams.

    Sequential semantics matter (an earlier replacement can destroy a
    later pattern's match) and are mirrored exactly by the generated
    nested-``regexp_replace`` oracle SQL; both sides run RE2, so match
    enumeration is identical.

    Output: ``(doc_id, text, n_redactions)`` with ``text`` fully
    redacted."""
    import pyarrow.compute as pc

    pats = REDACT_PATTERNS if patterns is None else patterns

    def scrub(b: pa.Table) -> pa.Table:
        t = b["text"]
        total = np.zeros(b.num_rows, np.int64)
        for p in pats.values():
            total += pc.count_substring_regex(t, pattern=p).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            t = pc.replace_substring_regex(t, pattern=p, replacement=repl)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "text": t,
                "n_redactions": pa.array(total, pa.int64()),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


def redact_sql(patterns: dict[str, str], repl: str = "[REDACTED]") -> str:
    """DuckDB twin of :func:`redact_text` — one CTE stage per pattern,
    counting on the stage input then replacing globally, so the
    sequential semantics match the engine exactly."""
    stages = ["s0 AS (SELECT doc_id, text AS t, 0 AS n FROM documents)"]
    for i, p in enumerate(patterns.values(), start=1):
        stages.append(
            f"s{i} AS (SELECT doc_id, "
            f"regexp_replace(t, '{p}', '{repl}', 'g') AS t, "
            f"n + len(regexp_extract_all(t, '{p}')) AS n FROM s{i-1})"
        )
    last = len(patterns)
    return (
        "WITH " + ", ".join(stages)
        + f" SELECT doc_id, t AS text, CAST(n AS BIGINT) AS n_redactions FROM s{last}"
    )


#: n-gram span length for the inter-document duplication metric —
#: mirrored in the oracle SQL's generate_series window
DUP_NGRAM_N = 5


class _DupNgramPairs:
    """Per-batch (doc, n-gram) partial counts for
    :func:`dup_ngram_stats` — one tokenize pass, n-gram keys built by
    iterative ``np.unique`` folds (keys stay < #positions so the
    int64 combine never overflows regardless of vocabulary size), and
    the n-gram STRING materialized only once per DISTINCT (doc,
    n-gram) via Arrow ``binary_join_element_wise`` (the exact shuffle
    key; a production deployment would swap in a 128-bit hash to cut
    exchange bytes — grouping semantics identical short of md5
    collisions)."""

    def __init__(self, n: int = DUP_NGRAM_N):
        self.n = n
        self.lexer = Lexer("simple")

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = self.n
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "ng": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        parent, codes, uniq = self.lexer.token_parent_codes(batch["text"])
        if len(parent) < n:
            return empty
        # position i starts an n-gram iff token i and token i+n-1 share
        # a row (parent is non-decreasing, so the middle tokens do too)
        valid = parent[n - 1 :] == parent[: -(n - 1)]
        if not valid.any():
            return empty
        L = len(codes) - (n - 1)
        comps = [codes[k : L + k][valid].astype(np.int64) for k in range(n)]
        dparent = parent[:L][valid].astype(np.int64)
        vmax = int(codes.max()) + 1
        key = comps[0]
        for k in range(1, n):
            key = np.unique(key * vmax + comps[k], return_inverse=True)[1]
        combo = dparent * (int(key.max()) + 1) + key
        _, upos, counts = np.unique(
            combo, return_index=True, return_counts=True
        )
        uniq_arr = np.asarray(uniq, dtype=object)
        parts = [
            pa.array(uniq_arr[comps[k][upos]], pa.string()) for k in range(n)
        ]
        # last argument of binary_join_element_wise is the separator
        ng = pc.binary_join_element_wise(*parts, pa.scalar(" ", pa.string()))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[dparent[upos]], pa.int64()),
                "ng": ng,
                "cnt": pa.array(counts, pa.int64()),
            }
        )


def _dup_ngram_task(batch: pa.Table) -> pa.Table:
    return _cached(_DupNgramPairs)(batch)


def dup_ngram_stats(ds):
    """Inter-document duplicated n-gram statistics (RefinedWeb /
    Gopher-style): for each document, how many of its ``n``-token
    spans (n = :data:`DUP_NGRAM_N`) also occur in at least one OTHER
    document.  Output ``(doc_id, n_ngrams, n_dup, dup_frac)`` sorted
    by doc_id — the standard corpus-level memorization / boilerplate
    signal that doc-level exact dedup cannot see.

    Plan (two hash aggregations, no joins, no map_groups): one
    tokenize pass emits per-(doc, n-gram) partial counts; a
    ``groupby(ng)`` aggregation classifies every n-gram by its
    document frequency — a span is UNIQUE iff its group has exactly
    one row, in which case that single row's (doc_id, cnt) is
    recoverable from Max/Sum aggregates alone, so hot n-grams
    (df ≫ 1) collapse to one aggregate row and never re-emit their
    group.  n_dup then falls out as ``n_ngrams − unique_cnt`` in a
    final ``groupby(doc_id)`` over the union of per-doc totals (a
    light count-only tokenize pass that covers every doc, zeros
    included) and the unique-span credits.  Both exchanges are
    built-in hash aggregations — skew-safe at 100 TB."""
    from ray.data.aggregate import Count, Max, Sum

    pairs = ds.map_batches(_dup_ngram_task, batch_format="pyarrow")

    uniq_spans = (
        pairs.groupby("ng")
        .aggregate(
            Count(alias_name="_c"),
            Sum("cnt", alias_name="_s"),
            Max("doc_id", alias_name="doc_id"),
        )
    )

    def uniq_credit(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["_c"], pa.scalar(1, pa.int64())))
        return pa.table(
            {
                "doc_id": b["doc_id"].cast(pa.int64()),
                "nn": pa.array(np.zeros(b.num_rows, np.int64)),
                "uc": b["_s"].cast(pa.int64()),
            }
        )

    # per-doc totals come from a SECOND, deliberately light tokenize
    # pass (token count only — no n-gram keys, no strings): this keeps
    # the heavy pairs lineage single-consumer (Ray Data would re-run it
    # per consumer) without materializing the ~5x-corpus pairs table;
    # it also covers every doc, so no zero-base branch is needed
    def total_credit(b: pa.Table) -> pa.Table:
        lexer = _cached(_DupNgramPairs).lexer
        parent, _codes, _uniq = lexer.token_parent_codes(b["text"])
        ntok = np.bincount(parent, minlength=b.num_rows)[: b.num_rows]
        nn = np.maximum(ntok - (DUP_NGRAM_N - 1), 0).astype(np.int64)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "nn": pa.array(nn, pa.int64()),
                "uc": pa.array(np.zeros(b.num_rows, np.int64)),
            }
        )

    unioned = ds.map_batches(total_credit, batch_format="pyarrow").union(
        uniq_spans.map_batches(uniq_credit, batch_format="pyarrow")
    )

    folded = unioned.groupby("doc_id").aggregate(
        Sum("nn", alias_name="n_ngrams"), Sum("uc", alias_name="_uc")
    )

    def finish(b: pa.Table) -> pa.Table:
        nn = b["n_ngrams"].to_numpy(zero_copy_only=False)
        uc = b["_uc"].to_numpy(zero_copy_only=False)
        nd = nn - uc
        frac = round_half_away(nd / np.maximum(nn, 1), 4)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_ngrams": pa.array(nn, pa.int64()),
                "n_dup": pa.array(nd, pa.int64()),
                "dup_frac": pa.array(frac, pa.float64()),
            }
        )

    return folded.map_batches(finish, batch_format="pyarrow").sort("doc_id")


def normalize_text(ds):
    """Canonical text normalization — the first stage of any curation
    pipeline (run BEFORE dedup/fingerprinting so byte-level variants
    of the same content collide): Unicode NFC, full lowercase,
    whitespace-run collapse to single spaces, edge trim.  Pure
    vectorized ``map_batches`` over Arrow kernels (``utf8_normalize``
    / ``utf8_lower`` / RE2 ``replace_substring_regex``) — no
    Python-per-row work, no shuffle, streams at any scale.

    Output: ``(doc_id, norm_text, n_chars)`` with ``n_chars`` the
    normalized length (int64).  The DuckDB twin chains
    ``nfc_normalize``/``lower``/``regexp_replace``/``trim`` in the
    same order; both sides run full-Unicode NFC + casefolds, so the
    bytes agree exactly.

    NFC note: this environment's Arrow build (16.1) returns DECOMPOSED
    output from ``utf8_normalize`` for every requested form (verified:
    form="NFC" on U+00E9 yields U+0065 U+0301), so composition goes
    through ``unicodedata.normalize`` instead — but only for batches
    that contain non-ASCII bytes at all: the vectorized ASCII fast
    path (``binary_length == utf8_length`` ⇒ every char is one byte ⇒
    NFC is the identity) keeps the overwhelmingly-ASCII hot path free
    of per-row Python."""
    import unicodedata

    import pyarrow.compute as pc

    def norm(b: pa.Table) -> pa.Table:
        t = b["text"]
        n_bytes = pc.sum(pc.binary_length(t)).as_py() or 0
        n_chars = pc.sum(pc.utf8_length(t)).as_py() or 0
        if n_bytes != n_chars:  # non-ASCII present -> real NFC pass
            t = pa.array(
                [
                    None if s is None else unicodedata.normalize("NFC", s)
                    for s in t.to_pylist()
                ],
                pa.string(),
            )
        t = pc.utf8_lower(t)
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        t = pc.utf8_trim_whitespace(t)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "norm_text": t,
                "n_chars": pc.cast(pc.utf8_length(t), pa.int64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


#: PMI defaults — support floor mirrored verbatim in the oracle SQL
PMI_MIN_COUNT = 5

#: pmi_topk unigram-side broadcast cap: below this many DISTINCT
#: unigrams the (term, count) arrays ship once via ray.put (~tens of
#: MB at 5M terms) and scoring is one streaming pass; above it the
#: copartition hash-join path keeps the vocabulary distributed
UNIGRAM_BROADCAST_LIMIT = 5_000_000

#: bit-packed source masks cap (int64-safe; raise to a roaring-bitmap
#: path beyond this — corpora have a handful of sources, not 60)
MAX_OVERLAP_SOURCES = 60


def pmi_topk(ds, k: int = 20, min_count: int = PMI_MIN_COUNT):
    """Corpus top-``k`` token bigrams by pointwise mutual information
    ``ln(p(w1,w2) / (p(w1)·p(w2)))`` with a ``min_count`` support
    floor (collocation / phrase mining — the classic
    Church-and-Hanks association statistic).

    Plan: the :func:`_unigram_bigram_partial` fused pass → ONE
    ``groupby(kind, w1, w2)`` fold (exchange bounded by distinct
    n-grams; materialized like :func:`lm_score`'s — vocab-bounded,
    spillable) → unigram counts reach the surviving bigram rows via a
    bounded ``ray.put`` broadcast + searchsorted lookups when the
    vocabulary is ≤ :data:`UNIGRAM_BROADCAST_LIMIT` (one streaming
    pass, zero join shuffle), else TWO
    :func:`raysearch.util.copartition_attach` hash-join passes (w1
    then w2 — the vocabulary never reaches the driver) → per-row
    PMI → block-local top-k prune → a ≤ k×blocks candidate sort.
    Both paths emit identical rows (pytest-pinned at a forced-low
    limit).

    Engine↔SQL float parity: PMI is computed with the oracle's exact
    association ``ln((n·1.0·Nt·Nt) / (Nb·1.0·c1·c2))`` then
    double-rounded to ``pmi_qi = round(round(x, 4)·10⁴)`` (half away
    from zero, matching DuckDB ``round``).  Ties pin on
    ``(pmi_qi DESC, w1, w2)`` — a total order, as (w1, w2) is unique.

    Output ``(rk, w1, w2, n, pmi_qi)``, rk 1-based."""
    from ray.data.aggregate import Sum

    from raysearch.util import copartition_attach

    folded = (
        ds.map_batches(_unigram_bigram_partial, batch_format="pyarrow")
        .groupby(["kind", "w1", "w2"])
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def tot(b: pa.Table) -> pa.Table:
        uni = pc.equal(b["kind"], pa.scalar(0, pa.int64()))
        nt = pc.sum(pc.if_else(uni, b["n"], pa.scalar(0, pa.int64())))
        nb = pc.sum(pc.if_else(uni, pa.scalar(0, pa.int64()), b["n"]))
        nu = pc.sum(pc.cast(uni, pa.int64()))
        return pa.table(
            {"nt": pa.array([nt.as_py() or 0], pa.int64()),
             "nb": pa.array([nb.as_py() or 0], pa.int64()),
             "nu": pa.array([nu.as_py() or 0], pa.int64())}
        )

    totals = (
        folded.map_batches(tot, batch_format="pyarrow").materialize()
    )
    nt = int(totals.sum("nt") or 0)
    nb = int(totals.sum("nb") or 0)
    nu = int(totals.sum("nu") or 0)
    empty = pa.table(
        {"rk": pa.array([], pa.int64()), "w1": pa.array([], pa.string()),
         "w2": pa.array([], pa.string()), "n": pa.array([], pa.int64()),
         "pmi_qi": pa.array([], pa.int64())}
    )
    if nb == 0:
        import ray.data as rd

        return rd.from_arrow(empty)

    def uni_side(key: str, out: str):
        def fn(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b["kind"], pa.scalar(0, pa.int64())))
            return pa.table({key: b["w1"], out: b["n"]})

        return folded.map_batches(fn, batch_format="pyarrow")

    def big_side(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.and_(
                pc.equal(b["kind"], pa.scalar(1, pa.int64())),
                pc.greater_equal(b["n"], pa.scalar(min_count, pa.int64())),
            )
        )
        return pa.table({"w1": b["w1"], "w2": b["w2"], "n": b["n"]})

    bigrams = folded.map_batches(big_side, batch_format="pyarrow")
    s = pa.string()
    i64 = pa.int64()

    def _score(b: pa.Table, c1: np.ndarray, c2: np.ndarray) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        # association order mirrors the SQL twin exactly:
        # ((n*1.0)*Nt)*Nt / (((Nb*1.0)*c1)*c2)
        pmi = np.log(((n * 1.0) * nt * nt) / (((nb * 1.0) * c1) * c2))
        qi = round_half_away(
            round_half_away(pmi, 4) * 10000.0, 0
        ).astype(np.int64)
        t = pa.table(
            {"w1": b["w1"], "w2": b["w2"], "n": b["n"],
             "pmi_qi": pa.array(qi, i64),
             "_negq": pa.array(-qi, i64)}
        )
        order = pc.sort_indices(
            t, sort_keys=[("_negq", "ascending"), ("w1", "ascending"),
                          ("w2", "ascending")]
        )
        return t.take(order[:k])

    _empty_scored = empty.append_column(
        "_negq", pa.array([], pa.int64())
    ).drop_columns(["rk"])

    if nu <= UNIGRAM_BROADCAST_LIMIT:
        # fast path: the unigram table fits a bounded broadcast — pull
        # the (term, count) arrays ONCE (size asserted by the limit),
        # ship via ray.put, and score the bigram rows in a single
        # streaming pass (sorted-array searchsorted lookups); no join
        # shuffle at all.  Above the limit, the copartition path below
        # keeps the vocabulary fully distributed.
        import ray as _ray

        parts = [
            p for p in _ray.get(uni_side("term", "c").to_arrow_refs())
            if p.num_rows
        ]
        ut = (
            pa.concat_tables(parts)
            if parts
            else pa.table({"term": pa.array([], s), "c": pa.array([], i64)})
        )
        terms = np.asarray(ut["term"].to_pylist(), dtype=object)
        cnts = ut["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(terms, kind="stable")
        uni_ref = _ray.put((terms[order], cnts[order]))

        def score_broadcast(b: pa.Table) -> pa.Table:
            if not b.num_rows:
                return _empty_scored
            t_sorted, c_sorted = _ray.get(uni_ref)
            w1 = np.asarray(b["w1"].to_pylist(), dtype=object)
            w2 = np.asarray(b["w2"].to_pylist(), dtype=object)
            c1 = c_sorted[np.searchsorted(t_sorted, w1)].astype(np.float64)
            c2 = c_sorted[np.searchsorted(t_sorted, w2)].astype(np.float64)
            return _score(b, c1, c2)

        scored = bigrams.map_batches(score_broadcast, batch_format="pyarrow")
    else:
        with_c1 = copartition_attach(
            bigrams,
            uni_side("w1", "c1"),
            "w1",
            pa.schema([("w1", s), ("w2", s), ("n", i64)]),
            {"c1": i64},
        )
        with_c2 = copartition_attach(
            with_c1,
            uni_side("w2", "c2"),
            "w2",
            pa.schema([("w1", s), ("w2", s), ("n", i64), ("c1", i64)]),
            {"c2": i64},
        )

        def score_joined(b: pa.Table) -> pa.Table:
            if not b.num_rows:
                return _empty_scored
            c1 = b["c1"].to_numpy(zero_copy_only=False).astype(np.float64)
            c2 = b["c2"].to_numpy(zero_copy_only=False).astype(np.float64)
            return _score(b.select(["w1", "w2", "n"]), c1, c2)

        scored = with_c2.map_batches(score_joined, batch_format="pyarrow")

    def rank(b: pa.Table) -> pa.Table:
        b = b.drop_columns(["_negq"])
        return b.append_column(
            "rk", pa.array(np.arange(1, b.num_rows + 1, dtype=np.int64))
        ).select(["rk", "w1", "w2", "n", "pmi_qi"])

    return (
        scored.sort(["_negq", "w1", "w2"])
        .limit(k)
        .repartition(1)
        .map_batches(rank, batch_format="pyarrow")
    )


def pmi_topk_sql(k: int, min_count: int = PMI_MIN_COUNT,
                 table: str = "documents") -> str:
    """DuckDB twin of :func:`pmi_topk` (same association order, same
    double-round, same tie pins)."""
    return (
        f"WITH f AS (SELECT list_filter(regexp_split_to_array("
        f"lower(text), '[^a-z0-9]+'), t -> t <> '') AS ts FROM {table}), "
        "t AS (SELECT unnest(ts) AS term FROM f), "
        "b AS (SELECT ts[i] AS w1, ts[i+1] AS w2 FROM f, "
        "unnest(generate_series(1, len(ts)-1)) AS u(i)), "
        "c1 AS (SELECT term, count(*) AS n FROM t GROUP BY 1), "
        "c2 AS (SELECT w1, w2, count(*) AS n FROM b GROUP BY 1, 2 "
        f"HAVING count(*) >= {min_count}), "
        "tot AS (SELECT (SELECT count(*) FROM t) AS nt, "
        "(SELECT count(*) FROM b) AS nb), "
        "sc AS (SELECT c2.w1, c2.w2, c2.n, "
        "CAST(round(round(ln((c2.n * 1.0 * tot.nt * tot.nt) / "
        "(tot.nb * 1.0 * a.n * bb.n)), 4) * 10000) AS BIGINT) AS pmi_qi "
        "FROM c2 CROSS JOIN tot JOIN c1 a ON a.term = c2.w1 "
        "JOIN c1 bb ON bb.term = c2.w2) "
        "SELECT CAST(row_number() OVER (ORDER BY pmi_qi DESC, w1, w2) "
        "AS BIGINT) AS rk, w1, w2, CAST(n AS BIGINT) AS n, pmi_qi "
        f"FROM sc ORDER BY pmi_qi DESC, w1, w2 LIMIT {k}"
    )


def _term_count_partial(batch: pa.Table) -> pa.Table:
    """Per-batch GLOBAL term counts (one row per distinct term per
    batch) — the minimal partial for corpus-frequency folds."""
    lexer = _cached(_RepetitionStats).lexer
    parent, codes, uniq = lexer.token_parent_codes(batch["text"])
    if not len(parent):
        return pa.table(
            {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
    uc, cnt = np.unique(codes, return_counts=True)
    return pa.table(
        {"term": pa.array(uniq[uc], pa.string()),
         "n": pa.array(cnt.astype(np.int64), pa.int64())}
    )


def zipf_buckets(ds):
    """Frequency-of-frequencies histogram in log2 buckets — the Zipf
    profile every corpus report leads with (how many terms occur
    1..1, 2..3, 4..7, … times, and how many tokens each band holds).
    Complements the HLL (how many distinct) and Count-Min (how often
    is X) sketches with the full frequency SHAPE.

    Plan: per-batch distinct-term partial counts → ONE
    ``groupby(term)`` fold (exchange bounded by vocabulary) →
    per-block exact log2 bucketing (``np.frexp`` exponents — exact
    integer floor(log2 n) for any count < 2⁵³, no libm rounding
    hazard) with block-local (bucket, n_terms, n_tokens) partials →
    a ≤ 64-row ``groupby(bucket)`` fold.  Output ``(bucket, n_terms,
    n_tokens)`` sorted by bucket; the DuckDB twin buckets by
    ``length(bin(n)) - 1`` — the same exact integer."""
    from ray.data.aggregate import Sum

    folded = (
        ds.map_batches(_term_count_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
    )

    def bucketize(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        if not len(n):
            return pa.table(
                {c: pa.array([], pa.int64())
                 for c in ("bucket", "n_terms", "n_tokens")}
            )
        bucket = (np.frexp(n.astype(np.float64))[1] - 1).astype(np.int64)
        ub, inv = np.unique(bucket, return_inverse=True)
        n_terms = np.bincount(inv).astype(np.int64)
        n_tokens = np.bincount(inv, weights=n).astype(np.int64)
        return pa.table(
            {"bucket": pa.array(ub, pa.int64()),
             "n_terms": pa.array(n_terms, pa.int64()),
             "n_tokens": pa.array(n_tokens, pa.int64())}
        )

    return (
        folded.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n_terms", alias_name="n_terms"),
                   Sum("n_tokens", alias_name="n_tokens"))
        .sort("bucket")
    )


def zipf_buckets_sql(table: str = "documents") -> str:
    """DuckDB twin of :func:`zipf_buckets` (exact integer log2 via
    unpadded ``bin()`` length, same as the HLL register oracle)."""
    return (
        "WITH tok AS (SELECT t.term FROM (SELECT unnest("
        "regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) t WHERE t.term <> ''), "
        "tf AS (SELECT term, count(*) AS n FROM tok GROUP BY 1) "
        "SELECT CAST(length(bin(n)) - 1 AS BIGINT) AS bucket, "
        "CAST(count(*) AS BIGINT) AS n_terms, "
        "CAST(sum(n) AS BIGINT) AS n_tokens "
        "FROM tf GROUP BY 1 ORDER BY bucket"
    )


def _first_seen_partial(batch: pa.Table) -> pa.Table:
    """Per-batch distinct (term, min doc_id) partial for
    :func:`vocab_growth` — one lexsort, no Python loop."""
    lexer = _cached(_RepetitionStats).lexer
    parent, codes, uniq = lexer.token_parent_codes(batch["text"])
    if not len(parent):
        return pa.table(
            {"term": pa.array([], pa.string()),
             "fd": pa.array([], pa.int64())}
        )
    docs = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    doc_of_token = docs[parent]
    order = np.lexsort((doc_of_token, codes))
    cs, fd = codes[order], doc_of_token[order]
    first = np.ones(len(cs), dtype=bool)
    first[1:] = cs[1:] != cs[:-1]
    return pa.table(
        {"term": pa.array(uniq[cs[first]], pa.string()),
         "fd": pa.array(fd[first], pa.int64())}
    )


def vocab_growth(ds):
    """Vocabulary-growth (Heaps'-law novelty) profile: for each doc in
    doc_id ingestion order, how many terms it introduces that no
    earlier doc contains.  The marginal-contribution diagnostic for
    corpus curation — a shard whose docs stop introducing vocabulary
    is redundant with what came before; a spike marks a domain shift.
    Extends the reference's lexicon accounting (Lexicon.java:31-44
    tracks only the final vocabulary) with the arrival ORDER the
    reference never surfaces.

    Plan: ONE tokenize pass emits per-batch distinct ``(term, min
    doc_id)`` partials (vectorized lexsort, no Python loop) → ONE
    ``groupby(term).Min`` fold (exchange bounded by vocabulary ×
    16 B) → project to the winning doc_id → a ≤ n_docs-row
    ``groupby(doc_id).Count`` fold.  Integer outputs end-to-end; only
    docs that introduce ≥ 1 term emit a row (matching the SQL twin).
    """
    from ray.data.aggregate import Count, Min

    first_seen = (
        ds.map_batches(_first_seen_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Min("fd", alias_name="fd"))
    )

    def proj(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["fd"]})

    return (
        first_seen.map_batches(proj, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Count(alias_name="new_terms"))
        .sort("doc_id")
    )


def vocab_growth_sql(table: str = "documents") -> str:
    """DuckDB twin of :func:`vocab_growth`."""
    return (
        "WITH tok AS (SELECT doc_id, t.term FROM (SELECT doc_id, "
        "unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) t WHERE t.term <> ''), "
        "ft AS (SELECT term, min(doc_id) AS doc_id FROM tok GROUP BY 1) "
        "SELECT doc_id, CAST(count(*) AS BIGINT) AS new_terms "
        "FROM ft GROUP BY 1 ORDER BY doc_id"
    )


def vocab_overlap(ds):
    """Pairwise vocabulary overlap between corpus ``source`` slices —
    the standard corpus-auditing cut before mixing sources into a
    training set (how much does source A's vocabulary overlap B's?).

    Plan: ONE tokenize pass emits per-batch DISTINCT ``(source,
    term)`` rows plus a ``term=''`` sentinel per source present (so
    all-empty sources still register) → ``groupby(source, term)``
    dedups across batches → each source gets bit ``2^idx`` (sorted
    registry, ≤ :data:`MAX_OVERLAP_SOURCES`, asserted) →
    ``groupby(term).sum(bit)`` ORs the bits (rows are distinct, so
    sum = OR) → a ≤ 2^S-row mask histogram is the ONLY driver pull;
    every pairwise intersection/union falls out of it by masking.
    Exchange is bounded by vocabulary × sources, never tokens.

    Output one row per unordered source pair (src_a < src_b):
    ``(src_a, src_b, n_a, n_b, n_shared, jaccard)`` with jaccard
    rounded half-away to 4 decimals, sorted by (src_a, src_b)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        lexer = _cached(_RepetitionStats).lexer
        parent, codes, uniq = lexer.token_parent_codes(batch["text"])
        src = np.asarray(batch["source"].to_numpy(zero_copy_only=False),
                         dtype=object)
        s_uniq, s_inv = np.unique(src, return_inverse=True)
        out_src = [s_uniq]
        out_term = [np.full(len(s_uniq), "", dtype=object)]
        if len(parent):
            v = int(codes.max()) + 1
            key = np.unique(s_inv[parent].astype(np.int64) * v + codes)
            out_src.append(s_uniq[key // v])
            out_term.append(uniq[key % v])
        return pa.table(
            {
                "source": pa.array(np.concatenate(out_src), pa.string()),
                "term": pa.array(np.concatenate(out_term), pa.string()),
            }
        )

    pairs = (
        ds.select_columns(["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "term"])
        .count()
        .materialize()
    )

    def sentinels(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["term"], pa.scalar("", pa.string())))
        return pa.table({"source": b["source"]})

    import ray as _ray

    reg_parts = [
        p for p in _ray.get(
            pairs.map_batches(sentinels, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if p.num_rows
    ]
    sources = sorted(
        set(
            pa.concat_tables(reg_parts)["source"].to_pylist()
            if reg_parts
            else []
        )
    )
    if len(sources) > MAX_OVERLAP_SOURCES:
        raise ValueError(
            f"{len(sources)} sources exceeds MAX_OVERLAP_SOURCES="
            f"{MAX_OVERLAP_SOURCES}; bit-packed masks need <= 60 slices"
        )
    bit_of = {s: 1 << i for i, s in enumerate(sources)}

    def to_bits(b: pa.Table) -> pa.Table:
        b = b.filter(pc.invert(pc.equal(b["term"], pa.scalar("", pa.string()))))
        bits = np.array(
            [bit_of[s] for s in b["source"].to_pylist()], dtype=np.int64
        )
        return pa.table({"term": b["term"], "bit": pa.array(bits, pa.int64())})

    def mask_hist(b: pa.Table) -> pa.Table:
        vc = pc.value_counts(b["bit"])
        return pa.table(
            {"mask": pc.cast(vc.field("values"), pa.int64()),
             "n": pc.cast(vc.field("counts"), pa.int64())}
        )

    hist = (
        pairs.map_batches(to_bits, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("bit", alias_name="bit"))
        .map_batches(mask_hist, batch_format="pyarrow")
        .groupby("mask")
        .aggregate(Sum("n", alias_name="n"))
    )
    hist_parts = [
        p for p in _ray.get(hist.to_arrow_refs()) if p.num_rows
    ]
    if hist_parts:
        h = pa.concat_tables(hist_parts)
        masks = h["mask"].to_numpy(zero_copy_only=False)
        counts = h["n"].to_numpy(zero_copy_only=False)
    else:
        masks = np.empty(0, np.int64)
        counts = np.empty(0, np.int64)

    rows = {"src_a": [], "src_b": [], "n_a": [], "n_b": [],
            "n_shared": [], "jaccard": []}
    for ai in range(len(sources)):
        for bi in range(ai + 1, len(sources)):
            ba, bb = 1 << ai, 1 << bi
            na = int(counts[(masks & ba) != 0].sum())
            nbv = int(counts[(masks & bb) != 0].sum())
            ns = int(counts[((masks & ba) != 0) & ((masks & bb) != 0)].sum())
            union = na + nbv - ns
            jac = float(round_half_away((ns * 1.0) / union, 4)) if union else 0.0
            rows["src_a"].append(sources[ai])
            rows["src_b"].append(sources[bi])
            rows["n_a"].append(na)
            rows["n_b"].append(nbv)
            rows["n_shared"].append(ns)
            rows["jaccard"].append(jac)
    res = pa.table(
        {
            "src_a": pa.array(rows["src_a"], pa.string()),
            "src_b": pa.array(rows["src_b"], pa.string()),
            "n_a": pa.array(rows["n_a"], pa.int64()),
            "n_b": pa.array(rows["n_b"], pa.int64()),
            "n_shared": pa.array(rows["n_shared"], pa.int64()),
            "jaccard": pa.array(rows["jaccard"], pa.float64()),
        }
    )
    return rd.from_arrow(res)


def vocab_overlap_sql(table: str = "documents") -> str:
    """DuckDB twin of :func:`vocab_overlap` (distinct (source, term)
    sets, all pairs src_a < src_b incl. zero-overlap, same rounding)."""
    return (
        "WITH tok AS (SELECT DISTINCT source, t.term FROM "
        "(SELECT source, unnest(regexp_split_to_array(lower(text), "
        f"'[^a-z0-9]+')) AS term FROM {table}) t WHERE t.term <> ''), "
        "s AS (SELECT source, count(*) AS nv FROM tok GROUP BY 1), "
        f"srcs AS (SELECT DISTINCT source FROM {table}), "
        "pr AS (SELECT a.source AS src_a, b.source AS src_b FROM srcs a "
        "JOIN srcs b ON a.source < b.source), "
        "sh AS (SELECT a.source AS src_a, b.source AS src_b, count(*) AS ns "
        "FROM tok a JOIN tok b ON a.term = b.term AND a.source < b.source "
        "GROUP BY 1, 2) "
        "SELECT pr.src_a, pr.src_b, "
        "CAST(coalesce(sa.nv, 0) AS BIGINT) AS n_a, "
        "CAST(coalesce(sb.nv, 0) AS BIGINT) AS n_b, "
        "CAST(coalesce(sh.ns, 0) AS BIGINT) AS n_shared, "
        "coalesce(round(coalesce(sh.ns, 0) * 1.0 / "
        "nullif(coalesce(sa.nv, 0) + coalesce(sb.nv, 0) "
        "- coalesce(sh.ns, 0), 0), 4), 0.0) AS jaccard "
        "FROM pr LEFT JOIN s sa ON sa.source = pr.src_a "
        "LEFT JOIN s sb ON sb.source = pr.src_b "
        "LEFT JOIN sh ON sh.src_a = pr.src_a AND sh.src_b = pr.src_b "
        "ORDER BY pr.src_a, pr.src_b"
    )


#: js_divergence source cap — the per-term pivot carries one int64
#: count column per source, so the folded row is 8 + 8·S bytes
JSD_MAX_SOURCES = 32


def js_divergence(ds):
    """Pairwise Jensen–Shannon divergence between the token
    distributions of the corpus ``source`` slices — the standard
    drift / mixing-diagnostic statistic (0 = identical distributions,
    ln 2 = disjoint), reported as ``jsd_qi9 = Σ_t round(c_t·10⁹)``
    (per-TERM contributions integer-scaled before summation, so the
    cross-engine comparison is summation-order-proof — the same
    pattern as the quality/lm scores, applied per term instead of per
    doc).

    Plan: a tiny distinct-``source`` registry pass (≤
    :data:`JSD_MAX_SOURCES`, asserted) → ONE tokenize pass emitting a
    per-batch dense pivot partial (one row per distinct term with S
    int64 count columns) → ONE ``groupby(term)`` fold of S ``Sum``s
    (exchange = vocabulary × (8 + 8·S) bytes) → per-block vectorized
    pair contributions (each block sums its terms' qi into ≤
    S·(S−1)/2 int64 partial rows) → a tiny final
    ``groupby(src_a, src_b)`` fold.  No driver pull of the vocabulary.

    Float parity: ``pa = na·1.0/max(Na,1)``, ``m = (pa+pb)/2``,
    ``c_t = 0.5·(pa·ln(pa/m) + pb·ln(pb/m))`` with absent sides
    contributing 0 — every op replicated verbatim in the DuckDB twin
    (division by 2 and the pb=0 ⇒ pa/m = 2.0 case are IEEE-exact;
    ``ln`` parity is the same libm reliance as ``lm_score``).

    Output one row per unordered pair: ``(src_a, src_b, jsd_qi9)``
    sorted by (src_a, src_b)."""
    import ray as _ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    src_only = ds.select_columns(["source"])

    def distinct_src(b: pa.Table) -> pa.Table:
        u = np.unique(
            np.asarray(b["source"].to_numpy(zero_copy_only=False),
                       dtype=object)
        )
        return pa.table({"source": pa.array(u, pa.string())})

    reg_parts = [
        p
        for p in _ray.get(
            src_only.map_batches(distinct_src, batch_format="pyarrow")
            .groupby("source")
            .count()
            .to_arrow_refs()
        )
        if p.num_rows
    ]
    sources = sorted(
        set(pa.concat_tables(reg_parts)["source"].to_pylist())
        if reg_parts
        else []
    )
    S = len(sources)
    if S > JSD_MAX_SOURCES:
        raise ValueError(
            f"{S} sources exceeds JSD_MAX_SOURCES={JSD_MAX_SOURCES}; "
            "the dense per-term pivot needs one count column per source"
        )
    idx_of = {s: i for i, s in enumerate(sources)}
    ccols = [f"c{i}" for i in range(S)]
    empty_out = pa.table(
        {"src_a": pa.array([], pa.string()),
         "src_b": pa.array([], pa.string()),
         "qi": pa.array([], pa.int64())}
    )
    if S < 2:
        return rd.from_arrow(
            empty_out.rename_columns(["src_a", "src_b", "jsd_qi9"])
        )

    def pivot_partial(batch: pa.Table) -> pa.Table:
        lexer = _cached(_RepetitionStats).lexer
        parent, codes, uniq = lexer.token_parent_codes(batch["text"])
        if not len(parent):
            return pa.table(
                {"term": pa.array([], pa.string()),
                 **{c: pa.array([], pa.int64()) for c in ccols}}
            )
        src = np.asarray(batch["source"].to_numpy(zero_copy_only=False),
                         dtype=object)
        s_idx = np.array([idx_of[s] for s in src], dtype=np.int64)
        v = int(codes.max()) + 1
        key = s_idx[parent] * v + codes
        ukey, cnt = np.unique(key, return_counts=True)
        terms_u = np.unique(ukey % v)
        pos = np.searchsorted(terms_u, ukey % v)
        mat = np.zeros((len(terms_u), S), dtype=np.int64)
        mat[pos, ukey // v] = cnt
        return pa.table(
            {"term": pa.array(uniq[terms_u], pa.string()),
             **{c: pa.array(mat[:, i], pa.int64())
                for i, c in enumerate(ccols)}}
        )

    folded = (
        ds.select_columns(["source", "text"])
        .map_batches(pivot_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(*[Sum(c, alias_name=c) for c in ccols])
        .materialize()
    )
    totals = folded.aggregate(*[Sum(c, alias_name=c) for c in ccols])
    nt = np.array([int(totals[c] or 0) for c in ccols], dtype=np.float64)

    def pair_partials(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return empty_out
        counts = np.stack(
            [b[c].to_numpy(zero_copy_only=False) for c in ccols], axis=1
        ).astype(np.float64)
        p = counts / np.maximum(nt, 1.0)
        sa, sb, qis = [], [], []
        for i in range(S):
            for j in range(i + 1, S):
                pa_, pb_ = p[:, i], p[:, j]
                m = (pa_ + pb_) / 2
                with np.errstate(divide="ignore", invalid="ignore"):
                    ta = np.where(pa_ > 0, pa_ * np.log(pa_ / m), 0.0)
                    tb = np.where(pb_ > 0, pb_ * np.log(pb_ / m), 0.0)
                c = 0.5 * (ta + tb)
                qi = round_half_away(c * 1000000000.0, 0).astype(np.int64)
                sa.append(sources[i])
                sb.append(sources[j])
                qis.append(int(qi.sum()))
        return pa.table(
            {"src_a": pa.array(sa, pa.string()),
             "src_b": pa.array(sb, pa.string()),
             "qi": pa.array(qis, pa.int64())}
        )

    return (
        folded.map_batches(pair_partials, batch_format="pyarrow")
        .groupby(["src_a", "src_b"])
        .aggregate(Sum("qi", alias_name="jsd_qi9"))
        .sort(["src_a", "src_b"])
    )


def js_divergence_sql(table: str = "documents") -> str:
    """DuckDB twin of :func:`js_divergence` (same per-term double ops,
    same per-term 10⁹ integer scaling before the sum)."""
    return (
        "WITH tok AS (SELECT source, t.term FROM (SELECT source, unnest("
        "regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) t WHERE t.term <> ''), "
        "tc AS (SELECT source, term, count(*) AS n FROM tok GROUP BY 1, 2), "
        f"srcs AS (SELECT DISTINCT source FROM {table}), "
        # tokenless sources must keep a tot row (nt = 0), or the final
        # joins would drop every pair involving them
        "tot AS (SELECT s.source, coalesce(c.nt, 0) AS nt FROM srcs s "
        "LEFT JOIN (SELECT source, count(*) AS nt FROM tok GROUP BY 1) c "
        "USING (source)), "
        "pr AS (SELECT a.source AS sa, b.source AS sb FROM srcs a "
        "JOIN srcs b ON a.source < b.source), "
        "terms AS (SELECT DISTINCT term FROM tc), "
        "grid AS (SELECT pr.sa, pr.sb, t.term, "
        "coalesce(ca.n, 0) AS na, coalesce(cb.n, 0) AS nb "
        "FROM pr CROSS JOIN terms t "
        "LEFT JOIN tc ca ON ca.source = pr.sa AND ca.term = t.term "
        "LEFT JOIN tc cb ON cb.source = pr.sb AND cb.term = t.term "
        "WHERE coalesce(ca.n, 0) + coalesce(cb.n, 0) > 0), "
        "contrib AS (SELECT g.sa, g.sb, "
        "CAST(round(0.5 * ("
        "CASE WHEN g.na > 0 THEN (g.na * 1.0 / greatest(ta.nt, 1)) * "
        "ln((g.na * 1.0 / greatest(ta.nt, 1)) / "
        "(((g.na * 1.0 / greatest(ta.nt, 1)) + "
        "(g.nb * 1.0 / greatest(tb.nt, 1))) / 2)) ELSE 0 END + "
        "CASE WHEN g.nb > 0 THEN (g.nb * 1.0 / greatest(tb.nt, 1)) * "
        "ln((g.nb * 1.0 / greatest(tb.nt, 1)) / "
        "(((g.na * 1.0 / greatest(ta.nt, 1)) + "
        "(g.nb * 1.0 / greatest(tb.nt, 1))) / 2)) ELSE 0 END"
        ") * 1000000000.0) AS BIGINT) AS qi "
        "FROM grid g JOIN tot ta ON ta.source = g.sa "
        "JOIN tot tb ON tb.source = g.sb) "
        "SELECT sa AS src_a, sb AS src_b, CAST(sum(qi) AS BIGINT) "
        "AS jsd_qi9 FROM contrib GROUP BY 1, 2 ORDER BY 1, 2"
    )


def normalize_sql(table: str = "documents") -> str:
    """DuckDB twin of :func:`normalize_text` (same op order)."""
    return (
        "SELECT doc_id, "
        "trim(regexp_replace(lower(nfc_normalize(text)), '\\s+', ' ', 'g')) "
        "AS norm_text, "
        "CAST(length(trim(regexp_replace(lower(nfc_normalize(text)), "
        "'\\s+', ' ', 'g'))) AS BIGINT) AS n_chars "
        f"FROM {table}"
    )


# ---------------------------------------------------------------------------
# Round 5 (final block): per-doc key terms, per-language bigrams, exact
# token-adjacency phrase search.
# ---------------------------------------------------------------------------

#: vocabulary rows above which keyterms_topk switches from the bounded
#: ray.put df broadcast to the fully-distributed copartition join path
KEYTERMS_BROADCAST_LIMIT = 5_000_000


def keyterms_topk(ds, n: int = 3):
    """Per-document top-``n`` DISTINCTIVE terms — the keyword-extraction
    pass of a training-data curation pipeline (tf-idf-style salience
    without the float): rank a doc's terms by ``(tf DESC, df ASC, term
    ASC)`` — highest in-doc frequency first, rarest-in-corpus breaking
    ties — and keep the first ``n``.  All three keys are integers or
    ASCII tokens, so the engine↔SQL comparison is exact (no idf-log
    ulp hazard; cf. the pinned-idf workaround tfidf_features needs).

    Plan: ONE df fold (``_tokenize_task`` partials → ``groupby(term)``
    — exchange bounded by the vocabulary, the term_df/A2 bound), then

    * vocabulary ≤ :data:`KEYTERMS_BROADCAST_LIMIT`: pull the (term,
      df) arrays once, ``ray.put``, and a SECOND streaming pass over
      the corpus computes each doc's tf in-batch (docs never span
      batches), attaches df by searchsorted lookup and selects the
      per-doc top-``n`` with one vectorized lexsort — the big table is
      never shuffled at all;
    * above the limit: :func:`raysearch.util.copartition_attach` joins
      df onto the (doc_id, term, tf) rows by term, then a
      ``groupby(doc_id).map_groups`` window takes the per-doc head —
      both exchanges bounded by Σ per-doc distinct terms, the
      postings_tf/A1 bound; the vocabulary never reaches the driver.

    Both paths emit identical rows (pytest-pinned at a forced-low
    limit).  Output ``(doc_id, rk, term, tf, df)``, rk 1-based, sorted
    by (doc_id, rk)."""
    import ray as _ray
    from ray.data.aggregate import Sum

    from raysearch.util import copartition_attach

    def df_partial(b: pa.Table) -> pa.Table:
        t = _tokenize_task(b)  # (doc_id, term, tf): distinct per doc
        if not t.num_rows:
            return pa.table(
                {"term": pa.array([], pa.string()),
                 "df": pa.array([], pa.int64())}
            )
        terms = np.asarray(t["term"].to_pylist(), dtype=object)
        uniq, counts = np.unique(terms, return_counts=True)
        return pa.table(
            {"term": pa.array(uniq, pa.string()),
             "df": pa.array(counts, pa.int64())}
        )

    dfds = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
        .materialize()
    )
    i64, s = pa.int64(), pa.string()
    empty = pa.table(
        {"doc_id": pa.array([], i64), "rk": pa.array([], i64),
         "term": pa.array([], s), "tf": pa.array([], i64),
         "df": pa.array([], i64)}
    )

    if dfds.count() <= KEYTERMS_BROADCAST_LIMIT:
        parts = [p for p in _ray.get(dfds.to_arrow_refs()) if p.num_rows]
        dt = (
            pa.concat_tables(parts)
            if parts
            else pa.table({"term": pa.array([], s), "df": pa.array([], i64)})
        )
        terms = np.asarray(dt["term"].to_pylist(), dtype=object)
        dfs = dt["df"].to_numpy(zero_copy_only=False)
        order = np.argsort(terms, kind="stable")
        df_ref = _ray.put((terms[order], dfs[order]))

        def topn_broadcast(b: pa.Table) -> pa.Table:
            t_sorted, df_sorted = _ray.get(df_ref)
            doc_ids = b["doc_id"].to_numpy(zero_copy_only=False)
            lexer = _cached(_RepetitionStats).lexer
            parent, codes, uniq = lexer.token_parent_codes(b["text"])
            if not len(codes):
                return empty
            v = len(uniq)
            key = parent.astype(np.int64) * v + codes
            ukeys, tf = np.unique(key, return_counts=True)
            rows, ucodes = ukeys // v, ukeys % v
            # integer sort surrogate for the ASCII term tie-break
            term_rank = np.empty(v, np.int64)
            term_rank[np.argsort(uniq, kind="stable")] = np.arange(v)
            df = df_sorted[np.searchsorted(t_sorted, uniq)][ucodes]
            order = np.lexsort((term_rank[ucodes], df, -tf, rows))
            rows_o = rows[order]
            starts = np.flatnonzero(
                np.r_[True, rows_o[1:] != rows_o[:-1]]
            )
            sizes = np.diff(np.r_[starts, len(rows_o)])
            rk = (
                np.arange(len(rows_o), dtype=np.int64)
                - np.repeat(starts, sizes)
                + 1
            )
            keep = rk <= n
            o = order[keep]
            return pa.table(
                {
                    "doc_id": pa.array(doc_ids[rows[o]], i64),
                    "rk": pa.array(rk[keep], i64),
                    "term": pa.array(uniq[ucodes[o]], s),
                    "tf": pa.array(tf[o], i64),
                    "df": pa.array(df[o], i64),
                }
            )

        out = ds.map_batches(topn_broadcast, batch_format="pyarrow")
        return out.sort(["doc_id", "rk"])

    tf_rows = ds.map_batches(_tokenize_task, batch_format="pyarrow")
    joined = copartition_attach(
        tf_rows,
        dfds,
        "term",
        pa.schema([("doc_id", i64), ("term", s), ("tf", i64)]),
        {"df": i64},
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["tf", "df", "term"], ascending=[False, True, True],
            kind="mergesort",
        ).head(n)
        g = g.reset_index(drop=True)
        g["rk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["doc_id", "rk", "term", "tf", "df"]]

    return (
        joined.groupby("doc_id")
        .map_groups(final, batch_format="pandas")
        .sort(["doc_id", "rk"])
    )


def lang_bigrams(ds, k: int = 10):
    """Per-LANGUAGE top-``k`` token bigrams — :func:`bigram_topk`
    partitioned by the ``lang`` column (the per-domain / per-language
    phrase-statistics pass a multilingual curation pipeline runs).

    Plan: per-batch partial counts keyed on (lang, w1, w2) → one
    ``groupby(lang, w1, w2)`` fold (exchange bounded by distinct
    per-lang bigrams) → block-local per-lang top-``k`` (exact: the
    fold hash-partitions (lang, w1, w2) triples, so folded counts are
    final and any global per-lang top-k row is a block-local one) →
    a ≤ k×blocks×langs candidate sort → per-lang rank in one final
    block.  Ties pin on ascending (w1, w2).  Output ``(lang, rk, w1,
    w2, n)``."""
    from ray.data.aggregate import Sum

    empty = pa.table(
        {"lang": pa.array([], pa.string()),
         "w1": pa.array([], pa.string()),
         "w2": pa.array([], pa.string()),
         "n": pa.array([], pa.int64())}
    )

    def partial(batch: pa.Table) -> pa.Table:
        lexer = _cached(_RepetitionStats).lexer
        langs = np.asarray(batch["lang"].to_pylist(), dtype=object)
        parent, codes, uniq = lexer.token_parent_codes(batch["text"])
        if len(parent) > 1:
            valid = parent[1:] == parent[:-1]
            first, second = codes[:-1][valid], codes[1:][valid]
            par = parent[:-1][valid]
        else:
            first = second = par = np.empty(0, np.int64)
        if not len(first):
            return empty
        lcodes, luniq = pd.factorize(langs)
        v = int(codes.max()) + 1
        key = (
            lcodes[par].astype(np.int64) * v + first.astype(np.int64)
        ) * v + second
        ukeys, counts = np.unique(key, return_counts=True)
        li, rest = ukeys // (v * v), ukeys % (v * v)
        return pa.table(
            {
                "lang": pa.array(np.asarray(luniq, object)[li], pa.string()),
                "w1": pa.array(uniq[rest // v], pa.string()),
                "w2": pa.array(uniq[rest % v], pa.string()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    folded = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "w1", "w2"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def _ranked(b: pa.Table, keep_k: int) -> pa.Table:
        """Sort by (lang, -n, w1, w2) and keep the first ``keep_k``
        rows per lang, attaching the within-lang 1-based rank."""
        b = b.append_column("_negn", pc.multiply(b["n"], pa.scalar(-1)))
        order = pc.sort_indices(
            b,
            sort_keys=[("lang", "ascending"), ("_negn", "ascending"),
                       ("w1", "ascending"), ("w2", "ascending")],
        )
        b = b.take(order)
        langs = np.asarray(b["lang"].to_pylist(), dtype=object)
        if not len(langs):
            return b.append_column("rk", pa.array([], pa.int64()))
        starts = np.flatnonzero(np.r_[True, langs[1:] != langs[:-1]])
        sizes = np.diff(np.r_[starts, len(langs)])
        rk = (
            np.arange(len(langs), dtype=np.int64)
            - np.repeat(starts, sizes)
            + 1
        )
        b = b.append_column("rk", pa.array(rk, pa.int64()))
        return b.filter(pc.less_equal(b["rk"], pa.scalar(keep_k)))

    def local_topk(b: pa.Table) -> pa.Table:
        return _ranked(b, k).drop_columns(["rk"])

    def rank(b: pa.Table) -> pa.Table:
        b = _ranked(b.drop_columns(["_negn"]), k)
        return b.select(["lang", "rk", "w1", "w2", "n"])

    return (
        folded.map_batches(local_topk, batch_format="pyarrow")
        .sort(["lang", "_negn", "w1", "w2"])
        .repartition(1)
        .map_batches(rank, batch_format="pyarrow")
    )


def phrase_search(ds, phrase: tuple[str, ...]):
    """Exact token-adjacency phrase search: per-doc occurrence counts
    of ``phrase`` as CONSECUTIVE simple-mode tokens (the positional /
    phrase-query operator classic search engines layer over the
    posting lists; the reference's conjunctive AND — SURVEY §2 J2 —
    is the unordered relaxation of this).

    Plan: zero-shuffle — docs never span batches, so one streaming
    pass computes each batch's counts: tokenize to integer codes, map
    the phrase words into the batch dictionary (searchsorted over the
    sorted batch vocabulary — absent word ⇒ no hits), AND together
    the L shifted code-equality masks plus a same-row mask, and
    bincount hits per row.  Emits only matching docs.  Output
    ``(doc_id, n_hits)`` sorted by doc_id."""
    words = [w.lower() for w in phrase]
    if not words:
        raise ValueError("empty phrase")
    L = len(words)
    warr = np.asarray(words, dtype=object)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "n_hits": pa.array([], pa.int64())}
    )

    def find(batch: pa.Table) -> pa.Table:
        lexer = _cached(_RepetitionStats).lexer
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        parent, codes, uniq = lexer.token_parent_codes(batch["text"])
        if len(codes) < L:
            return empty
        vorder = np.argsort(uniq, kind="stable")
        pos = np.searchsorted(uniq[vorder], warr)
        if (pos >= len(uniq)).any() or (uniq[vorder][pos] != warr).any():
            return empty
        wcodes = vorder[pos]
        span = len(codes) - L + 1
        m = codes[:span] == wcodes[0]
        for j in range(1, L):
            m &= codes[j:span + j] == wcodes[j]
        m &= parent[:span] == parent[L - 1:]
        if not m.any():
            return empty
        upar, counts = np.unique(parent[:span][m], return_counts=True)
        return pa.table(
            {"doc_id": pa.array(doc_ids[upar], pa.int64()),
             "n_hits": pa.array(counts, pa.int64())}
        )

    return ds.map_batches(find, batch_format="pyarrow").sort("doc_id")


def keyterms_sql(n: int, table: str = "documents") -> str:
    """DuckDB twin of :func:`keyterms_topk` (same integer keys, same
    tie pins)."""
    return (
        "WITH tok AS (SELECT doc_id, t.term FROM (SELECT doc_id, "
        "unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) t WHERE t.term <> ''), "
        "tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2), "
        "df AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok "
        "GROUP BY 1), "
        "r AS (SELECT tf.doc_id, tf.term, tf.tf, df.df, "
        "row_number() OVER (PARTITION BY tf.doc_id "
        "ORDER BY tf.tf DESC, df.df ASC, tf.term) AS rk "
        "FROM tf JOIN df USING (term)) "
        "SELECT doc_id, CAST(rk AS BIGINT) AS rk, term, "
        "CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df "
        f"FROM r WHERE rk <= {n} ORDER BY doc_id, rk"
    )


def lang_bigrams_sql(k: int, table: str = "documents") -> str:
    """DuckDB twin of :func:`lang_bigrams` (same tie pins)."""
    return (
        "WITH f AS (SELECT lang, list_filter(regexp_split_to_array("
        f"lower(text), '[^a-z0-9]+'), t -> t <> '') AS ts FROM {table}), "
        "b AS (SELECT lang, ts[i] AS w1, ts[i+1] AS w2 FROM f, "
        "unnest(generate_series(1, len(ts)-1)) AS u(i)), "
        "c AS (SELECT lang, w1, w2, count(*) AS n FROM b GROUP BY 1, 2, 3), "
        "r AS (SELECT lang, w1, w2, n, row_number() OVER ("
        "PARTITION BY lang ORDER BY n DESC, w1, w2) AS rk FROM c) "
        "SELECT lang, CAST(rk AS BIGINT) AS rk, w1, w2, "
        f"CAST(n AS BIGINT) AS n FROM r WHERE rk <= {k} "
        "ORDER BY lang, rk"
    )


def phrase_search_sql(phrase: tuple[str, ...],
                      table: str = "documents") -> str:
    """DuckDB twin of :func:`phrase_search` (adjacency via the array
    index arithmetic the bigram oracle uses)."""
    words = [w.lower() for w in phrase]
    L = len(words)
    conds = " AND ".join(
        f"ts[i+{j}] = '{w}'" if j else f"ts[i] = '{w}'"
        for j, w in enumerate(words)
    )
    return (
        "WITH f AS (SELECT doc_id, list_filter(regexp_split_to_array("
        f"lower(text), '[^a-z0-9]+'), t -> t <> '') AS ts FROM {table}), "
        "m AS (SELECT doc_id FROM f, "
        f"unnest(generate_series(1, len(ts)-{L - 1})) AS u(i) "
        f"WHERE {conds}) "
        "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits FROM m "
        "GROUP BY doc_id ORDER BY doc_id"
    )


def dup_span_stats(ds, k: int = FP_K, w: int = FP_W, base: int = FP_BASE):
    """Cross-document substring-duplication evidence per doc — the
    exact-substring complement of MinHash near-dup (Lee et al.'s
    "Deduplicating Training Data Makes Language Models Better"
    motivates removing repeated spans; winnowing bounds the index):
    for each doc, how many of its winnowed fingerprints are SHARED
    with at least one other doc.  ``n_shared / n_fp`` is the
    duplicated-span fraction a curation pipeline thresholds on.

    Plan: :func:`doc_fingerprints` (partition-local, no shuffle) →
    one ``groupby(fp)`` distinct-doc count (exchange bounded by the
    distinct-fingerprint count, ~|text|/w per doc) →
    :func:`raysearch.util.copartition_attach` of the per-fp doc count
    back onto the fingerprint rows → one ``groupby(doc_id)`` fold to
    (n_fp, n_shared) — both exchanges bounded, no driver state.  Docs
    too short to emit a fingerprint are absent (same as the SQL twin).

    The uint64 fp is BIT-CAST to int64 before it becomes an exchange
    key: Ray Data's shuffle paths route keys through pandas, where
    uint64 degrades to float64 (53-bit mantissa) and distinct
    fingerprints can collide depending on the partition layout —
    observed as nondeterministic row loss at 4 CPUs.  The cast is a
    pure relabeling (bijective), so counts are unaffected.

    Output ``(doc_id, n_fp, n_shared)`` sorted by doc_id."""
    from ray.data.aggregate import Sum

    from raysearch.util import copartition_attach

    def as_i64(b: pa.Table) -> pa.Table:
        fp = b["fp"].to_numpy(zero_copy_only=False).view(np.int64)
        return pa.table(
            {"doc_id": b["doc_id"], "fp": pa.array(fp, pa.int64())}
        )

    fps = doc_fingerprints(ds, k=k, w=w, base=base).map_batches(
        as_i64, batch_format="pyarrow"
    )

    def fp_partial(b: pa.Table) -> pa.Table:
        # distinct docs per fp within the batch; summing partials is
        # exact because doc_fingerprints emits DISTINCT (doc_id, fp)
        return pa.table(
            {"fp": b["fp"], "nd": pa.array(np.ones(b.num_rows, np.int64))}
        )

    counts = (
        fps.map_batches(fp_partial, batch_format="pyarrow")
        .groupby("fp")
        .aggregate(Sum("nd", alias_name="nd"))
    )
    joined = copartition_attach(
        fps,
        counts,
        "fp",
        pa.schema([("doc_id", pa.int64()), ("fp", pa.int64())]),
        {"nd": pa.int64()},
    )

    def to_flags(b: pa.Table) -> pa.Table:
        shared = pc.cast(
            pc.greater_equal(b["nd"], pa.scalar(2, pa.int64())), pa.int64()
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_fp": pa.array(np.ones(b.num_rows, np.int64)),
                "n_shared": shared,
            }
        )

    return (
        joined.map_batches(to_flags, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum("n_fp", alias_name="n_fp"),
            Sum("n_shared", alias_name="n_shared"),
        )
        .sort("doc_id")
    )


def lang_mismatch(ds, train_n: int = LANGID_TRAIN_N,
                  profile_m: int = LANGID_PROFILE_M):
    """Label/prediction disagreement audit — documents whose
    :func:`lang_id_ngram` prediction differs from their ``lang``
    label (the curation-QA pass that surfaces mislabeled or
    code-switched documents before training).

    Composition, not new machinery: the langid prediction stream is
    joined back to the (doc_id, lang) label pairs with ONE
    ``copartition_attach`` (docs-bounded — labels are metadata, text
    never re-ships) and filtered to disagreements.  Output
    ``(doc_id, lang, lang_pred, matches)`` sorted by doc_id."""
    from raysearch.util import copartition_attach

    pred = lang_id_ngram(ds, train_n=train_n, profile_m=profile_m)
    labels = ds.select_columns(["doc_id", "lang"])
    joined = copartition_attach(
        pred.map_batches(
            lambda b: b.select(["doc_id", "lang_pred", "matches"]),
            batch_format="pyarrow",
        ),
        labels,
        "doc_id",
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("lang_pred", pa.string()),
                ("matches", pa.int64()),
            ]
        ),
        {"lang": pa.string()},
    )

    def keep_mismatch(b: pa.Table) -> pa.Table:
        b = b.filter(pc.not_equal(b["lang_pred"], b["lang"]))
        return b.select(["doc_id", "lang", "lang_pred", "matches"])

    return (
        joined.map_batches(keep_mismatch, batch_format="pyarrow")
        .sort("doc_id")
    )


def proximity_search(ds, terms: tuple[str, ...], w: int):
    """Windowed multi-term proximity search (the NEAR/``w`` sloppy
    phrase operator classic engines layer over positional postings;
    :func:`phrase_search` is its ``w = len(terms)``, ordered
    tightening and the reference's conjunctive AND — SURVEY §2 J2 —
    its ``w = ∞`` relaxation): per doc, the number of length-``w``
    token windows containing ALL the (distinct) query terms.

    Plan: zero-shuffle, like phrase_search — docs never span
    batches, so one streaming pass per batch: tokenize to integer
    codes, resolve each term in the batch dictionary (absent term ⇒
    batch emits nothing), one cumulative-sum per term turns
    "window [i, i+w) contains the term" into a vectorized range-sum
    positivity test, AND across terms plus a same-doc mask
    (``parent[i] == parent[i+w-1]`` — windows never straddle a doc
    boundary), bincount hits per doc.  Emits only matching docs.
    Output ``(doc_id, n_windows)`` sorted by doc_id."""
    words = sorted({t.lower() for t in terms})
    if not words:
        raise ValueError("empty terms")
    if w < len(words):
        raise ValueError("window shorter than the distinct term count")
    warr = np.asarray(words, dtype=object)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "n_windows": pa.array([], pa.int64())}
    )

    def find(batch: pa.Table) -> pa.Table:
        lexer = _cached(_RepetitionStats).lexer
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        parent, codes, uniq = lexer.token_parent_codes(batch["text"])
        if len(codes) < w:
            return empty
        vorder = np.argsort(uniq, kind="stable")
        pos = np.searchsorted(uniq[vorder], warr)
        if (pos >= len(uniq)).any() or (uniq[vorder][pos] != warr).any():
            return empty
        wcodes = vorder[pos]
        span = len(codes) - w + 1
        m = parent[:span] == parent[w - 1:]
        for code in wcodes:
            c = np.concatenate(
                ([0], np.cumsum(codes == code, dtype=np.int64))
            )
            m &= (c[w:] - c[:span]) > 0
        if not m.any():
            return empty
        upar, counts = np.unique(parent[:span][m], return_counts=True)
        return pa.table(
            {"doc_id": pa.array(doc_ids[upar], pa.int64()),
             "n_windows": pa.array(counts, pa.int64())}
        )

    return ds.map_batches(find, batch_format="pyarrow").sort("doc_id")


def proximity_search_sql(terms: tuple[str, ...], w: int,
                         table: str = "documents") -> str:
    """DuckDB twin of :func:`proximity_search` (window join +
    distinct-term count)."""
    words = sorted({t.lower() for t in terms})
    in_list = ", ".join(f"'{t}'" for t in words)
    return (
        "WITH f AS (SELECT doc_id, list_filter(regexp_split_to_array("
        f"lower(text), '[^a-z0-9]+'), t -> t <> '') AS ts FROM {table}), "
        "pos AS (SELECT doc_id, u.i, ts[u.i] AS tok FROM f, "
        "unnest(generate_series(1, len(ts))) AS u(i) "
        f"WHERE ts[u.i] IN ({in_list})), "
        "win AS (SELECT doc_id, u.i FROM f, "
        f"unnest(generate_series(1, len(ts) - {w - 1})) AS u(i)), "
        "hit AS (SELECT w.doc_id, w.i FROM win w JOIN pos p "
        "ON p.doc_id = w.doc_id AND p.i >= w.i "
        f"AND p.i < w.i + {w} "
        f"GROUP BY 1, 2 HAVING count(DISTINCT p.tok) = {len(words)}) "
        "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_windows "
        "FROM hit GROUP BY 1 ORDER BY 1"
    )


#: vocabulary terms per batched edit-distance DP in :func:`fuzzy_terms`
#: (bounds its padded code-point matrix, not its result)
FUZZY_DP_SLICE = 4096


def fuzzy_terms(ds, query: str, max_d: int = 1):
    """Spell-correction candidates for a query term: corpus
    vocabulary terms within Levenshtein distance ``max_d`` of
    ``query``, with their document frequencies ``(term, d, df)``
    sorted by (d, df desc, term) — the did-you-mean fallback a
    search engine offers when a query term misses the lexicon
    (reference analog: none; the reference returns an empty result
    for unknown lemmas, SearchServiceImpl.java:118).

    Plan: tokenize → per-batch distinct (term, doc) partials → ONE
    ``groupby(term)`` df fold (vocabulary-bounded, the term_df
    primitive) → a zero-shuffle vectorized filter: terms outside
    ``len(query) ± max_d`` drop on length alone, survivors run the
    batched capped DP that ``IndexSearcher.suggest`` runs
    (``dedup._lev_capped_many``), :data:`FUZZY_DP_SLICE` terms at a
    time — |query| numpy steps per slice over at most
    ``FUZZY_DP_SLICE × (|query| + max_d)`` cells, embarrassingly
    parallel, nothing vocab-scale on the driver."""
    q = query.lower()
    from ray.data.aggregate import Sum

    from raysearch.pipelines.dedup import _lev_capped_many

    def df_partial(b: pa.Table) -> pa.Table:
        lexer = _cached(_RepetitionStats).lexer
        parent, codes, uniq = lexer.token_parent_codes(b["text"])
        if len(codes) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()),
                 "df": pa.array([], pa.int64())}
            )
        pair = parent.astype(np.int64) * np.int64(len(uniq)) + codes
        upair = np.unique(pair)
        ucode, cnt = np.unique(upair % len(uniq), return_counts=True)
        return pa.table(
            {
                "term": pa.array(uniq[ucode], pa.string()),
                "df": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    df = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
    )

    def near(b: pa.Table) -> pa.Table:
        terms = b["term"].to_numpy(zero_copy_only=False)
        dfs = pc.cast(b["df"], pa.int64()).to_numpy(zero_copy_only=False)
        lens = np.array([len(t) for t in terms], np.int64)
        cand = np.flatnonzero(np.abs(lens - len(q)) <= max_d)
        dist = np.empty(len(cand), np.int64)
        for s in range(0, len(cand), FUZZY_DP_SLICE):
            part = terms[cand[s : s + FUZZY_DP_SLICE]].tolist()
            dist[s : s + FUZZY_DP_SLICE] = _lev_capped_many(q, part, max_d)
        hit = dist <= max_d
        return pa.table(
            {
                "term": pa.array(terms[cand[hit]], pa.string()),
                "d": pa.array(dist[hit], pa.int64()),
                "df": pa.array(dfs[cand[hit]], pa.int64()),
            }
        )

    return df.map_batches(near, batch_format="pyarrow").sort(
        ["d", "df", "term"], descending=[False, True, False]
    )


def fuzzy_terms_sql(query: str, max_d: int = 1,
                    table: str = "documents") -> str:
    """DuckDB twin of :func:`fuzzy_terms` (levenshtein() over the
    distinct-term df aggregate)."""
    q = query.lower().replace("'", "''")
    return (
        "WITH tok AS (SELECT doc_id, t.term FROM (SELECT doc_id, "
        "unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) t WHERE t.term <> ''), "
        "df AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok "
        "GROUP BY 1) "
        f"SELECT term, CAST(levenshtein(term, '{q}') AS BIGINT) AS d, "
        "CAST(df AS BIGINT) AS df FROM df "
        f"WHERE levenshtein(term, '{q}') <= {max_d} "
        "ORDER BY d, df DESC, term"
    )
