"""Distributed sketches with EXACT SQL-oracle parity: HyperLogLog
registers over the corpus token vocabulary (cardinality), and a
Count-Min sketch over token occurrences (frequency).  Both are
deterministic integer functions of md5, so their DuckDB twins are
bitwise oracles, not approximate-vs-exact comparisons.

The classic 100-TB question "how many distinct tokens / urls / users
does this corpus have?" is an all-to-all ``unique`` in naive form; the
HLL sketch answers it with ONE streaming pass and a fixed-size
exchange.  Plan (textbook partial-aggregate shape):

1. ``map_batches``: each block tokenizes its rows (the shared
   SQL-parity ``Lexer("simple")``), hashes its DISTINCT tokens, and
   folds them into a local ``m = 2^p`` register array
   (``np.maximum.at``) — emitted as at most ``m`` (bucket, register)
   rows per block.  Duplicate tokens across blocks are harmless: HLL
   registers are a max, insensitive to multiplicity.
2. one tiny ``groupby(bucket).max`` — the ONLY exchange, bounded by
   ``blocks × m`` integer rows regardless of corpus size.
3. ``sort("bucket")`` pins the (at most ``m``-row) output order.

Register math (and why the oracle is exact, not approximate-vs-exact):
the registers are a DETERMINISTIC integer function of the md5 hash of
each token, so a SQL engine can replicate them bit-for-bit —
``md5_number_upper(term)`` in DuckDB equals the first 8 bytes of
Python's ``hashlib.md5`` digest read little-endian (verified in
tests).  With ``h`` that u64 and ``p`` bucket bits:

    bucket   = h >> (64 - p)
    w        = h & ((1 << (64 - p)) - 1)
    register = (64 - p + 1) - bitlength(w)      # w == 0 → 64 - p + 1

``bitlength(w) = length(bin(w))`` in SQL; in numpy it is the binary
exponent from ``np.frexp`` — exact because ``w < 2^52 < 2^53`` is
representable in float64.  The ESTIMATE (``hll_estimate``) is the
standard bias-corrected harmonic mean (Flajolet et al. 2007, public
paper) and is checked in pytest against the exact distinct count; the
gate row hashes the integer registers, where exactness is bitwise.

Reference analog: none (the reference engine has no sketches); this is
a §brief "novel sketch" custom operator.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from raysearch.lex import Lexer

#: default precision: m = 4096 registers, relative error ≈ 1.04/√m ≈ 1.6%
HLL_P = 12


def md5_u64(values) -> np.ndarray:
    """First 8 md5 digest bytes, little-endian — DuckDB
    ``md5_number_upper`` parity (the SQL twin's hash)."""
    return np.array(
        [
            int.from_bytes(hashlib.md5(v.encode()).digest()[:8], "little")
            for v in values
        ],
        dtype=np.uint64,
    )


def hll_fold(reg: np.ndarray, hashes: np.ndarray, p: int) -> None:
    """Fold u64 hashes into an existing ``2^p`` register array in
    place (max-merge — associative, commutative, idempotent)."""
    if not len(hashes):
        return
    wbits = 64 - p
    bucket = (hashes >> np.uint64(wbits)).astype(np.int64)
    w = (hashes & np.uint64((1 << wbits) - 1)).astype(np.float64)
    blen = np.zeros(len(hashes), np.int64)
    nz = w > 0
    # exact integer bitlength: w < 2^52 is exactly representable, and
    # frexp returns the true binary exponent (w = mant · 2^exp)
    blen[nz] = np.frexp(w[nz])[1]
    rank = np.int64(wbits + 1) - blen
    np.maximum.at(reg, bucket, rank)


_LEXER_CACHE: dict[str, Lexer] = {}


def _hll_partial_task(batch: pa.Table, *, p: int) -> pa.Table:
    lexer = _LEXER_CACHE.get("simple")
    if lexer is None:
        lexer = _LEXER_CACHE["simple"] = Lexer("simple")
    reg = np.zeros(1 << p, np.int64)
    _, _, uniq = lexer.token_parent_codes(batch["text"])
    hll_fold(reg, md5_u64(list(uniq)), p)
    nzb = np.nonzero(reg)[0]
    return pa.table(
        {
            "bucket": pa.array(nzb, pa.int64()),
            "register": pa.array(reg[nzb], pa.int64()),
        }
    )


def hll_vocab_registers(ds, p: int = HLL_P):
    """documents(text) → the corpus vocabulary's HLL register table
    ``(bucket, register)``, ≤ ``2^p`` rows, sorted by bucket."""
    from ray.data.aggregate import Max

    return (
        ds.map_batches(
            _hll_partial_task, fn_kwargs={"p": p}, batch_format="pyarrow"
        )
        .groupby("bucket")
        .aggregate(Max("register", alias_name="register"))
        .sort("bucket")
    )


def _hll_grouped_partial_task(batch: pa.Table, *, key: str, p: int) -> pa.Table:
    """Per-block grouped partial: one sparse register set per distinct
    ``key`` value in the block — the grouped-sketch pattern that
    replaces ``groupby(key).unique(col)`` (an all-to-all over every
    distinct value) with a ≤ groups×2^p integer exchange."""
    lexer = _LEXER_CACHE.get("simple")
    if lexer is None:
        lexer = _LEXER_CACHE["simple"] = Lexer("simple")
    parent, codes, uniq = lexer.token_parent_codes(batch["text"])
    huniq = md5_u64(list(uniq))
    keys = batch[key].to_numpy(zero_copy_only=False)
    gvals, ginv = np.unique(keys, return_inverse=True)
    m = 1 << p
    wbits = 64 - p
    # per-token (group, bucket) max-rank fold, fully vectorized
    h = huniq[codes]
    g = ginv[parent].astype(np.int64)
    bucket = (h >> np.uint64(wbits)).astype(np.int64)
    w = (h & np.uint64((1 << wbits) - 1)).astype(np.float64)
    blen = np.zeros(len(h), np.int64)
    nz = w > 0
    blen[nz] = np.frexp(w[nz])[1]
    rank = np.int64(wbits + 1) - blen
    reg = np.zeros(len(gvals) * m, np.int64)
    np.maximum.at(reg, g * m + bucket, rank)
    nzi = np.nonzero(reg)[0]
    return pa.table(
        {
            key: pa.array(gvals[nzi // m], pa.string()),
            "bucket": pa.array(nzi % m, pa.int64()),
            "register": pa.array(reg[nzi], pa.int64()),
        }
    )


def hll_grouped_registers(ds, key: str = "lang", p: int = HLL_P):
    """documents(key, text) → per-group HLL register table
    ``(key, bucket, register)`` sorted by (key, bucket) — distinct-
    token cardinality per group without shuffling any token."""
    from ray.data.aggregate import Max

    return (
        ds.map_batches(
            _hll_grouped_partial_task,
            fn_kwargs={"key": key, "p": p},
            batch_format="pyarrow",
        )
        .groupby([key, "bucket"])
        .aggregate(Max("register", alias_name="register"))
        .sort([key, "bucket"])
    )


# ---------------------------------------------------------------------------
# Count-Min frequency sketch (Cormode & Muthukrishnan 2005, public paper)
# ---------------------------------------------------------------------------

#: default geometry: d salted hash rows × w counters; point-query
#: overestimate ≤ e/w · N with prob ≥ 1 - e^-d (N = total token count)
CM_D = 4
CM_W = 1024


def _cm_partial_task(batch: pa.Table, *, d: int, w: int) -> pa.Table:
    """Per-block Count-Min partial: token-OCCURRENCE counts folded
    into a local d×w counter grid (sum-merge — the sketch is linear,
    so per-block partials + one groupby-sum equal the global sketch)."""
    lexer = _LEXER_CACHE.get("simple")
    if lexer is None:
        lexer = _LEXER_CACHE["simple"] = Lexer("simple")
    _, codes, uniq = lexer.token_parent_codes(batch["text"])
    grid = np.zeros(d * w, np.int64)
    if len(codes):
        tf = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        for r in range(d):
            # salted hash "r:term" — SQL-replicable (md5_number_upper
            # of the same concatenation; parity pinned in tests)
            cell = (md5_u64([f"{r}:{t}" for t in uniq]) % np.uint64(w)).astype(
                np.int64
            )
            np.add.at(grid, r * w + cell, tf)
    nzi = np.nonzero(grid)[0]
    return pa.table(
        {
            "row": pa.array(nzi // w, pa.int64()),
            "cell": pa.array(nzi % w, pa.int64()),
            "n": pa.array(grid[nzi], pa.int64()),
        }
    )


def cm_token_counters(ds, d: int = CM_D, w: int = CM_W):
    """documents(text) → the corpus token-frequency Count-Min sketch
    ``(row, cell, n)``, ≤ d·w rows, sorted by (row, cell).  Linear
    sketch: one streaming pass, a ≤ blocks×d·w integer exchange, and
    (unlike a full term_df groupby) an exchange bounded by the sketch
    geometry rather than the vocabulary."""
    from ray.data.aggregate import Sum

    return (
        ds.map_batches(
            _cm_partial_task, fn_kwargs={"d": d, "w": w},
            batch_format="pyarrow",
        )
        .groupby(["row", "cell"])
        .aggregate(Sum("n", alias_name="n"))
        .sort(["row", "cell"])
    )


def cm_estimate(
    rows: np.ndarray,
    cells: np.ndarray,
    counts: np.ndarray,
    terms: list[str],
    d: int = CM_D,
    w: int = CM_W,
) -> np.ndarray:
    """Point-query estimates for ``terms`` from a (possibly sparse)
    sketch table — min over the d salted rows; always ≥ the true
    count, ≤ true + (e/w)·N with probability ≥ 1 - e^-d."""
    grid = np.zeros((d, w), np.int64)
    grid[np.asarray(rows, np.int64), np.asarray(cells, np.int64)] = np.asarray(
        counts, np.int64
    )
    est = np.full(len(terms), np.iinfo(np.int64).max, np.int64)
    for r in range(d):
        cell = (md5_u64([f"{r}:{t}" for t in terms]) % np.uint64(w)).astype(
            np.int64
        )
        est = np.minimum(est, grid[r, cell])
    return est


def hll_estimate(buckets: np.ndarray, registers: np.ndarray, p: int = HLL_P) -> float:
    """Bias-corrected HLL cardinality estimate from a (possibly sparse)
    register table — absent buckets are zero registers."""
    m = 1 << p
    full = np.zeros(m, np.float64)
    full[np.asarray(buckets, np.int64)] = np.asarray(registers, np.float64)
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-full))
    zeros = m - np.count_nonzero(full)
    if e <= 2.5 * m and zeros:
        e = m * np.log(m / zeros)  # linear-counting small-range correction
    return float(e)


#: heavy-hitter threshold: report terms with count · k > total tokens
#: (the synthetic vocabulary is near-uniform over ~31 terms with top
#: share ≈ 3.5%, so 1/30 ≈ 3.33% yields a non-trivial hitter set;
#: real corpora are Zipfian and any k works)
HH_K = 30

#: hard bound on the candidate union pulled to the driver (the same
#: discipline as dedup.BROADCAST_ID_LIMIT): per-block candidates are
#: ≤ k each, so the union is ≤ min(vocab, blocks·k) — at 100 TB with
#: ~10^5 blocks and k ≈ 8-64 that is ≤ ~10^6, far under this cap
HH_CAND_LIMIT = 10_000_000


def _hh_candidate_task(batch: pa.Table, *, k: int) -> pa.Table:
    lexer = _LEXER_CACHE.get("simple")
    if lexer is None:
        lexer = _LEXER_CACHE["simple"] = Lexer("simple")
    _, codes, uniq = lexer.token_parent_codes(batch["text"])
    n = len(codes)
    if n == 0:
        return pa.table({"term": pa.array([], pa.string())})
    cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
    keep = cnt * k > n
    return pa.table({"term": pa.array(uniq[keep], pa.string())})


def heavy_hitters(ds, k: int = HH_K):
    """EXACT φ-heavy hitters (φ = 1/``k``) over the corpus token
    stream in two bounded passes — the classic Misra-Gries /
    SpaceSaving question ("which tokens exceed a 1/k share of 100 TB
    of text?") answered WITHOUT a vocabulary-wide ``groupby(term)``
    shuffle and with exact output (not summary estimates):

    1. **candidates** — per block, the terms whose IN-BLOCK share
       exceeds 1/k (blocks are in-memory Arrow, so the exact
       per-block counts MG would approximate are free; the MG
       guarantee survives by the average argument: a term with
       global count > N/k must exceed share 1/k in ≥ 1 block, so
       the union of per-block candidate sets is a superset of every
       global heavy hitter).  Each block emits ≤ k terms; the union
       is deduped by a tiny ``groupby(term)`` bounded by blocks·k
       rows and pulled to the driver under ``HH_CAND_LIMIT``.
    2. **verification** — the sorted candidate array is broadcast
       ONCE (``ray.put``); a second streaming pass emits exact
       per-block counts for candidate terms only (plus one sentinel
       row carrying the block's token total), one ``groupby(term)``
       fold bounded by candidates+1 keys, and the driver filters
       ``n · k > N`` on ≤ candidates rows.

    False positives cost only verification rows; false negatives are
    impossible.  Output ``(term, n)``, n desc, term asc tie-break —
    exact counts, so the DuckDB twin is a plain HAVING clause.

    Reference analog: none (brief "novel sketch" family, with
    :func:`hll_vocab_registers` and :func:`cm_token_counters`)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    import functools
    import pandas as pd

    cand = (
        ds.map_batches(
            functools.partial(_hh_candidate_task, k=k),
            batch_format="pyarrow",
        )
        .groupby("term")
        .count()
    )
    cand_pdf = cand.to_pandas()  # ≤ min(vocab, blocks·k) rows
    if len(cand_pdf) == 0:
        # no block-local candidate anywhere ⇒ (by the average
        # argument) no global hitter exists
        return rd.from_arrow(
            pa.table(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        )
    if len(cand_pdf) > HH_CAND_LIMIT:
        raise ValueError(
            f"heavy-hitter candidate union {len(cand_pdf)} exceeds "
            f"HH_CAND_LIMIT={HH_CAND_LIMIT}; raise k or the cap"
        )
    terms = np.sort(cand_pdf["term"].to_numpy(dtype=object))
    ref = ray.put(terms)

    def count_task(batch: pa.Table) -> pa.Table:
        w = ray.get(ref)
        lexer = _LEXER_CACHE.get("simple")
        if lexer is None:
            lexer = _LEXER_CACHE["simple"] = Lexer("simple")
        _, codes, uniq = lexer.token_parent_codes(batch["text"])
        n = len(codes)
        out_t = [""]
        out_n = [n]
        if n and len(w):
            cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
            pos = np.searchsorted(w, uniq)
            pos[pos >= len(w)] = len(w) - 1
            hit = w[pos] == uniq
            out_t.extend(uniq[hit].tolist())
            out_n.extend(cnt[hit].tolist())
        return pa.table(
            {
                "term": pa.array(out_t, pa.string()),
                "n": pa.array(np.asarray(out_n, np.int64), pa.int64()),
            }
        )

    folded = (
        ds.map_batches(count_task, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
    )
    pdf = folded.to_pandas()  # ≤ candidates + 1 rows (the "" sentinel
    # carries N; tokens are never empty, so it cannot collide)
    total = int(pdf.loc[pdf["term"] == "", "n"].iloc[0])
    out = pdf[pdf["term"] != ""].copy()
    out = out[out["n"].to_numpy(np.int64) * k > total]
    out = out.sort_values(
        ["n", "term"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    return rd.from_pandas(
        pd.DataFrame(
            {
                "term": out["term"].astype(str),
                "n": out["n"].to_numpy(np.int64),
            }
        )
    )


def heavy_hitters_sql(k: int = HH_K, table: str = "documents") -> str:
    """DuckDB twin of :func:`heavy_hitters` (exact counts, integer
    threshold compare — no division crosses engines)."""
    return (
        "WITH tok AS (SELECT t.term FROM (SELECT "
        "unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) t WHERE t.term <> ''), "
        "c AS (SELECT term, count(*) AS n FROM tok GROUP BY 1), "
        "tot AS (SELECT count(*) AS total FROM tok) "
        "SELECT term, CAST(n AS BIGINT) AS n FROM c, tot "
        f"WHERE n * {k} > total ORDER BY n DESC, term"
    )


#: Bloom geometry: m = 2^14 bits, k = 4 double-hashed probes
BLOOM_M_BITS = 14
BLOOM_K = 4


def bloom_positions(h: np.ndarray, m_bits: int = BLOOM_M_BITS,
                    k: int = BLOOM_K) -> np.ndarray:
    """(n, k) bit positions via Kirsch–Mitzenmacher double hashing
    over ONE md5 u64: ``bit_i = (h1 + i·h2) mod m`` with
    ``h1 = h & (m-1)`` (low bits — HLL's bucket uses the TOP bits,
    so the two sketches stay decorrelated) and ``h2 = (h >> 32) | 1``
    (odd).  Every operation is exact UBIGINT arithmetic, so DuckDB
    replicates the positions bit-for-bit."""
    m = np.int64(1 << m_bits)
    h1 = (h & np.uint64(m - 1)).astype(np.int64)
    h2 = (((h >> np.uint64(32)) | np.uint64(1))
          & np.uint64(0xFFFFFFFF)).astype(np.int64)
    i = np.arange(k, dtype=np.int64)
    return (h1[:, None] + i[None, :] * h2[:, None]) & (m - 1)


def bloom_vocab_bits(ds, m_bits: int = BLOOM_M_BITS, k: int = BLOOM_K):
    """documents(text) → the SET BITS of a Bloom filter over the
    corpus vocabulary ``(bit)``, sorted — the membership sketch
    completing the family (HLL = cardinality, Count-Min = frequency,
    heavy_hitters = exact top shares, Bloom = membership): a
    downstream decontaminate-style stage tests "is this token in the
    corpus vocabulary?" against ≤ 2^m_bits bits instead of the
    vocabulary itself.

    Same exchange shape as HLL: per-block distinct tokens hash and
    set bits locally (OR-fold — associative, commutative,
    idempotent, so cross-block duplicates are harmless), ONE
    ``groupby(bit)`` dedup bounded by ``blocks × m`` rows, pinned
    sort.  The bits are a deterministic function of md5, so the
    DuckDB twin is bitwise-exact, not approximate-vs-exact."""

    def partial(batch: pa.Table) -> pa.Table:
        lexer = _LEXER_CACHE.get("simple")
        if lexer is None:
            lexer = _LEXER_CACHE["simple"] = Lexer("simple")
        _, _, uniq = lexer.token_parent_codes(batch["text"])
        if len(uniq) == 0:
            return pa.table({"bit": pa.array([], pa.int64())})
        pos = bloom_positions(md5_u64(list(uniq)), m_bits, k)
        return pa.table(
            {"bit": pa.array(np.unique(pos.ravel()), pa.int64())}
        )

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"bit": b["bit"].cast(pa.int64())})

    deduped = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bit")
        .count()
    )
    return deduped.map_batches(project, batch_format="pyarrow").sort("bit")


def bloom_contains(bits: np.ndarray, terms: list[str],
                   m_bits: int = BLOOM_M_BITS, k: int = BLOOM_K) -> np.ndarray:
    """Membership probe against the SORTED set-bit array
    :func:`bloom_vocab_bits` produced: True ⇔ all k probe bits set
    (no false negatives; FP rate ≈ (1 - e^{-kn/m})^k)."""
    if len(terms) == 0:
        return np.zeros(0, bool)
    pos = bloom_positions(md5_u64(list(terms)), m_bits, k)
    idx = np.searchsorted(bits, pos)
    idx[idx >= len(bits)] = max(len(bits) - 1, 0)
    found = (bits[idx] == pos) if len(bits) else np.zeros_like(pos, bool)
    return found.all(axis=1)


def bloom_vocab_bits_sql(m_bits: int = BLOOM_M_BITS, k: int = BLOOM_K,
                         table: str = "documents") -> str:
    """DuckDB twin of :func:`bloom_vocab_bits` (same double-hash
    positions in exact UBIGINT arithmetic)."""
    m1 = (1 << m_bits) - 1
    return (
        "WITH term AS (SELECT DISTINCT t.term FROM (SELECT unnest("
        "regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) t WHERE t.term <> ''), "
        "h AS (SELECT md5_number_upper(term) AS h64 FROM term), "
        f"p AS (SELECT ((h64 & {m1}) + u.i * (((h64 >> 32) | 1) "
        f"& 4294967295)) & {m1} AS bit FROM h, "
        f"unnest(generate_series(0, {k - 1})) AS u(i)) "
        "SELECT DISTINCT CAST(bit AS BIGINT) AS bit FROM p ORDER BY bit"
    )


def heavy_hitters_by(ds, key: str = "lang", k: int = HH_K):
    """Grouped EXACT φ=1/``k`` heavy hitters: per ``key`` group, the
    terms exceeding a 1/k share of THAT group's token stream —
    :func:`heavy_hitters` with the pigeonhole argument applied
    group-wise (a term with in-group share > 1/k must exceed 1/k in
    at least one block's slice of that group, so the union of
    per-(block, group) candidates is a superset per group).

    Two bounded passes like the global form: candidates ≤ groups × k
    per block (union pulled under ``HH_CAND_LIMIT``), then one
    broadcast of the sorted (group, term) candidate pairs and a
    ``groupby((key, term))`` verification fold bounded by
    candidates + groups sentinel rows.  Output ``(key, term, n)``
    with exact counts, (key, n desc, term) sorted — plain
    per-group HAVING SQL twin."""
    import pandas as pd
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    def cand_partial(b: pa.Table) -> pa.Table:
        lexer = _LEXER_CACHE.get("simple")
        if lexer is None:
            lexer = _LEXER_CACHE["simple"] = Lexer("simple")
        parent, codes, uniq = lexer.token_parent_codes(b["text"])
        if len(codes) == 0:
            return pa.table(
                {key: pa.array([], pa.string()),
                 "term": pa.array([], pa.string())}
            )
        keys = b[key].to_numpy(zero_copy_only=False)
        gvals, ginv = np.unique(keys, return_inverse=True)
        g = ginv[parent].astype(np.int64)
        pair = g * np.int64(len(uniq)) + codes
        upair, cnt = np.unique(pair, return_counts=True)
        gn = np.bincount(g, minlength=len(gvals)).astype(np.int64)
        ug = (upair // len(uniq)).astype(np.int64)
        keep = cnt.astype(np.int64) * k > gn[ug]
        return pa.table(
            {
                key: pa.array(gvals[ug[keep]], pa.string()),
                "term": pa.array(
                    uniq[(upair % len(uniq))[keep].astype(np.int64)],
                    pa.string(),
                ),
            }
        )

    cand = (
        ds.map_batches(cand_partial, batch_format="pyarrow")
        .groupby([key, "term"])
        .count()
        .to_pandas()
    )
    if len(cand) > HH_CAND_LIMIT:
        raise ValueError(
            f"grouped heavy-hitter candidate union {len(cand)} exceeds "
            f"HH_CAND_LIMIT={HH_CAND_LIMIT}; raise k or the cap"
        )
    if len(cand) == 0:
        return rd.from_arrow(
            pa.table(
                {
                    key: pa.array([], pa.string()),
                    "term": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        )
    pairs = np.sort(
        np.char.add(
            np.char.add(cand[key].to_numpy(str), "\x00"),
            cand["term"].to_numpy(str),
        ).astype(object)
    )
    ref = ray.put(pairs)

    def count_partial(b: pa.Table) -> pa.Table:
        w = ray.get(ref)
        lexer = _LEXER_CACHE.get("simple")
        if lexer is None:
            lexer = _LEXER_CACHE["simple"] = Lexer("simple")
        parent, codes, uniq = lexer.token_parent_codes(b["text"])
        keys = b[key].to_numpy(zero_copy_only=False)
        out_k, out_t, out_n = [], [], []
        if len(codes):
            gvals, ginv = np.unique(keys, return_inverse=True)
            g = ginv[parent].astype(np.int64)
            pair = g * np.int64(len(uniq)) + codes
            upair, cnt = np.unique(pair, return_counts=True)
            gn = np.bincount(g, minlength=len(gvals)).astype(np.int64)
            # group total sentinels ("" term never collides)
            for gi, n in enumerate(gn):
                if n:
                    out_k.append(str(gvals[gi]))
                    out_t.append("")
                    out_n.append(int(n))
            ug = (upair // len(uniq)).astype(np.int64)
            ut = (upair % len(uniq)).astype(np.int64)
            probe = np.char.add(
                np.char.add(gvals[ug].astype(str), "\x00"),
                uniq[ut].astype(str),
            ).astype(object)
            pos = np.searchsorted(w, probe)
            pos[pos >= len(w)] = len(w) - 1
            hit = w[pos] == probe
            for i in np.flatnonzero(hit):
                out_k.append(str(gvals[ug[i]]))
                out_t.append(str(uniq[ut[i]]))
                out_n.append(int(cnt[i]))
        return pa.table(
            {
                key: pa.array(out_k, pa.string()),
                "term": pa.array(out_t, pa.string()),
                "n": pa.array(np.asarray(out_n, np.int64), pa.int64()),
            }
        )

    folded = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby([key, "term"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    totals = (
        folded[folded["term"] == ""].set_index(key)["n"].astype(np.int64)
    )
    out = folded[folded["term"] != ""].copy()
    nv = out["n"].to_numpy(np.int64)
    tv = totals.loc[out[key]].to_numpy(np.int64)
    out = out[nv * k > tv]
    out = out.sort_values(
        [key, "n", "term"], ascending=[True, False, True], kind="mergesort"
    ).reset_index(drop=True)
    return rd.from_pandas(
        pd.DataFrame(
            {
                key: out[key].astype(str),
                "term": out["term"].astype(str),
                "n": out["n"].to_numpy(np.int64),
            }
        )
    )


def heavy_hitters_by_sql(key: str = "lang", k: int = HH_K,
                         table: str = "documents") -> str:
    """DuckDB twin of :func:`heavy_hitters_by`."""
    return (
        f"WITH tok AS (SELECT {key}, t.term FROM (SELECT {key}, "
        "unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) t WHERE t.term <> ''), "
        f"c AS (SELECT {key}, term, count(*) AS n FROM tok GROUP BY 1, 2), "
        f"tot AS (SELECT {key}, count(*) AS total FROM tok GROUP BY 1) "
        f"SELECT c.{key}, c.term, CAST(c.n AS BIGINT) AS n "
        f"FROM c JOIN tot USING ({key}) "
        f"WHERE c.n * {k} > tot.total ORDER BY c.{key}, n DESC, term"
    )
