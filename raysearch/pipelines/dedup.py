"""Deduplication family over a (doc_id, text) / (vec_id, embedding) table.

Six dedup strategies, each Ray-Data-first (the general pattern the
reference only hints at with its exact URL/page dedup, D1/D2 in SURVEY
§2.7 — here generalized to content dedup at corpus scale):

* exact_dedup         — md5(text) → groupby(hash) → keep min doc_id.
* minhash_lsh_pairs   — per-doc word-shingle hash sets → MinHash
  signatures (vectorized universal hashing), banded LSH → candidate
  pairs in ONE exchange (a key-block pass over the sorted band rows) →
  exact shingle-Jaccard verification against a broadcast CSR of the
  candidate sets, or as distributed hash-merge attaches when they are
  too big to broadcast.  The canonical near-dup path.
* jaccard_pairs_exact — exact all-pairs word-shingle Jaccard via a
  per-shingle co-occurrence count.  Quadratic in per-shingle df:
  this is the VERIFICATION/oracle operator (SQL-expressible, used by
  the driver gate and the minhash_recall measurement), not the scale
  path — minhash_lsh_pairs is.
* simhash_pairs       — 64-bit SimHash over the token multiset,
  4×16-bit band blocking, vectorized Hamming verification.
* ngram_jaccard       — character-n-gram Jaccard for one pair (the
  scalar verification primitive).
* embedding_near_dup  — cosine ≥ threshold pairs over an embedding
  column; multi-table random-hyperplane LSH with optional multi-probe
  (Hamming-1 bucket probes) and chunked exact verification inside
  buckets.

All hashing is seeded/deterministic (no builtin ``hash``); signatures
are computed vectorized per batch; the wide steps are groupby /
hash-join shuffles over signature or id rows, never over raw text.
Per-bucket pair emission is a key-block pass
(:func:`raysearch.util._key_blocks`, :func:`_bucket_pairs`): after a
sort by bucket, one vectorized call per block enumerates the pairs of
all of its buckets.

Skew guard: LSH band buckets follow the corpus duplicate distribution —
boilerplate-heavy corpora produce giant near-identical buckets.  Pair
emission caps all-pairs enumeration at ``MAX_BUCKET_IDS`` ids per
bucket; larger buckets emit STAR edges to the bucket's min doc_id
(n−1 edges instead of n(n−1)/2).  A star keeps every member connected
to its cluster for connected-components dedup while bounding both the
emit cost and the verification fan-out; the full pair set within a
mega-bucket is recoverable transitively after verification.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.lex import Lexer
from raysearch.util import (
    _group_ids,
    _groups,
    _key_blocks,
    copartition_attach,
    round_half_away,
)

MERSENNE = (1 << 61) - 1

#: buckets with more distinct ids than this emit star edges (skew guard)
MAX_BUCKET_IDS = 512


def _stable_u64(values: list[str]) -> np.ndarray:
    """Deterministic 64-bit hash per string (blake2b, process-stable)."""
    return np.array(
        [
            int.from_bytes(hashlib.blake2b(v.encode(), digest_size=8).digest(), "little")
            for v in values
        ],
        dtype=np.uint64,
    )


_MINHASH_PARAM_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _minhash_params(n_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    # memoized: _band_rows runs once per signature batch on the hot
    # path and must not regenerate 2×n_perm PCG64 draws each time
    key = (n_perm, seed)
    cached = _MINHASH_PARAM_CACHE.get(key)
    if cached is None:
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rng.integers(1, MERSENNE, size=n_perm, dtype=np.uint64)
        b = rng.integers(0, MERSENNE, size=n_perm, dtype=np.uint64)
        cached = _MINHASH_PARAM_CACHE[key] = (a, b)
    return cached


def _bucket_pairs(b: pa.Table, keys: list[str], id_col: str,
                  star_above: int | None = None):
    """``b`` sorted by ``keys + [id_col]`` with repeated (key, id) rows
    dropped, and the row pairs ``(i, j)``, ``i < j``, of every key
    group: all of them, or — for a group of more than ``star_above``
    ids — the star edges from its first (min-id) row (the module
    docstring's skew guard).  Pair order is each group's
    ``np.triu_indices`` order."""
    b, starts = _groups(b, keys + [id_col], len(keys) + 1)
    b, starts = _groups(b.take(starts), keys, len(keys))
    n = b.num_rows
    gid = _group_ids(starts, n)
    size = np.diff(np.append(starts, n))[gid]
    pos = np.arange(n) - starts[gid]
    k = size - pos - 1  # partners after each row in its group
    if star_above is not None:
        k[(size > star_above) & (pos > 0)] = 0
    ai = np.repeat(np.arange(n), k)
    bi = ai + 1 + np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
    return b, ai, bi


def _key_pairs(ds, keys: list[str], star_above: int | None = None):
    """``(doc_a, doc_b)``, ``doc_a < doc_b``: every two docs sharing a
    key (:func:`_bucket_pairs`), in one key-block pass."""

    def emit(b: pa.Table) -> pa.Table:
        b, ai, bi = _bucket_pairs(b, keys, "doc_id", star_above)
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_a": ids[ai], "doc_b": ids[bi]})

    return _key_blocks(ds, keys, emit)


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return _POP8[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def exact_dedup(ds):
    """Keep the smallest doc_id per distinct text: hash in map_batches,
    ONE groupby over (hash, doc_id) pairs — raw text never shuffles."""
    from ray.data.aggregate import Count, Min

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = [
            hashlib.md5(t.encode("utf-8")).hexdigest() for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "text_hash": pa.array(hashes, pa.string()),
                "doc_id": batch["doc_id"],
            }
        )

    return (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("text_hash")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_copies"))
    )


# ---------------------------------------------------------------------------
# shared word-shingle hashing (minhash signatures + verification sets)
# ---------------------------------------------------------------------------


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix_step(acc: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """One round of a splitmix-style combiner (uint64 wraparound)."""
    x = (acc ^ (nxt * _MIX1)) * _MIX2
    return x ^ (x >> np.uint64(31))


def _uniq_token_hashes(memo: dict, uniq: np.ndarray) -> np.ndarray:
    out = np.empty(len(uniq), dtype=np.uint64)
    for i, t in enumerate(uniq):
        h = memo.get(t)
        if h is None:
            h = memo[t] = int.from_bytes(
                hashlib.blake2b(t.encode(), digest_size=8).digest(), "little"
            )
        out[i] = h
    return out


def shingle_hashes_from_codes(
    memo: dict,
    parent: np.ndarray,
    codes: np.ndarray,
    uniq: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One uint64 hash per word-k-shingle of each row of a tokenized
    batch (``Lexer.token_parent_codes`` output): returns ``(sh_parent,
    sh)`` with sh_parent the owning batch-row index (nondecreasing).
    Rolling k-gram integer mixing over per-UNIQUE-token stable hashes —
    no per-shingle string building.  Docs with fewer than k tokens
    contribute none, matching :func:`jaccard_pairs_exact`'s domain.
    Taking the token stream lets a fused stage tokenize ONCE and derive
    both text metrics and shingle hashes from it (curation first
    pass)."""
    if len(codes) < k:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    th = _uniq_token_hashes(memo, uniq)[codes]
    m = len(th) - k + 1
    sh = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        sh = _mix_step(sh, th[j : j + m])
    valid = parent[:m] == parent[k - 1 :]
    return parent[:m][valid].astype(np.int64, copy=False), sh[valid]


def _band_rows(
    doc_ids: np.ndarray,
    sh_parent: np.ndarray,
    sh: np.ndarray,
    n_perm: int,
    bands: int,
) -> pa.Table:
    """(per-shingle parent idx, uint64 shingle hash) → banded LSH rows
    (doc_id, band, band_hash) of the docs with at least one shingle:
    n_perm MinHash values per doc as one (n_shingle × n_perm)
    broadcast, per-doc minima via ``np.minimum.reduceat``, band keys by
    vectorized mixing (each band's init mixes the band in).  It bands
    the sorted-unique shingle sets of :func:`_minhash_blob_task`;
    minima are duplicate-insensitive, so a multiset stream would give
    the same signatures."""
    if not len(sh):
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "band": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.uint64()),
            }
        )
    rows_per_band = n_perm // bands
    a, b = _minhash_params(n_perm)
    h = sh % MERSENNE
    perm = (h[:, None] * a[None, :] + b[None, :]) % MERSENNE
    doc_bounds = np.flatnonzero(
        np.concatenate(([True], sh_parent[1:] != sh_parent[:-1]))
    )
    sig = np.minimum.reduceat(perm, doc_bounds, axis=0)  # (docs, n_perm)
    sig_docs = doc_ids[sh_parent[doc_bounds]]

    out_doc, out_band, out_hash = [], [], []
    for band in range(bands):
        cols = sig[:, band * rows_per_band : (band + 1) * rows_per_band]
        acc = np.full(len(sig), np.uint64(band + 1), dtype=np.uint64)
        for j in range(rows_per_band):
            acc = _mix_step(acc, cols[:, j].astype(np.uint64))
        out_doc.append(sig_docs)
        out_band.append(np.full(len(sig), band, dtype=np.int32))
        out_hash.append(acc)
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate(out_doc), pa.int64()),
            "band": pa.array(np.concatenate(out_band), pa.int32()),
            "band_hash": pa.array(np.concatenate(out_hash), pa.uint64()),
        }
    )


class _ShingleSets:
    """Per-batch: (doc_id, text) → (doc_id, shingles) where shingles is
    the doc's SORTED-UNIQUE uint64 shingle-hash set packed into one
    BINARY blob (little-endian uint64s — binary survives the hash-join
    exchange; Arrow joins reject list payload columns).  Jaccard over
    these hash sets equals Jaccard over the string shingles absent
    64-bit collisions (deterministic blake2b + splitmix)."""

    def __init__(self, shingle: int = 3):
        self.lexer = Lexer("simple")
        self.shingle = shingle
        self._memo: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        # docs with < k tokens get empty sets: the verification domain
        # must equal jaccard_pairs_exact's, so the recall row's
        # precision really is 1.0 by construction
        parent, codes, uniq = self.lexer.token_parent_codes(batch["text"])
        sh_parent, sh = shingle_hashes_from_codes(
            self._memo, parent, codes, uniq, self.shingle
        )
        arr = pack_shingle_blobs(batch.num_rows, sh_parent, sh)
        return pa.table({"doc_id": batch["doc_id"], "shingles": arr})


def pack_shingle_blobs(
    nrows: int, sh_parent: np.ndarray, sh: np.ndarray
) -> pa.LargeBinaryArray:
    """(per-shingle parent idx, uint64 hash) pairs → per-row SORTED-
    UNIQUE uint64 sets packed into one large_binary column (the
    :class:`_ShingleSets` layout; also built directly by the curation
    pipeline's single-tokenize first pass)."""
    if len(sh):
        order = np.lexsort((sh, sh_parent))
        p, v = sh_parent[order], sh[order]
        keep = np.concatenate(([True], (p[1:] != p[:-1]) | (v[1:] != v[:-1])))
        p, v = p[keep], v[keep]
    else:
        p = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.uint64)
    counts = np.bincount(p, minlength=nrows) if nrows else np.empty(0, np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64) * 8
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        nrows,
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(v.tobytes())],
    )


def _unpack_blob_col(col) -> tuple[np.ndarray, np.ndarray]:
    """shingle-blob column → ``(parent_idx, uint64 values)`` without
    per-row Python: Arrow binary values are stored back-to-back, so the
    whole value region is one contiguous byte span sliced by the
    offsets buffer."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not pa.types.is_large_binary(col.type):
        col = col.cast(pa.large_binary())
    n = len(col)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    off = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + n + 1
    ]
    counts = (off[1:] - off[:-1]) // 8
    if off[-1] > off[0]:
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
        vals = np.frombuffer(
            data[off[0] : off[-1]].tobytes(), dtype=np.uint64
        )
    else:
        vals = np.empty(0, np.uint64)
    parent = np.repeat(np.arange(n, dtype=np.int64), counts)
    return parent, vals


def _minhash_blob_task(batch: pa.Table, *, n_perm: int, bands: int) -> pa.Table:
    """(doc_id, shingles-blob) → banded LSH rows — the signature stage
    when shingle sets were already computed (single-tokenize path)."""
    parent, vals = _unpack_blob_col(batch["shingles"])
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return _band_rows(doc_ids, parent, vals, n_perm, bands)


def minhash_candidates_from_shingles(sh_ds, n_perm: int = 64, bands: int = 16):
    """(doc_id, shingles) Dataset → candidate pairs ``(doc_a, doc_b,
    n_bands)``, doc_a < doc_b, in one exchange over the band rows:
    MinHash band rows (:func:`_band_rows`) → one key-block pass over
    ``sort(band, band_hash)`` emitting each bucket's pairs (star edges
    above ``MAX_BUCKET_IDS``, the module docstring's skew guard) →
    ``groupby(pair).Count``.  Docs with <k tokens have empty blobs and
    emit no bands; they can never pass exact verification (union == 0
    ⇒ not a pair), so dropping them here does not change the verified
    output."""
    from ray.data.aggregate import Count

    sigs = sh_ds.map_batches(
        _minhash_blob_task,
        fn_kwargs={"n_perm": n_perm, "bands": bands},
        batch_format="pyarrow",
    )
    pairs = _key_pairs(sigs, ["band", "band_hash"], MAX_BUCKET_IDS)
    return pairs.groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name="n_bands"))


#: contamination: benchmark shingle universes above this count must be
#: checked with a distributed semi-join instead of a driver broadcast
BENCH_SHINGLE_LIMIT = 50_000_000  # uint64s ≈ 400 MB broadcast object


def contamination_flags(
    docs, benchmark, shingle: int = 3, min_overlap: int = 5
):
    """Benchmark decontamination — the training-data hygiene step that
    flags corpus documents sharing word-``shingle``-grams with an
    evaluation/benchmark set (so they can be dropped before training).

    Plan: the benchmark side (small by contract — eval sets are KB-GB
    while the corpus is TB) is reduced to its DISTINCT shingle-hash
    universe, collected and broadcast once via ``ray.put`` (capped at
    ``BENCH_SHINGLE_LIMIT``); ONE streaming pass over the corpus then
    counts each document's distinct shingle hits via a vectorized
    ``searchsorted`` membership test — no corpus shuffle at all.

    Output: ``(doc_id, n_overlap, contaminated)`` for EVERY corpus
    document, sorted by doc_id (docs with <k tokens have empty shingle
    sets and n_overlap 0 — the exact-Jaccard domain convention).

    Reference analog: none (the reference has no training-data
    hygiene); this is a §brief LLM-pipeline operator.  Hash-domain
    equality with the SQL oracle follows the jaccard_pairs_exact
    argument: distinct-hash counts equal distinct-string counts absent
    64-bit collisions."""
    import ray

    bench_sh = benchmark.map_batches(
        _shingle_set_task, fn_kwargs={"shingle": shingle},
        batch_format="pyarrow",
    )
    vals = []
    n_total = 0
    for b in bench_sh.iter_batches(batch_format="pyarrow", batch_size=None):
        _, v = _unpack_blob_col(b["shingles"])
        n_total += len(v)
        if n_total > BENCH_SHINGLE_LIMIT:
            raise ValueError(
                f"benchmark shingle universe exceeds BENCH_SHINGLE_LIMIT="
                f"{BENCH_SHINGLE_LIMIT}; use a distributed semi-join for "
                f"benchmark sets this large"
            )
        vals.append(v)
    uni = (
        np.unique(np.concatenate(vals)) if vals else np.empty(0, np.uint64)
    )
    uni_ref = ray.put(uni)

    def overlap(batch: pa.Table) -> pa.Table:
        w = ray.get(uni_ref)  # sorted unique
        parent, v = _unpack_blob_col(batch["shingles"])
        if len(w) and len(v):
            pos = np.searchsorted(w, v)
            pos[pos >= len(w)] = len(w) - 1
            hit = (w[pos] == v).astype(np.int64)
        else:
            hit = np.zeros(len(v), np.int64)
        n_ov = np.bincount(parent, weights=hit, minlength=batch.num_rows)
        n_ov = n_ov.astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_overlap": pa.array(n_ov, pa.int64()),
                "contaminated": pa.array(n_ov >= min_overlap),
            }
        )

    corpus_sh = docs.map_batches(
        _shingle_set_task, fn_kwargs={"shingle": shingle},
        batch_format="pyarrow",
    )
    return corpus_sh.map_batches(overlap, batch_format="pyarrow").sort(
        "doc_id"
    )


_SIG_CACHE: dict[tuple | str, object] = {}


def _shingle_set_task(batch: pa.Table, *, shingle: int):
    key = ("shingles", shingle)
    inst = _SIG_CACHE.get(key)
    if inst is None:
        inst = _SIG_CACHE[key] = _ShingleSets(shingle)
    return inst(batch)


def _simhash_task(batch: pa.Table):
    inst = _SIG_CACHE.get("simhash")
    if inst is None:
        inst = _SIG_CACHE["simhash"] = _SimHash()
    return inst(batch)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _jaccard(sa: set, sb: set) -> float:
    if not sa and not sb:
        return 1.0
    u = len(sa | sb)
    return len(sa & sb) / u if u else 0.0


def _blob_col_to_sets(col) -> list[np.ndarray]:
    """binary column of packed uint64 blobs → list of uint64 arrays."""
    return [
        np.frombuffer(b, dtype=np.uint64) if b else np.empty(0, np.uint64)
        for b in col.to_pylist()
    ]


def _rename_cols(ds, mapping: dict):
    """Schema-only rename as an Arrow map (Dataset.rename_columns fails
    on pandas-backed aggregate blocks in Ray 2.49)."""

    def fn(b: pa.Table) -> pa.Table:
        return b.rename_columns([mapping.get(c, c) for c in b.column_names])

    return ds.map_batches(fn, batch_format="pyarrow")


def _empty_pairs_ds():
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    )


#: candidate pair counts up to this broadcast their id set instead of
#: running a semi-join (≤ ~2 ids/pair × 8 B ≈ 160 MB object at the cap)
BROADCAST_ID_LIMIT = 10_000_000

#: candidate shingle-set bytes up to this are broadcast as one CSR
#: object for single-map pair verification; above it the sets stay
#: distributed and verification runs as two hash-merge attaches
VERIFY_BROADCAST_BYTES = 256 << 20


def _collect_blob_csr(blob_ds):
    """(doc_id, shingles-blob) Dataset → driver CSR ``(ids_sorted,
    offsets, values)`` for broadcast lookup, or ``None`` when the total
    value bytes exceed ``VERIFY_BROADCAST_BYTES`` (caller falls back to
    the distributed attach plan)."""
    ids_l, vals_l, cnt_l = [], [], []
    total = 0
    for b in blob_ds.iter_batches(batch_format="pyarrow", batch_size=None):
        parent, v = _unpack_blob_col(b["shingles"])
        total += v.nbytes
        if total > VERIFY_BROADCAST_BYTES:
            return None
        ids_l.append(b["doc_id"].to_numpy(zero_copy_only=False))
        vals_l.append(v)
        cnt_l.append(np.bincount(parent, minlength=b.num_rows).astype(np.int64))
    if not ids_l:
        return (
            np.empty(0, np.int64),
            np.zeros(1, np.int64),
            np.empty(0, np.uint64),
        )
    ids = np.concatenate(ids_l)
    vals = np.concatenate(vals_l) if total else np.empty(0, np.uint64)
    counts = np.concatenate(cnt_l)
    order = np.argsort(ids, kind="stable")
    # gather each id's value run into sorted-id order, vectorized
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    lens = counts[order]
    out_off = np.concatenate(([0], np.cumsum(lens)))
    idx = np.repeat(starts[order] - out_off[:-1], lens) + np.arange(
        out_off[-1], dtype=np.int64
    )
    return ids[order], out_off, vals[idx]


def _jaccard_verified(batch: pa.Table, set_pairs, threshold: float) -> pa.Table:
    """``(doc_a, doc_b, jaccard)`` rows of the candidate pairs in
    ``batch`` whose exact Jaccard reaches ``threshold``, rounded half
    away to 4 places; ``set_pairs`` yields each row's two sorted-unique
    shingle-hash sets.  The one kernel of both verify plans."""
    jac = np.empty(batch.num_rows, dtype=np.float64)
    for i, (sa, sb) in enumerate(set_pairs):
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        union = len(sa) + len(sb) - inter
        # union == 0 ⇔ both docs have < k tokens — outside the
        # exact operator's domain, never a verified pair
        jac[i] = (inter / union) if union else 0.0
    keep = jac >= threshold
    return pa.table(
        {
            "doc_a": batch["doc_a"].filter(pa.array(keep)),
            "doc_b": batch["doc_b"].filter(pa.array(keep)),
            "jaccard": pa.array(round_half_away(jac[keep], 4), pa.float64()),
        }
    )


def _verify_pairs_broadcast(cands, csr, threshold: float):
    """Exact-Jaccard verification of (doc_a, doc_b) candidates against
    a broadcast CSR of candidate shingle sets — one streaming map, no
    shuffle; output order pinned like the attach path."""
    import ray

    csr_ref = ray.put(csr)

    def verify(batch: pa.Table) -> pa.Table:
        ids_s, off, vals = ray.get(csr_ref)
        ia = np.searchsorted(ids_s, batch["doc_a"].to_numpy(zero_copy_only=False))
        ib = np.searchsorted(ids_s, batch["doc_b"].to_numpy(zero_copy_only=False))
        return _jaccard_verified(
            batch,
            (
                (vals[off[a] : off[a + 1]], vals[off[b] : off[b + 1]])
                for a, b in zip(ia.tolist(), ib.tolist())
            ),
            threshold,
        )

    return cands.map_batches(verify, batch_format="pyarrow").sort(
        ["doc_a", "doc_b"]
    )


def minhash_lsh_pairs(
    ds, threshold: float = 0.6, *,
    shingle_ds=None, shingle: int = 3, n_perm: int = 64, bands: int = 16,
):
    """Candidates → exact shingle-Jaccard ≥ threshold, fully distributed.

    Single-tokenize plan:

    1. ONE streaming pass computes per-doc sorted-unique 64-bit
       shingle-hash sets (:class:`_ShingleSets`), materialized (~8 B
       per distinct shingle — comparable to the text bytes; the object
       store spills if needed).  Callers that already hold such a
       Dataset (the curation pipeline's fused first pass) hand it in
       via ``shingle_ds`` and no text is read here at all;
    2. MinHash band rows are derived FROM the blobs and turned into
       (doc_a, doc_b) id pairs by ONE exchange, a key-block pass over
       ``sort(band, band_hash)``
       (:func:`minhash_candidates_from_shingles`; materialized — ids
       only, the smallest dataset in the job);
    3. the blob Dataset is pruned to candidate docs — via a BROADCAST
       id set inside one map when the candidate count is ≤
       ``BROADCAST_ID_LIMIT`` (no shuffle of the corpus-sized shingle
       stream at all), else via a distributed semi-join;
    4. each pair meets its two sets — through one map against a
       broadcast CSR of the candidate sets when they fit
       ``VERIFY_BROADCAST_BYTES``, else through two inner hash-merge
       attaches (:func:`~raysearch.util.copartition_attach` — union +
       one sort per attach; Ray 2.49's ``Dataset.join`` crashes on
       partitions that receive no blocks from one side, see the
       helper's docstring);
    5. :func:`_jaccard_verified` computes exact Jaccard over the hash
       sets and keeps pairs ≥ threshold; the result is sorted by
       (doc_a, doc_b).

    Only id pairs, band rows and candidate shingle sets shuffle; raw
    text never leaves the tokenize stage and nothing unbounded lands
    on the driver."""
    if shingle_ds is None:
        sh = ds.map_batches(
            _shingle_set_task,
            fn_kwargs={"shingle": shingle},
            batch_format="pyarrow",
        ).materialize()
    else:
        sh = shingle_ds.materialize()
    cands = minhash_candidates_from_shingles(
        sh, n_perm=n_perm, bands=bands
    ).materialize()
    return _verify_candidate_pairs(sh, cands, threshold)


def _verify_candidate_pairs(sh, cands, threshold: float):
    """Exact-Jaccard verification of MATERIALIZED (doc_a, doc_b) id
    candidates against the shingle-blob Dataset ``sh`` — the shared
    tail of :func:`minhash_lsh_pairs` (steps 3–5 of its plan, see its
    docstring for the broadcast / semi-join / attach dispatch) and
    :func:`prefix_jaccard_pairs`."""
    n_cands = cands.count()
    if n_cands == 0:
        return _empty_pairs_ds()
    if n_cands <= BROADCAST_ID_LIMIT:
        # unique candidate ids straight off the materialized id-pair
        # blocks — np.unique on ≤ 2·n_cands int64 (bounded by the
        # broadcast cap), no extra shuffle (round 3: the previous
        # Count-aggregate Dataset cost a full exchange just to dedup
        # ids that fit on the driver by definition of this branch)
        id_arr = np.unique(
            np.concatenate(
                [
                    np.concatenate(
                        (
                            b["doc_a"].to_numpy(zero_copy_only=False),
                            b["doc_b"].to_numpy(zero_copy_only=False),
                        )
                    )
                    for b in cands.iter_batches(
                        batch_format="pyarrow", batch_size=None
                    )
                ]
            )
        )
        from raysearch.util import broadcast_id_filter

        cand_sh = broadcast_id_filter(sh, "doc_id", id_arr).materialize()
        bcast = _collect_blob_csr(cand_sh)
        if bcast is not None:
            # candidate shingle sets fit the broadcast budget: verify
            # pairs in ONE map over the (tiny) pair Dataset against a
            # ray.put CSR of the sets — zero attach shuffles (round 5;
            # the two copartition_attach exchanges below cost several
            # seconds of fixed shuffle overhead even on 256 pairs)
            return _verify_pairs_broadcast(cands, bcast, threshold)
    else:
        from ray.data.aggregate import Count

        # unique candidate doc ids as a DATASET for the semi-merge
        # (ids exceed the broadcast cap — they must stay distributed)
        ids = (
            _rename_cols(cands.select_columns(["doc_a"]), {"doc_a": "doc_id"})
            .union(
                _rename_cols(cands.select_columns(["doc_b"]), {"doc_b": "doc_id"})
            )
            .groupby("doc_id")
            .aggregate(Count(alias_name="_n"))
            .select_columns(["doc_id"])
        )
        cand_sh = copartition_attach(
            sh,
            ids,
            "doc_id",
            left_schema=pa.schema(
                [("doc_id", pa.int64()), ("shingles", pa.binary())]
            ),
            payload={},
            semi=True,
        ).materialize()
    j = copartition_attach(
        copartition_attach(
            cands,
            _rename_cols(cand_sh, {"doc_id": "doc_a", "shingles": "sh_a"}),
            "doc_a",
            left_schema=pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]),
            payload={"sh_a": pa.binary()},
        ),
        _rename_cols(cand_sh, {"doc_id": "doc_b", "shingles": "sh_b"}),
        "doc_b",
        left_schema=pa.schema(
            [
                ("doc_a", pa.int64()),
                ("doc_b", pa.int64()),
                ("sh_a", pa.binary()),
            ]
        ),
        payload={"sh_b": pa.binary()},
    )

    def verify(batch: pa.Table) -> pa.Table:
        return _jaccard_verified(
            batch,
            zip(_blob_col_to_sets(batch["sh_a"]), _blob_col_to_sets(batch["sh_b"])),
            threshold,
        )

    # pinned output order: pair sets are tiny relative to the corpus
    # (bounded by the LSH candidate count), so the final sort is cheap
    # and makes the operator's block layout deterministic across
    # parallelism levels — required for byte-stable downstream hashes.
    return j.map_batches(verify, batch_format="pyarrow").sort(["doc_a", "doc_b"])


# ---------------------------------------------------------------------------
# exact all-pairs shingle Jaccard (the verification oracle)
# ---------------------------------------------------------------------------


class _DistinctShingleStrings:
    """Per-batch: (doc_id, text) → distinct (doc_id, shingle-STRING)
    rows of full word-k-shingles (docs with <k tokens contribute none —
    the SQL oracle's definition, shared by the hashed shingle sets)."""

    def __init__(self, shingle: int = 3):
        self.lexer = Lexer("simple")
        self.shingle = shingle

    def __call__(self, batch: pa.Table) -> pa.Table:
        parent, codes, uniq = self.lexer.token_parent_codes(batch["text"])
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        k = self.shingle
        out_doc: list[int] = []
        out_sh: list[str] = []
        if len(codes):
            toks = uniq[codes]
            starts = np.searchsorted(parent, np.arange(batch.num_rows))
            bounds = np.concatenate((starts, [len(codes)]))
            for r in range(batch.num_rows):
                s, e = int(bounds[r]), int(bounds[r + 1])
                if e - s < k:
                    continue
                seen = {
                    " ".join(toks[i : i + k]) for i in range(s, e - k + 1)
                }
                out_doc.extend([int(doc_ids[r])] * len(seen))
                out_sh.extend(seen)
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "shingle": pa.array(out_sh, pa.string()),
            }
        )


def jaccard_pairs_exact(ds, threshold: float = 0.6, shingle: int = 3):
    """EXACT all-pairs word-shingle Jaccard ≥ threshold.

    Plan: distinct (doc_id, shingle) rows → set sizes →
    a key-block pass over sort(shingle) emits co-occurring doc pairs
    (all pairs — no star fallback, exactness is the point) →
    groupby(pair) counts the
    intersection → |A∩B| / (|A|+|B|−|A∩B|).

    Quadratic in per-shingle document frequency: this is the
    verification-scale oracle for the minhash path (and the driver
    gate's SQL-checkable dedup row), NOT the 100 TB path.  Set sizes
    are broadcast via ray.put (one int per doc with ≥k tokens)."""
    tok = ds.map_batches(
        _DistinctShingleStrings(shingle), batch_format="pyarrow"
    ).materialize()
    return _exact_jaccard_from_shingles(tok, threshold)


def _exact_jaccard_from_shingles(tok, threshold: float):
    """Shared exact-Jaccard tail: distinct (doc_id, shingle) rows →
    co-occurrence pair counts → thresholded similarity (see
    :func:`jaccard_pairs_exact` for the plan and scale caveat)."""
    import ray
    from ray.data.aggregate import Count

    # set sizes broadcast as two sorted int64 arrays (one ray.put) and
    # looked up by searchsorted — no per-doc Python dict
    sizes = (
        tok.groupby("doc_id").aggregate(Count(alias_name="n")).to_pandas()
        .sort_values("doc_id")
    )
    sizes_ref = ray.put(
        (sizes["doc_id"].to_numpy(np.int64), sizes["n"].to_numpy(np.int64))
    )

    inter = (
        _key_pairs(tok, ["shingle"])
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="n_common"))
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        ids, n = ray.get(sizes_ref)
        na = n[np.searchsorted(ids, batch["doc_a"].to_numpy())].astype(np.float64)
        nb = n[np.searchsorted(ids, batch["doc_b"].to_numpy())].astype(np.float64)
        i = batch["n_common"].to_numpy(dtype=np.float64)
        jac = i / (na + nb - i)
        keep = jac >= threshold
        out = batch.loc[keep, ["doc_a", "doc_b"]].copy()
        out["jaccard"] = round_half_away(jac[keep], 4)
        return out

    # pinned output order (see minhash_lsh_pairs): deterministic
    # across block arrival order / parallelism.
    return inter.map_batches(finish, batch_format="pandas").sort(
        ["doc_a", "doc_b"]
    )


class _DistinctCharShingles:
    """Distinct lowercase character n-grams per doc (docs shorter than
    n characters emit nothing — mirrored by the oracle's length
    guard).  Codepoint slicing matches DuckDB's character-based
    ``substr`` exactly."""

    def __init__(self, n: int = 5):
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids_out: list[int] = []
        sh_out: list[str] = []
        n = self.n
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            lt = t.lower()
            if len(lt) < n:
                continue
            s = {lt[i : i + n] for i in range(len(lt) - n + 1)}
            ids_out.extend([int(d)] * len(s))
            sh_out.extend(s)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "shingle": pa.array(sh_out, pa.string()),
            }
        )


def ngram_jaccard_pairs(ds, threshold: float = 0.6, n: int = 5):
    """EXACT all-pairs character-n-gram Jaccard ≥ threshold — the
    char-level dedup family member (robust to tokenization/whitespace
    differences where word shingles are not).  Same distributed plan
    and scale caveat as :func:`jaccard_pairs_exact`; only the
    shingling stage differs."""
    tok = ds.map_batches(
        _DistinctCharShingles(n), batch_format="pyarrow"
    ).materialize()
    return _exact_jaccard_from_shingles(tok, threshold)


#: byte budget for broadcasting the df ≥ 2 shingle-frequency arrays
#: (16 B per repeated shingle); above it the prefix order falls back
#: to the df-free hash order, which stays exact-complete
PREFIX_DF_BROADCAST_BYTES = 64 << 20


def _prefix_candidates(sh, threshold: float):
    """Prefix-filtering candidate pairs from a shingle-blob Dataset —
    EXACT-COMPLETE: under any globally consistent total order on
    shingles, two sets with Jaccard ≥ τ each keep ``|x| − ⌈τ·|x|⌉ + 1``
    smallest-ranked shingles as their prefix, and the prefixes of a
    qualifying pair must intersect (Bayardo et al., "Scaling Up All
    Pairs Similarity Search", WWW'07), so bucketing on prefix shingles
    misses no pair — unlike LSH, which is probabilistic.

    The order used is (global df ascending, hash) — rarest first, the
    selectivity that makes prefix filtering fast: hot common shingles
    land at the END of every doc's ranking and never fan out a
    bucket.  The df ≥ 2 frequency table (df-1 shingles can't form a
    pair and rank first anyway) is broadcast when under
    ``PREFIX_DF_BROADCAST_BYTES``; beyond it the order degrades to
    plain hash order (still exact-complete, less selective — the
    copartition-attach of df is the documented scale path)."""
    import ray
    from ray.data.aggregate import Count

    def tok_rows(b: pa.Table) -> pa.Table:
        parent, v = _unpack_blob_col(b["shingles"])
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # int64 VIEW of the uint64 hash: a bijection, so grouping is
        # unaffected — and the exchange avoids Ray's uint64→pandas
        # object-dtype fallback (OverflowError past 2⁶³)
        return pa.table(
            {"shingle": pa.array(v.view(np.int64), pa.int64()),
             "doc_id": pa.array(ids[parent], pa.int64())}
        )

    df_ds = (
        sh.map_batches(tok_rows, batch_format="pyarrow")
        .groupby("shingle")
        .aggregate(Count(alias_name="df"))
    )
    keys_l, dfs_l, total = [], [], 0
    for b in df_ds.iter_batches(batch_format="pyarrow", batch_size=None):
        dfv = b["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        rep = dfv >= 2
        k = (
            b["shingle"].to_numpy(zero_copy_only=False)
            .astype(np.int64).view(np.uint64)[rep]
        )
        total += 16 * len(k)
        if total > PREFIX_DF_BROADCAST_BYTES:
            keys_l = None
            break
        keys_l.append(k)
        dfs_l.append(dfv[rep])
    if keys_l is None:
        df_ref = ray.put(None)
    else:
        keys = (np.concatenate(keys_l) if keys_l
                else np.empty(0, np.uint64))
        dfs = (np.concatenate(dfs_l) if dfs_l
               else np.empty(0, np.int64))
        order = np.argsort(keys)
        df_ref = ray.put((keys[order], dfs[order]))

    def prefix_rows(b: pa.Table) -> pa.Table:
        lookup = ray.get(df_ref)
        parent, v = _unpack_blob_col(b["shingles"])
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.bincount(parent, minlength=b.num_rows).astype(np.int64)
        if not len(v):
            return pa.table(
                {"shingle": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64())}
            )
        if lookup is None:
            dfx = np.ones(len(v), np.int64)
        else:
            keys, dfs = lookup
            pos = np.searchsorted(keys, v)
            pos_c = np.minimum(pos, max(len(keys) - 1, 0))
            hit = (len(keys) > 0) & (keys[pos_c] == v)
            dfx = np.where(hit, dfs[pos_c], 1).astype(np.int64)
        order = np.lexsort((v, dfx, parent))
        p_s, v_s = parent[order], v[order]
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        rank = np.arange(len(p_s), dtype=np.int64) - starts[p_s]
        # ε-down ceil only ever LENGTHENS the prefix — completeness
        # is preserved on float boundaries (τ·n exactly integral)
        ceil_tn = np.ceil(threshold * counts - 1e-9).astype(np.int64)
        plen = counts - ceil_tn + 1
        keep = rank < plen[p_s]
        return pa.table(
            {"shingle": pa.array(v_s[keep].view(np.int64), pa.int64()),
             "doc_id": pa.array(ids[p_s[keep]], pa.int64())}
        )

    return (
        _key_pairs(sh.map_batches(prefix_rows, batch_format="pyarrow"),
                   ["shingle"])
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["doc_a", "doc_b"])
    )


def prefix_jaccard_pairs(ds, threshold: float = 0.6, shingle: int = 3):
    """EXACT all-pairs word-shingle Jaccard ≥ threshold via PREFIX
    FILTERING — the deterministic scale path of the dedup family:
    complete like :func:`jaccard_pairs_exact` (provably no missed
    pair, unlike LSH recall < 1) but with candidate fan-out bounded
    by each doc's ``|x| − ⌈τ|x|⌉ + 1`` rarest shingles instead of
    every shared shingle, so hot common shingles never explode a
    bucket quadratically.

    Plan: ONE tokenize pass → per-doc sorted-unique shingle-hash
    blobs (:class:`_ShingleSets`, shared with the minhash path) →
    df-ordered prefix emission (:func:`_prefix_candidates`) →
    distinct candidate id pairs → the SAME verification tail as
    :func:`minhash_lsh_pairs` (:func:`_verify_candidate_pairs` —
    broadcast CSR or copartition attach).  Output schema and values
    equal ``jaccard_pairs_exact`` by construction, so the two share
    an oracle."""
    sh = ds.map_batches(
        _shingle_set_task, fn_kwargs={"shingle": shingle},
        batch_format="pyarrow",
    ).materialize()
    cands = _prefix_candidates(sh, threshold).materialize()
    return _verify_candidate_pairs(sh, cands, threshold)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


class _SimHash:
    """64-bit SimHash per doc over the token multiset; emits 4×16-bit
    band keys for Hamming-≤3 blocking (a pair within distance 3 shares
    at least one exact 16-bit band by pigeonhole)."""

    def __init__(self):
        self.lexer = Lexer("simple")
        self._memo: dict[str, np.ndarray] = {}

    def _bits(self, token: str) -> np.ndarray:
        v = self._memo.get(token)
        if v is None:
            h = _stable_u64([token])[0]
            shifted = h >> np.arange(64, dtype=np.uint64)
            v = (shifted & np.uint64(1)).astype(np.int64) * 2 - 1
            self._memo[token] = v
        return v

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        parent, codes, uniq = self.lexer.token_parent_codes(batch["text"])
        if not len(codes):
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "simhash": pa.array([], pa.uint64()),
                    "band": pa.array([], pa.int32()),
                    "band_key": pa.array([], pa.int64()),
                }
            )
        # ±1 bit matrix over the batch's UNIQUE tokens (memoized)
        bit_rows = np.stack([self._bits(t) for t in uniq])  # (n_uniq, 64)
        n_uniq = len(uniq)
        key = parent.astype(np.int64) * n_uniq + codes
        ukeys, cnt = np.unique(key, return_counts=True)
        rows = ukeys // n_uniq
        ucs = ukeys % n_uniq
        contrib = cnt[:, None] * bit_rows[ucs]  # (pairs, 64)
        starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        acc = np.add.reduceat(contrib, starts, axis=0)  # (docs, 64)
        present_docs = doc_ids[rows[starts]]
        bits = (acc > 0).astype(np.uint64)
        sims = (bits << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1)
        nd = len(sims)
        bands = np.repeat(np.arange(4, dtype=np.int32), nd)
        sims_r = np.tile(sims, 4)
        keys = (sims_r >> (np.uint64(16) * bands.astype(np.uint64))) & np.uint64(
            0xFFFF
        )
        return pa.table(
            {
                "doc_id": pa.array(np.tile(present_docs, 4), pa.int64()),
                "simhash": pa.array(sims_r, pa.uint64()),
                "band": pa.array(bands, pa.int32()),
                "band_key": pa.array(keys.astype(np.int64), pa.int64()),
            }
        )


def simhash_pairs(ds, max_hamming: int = 3):
    """documents → (doc_a, doc_b, hamming) pairs with distance ≤ max.

    Pair generation is vectorized (triu indices + table-lookup popcount)
    with the star fallback on hot buckets — no per-pair Python loop."""

    def pairs(b: pa.Table) -> pa.Table:
        b, ai, bi = _bucket_pairs(b, ["band", "band_key"], "doc_id",
                                  MAX_BUCKET_IDS)
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = b["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        dist = _popcount64(sims[ai] ^ sims[bi])
        keep = dist <= max_hamming
        return pa.table(
            {"doc_a": ids[ai[keep]], "doc_b": ids[bi[keep]], "hamming": dist[keep]}
        )

    sigs = ds.map_batches(_simhash_task, batch_format="pyarrow")
    cand = _key_blocks(sigs, ["band", "band_key"], pairs)
    from ray.data.aggregate import Min

    # groupby output block order is not pinned across runs — sort the
    # (tiny) pair set so the operator is deterministic end-to-end.
    return (
        cand.groupby(["doc_a", "doc_b"])
        .aggregate(Min("hamming", alias_name="hamming"))
        .sort(["doc_a", "doc_b"])
    )


# ---------------------------------------------------------------------------
# char-ngram Jaccard (verification primitive)
# ---------------------------------------------------------------------------


def char_ngram_jaccard(text_a: str, text_b: str, n: int = 5) -> float:
    sa = {text_a[i : i + n] for i in range(max(1, len(text_a) - n + 1))}
    sb = {text_b[i : i + n] for i in range(max(1, len(text_b) - n + 1))}
    return round(_jaccard(sa, sb), 4)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

_VERIFY_CHUNK = 2048  # rows per matmul chunk inside one bucket
# embedding analog of MAX_BUCKET_IDS: a bucket with more distinct
# vectors than this gets STAR verification (all vs the bucket-min
# vector, O(n·d)) instead of the full chunked matmul (O(n²·d)) — a
# dense near-identical cluster (boilerplate embeddings) is exactly the
# dedup workload and must not cost quadratic FLOPs
MAX_EMB_BUCKET = 4096


def embedding_near_dup(
    ds,
    threshold: float = 0.95,
    n_planes: int = 8,
    seed: int = 11,
    n_tables: int = 1,
    multiprobe: int = 0,
):
    """(vec_id, embedding) → near-dup pairs by cosine ≥ threshold.

    Scale path: random-hyperplane sign-bucket LSH.  Recall knobs for
    lower thresholds (wider angles):

    * ``n_tables`` independent hyperplane tables (union of candidates
      — the standard L-tables construction: per-table miss rates
      multiply);
    * ``multiprobe=1`` additionally probes every Hamming-1 neighbor
      bucket (each vector lands in 1+n_planes buckets per table), so a
      pair is blocked together whenever its per-table codes differ in
      ≤2 planes.

    Only (bucket, vec_id, vector) rows shuffle; exact cosine
    verification runs inside each bucket with CHUNKED matmuls
    (``_VERIFY_CHUNK`` rows at a time) so memory stays bounded, and a
    bucket over ``MAX_EMB_BUCKET`` distinct vectors falls back to STAR
    verification against the bucket-min vector (O(n·d) — the embedding
    analog of the minhash/simhash ``MAX_BUCKET_IDS`` guard, round 3)
    so a dense near-identical mega-bucket also bounds COMPUTE;
    duplicate discoveries across tables/probes collapse in the final
    pair groupby.  n_planes=0 degenerates to one bucket (brute force)
    — the recall baseline, which keeps FULL all-pairs verification
    regardless of the cap (exactness is its point; it is
    verification-scale by design)."""

    def bucketize(batch: pa.Table) -> pa.Table:
        emb = np.stack(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"].to_pylist()]
        )
        n = len(emb)
        if not n_planes:
            bucket = np.zeros(n, dtype=np.int64)
            reps = 1
            out_bucket = bucket
            idx = np.arange(n)
        else:
            dim = emb.shape[1]
            codes = []
            for t in range(max(1, n_tables)):
                rng = np.random.Generator(np.random.PCG64(seed + 7919 * t))
                planes = rng.standard_normal((dim, n_planes))
                signs = (emb @ planes) > 0
                code = signs.dot(1 << np.arange(n_planes)).astype(np.int64)
                base = np.int64(t) << np.int64(n_planes + 1)
                codes.append(base + code)
                if multiprobe:
                    for p in range(n_planes):
                        codes.append(base + (code ^ (1 << p)))
            reps = len(codes)
            out_bucket = np.concatenate(codes)
            idx = np.tile(np.arange(n), reps)
        return pa.table(
            {
                "bucket": pa.array(out_bucket, pa.int64()),
                "vec_id": batch["vec_id"].take(pa.array(idx)),
                "embedding": batch["embedding"].take(pa.array(idx)),
            }
        )

    def verify_bucket(ids: np.ndarray, emb: np.ndarray):
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        unit = emb / norms[:, None]
        n = len(ids)
        if n_planes and n > MAX_EMB_BUCKET:
            # hot-bucket star fallback (mirrors minhash/simhash
            # MAX_BUCKET_IDS): verify every member against the
            # bucket-min vector only — one (n, d) matvec.  A dense
            # near-dup cluster stays one connected component through
            # the min; cross-cluster pairs that only co-bucket in a
            # mega-bucket are sacrificed, like the star candidates.
            sim0 = unit @ unit[0]
            keep0 = np.flatnonzero(sim0[1:] >= threshold) + 1
            return [np.full(len(keep0), ids[0])], [ids[keep0]], [sim0[keep0]]
        out_a, out_b, out_c = [], [], []
        for c0 in range(0, n, _VERIFY_CHUNK):
            c1 = min(n, c0 + _VERIFY_CHUNK)
            sim = unit[c0:c1] @ unit.T  # (chunk, n)
            ii, jj = np.where(sim >= threshold)
            keep = (ii + c0) < jj  # global upper triangle
            out_a.append(ids[ii[keep] + c0])
            out_b.append(ids[jj[keep]])
            out_c.append(sim[ii[keep], jj[keep]])
        return out_a, out_b, out_c

    def verify(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["bucket", "vec_id"], 2)
        b, starts = _groups(b.take(starts), ["bucket"])
        ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = b["embedding"].to_numpy(zero_copy_only=False)
        out = ([np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)])
        for s, e in zip(starts, np.append(starts[1:], len(ids))):
            if e - s > 1:
                emb = np.stack(vecs[s:e]).astype(np.float64)
                part = verify_bucket(ids[s:e], emb)
                for o, p in zip(out, part):
                    o.extend(p)
        va, vb, cos = (np.concatenate(o) for o in out)
        return pa.table(
            {"vec_a": va, "vec_b": vb, "cosine": round_half_away(cos, 4)}
        )

    pairs = _key_blocks(
        ds.map_batches(bucketize, batch_format="pyarrow"), "bucket", verify
    )
    from ray.data.aggregate import Max

    return (
        pairs.groupby(["vec_a", "vec_b"])
        .aggregate(Max("cosine", alias_name="cosine"))
        .sort(["vec_a", "vec_b"])
    )


def simhash_pairs_exact(ds, max_hamming: int = 3):
    """Brute-force all-pairs Hamming over per-doc SimHash values — the
    verification twin for :func:`simhash_pairs` (O(n²) in documents:
    verification scale only).  With 4×16-bit band blocking, any pair
    within Hamming distance 3 shares a band by pigeonhole, so blocked
    recall is 1.0 by construction except where the hot-bucket star
    fallback replaced all-pairs emission — this operator measures that
    exactly."""
    import pandas as pd
    import ray.data as rd

    sigs = (
        ds.map_batches(_simhash_task, batch_format="pyarrow")
        .to_pandas()
        .drop_duplicates("doc_id")
        .sort_values("doc_id")
    )
    ids = sigs["doc_id"].to_numpy()
    sims = sigs["simhash"].to_numpy().astype(np.uint64)
    n = len(ids)
    if n < 2:
        return rd.from_pandas(pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []}))
    ii, jj = np.triu_indices(n, k=1)
    dist = _popcount64(sims[ii] ^ sims[jj])
    keep = dist <= max_hamming
    return rd.from_pandas(
        pd.DataFrame(
            {"doc_a": ids[ii[keep]], "doc_b": ids[jj[keep]], "hamming": dist[keep]}
        )
    )


# ---------------------------------------------------------------------------
# Connected components → duplicate clusters (the step after pair finding)
# ---------------------------------------------------------------------------


#: edge sets at or below this size run the driver fast path (compact
#: int pairs only — ≤ ~160 MB at the default); above it, the fully
#: distributed propagation loop.  Same precedent as BROADCAST_ID_LIMIT.
CC_DRIVER_EDGE_LIMIT = 10_000_000


def _cc_numpy(ua: np.ndarray, va: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized min-label + pointer-jumping components over compacted
    int edges.  Returns (node_ids, label_ids) in original id space.
    O((E+N)·log N) with no Python-per-edge loop."""
    ids = np.unique(np.concatenate([ua, va]))  # ascending ⇒ min index = min id
    ui = np.searchsorted(ids, ua)
    vi = np.searchsorted(ids, va)
    lab = np.arange(len(ids), dtype=np.int64)
    while True:
        before = lab.copy()
        np.minimum.at(lab, ui, lab[vi])
        np.minimum.at(lab, vi, lab[ui])
        lab = lab[lab]  # pointer jumping: halves tree depth per round
        if np.array_equal(lab, before):
            break
    return ids, ids[lab]


def connected_components(pairs, *, col_a: str = "doc_a", col_b: str = "doc_b",
                         max_rounds: int = 64,
                         driver_limit: int | None = None):
    """Min-label connected components over an undirected pair list.

    Every dedup family above emits PAIRS; deduplicating a corpus needs
    CLUSTERS (transitive closure: a~b, b~c ⇒ {a,b,c} is one duplicate
    group with one canonical survivor).  This computes, for every node
    that appears in ``pairs``, the minimum node id reachable from it —
    the cluster's canonical id — as iterated distributed min-label
    propagation:

    1. init  label[u] = min(u, min neighbor)   (one groupby over edges)
    2. round: every edge forwards label[u] to v (hash merge expressed
       via :func:`raysearch.util.copartition_attach` — same exchange a
       hash join performs), then ``groupby(node).min`` folds messages
       with the previous labels;
    3. stop when the global label sum is unchanged.  Labels are
       monotone non-increasing and bounded below, so an unchanged sum
       IS the fixpoint — convergence needs one cheap scalar aggregate
       per round, no driver-side diffing.

    Scale notes: rounds = O(graph diameter).  Near-dup graphs are
    dense clusters whose diameter the upstream ``MAX_BUCKET_IDS`` star
    fallback caps at ~2 (star edges all meet at the bucket-min node),
    so 2–4 rounds in practice.  The per-round state is one (node,
    label) row per node WITH at least one duplicate — typically orders
    of magnitude smaller than the corpus — and is materialized each
    round (required: lazy re-execution of a loop-carried Dataset would
    replay the whole lineage every round).  For adversarially
    high-diameter graphs (chains), switch to alternating large-star /
    small-star contraction (Kiveris et al., "Connected Components in
    MapReduce and Beyond", SoCC'14) — same primitives, O(log² n)
    rounds; not needed for dedup workloads.

    Driver fast path: each distributed round costs several fixed
    exchange/scheduling latencies regardless of data size, which
    dominates when the edge set is small — the COMMON case (duplicate
    pairs ≪ corpus).  At or below ``driver_limit`` edges (default
    ``CC_DRIVER_EDGE_LIMIT`` — ids only, bounded, the
    ``BROADCAST_ID_LIMIT`` precedent) the compact int pairs are pulled
    once and solved with vectorized min-label + pointer jumping; above
    it the distributed loop runs unchanged.  Both paths produce
    identical labels.
    """
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Min

    edge_schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])

    def to_edges(b: pa.Table) -> pa.Table:
        a = pc.cast(b[col_a], pa.int64()).combine_chunks()
        c = pc.cast(b[col_b], pa.int64()).combine_chunks()
        return pa.table({"u": pa.concat_arrays([a, c]),
                         "v": pa.concat_arrays([c, a])})

    empty = rd.from_arrow(
        pa.table({"u": pa.array([], pa.int64()),
                  "label": pa.array([], pa.int64())})
    )
    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return empty
    limit = CC_DRIVER_EDGE_LIMIT if driver_limit is None else driver_limit
    if n_edges <= limit:
        df = edges.to_pandas()  # bounded: ≤ limit compact int pairs
        ids, lab = _cc_numpy(
            df["u"].to_numpy(np.int64), df["v"].to_numpy(np.int64)
        )
        return rd.from_arrow(
            pa.table({"u": pa.array(ids, pa.int64()),
                      "label": pa.array(lab, pa.int64())})
        )

    def with_self(b: pa.Table) -> pa.Table:
        u = b["u"].combine_chunks()
        return pa.table({"u": pa.concat_arrays([u, u]),
                         "v": pa.concat_arrays([b["v"].combine_chunks(), u])})

    labels = (
        edges.map_batches(with_self, batch_format="pyarrow")
        .groupby("u")
        .aggregate(Min("v", alias_name="label"))
        .materialize()
    )
    prev = labels.sum("label")

    def msg_rows(b: pa.Table) -> pa.Table:
        return pa.table({"u": b["v"], "label": b["label"]})

    converged = False
    for _ in range(max_rounds):
        msgs = copartition_attach(
            edges, labels, "u", edge_schema, {"label": pa.int64()}
        ).map_batches(msg_rows, batch_format="pyarrow")
        labels = (
            msgs.union(labels)
            .groupby("u")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur = labels.sum("label")
        if cur == prev:  # monotone ⇒ fixpoint
            converged = True
            break
        prev = cur
    if not converged:
        # label propagation converges in O(graph diameter) rounds;
        # exhausting max_rounds means components with diameter >
        # max_rounds still carry split labels — silently returning
        # them would corrupt any dedup keep-set built downstream.
        raise RuntimeError(
            f"connected_components: min-label propagation did not reach "
            f"its fixpoint within max_rounds={max_rounds} (component "
            f"diameter exceeds the round budget); raise max_rounds"
        )
    return labels


def dup_clusters(ds, threshold: float = 0.6, shingle: int = 3, pairs_fn=None):
    """Corpus-wide duplicate-cluster assignment: ``(doc_id,
    cluster_id)`` for EVERY document, where ``cluster_id`` is the
    minimum doc_id of the document's near-duplicate component
    (singletons are their own cluster).  ``cluster_id == doc_id``
    selects the canonical keep-set; the complement is the drop-list.

    Pair finding defaults to :func:`minhash_lsh_pairs` (the scale
    path; measured recall 1.0 / 0 FP vs the exact oracle on the
    fixture corpora — pass ``pairs_fn=jaccard_pairs_exact`` to force
    the quadratic exact edge set).  Components via
    :func:`connected_components`; the final singleton fill is the same
    union + ``groupby.min`` hash-merge idiom — each doc contributes a
    self-label row, docs with duplicate edges additionally carry their
    component label, and the min per doc is exactly
    ``coalesce(component, doc_id)`` without a join operator."""
    pairs = (pairs_fn or minhash_lsh_pairs)(ds, threshold=threshold, shingle=shingle)
    comp = connected_components(pairs)
    return assign_clusters(ds, comp, id_col="doc_id")


def assign_clusters(ds, comp, *, id_col: str = "doc_id"):
    """Singleton fill: ``(id_col, cluster_id)`` for every row of
    ``ds``, where ``cluster_id`` is the component label from ``comp``
    (a :func:`connected_components` result) or the row's own id when
    it has no duplicate edge.  Expressed as union + ``groupby.min`` —
    exactly ``coalesce(component, id)`` without a join operator (valid
    because labels never exceed the node id)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Min

    def self_label(b: pa.Table) -> pa.Table:
        i = pc.cast(b[id_col], pa.int64())
        return pa.table({"u": i, "label": i})

    out = (
        ds.select_columns([id_col])
        .map_batches(self_label, batch_format="pyarrow")
        .union(comp)
        .groupby("u")
        .aggregate(Min("label", alias_name="cluster_id"))
    )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({id_col: b["u"], "cluster_id": b["cluster_id"]})

    return out.map_batches(rename, batch_format="pyarrow").sort(id_col)


# ---------------------------------------------------------------------------
# Character-level edit-distance near-dup (exact, length-bucket blocked)
# ---------------------------------------------------------------------------


def _lev_capped(a: str, b: str, k: int) -> int:
    """Levenshtein distance between ``a`` and ``b`` (character ops over
    Unicode code points), capped at ``k + 1``: returns the exact
    distance when it is ≤ k, else ``k + 1``.  Row DP vectorized with
    numpy — the sequential ``cur[j-1] + 1`` insertion term becomes a
    prefix-min after the ``c[j] - j`` change of variable — with an
    early abandon as soon as a whole row exceeds ``k``.  Built for one
    pair of long texts (:func:`edit_distance_pairs`); many short terms
    against one query go through :func:`_lev_capped_many`."""
    if abs(len(a) - len(b)) > k:
        return k + 1
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if lb == 0:
        return min(la, k + 1)
    bv = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    prev = np.arange(lb + 1, dtype=np.int32)
    idx = np.arange(lb + 1, dtype=np.int32)
    for i, ca in enumerate(a, 1):
        t = np.minimum(prev[1:] + 1, prev[:-1] + (bv != np.uint32(ord(ca))))
        u = np.minimum.accumulate(np.concatenate(([np.int32(i)], t - idx[1:])))
        prev = u + idx
        if prev.min() > k:
            return k + 1
    return int(min(prev[lb], k + 1))


def _lev_capped_many(q: str, terms: list[str], k: int) -> np.ndarray:
    """``[_lev_capped(q, t, k) for t in terms]`` as one int64 array: the
    same row DP run on all terms at once, over a padded ``(len(terms),
    max_len)`` code-point matrix, one numpy step per character of
    ``q``.  A column depends only on the columns left of it, so padding
    never reaches a term's own last column, which is read at the end.
    No early abandon: callers prune to the ``len(q) ± k`` window first
    (a term outside it gets ``k + 1`` here too, after the full DP)."""
    lens = np.fromiter(map(len, terms), np.int64, len(terms))
    if not len(terms):
        return lens
    flat = np.frombuffer("".join(terms).encode("utf-32-le"), dtype=np.uint32)
    rows = np.repeat(np.arange(len(terms)), lens)
    cols = np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)
    codes = np.zeros((len(terms), int(lens.max())), dtype=np.uint32)
    codes[rows, cols] = flat
    idx = np.arange(codes.shape[1] + 1, dtype=np.int32)
    prev = np.broadcast_to(idx, (len(terms), len(idx)))
    for i, cq in enumerate(q, 1):
        t = np.minimum(prev[:, 1:] + 1, prev[:, :-1] + (codes != np.uint32(ord(cq))))
        c = np.hstack((np.full((len(terms), 1), i, np.int32), t - idx[1:]))
        prev = np.minimum.accumulate(c, axis=1) + idx
    return np.minimum(prev[np.arange(len(terms)), lens], k + 1).astype(np.int64)


def _char_hists(texts: list[str]) -> np.ndarray:
    """(n_docs, 129) code-point histograms: 128 ASCII bins + one
    catch-all for non-ASCII (lower bound only, still admissible)."""
    out = np.zeros((len(texts), 129), dtype=np.int32)
    for i, t in enumerate(texts):
        if t.isascii():
            out[i, :128] = np.bincount(
                np.frombuffer(t.encode(), dtype=np.uint8), minlength=128
            )
        else:
            cps = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
            np.add.at(out[i], np.minimum(cps, 128).astype(np.int64), 1)
    return out


def edit_distance_pairs(ds, max_dist: int = 30):
    """EXACT all-pairs character-level Levenshtein ≤ ``max_dist`` —
    the dedup family's byte/character member (template boilerplate,
    near-identical regenerations, OCR-noise dups that word-shingle
    Jaccard misses when every word mutates slightly).

    Blocking is length-bucketed and provably complete: edit distance
    ≥ |len(a) − len(b)|, and with each doc emitted into buckets
    ``len // d`` and ``len // d + 1`` every qualifying pair shares the
    canonical bucket ``max(la // d, lb // d)`` (emitted exactly once
    there).  Inside a bucket, candidates are pruned by an admissible
    code-point-histogram bound (edit ≥ L1(hist_a, hist_b) / 2, each
    substitution moves two histogram units, each indel one) before the
    exact capped DP (:func:`_lev_capped`) runs on survivors.

    Like :func:`jaccard_pairs_exact` this is the verification-scale
    EXACT member of its family — in-bucket candidate generation is
    quadratic in docs-per-length-bucket, so at 100 TB you run it on a
    sampled or pre-blocked slice (the scale paths are
    :func:`minhash_lsh_pairs` / :func:`prefix_jaccard_pairs`); unlike
    them it must NOT star-cap hot buckets, or exactness vs the
    ``levenshtein()`` oracle would break.

    Output: ``(doc_a, doc_b, dist)`` with ``doc_a < doc_b``, pinned
    ``(doc_a, doc_b)`` order and int64 dtypes across partitionings."""
    d = int(max_dist)
    if d < 1:
        raise ValueError("max_dist must be >= 1")

    def to_buckets(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = pc.cast(batch["doc_id"], pa.int64())
        n = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        base = pc.divide(n, pa.scalar(d, pa.int64()))
        lo = pa.table(
            {"bucket": base, "doc_id": ids, "text": batch["text"], "n": n}
        )
        hi = pa.table(
            {
                "bucket": pc.add(base, pa.scalar(1, pa.int64())),
                "doc_id": ids,
                "text": batch["text"],
                "n": n,
            }
        )
        return pa.concat_tables([lo, hi])

    def pairs(b: pa.Table) -> pa.Table:
        b, ai, bi = _bucket_pairs(b, ["bucket"], "doc_id")
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = b["n"].to_numpy(zero_copy_only=False)
        g = b["bucket"].to_numpy(zero_copy_only=False)
        # length prefilter + canonical-bucket dedup (emit once, in
        # the max of the two base buckets)
        keep = (np.abs(n[ai] - n[bi]) <= d) & (
            np.maximum(n[ai] // d, n[bi] // d) == g[ai]
        )
        ai, bi = ai[keep], bi[keep]
        texts = b["text"].to_pylist()
        # histograms of the candidates' docs only, not the whole block
        used, inv = np.unique(np.concatenate([ai, bi]), return_inverse=True)
        h = _char_hists([texts[i] for i in used])
        keep = np.abs(h[inv[:len(ai)]] - h[inv[len(ai):]]).sum(axis=1) <= 2 * d
        ai, bi = ai[keep], bi[keep]
        dist = np.array(
            [_lev_capped(texts[x], texts[y], d) for x, y in zip(ai, bi)],
            np.int64,
        )
        keep = dist <= d
        return pa.table(
            {"doc_a": ids[ai[keep]], "doc_b": ids[bi[keep]],
             "dist": dist[keep]}
        )

    return _key_blocks(
        ds.map_batches(to_buckets, batch_format="pyarrow"), "bucket", pairs
    ).sort(["doc_a", "doc_b"])


# ---------------------------------------------------------------------------
# First-occurrence n-gram novelty
# ---------------------------------------------------------------------------


def ngram_novelty(ds, shingle: int = 3):
    """Per-doc FIRST-OCCURRENCE novelty profile: for each doc with at
    least ``shingle`` tokens, the number of distinct word-``shingle``
    n-grams it contains, how many of those the doc introduces to the
    corpus (no doc with a smaller doc_id contains them), and the novel
    fraction — the curation statistic behind "is this source adding
    new content or re-treading the corpus" mixing decisions
    (vocab_growth's unigram curve generalized to n-grams and resolved
    per document).

    Plan: ONE tokenize pass → per-doc sorted-unique shingle-hash blobs
    (:class:`_ShingleSets`, shared with the minhash / prefix-jaccard /
    decontaminate paths) → explode to ``(shingle_hash, doc_id)`` int
    pairs → THREE native hash aggregates, never a per-group Python fn:
    ``groupby(key).Min(doc_id)`` (first occurrence per shingle) →
    ``groupby(first_doc).Count()`` (novel count per doc), unioned with
    ``groupby(doc_id).Count()`` (distinct-shingle count per doc) via
    the tagged-column trick from :func:`assign_clusters` and folded by
    one final ``groupby(doc_id).Sum``.  All exchanges are pure-int
    rows (16 B each), no text after the first pass; the min-per-group
    shape is skew-safe (a hot shingle grows one group linearly, never
    quadratically).  Engine keys are blake2b-64 hashes, the oracle
    keys string shingles — equal absent 64-bit collisions (the
    decontaminate / jaccard_pairs_exact argument).

    Output: ``(doc_id, n_shingles, n_novel, novelty)`` sorted by
    doc_id; docs with fewer than ``shingle`` tokens have no shingle
    set and are absent (the oracle mirrors with ``len(toks) >= k``)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Min, Sum

    sh = ds.map_batches(
        _shingle_set_task, fn_kwargs={"shingle": shingle}, batch_format="pyarrow"
    )

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        parent, vals = _unpack_blob_col(batch["shingles"])
        return pa.table(
            {
                "key": pa.array(vals.view(np.int64), pa.int64()),
                "doc_id": pa.array(ids[parent], pa.int64()),
            }
        )

    pairs = sh.map_batches(explode, batch_format="pyarrow").materialize()

    def tag_novel(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "doc_id": pc.cast(b["first_doc"], pa.int64()),
                "n_shingles": pa.array(np.zeros(n, np.int64)),
                "n_novel": pc.cast(b["n_novel"], pa.int64()),
            }
        )

    novel = (
        pairs.groupby("key")
        .aggregate(Min("doc_id", alias_name="first_doc"))
        .groupby("first_doc")
        .aggregate(Count(alias_name="n_novel"))
        .map_batches(tag_novel, batch_format="pyarrow")
    )

    def tag_total(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "doc_id": pc.cast(b["doc_id"], pa.int64()),
                "n_shingles": pc.cast(b["n_shingles"], pa.int64()),
                "n_novel": pa.array(np.zeros(n, np.int64)),
            }
        )

    total = (
        pairs.groupby("doc_id")
        .aggregate(Count(alias_name="n_shingles"))
        .map_batches(tag_total, batch_format="pyarrow")
    )

    agg = total.union(novel).groupby("doc_id").aggregate(
        Sum("n_shingles", alias_name="n_shingles"),
        Sum("n_novel", alias_name="n_novel"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        ns = pc.cast(batch["n_shingles"], pa.int64())
        nv = pc.cast(batch["n_novel"], pa.int64())
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_shingles": ns,
                "n_novel": nv,
                "novelty": pc.divide(
                    pc.cast(nv, pa.float64()), pc.cast(ns, pa.float64())
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort("doc_id")


def ngram_novelty_sql(table: str = "documents") -> str:
    """DuckDB twin of :func:`ngram_novelty` (3-shingles; string keys
    where the engine uses blake2b-64 hashes — equal absent
    collisions)."""
    return (
        f"WITH arr AS (SELECT doc_id, list_filter(string_split_regex(lower(text), "
        f"'[^a-z0-9]+'), x -> x <> '') AS toks FROM {table}), "
        "sh AS (SELECT DISTINCT doc_id, toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] AS shingle "
        "FROM arr, UNNEST(range(1, len(toks)-1)) AS t(i) WHERE len(toks) >= 3), "
        "f AS (SELECT shingle, min(doc_id) AS first_doc FROM sh GROUP BY 1) "
        "SELECT s.doc_id, CAST(count(*) AS BIGINT) AS n_shingles, "
        "CAST(count(*) FILTER (s.doc_id = f.first_doc) AS BIGINT) AS n_novel, "
        "CAST(count(*) FILTER (s.doc_id = f.first_doc) AS DOUBLE) / count(*) AS novelty "
        "FROM sh s JOIN f USING (shingle) GROUP BY 1 ORDER BY 1"
    )


def edit_distance_pairs_sql(max_dist: int = 30, table: str = "documents") -> str:
    """DuckDB twin of :func:`edit_distance_pairs` — exhaustive join
    with the same admissible length prefilter (edit ≥ |len diff|), so
    it is complete over whatever ``table`` holds."""
    d = int(max_dist)
    return (
        f"WITH p AS (SELECT a.doc_id AS da, b.doc_id AS db, "
        f"levenshtein(a.text, b.text) AS dist "
        f"FROM {table} a JOIN {table} b ON a.doc_id < b.doc_id "
        f"AND abs(length(a.text) - length(b.text)) <= {d}) "
        f"SELECT da AS doc_a, db AS doc_b, CAST(dist AS BIGINT) AS dist "
        f"FROM p WHERE dist <= {d} ORDER BY 1, 2"
    )
