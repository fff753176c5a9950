"""Sequence-packing offsets — the GPT-style "concatenate every
document with a separator, slice the stream into fixed context-length
chunks" training-data step, reduced to its distributable core: an
EXACT global token prefix sum over docs in doc_id order.

``pack_offsets(ds, seq_len)`` emits, per document, its token count,
its global start offset in the concatenated token stream, and the
first/last context chunk it lands in.  A trainer shards chunk ranges;
a data loader uses (start_off, n_tokens) to locate any doc inside any
chunk without scanning.

Distribution (the conv-offset pattern from ``build.py:141`` made a
user-facing operator, two SMALL exchanges + one bucket-local pass):

1. bucket = doc_id // bucket_size (range buckets keep doc_id order
   across buckets by construction);
2. per-bucket token sums — one groupby over (bucket, n) partials
   (rows = buckets, not docs);
3. exclusive cumsum over the sorted bucket sums (driver-side: one int
   per bucket — millions of buckets per 10¹² docs, broadcast via
   ``ray.put``);
4. one key-block pass after ``sort(bucket)``: each block sorts its
   docs by (bucket, doc_id); a doc's offset is its bucket's base plus
   the block cumsum minus the cumsum at the bucket's first doc.

Token counts use the whitespace rule (``\\S+``) shared with
``textstats.token_counts`` so the SQL oracle replays it exactly with
``regexp_extract_all``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.util import _group_ids, _groups, _key_blocks

WS_TOKEN_PATTERN = r"\S+"


def pack_offsets(ds, seq_len: int = 2048, *, bucket_size: int = 100_000):
    """Per-doc global token offsets + context-chunk spans.

    Output: ``(doc_id, n_tokens, start_off, chunk_first, chunk_last)``
    sorted by doc_id.  Empty docs get ``chunk_first == chunk_last ==
    start_off // seq_len`` (zero-width span)."""
    import ray
    from ray.data.aggregate import Sum

    def count_tokens(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        n = pc.count_substring_regex(b["text"], pattern=WS_TOKEN_PATTERN)
        return pa.table(
            {
                "doc_id": ids,
                "bucket": pc.divide(ids, pa.scalar(bucket_size, pa.int64())),
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    counted = ds.map_batches(count_tokens, batch_format="pyarrow").materialize()

    sums = counted.groupby("bucket").aggregate(Sum("n_tokens", alias_name="total"))
    sp = sums.to_pandas().sort_values("bucket")
    totals = sp.total.to_numpy(np.int64)
    # two flat int64 arrays (not a dict): 16 B/bucket broadcast
    bucket_ids = sp.bucket.to_numpy(np.int64)
    bases = np.cumsum(totals) - totals
    base_ref = ray.put((bucket_ids, bases))

    def bucket_offsets(b: pa.Table) -> pa.Table:
        bucket_ids, bases = ray.get(base_ref)
        b, starts = _groups(b, ["bucket", "doc_id"])
        n = b["n_tokens"].to_numpy(zero_copy_only=False)
        gid = _group_ids(starts, len(n))
        # exclusive prefix sum restarted at each bucket + its base
        excl = np.cumsum(n) - n
        base = bases[np.searchsorted(bucket_ids, b["bucket"].to_numpy())]
        start = base + excl - excl[starts][gid]
        last_tok = start + np.maximum(n, 1) - 1  # zero-width span for empty docs
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tokens": pa.array(n, pa.int64()),
                "start_off": pa.array(start, pa.int64()),
                "chunk_first": pa.array(start // seq_len, pa.int64()),
                "chunk_last": pa.array(last_tok // seq_len, pa.int64()),
            }
        )

    return _key_blocks(counted, "bucket", bucket_offsets).sort("doc_id")


def chunk_manifest(ds, seq_len: int = 2048, *, bucket_size: int = 100_000):
    """The pack plan MATERIALIZED: one row per (context chunk, doc)
    intersection — exactly the gather list a distributed training
    loader executes ("chunk 17 = tokens 3..511 of doc 40 then tokens
    0..2 of doc 41").

    Derived from :func:`pack_offsets` (same two small exchanges) by a
    vectorized streaming explode — each doc emits ``chunk_last -
    chunk_first + 1`` rows (≈ n_tokens/seq_len + 1, so output rows ≈
    input tokens / seq_len + docs; no shuffle beyond the pinned final
    sort).  Empty docs occupy no tokens and emit nothing.

    Output ``(chunk_id, doc_id, doc_off, chunk_off, n)`` sorted by
    (chunk_id, doc_id) — a unique pair, so the order is total:
    ``doc_off`` = first token of the slice within the DOC, ``chunk_off``
    = its position within the CHUNK, ``n`` = slice length."""
    off = pack_offsets(ds, seq_len, bucket_size=bucket_size)

    def explode(b: pa.Table) -> pa.Table:
        doc = b["doc_id"].to_numpy(zero_copy_only=False)
        n = b["n_tokens"].to_numpy(zero_copy_only=False)
        start = b["start_off"].to_numpy(zero_copy_only=False)
        keep = n > 0
        doc, n, start = doc[keep], n[keep], start[keep]
        empty = pa.table(
            {c: pa.array([], pa.int64())
             for c in ("chunk_id", "doc_id", "doc_off", "chunk_off", "n")}
        )
        if not len(doc):
            return empty
        first = start // seq_len
        reps = (start + n - 1) // seq_len - first + 1
        r_doc = np.repeat(doc, reps)
        r_start = np.repeat(start, reps)
        r_n = np.repeat(n, reps)
        base = np.cumsum(reps) - reps
        idx = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(base, reps)
        chunk = np.repeat(first, reps) + idx
        tok_first = np.maximum(r_start, chunk * seq_len)
        tok_last = np.minimum(r_start + r_n - 1, (chunk + 1) * seq_len - 1)
        return pa.table(
            {
                "chunk_id": pa.array(chunk, pa.int64()),
                "doc_id": pa.array(r_doc, pa.int64()),
                "doc_off": pa.array(tok_first - r_start, pa.int64()),
                "chunk_off": pa.array(tok_first - chunk * seq_len, pa.int64()),
                "n": pa.array(tok_last - tok_first + 1, pa.int64()),
            }
        )

    return (
        off.map_batches(explode, batch_format="pyarrow")
        .sort(["chunk_id", "doc_id"])
    )


def chunk_manifest_sql(seq_len: int, table: str = "documents") -> str:
    """DuckDB twin of :func:`chunk_manifest` (same whitespace token
    rule, same prefix sum, inclusive generate_series explode)."""
    ln = seq_len
    return (
        f"WITH t AS (SELECT doc_id, len(regexp_extract_all(text, '\\S+')) "
        f"AS n_tokens FROM {table}), "
        "c AS (SELECT doc_id, n_tokens, COALESCE(sum(n_tokens) OVER ("
        "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), "
        "0) AS s FROM t), "
        f"e AS (SELECT doc_id, n_tokens, s, unnest(generate_series("
        f"CAST(s // {ln} AS BIGINT), "
        f"CAST((s + n_tokens - 1) // {ln} AS BIGINT))) AS chunk_id "
        "FROM c WHERE n_tokens > 0) "
        "SELECT CAST(chunk_id AS BIGINT) AS chunk_id, doc_id, "
        f"CAST(greatest(s, chunk_id * {ln}) - s AS BIGINT) AS doc_off, "
        f"CAST(greatest(s, chunk_id * {ln}) - chunk_id * {ln} AS BIGINT) "
        "AS chunk_off, "
        f"CAST(least(s + n_tokens - 1, (chunk_id + 1) * {ln} - 1) "
        f"- greatest(s, chunk_id * {ln}) + 1 AS BIGINT) AS n "
        "FROM e ORDER BY chunk_id, doc_id"
    )


def sliding_chunks(ds, window: int = 64, stride: int = 48):
    """RAG-style overlapping token windows: one row per (doc, chunk)
    where chunk ``i`` covers whitespace tokens ``[i*stride,
    min(i*stride + window, n))`` — the retrieval-corpus chunking step
    that precedes embedding (every doc sliced into fixed windows with
    ``window - stride`` tokens of overlap so no boundary sentence is
    lost to a hard cut).

    Pure per-row arithmetic on the vectorized whitespace token count
    (the ``pack_offsets`` / ``token_counts`` rule) — no shuffle, no
    state, embarrassingly parallel at any scale; the explode is
    numpy ``repeat``/``arange``, never a Python loop.  A doc with
    ``0 < n ≤ window`` yields exactly one chunk ``[0, n)``; an empty
    doc yields none; chunk count is ``1 + ceil(max(n - window, 0) /
    stride)`` so the final window always reaches the last token and
    no chunk is a pure suffix of its predecessor.

    Output: ``(doc_id, chunk_idx, tok_start, tok_end, chunk_tokens)``
    with pinned ``(doc_id, chunk_idx)`` order (block completion order
    is nondeterministic under parallel reads, so the gate-facing order
    is sorted explicitly, the ``chunk_manifest`` convention), int64
    throughout."""
    w, s = int(window), int(stride)
    if w < 1 or s < 1 or s > w:
        raise ValueError("need 1 <= stride <= window")

    def chunks(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64()).to_numpy()
        n = (
            pc.cast(
                pc.count_substring_regex(b["text"], pattern=WS_TOKEN_PATTERN),
                pa.int64(),
            )
            .to_numpy()
        )
        k = np.where(n > 0, 1 + (np.maximum(n - w, 0) + s - 1) // s, 0)
        doc = np.repeat(ids, k)
        base = np.repeat(np.cumsum(k) - k, k)
        idx = np.arange(int(k.sum()), dtype=np.int64) - base
        tok_start = idx * s
        tok_end = np.minimum(tok_start + w, np.repeat(n, k))
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "chunk_idx": pa.array(idx, pa.int64()),
                "tok_start": pa.array(tok_start, pa.int64()),
                "tok_end": pa.array(tok_end, pa.int64()),
                "chunk_tokens": pa.array(tok_end - tok_start, pa.int64()),
            }
        )

    return ds.map_batches(chunks, batch_format="pyarrow").sort(
        ["doc_id", "chunk_idx"]
    )


def sliding_chunks_sql(window: int, stride: int, table: str = "documents") -> str:
    """DuckDB twin of :func:`sliding_chunks` (same whitespace token
    rule, same chunk-count formula, range explode)."""
    w, s = int(window), int(stride)
    return (
        f"WITH t AS (SELECT doc_id, len(regexp_extract_all(text, '\\S+')) "
        f"AS n FROM {table}), "
        f"c AS (SELECT doc_id, n, CASE WHEN n = 0 THEN 0 ELSE "
        f"1 + (greatest(n - {w}, 0) + {s} - 1) // {s} END AS k FROM t) "
        f"SELECT doc_id, CAST(i AS BIGINT) AS chunk_idx, "
        f"CAST(i * {s} AS BIGINT) AS tok_start, "
        f"CAST(least(i * {s} + {w}, n) AS BIGINT) AS tok_end, "
        f"CAST(least(i * {s} + {w}, n) - i * {s} AS BIGINT) AS chunk_tokens "
        f"FROM c, UNNEST(range(0, k)) AS u(i) ORDER BY doc_id, chunk_idx"
    )
