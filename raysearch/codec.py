"""Delta-gap + varint posting-list codec, numpy-vectorized.

The reference stores one SQL row per (lemma, page) posting
(model/SearchIndex.java:11-27); at 10^12-turn scale postings must be
compressed blobs instead.  Format per posting list (doc-ascending):

* ``doc_blob``  — LEB128 varints of ``gaps`` where ``gaps[0] =
  doc_ids[0]`` and ``gaps[i] = doc_ids[i] - doc_ids[i-1]`` (strictly
  positive for i>0 because doc_ids are unique and sorted).
* ``tf_blob``   — LEB128 varints of the term frequencies, same order.

No block-max metadata is stored: the searcher derives per-block tf
maxima from the decoded tfs when it fetches a term, so the bounds
follow the decoded list whatever the chunking.

Both encode and decode are vectorized: encode writes each varint byte
position for all values at once; decode locates value boundaries from
the continuation bits and reduces with ``np.add.reduceat``.
"""

from __future__ import annotations

import numpy as np

def varint_encode_with_sizes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode a non-negative int64/uint64 array (vectorized).

    Returns ``(buffer uint8 array, per-value byte counts)`` so callers
    can slice the buffer into per-segment blobs without re-encoding."""
    a = np.asarray(values, dtype=np.uint64)
    if a.ndim != 1:
        raise ValueError("1-D array required")
    if a.size == 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    # bytes needed per value: ceil(bit_length / 7), min 1
    nbytes = np.ones(a.size, dtype=np.int64)
    shifted = a >> np.uint64(7)
    while shifted.any():
        nbytes += (shifted > 0).astype(np.int64)
        shifted >>= np.uint64(7)
    out = np.zeros(int(nbytes.sum()), dtype=np.uint8)
    starts = np.cumsum(nbytes) - nbytes
    max_nb = int(nbytes.max())
    for k in range(max_nb):
        mask = nbytes > k
        chunk = (a[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = np.where(nbytes[mask] > k + 1, 0x80, 0).astype(np.uint8)
        out[starts[mask] + k] = chunk.astype(np.uint8) | cont
    return out, nbytes


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a non-negative int64/uint64 array (vectorized)."""
    buf, _ = varint_encode_with_sizes(values)
    return buf.tobytes()


def varint_decode(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode a LEB128 byte string to a uint64 array (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero((b & 0x80) == 0)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    payload = (b & np.uint8(0x7F)).astype(np.uint64)
    lengths = ends - starts + 1
    pos_in_value = np.arange(b.size, dtype=np.int64) - np.repeat(starts, lengths)
    contrib = payload << (np.uint64(7) * pos_in_value.astype(np.uint64))
    return np.add.reduceat(contrib, starts)


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray) -> tuple[bytes, bytes]:
    """(doc_blob, tf_blob) for a doc-ascending posting list."""
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    if doc_ids.size == 0:
        return b"", b""
    gaps = np.empty_like(doc_ids)
    gaps[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])
    if doc_ids.size > 1 and gaps[1:].min() <= 0:
        raise ValueError("doc_ids must be strictly increasing")
    return varint_encode(gaps), varint_encode(tfs)


def _slice_blobs(
    buf: np.ndarray, nbytes: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> list[bytes]:
    """Per-segment byte blobs out of one encoded buffer (value-index
    segments → byte ranges via the per-value size prefix sum)."""
    byte_pos = np.zeros(len(nbytes) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=byte_pos[1:])
    data = buf.tobytes()
    return [data[byte_pos[s] : byte_pos[e]] for s, e in zip(starts, ends)]


def encode_posting_segments(
    doc_ids: np.ndarray, tfs: np.ndarray, seg_starts: np.ndarray
) -> dict[str, object]:
    """Encode MANY posting lists at once from flat parallel arrays.

    ``doc_ids``/``tfs`` hold the concatenation of all segments'
    postings; ``seg_starts`` marks each segment's first index.  Each
    segment must be doc-ascending internally.  One vectorized varint
    pass covers every segment; the only Python loop slices the shared
    buffer into per-segment ``bytes`` — this replaces a per-term
    encode loop that dominated build CPU at scale.

    Returns columns: df, cf, max_tf, first_doc, last_doc (numpy) and
    doc_blob, tf_blob (lists of bytes)."""
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    tfs = np.ascontiguousarray(tfs, dtype=np.int64)
    starts = np.asarray(seg_starts, dtype=np.int64)
    n = doc_ids.size
    if n == 0 or starts.size == 0:
        return {
            "df": np.empty(0, np.int64), "cf": np.empty(0, np.int64),
            "max_tf": np.empty(0, np.int64),
            "first_doc": np.empty(0, np.int64),
            "last_doc": np.empty(0, np.int64),
            "doc_blob": [], "tf_blob": [],
        }
    ends = np.concatenate((starts[1:], [n]))
    df = ends - starts
    cf = np.add.reduceat(tfs, starts)
    max_tf = np.maximum.reduceat(tfs, starts)
    first_doc = doc_ids[starts]
    last_doc = doc_ids[ends - 1]
    gaps = np.empty_like(doc_ids)
    gaps[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])
    gaps[starts] = doc_ids[starts]
    interior = np.ones(n, dtype=bool)
    interior[starts] = False
    if interior.any() and gaps[interior].min() <= 0:
        raise ValueError("doc_ids must be strictly increasing within a segment")
    doc_buf, doc_nb = varint_encode_with_sizes(gaps)
    tf_buf, tf_nb = varint_encode_with_sizes(tfs)
    return {
        "df": df, "cf": cf, "max_tf": max_tf,
        "first_doc": first_doc, "last_doc": last_doc,
        "doc_blob": _slice_blobs(doc_buf, doc_nb, starts, ends),
        "tf_blob": _slice_blobs(tf_buf, tf_nb, starts, ends),
    }


def decode_posting_segments(
    doc_blobs: list[bytes], tf_blobs: list[bytes], dfs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_posting_segments` over MANY rows at
    once: decode the concatenation of all rows' blobs in two vectorized
    passes and rebuild absolute doc_ids with a segmented cumsum.

    Returns (doc_ids, tfs, seg_starts) — flat arrays plus each row's
    first index."""
    dfs = np.asarray(dfs, dtype=np.int64)
    if dfs.size == 0 or int(dfs.sum()) == 0:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.zeros(len(dfs), np.int64),
        )
    gaps = varint_decode(b"".join(doc_blobs)).astype(np.int64)
    tfs = varint_decode(b"".join(tf_blobs)).astype(np.int64)
    seg_starts = np.cumsum(dfs) - dfs
    c = np.cumsum(gaps)
    # subtract the running total accumulated before each segment so each
    # segment's cumsum restarts at its own absolute first doc_id
    # (df=0 rows may point past the end; clip — they are never indexed)
    safe = np.minimum(seg_starts, len(gaps) - 1)
    base = c[safe] - gaps[safe]
    seg_id = np.repeat(np.arange(len(dfs)), dfs)
    doc_ids = c - base[seg_id]
    return doc_ids, tfs, seg_starts


def decode_postings(
    doc_blob: bytes, tf_blob: bytes
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_postings`."""
    gaps = varint_decode(doc_blob).astype(np.int64)
    doc_ids = np.cumsum(gaps)
    tfs = varint_decode(tf_blob).astype(np.int64)
    return doc_ids, tfs
