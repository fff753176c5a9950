"""Posting codec round-trip + property tests (SURVEY.md §5 item (b))."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from raysearch.codec import (
    decode_postings,
    encode_postings,
    varint_decode,
    varint_encode,
)


def test_varint_known_values():
    vals = np.array([0, 1, 127, 128, 300, 2**21, 2**35, 2**63 - 1], dtype=np.uint64)
    buf = varint_encode(vals)
    assert varint_decode(buf).tolist() == vals.tolist()
    # single-byte economy
    assert len(varint_encode(np.array([5], dtype=np.uint64))) == 1
    assert len(varint_encode(np.array([128], dtype=np.uint64))) == 2
    assert varint_encode(np.array([], dtype=np.uint64)) == b""
    assert varint_decode(b"").size == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
def test_varint_roundtrip(values):
    a = np.array(values, dtype=np.uint64)
    assert varint_decode(varint_encode(a)).tolist() == values


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=500),
    st.integers(min_value=1, max_value=1000),
)
def test_postings_roundtrip(doc_set, tf_seed):
    doc_ids = np.array(sorted(doc_set), dtype=np.int64)
    rng = np.random.default_rng(tf_seed)
    tfs = rng.integers(1, 1000, size=doc_ids.size).astype(np.int64)
    doc_blob, tf_blob = encode_postings(doc_ids, tfs)
    got_ids, got_tfs = decode_postings(doc_blob, tf_blob)
    assert got_ids.tolist() == doc_ids.tolist()
    assert got_tfs.tolist() == tfs.tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=80),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=1, max_value=1000),
)
def test_segmented_encode_matches_per_segment(doc_sets, tf_seed):
    """encode_posting_segments over concatenated segments must produce
    byte-identical blobs to encode_postings per segment; the segmented
    decode must invert it."""
    from raysearch.codec import (
        decode_posting_segments,
        encode_posting_segments,
    )

    rng = np.random.default_rng(tf_seed)
    segs = []
    for s in doc_sets:
        ids = np.array(sorted(s), dtype=np.int64)
        tfs = rng.integers(1, 1000, size=ids.size).astype(np.int64)
        segs.append((ids, tfs))
    flat_ids = np.concatenate([i for i, _ in segs])
    flat_tfs = np.concatenate([t for _, t in segs])
    starts = np.cumsum([0] + [len(i) for i, _ in segs[:-1]])
    enc = encode_posting_segments(flat_ids, flat_tfs, np.asarray(starts, np.int64))
    for k, (ids, tfs) in enumerate(segs):
        db, tb = encode_postings(ids, tfs)
        assert enc["doc_blob"][k] == db
        assert enc["tf_blob"][k] == tb
        assert enc["df"][k] == len(ids)
        assert enc["cf"][k] == tfs.sum()
        assert enc["first_doc"][k] == ids[0] and enc["last_doc"][k] == ids[-1]
    d, t, ss = decode_posting_segments(
        enc["doc_blob"], enc["tf_blob"], enc["df"]
    )
    assert d.tolist() == flat_ids.tolist()
    assert t.tolist() == flat_tfs.tolist()
    assert ss.tolist() == list(starts)


def test_segmented_encode_rejects_bad_segment():
    import pytest

    from raysearch.codec import encode_posting_segments

    # second segment not increasing
    with pytest.raises(ValueError):
        encode_posting_segments(
            np.array([1, 5, 9, 3], dtype=np.int64),
            np.ones(4, dtype=np.int64),
            np.array([0, 2], dtype=np.int64),
        )
    # segment boundary reset is allowed (9 -> 2 across segments)
    out = encode_posting_segments(
        np.array([1, 9, 2, 3], dtype=np.int64),
        np.ones(4, dtype=np.int64),
        np.array([0, 2], dtype=np.int64),
    )
    assert out["first_doc"].tolist() == [1, 2]


def test_encode_rejects_unsorted():
    import pytest

    with pytest.raises(ValueError):
        encode_postings(np.array([3, 2], dtype=np.int64), np.array([1, 1], dtype=np.int64))
    with pytest.raises(ValueError):
        encode_postings(np.array([2, 2], dtype=np.int64), np.array([1, 1], dtype=np.int64))


def test_jpeg_roundtrip_gray_and_rgb():
    """Baseline JPEG (round 3): encoder/decoder round-trip within
    lossy tolerance on smooth images, exact dims, both color modes."""
    import numpy as np

    from raysearch.pipelines.jpeg_codec import decode_jpeg, encode_jpeg

    g = (np.linspace(0, 255, 48)[None, :] * np.ones((40, 1))).astype(np.uint8)
    d = decode_jpeg(encode_jpeg(g, quality=90))
    assert d.shape == g.shape
    assert np.abs(d.astype(int) - g.astype(int)).mean() < 2.0

    x, y = np.meshgrid(np.linspace(0, 255, 50), np.linspace(0, 255, 38))
    img = np.stack([x, y, (x + y) / 2], axis=-1).astype(np.uint8)
    d = decode_jpeg(encode_jpeg(img, quality=85))
    assert d.shape == img.shape
    assert np.abs(d.astype(int) - img.astype(int)).mean() < 3.0

    # odd (non-multiple-of-8) dimensions survive the block padding
    rng = np.random.Generator(np.random.PCG64(5))
    t = rng.integers(0, 256, (5, 9)).astype(np.uint8)
    assert decode_jpeg(encode_jpeg(t, quality=90)).shape == (5, 9)

    # quality knob is monotone-ish on a smooth image
    errs = [
        np.abs(decode_jpeg(encode_jpeg(img, quality=q)).astype(int)
               - img.astype(int)).mean()
        for q in (95, 60, 30)
    ]
    assert errs[0] <= errs[1] <= errs[2]


def test_jpeg_rejects_unsupported_shapes():
    import numpy as np
    import pytest

    from raysearch.pipelines.jpeg_codec import decode_jpeg, encode_jpeg

    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")
