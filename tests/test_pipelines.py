"""Tests for the training-data pipeline operators (dedup families, ANN,
text metrics, multimodal plumbing) — brute-force references computed
in-process on small inputs."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",  # near-dup of 0
        "completely different content about ray data pipelines",
        "the quick brown fox jumps over the lazy dog",  # exact dup of 0
        "another unrelated document mentioning data and pipelines",
        "short",
    ]
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )


def test_exact_dedup(docs_ds):
    from raysearch.pipelines.dedup import exact_dedup

    out = exact_dedup(docs_ds).to_pandas().set_index("text_hash")
    dup_hash = hashlib.md5(
        b"the quick brown fox jumps over the lazy dog"
    ).hexdigest()
    assert len(out) == 5  # 6 docs, one exact duplicate pair
    assert out.loc[dup_hash, "doc_id"] == 0  # keeps min doc_id
    assert out.loc[dup_hash, "n_copies"] == 2
    assert out.n_copies.sum() == 6


def test_minhash_lsh_pairs(docs_ds):
    from raysearch.pipelines.dedup import minhash_lsh_pairs

    out = minhash_lsh_pairs(docs_ds, threshold=0.5).to_pandas()
    pairs = set(zip(out.doc_a, out.doc_b))
    assert (0, 3) in pairs  # exact dup: jaccard 1.0
    assert (0, 1) in pairs or (1, 3) in pairs  # one-word-changed near-dup
    exact = out[(out.doc_a == 0) & (out.doc_b == 3)]
    assert float(exact.jaccard.iloc[0]) == 1.0
    # unrelated docs never pair with the fox docs above threshold
    assert not any({a, b} & {2, 4, 5} and {a, b} & {0, 1, 3} for a, b in pairs)


def test_simhash_exact_dup_pair(docs_ds):
    from raysearch.pipelines.dedup import simhash_pairs

    out = simhash_pairs(docs_ds, max_hamming=3).to_pandas()
    row = out[(out.doc_a == 0) & (out.doc_b == 3)]
    assert len(row) == 1 and int(row.hamming.iloc[0]) == 0


def test_char_ngram_jaccard():
    from raysearch.pipelines.dedup import char_ngram_jaccard

    assert char_ngram_jaccard("abcdef", "abcdef") == 1.0
    assert char_ngram_jaccard("abcdef", "uvwxyz") == 0.0


@pytest.fixture(scope="module")
def vec_ds(ray_session):
    """24 unit-ish vectors in 8d: pairs (0,1) and (2,3) nearly parallel,
    the rest random."""
    import ray.data as rd

    rng = np.random.Generator(np.random.PCG64(123))
    base = rng.standard_normal((22, 8))
    v0 = base[0]
    v1 = v0 + 0.01 * rng.standard_normal(8)  # cos ~ 0.9999
    v2 = base[1]
    v3 = v2 + 0.02 * rng.standard_normal(8)
    vecs = np.vstack([v0, v1, v2, v3, base[2:]])
    return (
        rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(range(len(vecs)), pa.int64()),
                    "embedding": pa.array(
                        [v.tolist() for v in vecs], pa.list_(pa.float64())
                    ),
                }
            )
        ),
        vecs,
    )


def test_embedding_near_dup_brute_vs_lsh(vec_ds):
    from raysearch.pipelines.dedup import embedding_near_dup

    ds, vecs = vec_ds
    brute = embedding_near_dup(ds, threshold=0.98, n_planes=0).to_pandas()
    got = set(zip(brute.vec_a, brute.vec_b))
    # reference: exact cosine
    unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    sim = unit @ unit.T
    want = {
        (i, j)
        for i in range(len(vecs))
        for j in range(i + 1, len(vecs))
        if sim[i, j] >= 0.98
    }
    assert got == want and {(0, 1), (2, 3)} <= got
    # LSH blocking: near-parallel pairs share all sign buckets
    lsh = embedding_near_dup(ds, threshold=0.98, n_planes=4).to_pandas()
    assert {(0, 1), (2, 3)} <= set(zip(lsh.vec_a, lsh.vec_b))
    assert set(zip(lsh.vec_a, lsh.vec_b)) <= want  # no false positives


def test_cosine_topk_exact(vec_ds):
    from raysearch.pipelines.simsearch import cosine_topk
    from raysearch.util import round_half_away

    ds, vecs = vec_ds
    queries = vecs[:2]
    out = cosine_topk(ds, queries, [0, 1], k=5).to_pandas()
    unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    for qi, qid in enumerate([0, 1]):
        scores = round_half_away(unit @ unit[qi], 4)
        order = sorted(range(len(vecs)), key=lambda v: (-scores[v], v))[:5]
        sub = out[out.query_id == qid].sort_values("rank")
        assert sub.vec_id.tolist() == order
        assert sub.score.tolist() == [float(scores[v]) for v in order]


def test_ivf_topk_recall(vec_ds):
    from raysearch.pipelines.simsearch import cosine_topk, ivf_topk

    ds, vecs = vec_ds
    queries = vecs[:3]
    exact = cosine_topk(ds, queries, [0, 1, 2], k=5).to_pandas()
    approx = ivf_topk(ds, queries, [0, 1, 2], k=5, nlist=4, nprobe=2).to_pandas()
    hits = total = 0
    for qid in (0, 1, 2):
        e = set(exact[exact.query_id == qid].vec_id)
        a = set(approx[approx.query_id == qid].vec_id)
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.6  # nprobe=2 of 4 cells
    # the query vector itself is always rank 0 (it is in its own probe cell)
    for qid in (0, 1, 2):
        top = approx[(approx.query_id == qid) & (approx["rank"] == 0)]
        assert top.vec_id.iloc[0] == qid


def test_doc_metrics_hand_computed(ray_session):
    import ray.data as rd

    from raysearch.pipelines.textstats import doc_metrics

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([7], pa.int64()),
                "text": pa.array(["The cat and the dog"], pa.string()),
            }
        )
    )
    row = doc_metrics(ds).to_pandas().iloc[0]
    # tokens: the cat and the dog → 5; distinct 4; stops: the, and, the → 3
    assert row.n_tokens == 5 and row.distinct_terms == 4
    assert row.stop_ratio == 0.6
    assert row.quality == round(0.5 * 0.05 + 0.3 * 0.8 + 0.2 * 0.4, 4)
    assert row.lang_guess == "en"
    assert row.fingerprint == hashlib.md5(b"The cat and the dog").hexdigest()


def test_term_df_and_doc_stats(docs_ds):
    from raysearch.pipelines.textstats import doc_stats, term_df

    df = term_df(docs_ds).to_pandas().set_index("term")
    assert df.loc["fox", "df"] == 3  # docs 0, 1, 3
    assert df.loc["pipelines", "df"] == 2
    st = doc_stats(docs_ds).to_pandas().iloc[0]
    assert st.n_docs == 6
    assert st.n_tokens == 9 * 3 + 7 + 7 + 1
    assert st.avg_doc_len == st.n_tokens / 6


def test_token_counts_hand_computed(ray_session):
    import ray.data as rd

    from raysearch.pipelines.textstats import token_counts

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(
                    ["Hello, world 42!", "  spaced   out  "], pa.string()
                ),
            }
        )
    )
    out = token_counts(ds).to_pandas().set_index("doc_id")
    # "Hello, world 42!": ws = Hello, | world | 42!  → 3
    # bpe-ish: "Hello" "," " world" " 42" "!" → 5
    assert out.loc[0, "ws_tokens"] == 3 and out.loc[0, "bpe_tokens"] == 5
    assert out.loc[1, "ws_tokens"] == 2 and out.loc[1, "bpe_tokens"] == 2


def test_doc_fingerprints_winnowing(ray_session):
    import numpy as np
    import ray.data as rd

    from raysearch.pipelines.textstats import (
        FP_BASE,
        FP_K,
        FP_W,
        doc_fingerprints,
    )

    shared = "a quick brown fox jumped over it"  # >= FP_K+FP_W-1 chars
    texts = [
        "prefix one " + shared + " suffix alpha",
        "totally different lead-in — " + shared + " and another tail",
        "no overlap with anything else here at all",
        "tiny",  # < k chars → no fingerprints
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = doc_fingerprints(ds).to_pandas()
    assert out["fp"].dtype == np.uint64
    by_doc = {d: set(g["fp"]) for d, g in out.groupby("doc_id")}
    # brute-force recompute of doc 0 (per-position polynomial, Python ints)
    t = texts[0]
    hs = [
        sum(
            ord(t[i + j]) * FP_BASE ** (FP_K - 1 - j) for j in range(FP_K)
        )
        % 2**64
        for i in range(len(t) - FP_K + 1)
    ]
    expected0 = {min(hs[i : i + FP_W]) for i in range(len(hs) - FP_W + 1)}
    assert by_doc[0] == expected0
    # winnowing guarantee: docs sharing a substring of length >= k+w-1
    # share at least one fingerprint; unrelated docs (almost surely) none
    assert by_doc[0] & by_doc[1]
    assert not (by_doc[0] & by_doc[2])
    assert 3 not in by_doc  # sub-k doc emits nothing


def test_lang_id_ngram_profiles(ray_session):
    import ray.data as rd

    from raysearch.pipelines.textstats import lang_id_ngram

    # two synthetic "languages" with disjoint character inventories,
    # plus held-out docs of each — held-out docs must classify to the
    # language whose trigrams they share
    aa = ["zzxy zxzy xzyz zyxz xyzzy zxy", "xyz zyx zzxy xyzz yzzx zyzy"]
    bb = ["aabb abab bbaa abba baba aabab", "abab baab bbab aaba abba baaa"]
    texts = aa + bb + ["zxyz zyzx xyzy zzyx", "abba baba aabb babb"]
    langs = ["xx", "xx", "yy", "yy", "xx", "yy"]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
            }
        )
    )
    out = (
        lang_id_ngram(ds, train_n=2, profile_m=16)
        .to_pandas()
        .set_index("doc_id")
    )
    # held-out docs (4, 5) were NOT in training (train = 2 lowest ids
    # per lang = 0,1,2,3) and must classify to their own language
    assert out.loc[4, "lang_pred"] == "xx"
    assert out.loc[5, "lang_pred"] == "yy"
    assert (out["matches"] > 0).all()
    # training docs classify to their own profile too
    assert list(out.loc[[0, 1], "lang_pred"]) == ["xx", "xx"]
    assert list(out.loc[[2, 3], "lang_pred"]) == ["yy", "yy"]


def test_png_codec_roundtrip_all_filters():
    from raysearch.pipelines.media_codec import decode_png, encode_png

    rng = np.random.Generator(np.random.PCG64(9))
    for ch in (1, 2, 3, 4):
        img = rng.integers(0, 256, size=(13, 17, ch)).astype(np.uint8)
        for ft in range(5):  # None / Sub / Up / Average / Paeth
            assert (decode_png(encode_png(img, filter_type=ft)) == img).all(), (
                ch,
                ft,
            )


def test_wav_codec_roundtrip():
    from raysearch.pipelines.media_codec import decode_wav, encode_wav

    rng = np.random.Generator(np.random.PCG64(10))
    sig = (rng.standard_normal((800, 2)) * 10000).astype(np.int16)
    out, rate = decode_wav(encode_wav(sig, rate=16000))
    assert rate == 16000 and out.shape == (800, 2)
    assert np.allclose(out * 32768.0, sig, atol=1.0)


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


def test_media_decode_real(ray_session):
    import ray.data as rd

    from raysearch.pipelines.dedup import embedding_near_dup
    from raysearch.pipelines.multimodal import DecodeStage, decode_features, fake_media_table

    t = fake_media_table(30)
    # real decode: image + audio rows decoded, video rows skipped
    out = decode_features(rd.from_arrow(t), on_unsupported="skip").to_pandas()
    mods = dict(zip(t["media_id"].to_pylist(), t["modality"].to_pylist()))
    assert set(out.media_id) == {m for m, mod in mods.items() if mod != "video"}
    assert all(len(f) == 16 for f in out.feature)
    # image features carry the REAL width/height from the PNG header
    widths = dict(zip(t["media_id"].to_pylist(), t["width"].to_pylist()))
    for mid, mod, f in zip(out.media_id, out.modality, out.feature):
        if mod == "image":
            assert f[0] == 1.0 and round(f[1] * 4096) == widths[mid]
        else:
            assert f[0] == 2.0
    # deterministic
    out2 = decode_features(rd.from_arrow(t), on_unsupported="skip").to_pandas()
    a = {m: list(f) for m, f in zip(out.media_id, out.feature)}
    b = {m: list(f) for m, f in zip(out2.media_id, out2.feature)}
    assert a == b
    # unsupported format errors loudly by default
    with pytest.raises(Exception):
        decode_features(
            rd.from_arrow(t), on_unsupported="error"
        ).to_pandas()
    # decoded features feed downstream ops (near-dup over the feature col)
    feat_ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(out.media_id.tolist(), pa.int64()),
                "embedding": pa.array(
                    [list(f) for f in out.feature], pa.list_(pa.float64())
                ),
            }
        )
    )
    dup = embedding_near_dup(feat_ds, threshold=0.999, n_planes=0).to_pandas()
    assert len(dup) >= 0  # executes end-to-end
    # fake mode still available for plumbing tests
    fk = decode_features(rd.from_arrow(t), fake=True).to_pandas()
    assert len(fk) == 30


def test_frame_sampling_arithmetic(ray_session):
    import ray.data as rd

    from raysearch.pipelines.multimodal import fake_media_table, sample_frames

    t = fake_media_table(30)
    out = sample_frames(rd.from_arrow(t), stride_ms=1000).to_pandas()
    durs = {
        m: d
        for m, mod, d in zip(
            t["media_id"].to_pylist(),
            t["modality"].to_pylist(),
            t["duration_ms"].to_pylist(),
        )
        if mod == "video"
    }
    assert set(out.media_id) == set(durs)
    for mid, dur in durs.items():
        frames = out[out.media_id == mid].frame_ms.tolist()
        assert frames == list(range(0, dur, 1000))


def test_mp4_codec_roundtrip():
    import numpy as np

    from raysearch.pipelines.mp4_codec import encode_mp4, mdat_base, parse_mp4

    for n in (1, 7, 240):
        sizes = np.arange(n) % 120 + 64
        payloads = [bytes([i % 256] * int(s)) for i, s in enumerate(sizes)]
        data = encode_mp4(sizes, payloads, frame_dur=40)
        info = parse_mp4(data)
        assert info["timescale"] == 1000 and info["duration"] == n * 40
        assert np.array_equal(info["sizes"], sizes)
        assert np.array_equal(info["durations"], np.full(n, 40))
        exp_off = mdat_base(n) + np.concatenate(([0], np.cumsum(sizes[:-1])))
        assert np.array_equal(info["offsets"], exp_off)
        # byte ranges recover the exact sample payloads
        for i, (o, s) in enumerate(zip(info["offsets"], info["sizes"])):
            assert data[o : o + s] == payloads[i]
    with pytest.raises(ValueError):
        parse_mp4(b"\x00" * 64)
    with pytest.raises(ValueError):
        parse_mp4(encode_mp4([10])[:40])  # truncated moov


def test_mp4_parser_multi_chunk():
    """The parser resolves general multi-run stts and multi-chunk
    stsc/stco maps (the writer emits one chunk; hand-build a file with
    two chunks separated by a gap and two stts runs)."""
    import struct

    import numpy as np

    from raysearch.pipelines.mp4_codec import _FTYP, _box, _full, parse_mp4

    sizes = [10, 20, 30, 40, 50]
    mdhd = _full(
        b"mdhd",
        struct.pack(">II", 0, 0) + struct.pack(">II", 1000, 200)
        + struct.pack(">HH", 0x55C4, 0),
    )
    stsd = _full(b"stsd", struct.pack(">I", 1) + _box(b"opqv", b"\x00" * 8))
    # two stts runs: 3 samples of 40, 2 samples of 40 (split on purpose)
    stts = _full(b"stts", struct.pack(">IIIII", 2, 3, 40, 2, 40))
    stsz = _full(
        b"stsz", struct.pack(">II", 0, 5) + struct.pack(">5I", *sizes)
    )
    # chunk 1: samples 0-2, chunk 2: samples 3-4
    stsc = _full(b"stsc", struct.pack(">IIIIIII", 2, 1, 3, 1, 2, 2, 1))
    def build(c1, c2):
        stco = _full(b"stco", struct.pack(">III", 2, c1, c2))
        stbl = _box(b"stbl", stsd + stts + stsz + stsc + stco)
        minf = _box(b"minf", stbl)
        mdia = _box(b"mdia", mdhd + minf)
        moov = _box(b"moov", _box(b"trak", mdia))
        return moov

    gap = 7
    probe = build(0, 0)
    c1 = len(_FTYP) + len(probe) + 8
    c2 = c1 + 10 + 20 + 30 + gap
    mdat_payload = (
        bytes(60) + b"\xee" * gap + bytes(90)
    )  # chunk1 (60 B) + gap + chunk2 (90 B)
    data = _FTYP + build(c1, c2) + _box(b"mdat", mdat_payload)
    info = parse_mp4(data)
    assert info["timescale"] == 1000
    assert np.array_equal(info["sizes"], sizes)
    assert np.array_equal(info["durations"], np.full(5, 40))
    assert info["offsets"].tolist() == [c1, c1 + 10, c1 + 30, c2, c2 + 40]


def test_demux_frames_real_container(ray_session):
    import numpy as np
    import ray.data as rd

    from raysearch.pipelines.mp4_codec import mdat_base
    from raysearch.pipelines.multimodal import demux_frames, fake_media_table

    t = fake_media_table(30)
    out = demux_frames(rd.from_arrow(t), stride_ms=1000).to_pandas()
    vids = {
        m: d
        for m, mod, d in zip(
            t["media_id"].to_pylist(),
            t["modality"].to_pylist(),
            t["duration_ms"].to_pylist(),
        )
        if mod == "video"
    }
    assert set(out.media_id) == set(vids)
    for mid, dur in vids.items():
        g = out[out.media_id == mid].sort_values("frame_ms")
        n = dur // 40
        assert g.frame_ms.tolist() == list(range(0, dur, 1000))
        assert (g.sample_idx == g.frame_ms // 40).all()
        sizes = 64 + ((mid * 31 + np.arange(n) * 7) % 128)
        csum = np.concatenate(([0], np.cumsum(sizes[:-1])))
        exp_off = mdat_base(n) + csum
        assert g.byte_off.tolist() == exp_off[g.sample_idx.to_numpy()].tolist()
        assert g.byte_len.tolist() == sizes[g.sample_idx.to_numpy()].tolist()
    # non-MP4 payload: error by default, skip on request
    bad = pa.table(
        {
            "media_id": pa.array([99], pa.int64()),
            "modality": pa.array(["video"], pa.string()),
            "fmt": pa.array(["mp4"], pa.string()),
            "width": pa.array([0], pa.int32()),
            "height": pa.array([0], pa.int32()),
            "duration_ms": pa.array([1000], pa.int32()),
            "payload": pa.array([b"\x00" * 100], pa.binary()),
        }
    )
    assert (
        demux_frames(rd.from_arrow(bad), on_bad="skip").to_pandas().shape[0] == 0
    )


def test_jaccard_pairs_exact_vs_bruteforce(docs_ds):
    """Distributed exact all-pairs shingle Jaccard == in-process brute
    force (full 3-shingles only, <k-token docs contribute none)."""
    from raysearch.pipelines.dedup import jaccard_pairs_exact

    texts = {
        d: t
        for d, t in zip(
            *[
                docs_ds.to_pandas()[c].tolist()
                for c in ("doc_id", "text")
            ]
        )
    }

    def shingles(t):
        toks = [w for w in t.lower().split() if w]
        return {
            " ".join(toks[i : i + 3]) for i in range(len(toks) - 2)
        } if len(toks) >= 3 else set()

    want = {}
    ids = sorted(texts)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            sa, sb = shingles(texts[ids[i]]), shingles(texts[ids[j]])
            if not sa or not sb:
                continue
            inter = len(sa & sb)
            if inter:
                jac = inter / (len(sa) + len(sb) - inter)
                if jac >= 0.3:
                    want[(ids[i], ids[j])] = round(jac, 4)

    out = jaccard_pairs_exact(docs_ds, threshold=0.3).to_pandas()
    got = {
        (int(a), int(b)): float(j)
        for a, b, j in zip(out.doc_a, out.doc_b, out.jaccard)
    }
    assert got == want
    assert (0, 3) in got and got[(0, 3)] == 1.0


def test_jaccard_pairs_exact_sparse_doc_ids(docs_ds):
    """Set sizes are looked up by doc id, not position: sparse,
    non-contiguous ids in no particular order give the dense-id run's
    pairs and scores under the id map."""
    import ray.data as rd

    from raysearch.pipelines.dedup import jaccard_pairs_exact

    sparse = [9_000_000_007, 12, 5_000, 3, 1 << 40, 77]
    df = docs_ds.to_pandas()
    df["doc_id"] = [sparse[i] for i in df["doc_id"]]

    def pairs(out, id_map=lambda d: d):
        return {
            tuple(sorted((id_map(int(a)), id_map(int(b))))): float(j)
            for a, b, j in zip(out.doc_a, out.doc_b, out.jaccard)
        }

    dense = jaccard_pairs_exact(docs_ds, threshold=0.3).to_pandas()
    got = jaccard_pairs_exact(rd.from_pandas(df), threshold=0.3).to_pandas()
    assert len(dense) > 1
    assert pairs(got) == pairs(dense, lambda d: sparse[d])


def test_minhash_recall_against_exact(docs_ds):
    """LSH near-dup pairs must recover the exact pairs at the same
    threshold on this small corpus (no false positives possible —
    verification is exact)."""
    from raysearch.pipelines.dedup import jaccard_pairs_exact, minhash_lsh_pairs

    exact = jaccard_pairs_exact(docs_ds, threshold=0.5).to_pandas()
    lsh = minhash_lsh_pairs(docs_ds, threshold=0.5).to_pandas()
    e = set(zip(exact.doc_a, exact.doc_b))
    l = set(zip(lsh.doc_a, lsh.doc_b))
    assert e, "fixture must contain near-dup pairs"
    assert l <= e or (l - e) == set()  # precision 1 on full-shingle docs
    assert len(e & l) / len(e) >= 0.99


def test_hot_bucket_star_fallback(ray_session):
    """A duplicate-heavy corpus (1500 copies of one text) must emit
    O(n) star edges, not O(n^2) pairs, and still connect every copy to
    the representative with jaccard 1.0."""
    import ray.data as rd

    from raysearch.pipelines.dedup import (
        MAX_BUCKET_IDS,
        _shingle_set_task,
        minhash_candidates_from_shingles,
        minhash_lsh_pairs,
    )

    n = MAX_BUCKET_IDS + 200
    texts = ["exact duplicate text about ray data streaming engines"] * n
    texts += ["one completely unrelated document"]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    sh = ds.map_batches(
        _shingle_set_task, fn_kwargs={"shingle": 3}, batch_format="pyarrow"
    )
    cands = minhash_candidates_from_shingles(sh).to_pandas()
    # star: n-1 edges, all anchored at doc 0 (bucket min)
    assert len(cands) == n - 1
    assert (cands.doc_a == 0).all()
    out = minhash_lsh_pairs(ds, threshold=0.9).to_pandas()
    assert len(out) == n - 1 and (out.jaccard == 1.0).all()
    assert set(out.doc_b) == set(range(1, n))


def test_minhash_candidates_one_exchange(docs_ds, monkeypatch):
    """The MinHash candidate stage is one exchange over the band rows:
    the key-block sort by (band, band_hash), then the pair count.  No
    per-bucket count aggregate, no materialize and no pull to the
    driver while the plan is built."""
    from ray.data import Dataset

    from raysearch.pipelines.dedup import (
        _shingle_set_task,
        minhash_candidates_from_shingles,
    )

    sh = docs_ds.map_batches(
        _shingle_set_task, fn_kwargs={"shingle": 3}, batch_format="pyarrow"
    ).materialize()
    calls = []
    for name in ("sort", "groupby", "materialize", "iter_batches", "count",
                 "take_all", "to_pandas"):
        orig = getattr(Dataset, name)

        def recorded(self, *args, _orig=orig, _name=name, **kwargs):
            calls.append((_name, args[0] if args else None))
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(Dataset, name, recorded)
    cands = minhash_candidates_from_shingles(sh)
    monkeypatch.undo()
    assert calls == [
        ("sort", ["band", "band_hash"]),
        ("groupby", ["doc_a", "doc_b"]),
    ], calls
    got = {(int(a), int(b)) for a, b in cands.to_pandas()[["doc_a", "doc_b"]].values}
    assert {(0, 1), (0, 3)} <= got


def test_simhash_hot_bucket_bounded(ray_session):
    import ray.data as rd

    from raysearch.pipelines.dedup import MAX_BUCKET_IDS, simhash_pairs

    n = MAX_BUCKET_IDS + 100
    texts = ["identical content words for simhash"] * n
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = simhash_pairs(ds, max_hamming=3).to_pandas()
    assert len(out) == n - 1  # star edges only
    assert (out.hamming == 0).all() and (out.doc_a == 0).all()


def test_embedding_multi_table_multiprobe_recall(vec_ds):
    """Multi-table + multi-probe LSH at a low threshold must recover
    most of the exact pair set (single-table misses wide-angle pairs)."""
    from raysearch.pipelines.dedup import embedding_near_dup

    ds, vecs = vec_ds
    exact = embedding_near_dup(ds, threshold=0.4, n_planes=0).to_pandas()
    want = set(zip(exact.vec_a, exact.vec_b))
    assert want, "fixture has cos>=0.4 pairs"
    lsh = embedding_near_dup(
        ds, threshold=0.4, n_planes=4, n_tables=8, multiprobe=1
    ).to_pandas()
    got = set(zip(lsh.vec_a, lsh.vec_b))
    assert got <= want  # exact in-bucket verify → no false positives
    assert len(got & want) / len(want) >= 0.8
    # cosines of recovered pairs match the exact values
    em = {(a, b): c for a, b, c in zip(exact.vec_a, exact.vec_b, exact.cosine)}
    for a, b, c in zip(lsh.vec_a, lsh.vec_b, lsh.cosine):
        assert em[(a, b)] == c


def test_ivf_indexed_matches_inpass_and_prunes(vec_ds, tmp_path):
    """The persisted cell-partitioned IVF index must (a) return the
    same results as the in-pass ivf_topk (same centroids/probes), and
    (b) physically read only the probed cells' files."""
    import os

    from raysearch.pipelines.simsearch import (
        build_ivf_index,
        ivf_topk,
        ivf_topk_indexed,
    )

    ds, vecs = vec_ds
    out = str(tmp_path / "ivf")
    cent = build_ivf_index(ds, out, nlist=4)
    assert cent.shape[0] <= 4
    cells_on_disk = sorted(
        d for d in os.listdir(out) if d.startswith("cell=")
    )
    assert len(cells_on_disk) >= 2  # vectors actually spread over cells

    queries = vecs[:3]
    a = ivf_topk_indexed(out, queries, [0, 1, 2], k=5, nprobe=2).to_pandas()
    b = ivf_topk(ds, queries, [0, 1, 2], k=5, nlist=4, nprobe=2).to_pandas()
    pa_ = a.sort_values(["query_id", "rank"]).reset_index(drop=True)
    pb_ = b.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert pa_[["query_id", "rank", "vec_id", "score"]].equals(
        pb_[["query_id", "rank", "vec_id", "score"]]
    )


def test_sessionize_two_phase_boundary_merge(ray_session):
    """Sessions crossing the salt-bucket (day) boundary must merge in
    the summary phase; a bot user's history spread over many days is
    handled without ever grouping all its events together."""
    import pandas as pd
    import ray.data as rd

    from raysearch.pipelines.relational import sessionize

    rows = []
    eid = 0
    # bot user: every 10 minutes for 3 days straight → ONE session
    t = np.datetime64("2024-01-01T00:00:00", "us")
    while t < np.datetime64("2024-01-04T00:00:00", "us"):
        rows.append(("bot", t, eid, 1.0)); eid += 1
        t += np.timedelta64(10, "m")
    # human: one session ending 23:55, next day 00:10 → gap 15m merges
    # ACROSS midnight; then a 2h gap opens a new session
    for off in ("23:40", "23:50", "23:55"):
        rows.append(("hum", np.datetime64(f"2024-01-01T{off}:00", "us"), eid, 2.0)); eid += 1
    rows.append(("hum", np.datetime64("2024-01-02T00:10:00", "us"), eid, 2.0)); eid += 1
    rows.append(("hum", np.datetime64("2024-01-02T02:30:00", "us"), eid, 2.0)); eid += 1
    pdf = pd.DataFrame(rows, columns=["user_id", "ts", "event_id", "value"])
    ds = rd.from_pandas(pdf)
    out = sessionize(ds, gap_minutes=30).to_pandas()

    bot = out[out.user_id == "bot"]
    assert len(bot) == 1 and int(bot.n_events.iloc[0]) == (pdf.user_id == "bot").sum()
    assert bot.session_id.iloc[0] == 0
    hum = out[out.user_id == "hum"].sort_values("session_id")
    assert hum.session_id.tolist() == [0, 1]
    assert hum.n_events.tolist() == [4, 1]  # midnight-crossing merge
    assert hum.session_start.iloc[0] == np.datetime64("2024-01-01T23:40:00", "us")
    assert hum.session_end.iloc[0] == np.datetime64("2024-01-02T00:10:00", "us")
    assert float(hum.sum_value.iloc[0]) == 8.0


def test_asof_two_phase_cross_bucket_carry(ray_session):
    """An event early in a day with no in-day prior match must pick up
    the last match from an EARLIER day via the carry-in table."""
    import pandas as pd
    import ray.data as rd

    from raysearch.pipelines.relational import asof_last_event

    T = lambda s: np.datetime64(s, "us")
    rows = [
        # day 1: match at 10:00, then a non-match
        ("u1", T("2024-01-01T10:00:00"), 0, "error"),
        ("u1", T("2024-01-01T11:00:00"), 1, "click"),
        # day 3 (day 2 empty): first event must see day-1's 10:00 match
        ("u1", T("2024-01-03T09:00:00"), 2, "click"),
        ("u1", T("2024-01-03T09:30:00"), 3, "error"),
        ("u1", T("2024-01-03T10:00:00"), 4, "click"),
        # u2 never matches
        ("u2", T("2024-01-01T12:00:00"), 5, "click"),
    ]
    pdf = pd.DataFrame(rows, columns=["user_id", "ts", "event_id", "event_type"])
    out = (
        asof_last_event(rd.from_pandas(pdf), match_type="error")
        .to_pandas()
        .set_index("event_id")
    )
    assert pd.isna(out.loc[0, "prev_match_ts"])  # the match itself: none prior
    assert out.loc[1, "prev_match_ts"] == T("2024-01-01T10:00:00")
    assert out.loc[2, "prev_match_ts"] == T("2024-01-01T10:00:00")  # carry-in
    assert out.loc[3, "prev_match_ts"] == T("2024-01-01T10:00:00")
    assert out.loc[4, "prev_match_ts"] == T("2024-01-03T09:30:00")  # in-bucket
    assert pd.isna(out.loc[5, "prev_match_ts"])


def test_embedding_hot_bucket_star_fallback(ray_session):
    """A dense near-identical embedding cluster larger than
    MAX_EMB_BUCKET must emit O(n) star edges (all anchored at the
    bucket-min vec_id) instead of the O(n^2) all-pairs matmul — the
    embedding analog of the minhash/simhash hot-bucket guard."""
    import ray.data as rd

    from raysearch.pipelines.dedup import MAX_EMB_BUCKET, embedding_near_dup

    n = MAX_EMB_BUCKET + 100
    rng = np.random.Generator(np.random.PCG64(3))
    base = rng.standard_normal(8)
    base /= np.linalg.norm(base)
    vecs = base[None, :] + 1e-4 * rng.standard_normal((n, 8))
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
            }
        )
    )
    out = embedding_near_dup(ds, threshold=0.99, n_planes=8).to_pandas()
    # star: every edge anchored at the min id; exactly n-1 edges even
    # with multiple tables/probes (pair groupby collapses duplicates)
    assert len(out) == n - 1
    assert (out.vec_a == 0).all()
    assert set(out.vec_b) == set(range(1, n))
    assert (out.cosine >= 0.99).all()


def test_asof_many_users_distributed_carry(ray_session):
    """The round-3 asof carry-in is a distributed join (no driver-side
    per-user dict): a many-user fixture with cross-day carries must
    match a pandas reference exactly."""
    import pandas as pd
    import ray.data as rd

    from raysearch.pipelines.relational import asof_last_event

    rng = np.random.Generator(np.random.PCG64(7))
    rows = []
    eid = 0
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    for u in range(60):
        n_ev = int(rng.integers(1, 12))
        ts = t0 + np.sort(rng.integers(0, 5 * 86_400_000_000, n_ev)).astype(
            "timedelta64[us]"
        )
        for t in ts:
            kind = "error" if rng.random() < 0.3 else "click"
            rows.append((f"user{u:03d}", t, eid, kind))
            eid += 1
    pdf = pd.DataFrame(rows, columns=["user_id", "ts", "event_id", "event_type"])

    out = (
        asof_last_event(rd.from_pandas(pdf), match_type="error")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )

    # pandas reference: per user, last strictly-prior 'error' ts
    ref = pdf.sort_values(["user_id", "ts", "event_id"]).copy()
    m = ref["ts"].where(ref["event_type"] == "error")
    ref["prev_match_ts"] = m.groupby(ref["user_id"]).transform(
        lambda s: s.shift(1).ffill()
    )
    ref = ref.sort_values("event_id").reset_index(drop=True)
    assert len(out) == len(ref)
    a = out["prev_match_ts"].to_numpy().astype("datetime64[us]")
    b = ref["prev_match_ts"].to_numpy().astype("datetime64[us]")
    both_nat = pd.isna(a) & pd.isna(b)
    assert (both_nat | (a == b)).all()


def test_ivf_recall_floor_at_operating_point(ray_session, tmp_path):
    """The default IVF operating point (nlist=16, n_assign=2 spilled
    assignment, nprobe=6) must hold >= 0.95 mean recall@10 on a
    fixture-shaped corpus (500 x 64d, like sf0.01 embeddings)."""
    import ray.data as rd

    from raysearch.pipelines.simsearch import (
        build_ivf_index,
        cosine_topk,
        ivf_topk_indexed,
    )

    rng = np.random.Generator(np.random.PCG64(42))
    vecs = rng.standard_normal((500, 64))
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(500), pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float64())
                ),
            }
        )
    )
    out = str(tmp_path / "ivf")
    build_ivf_index(ds, out)  # defaults: nlist=16, n_assign=2
    qids = [0, 1, 2, 3, 4]
    queries = vecs[:5]
    exact = cosine_topk(ds, queries, qids, k=10).to_pandas()
    approx = ivf_topk_indexed(out, queries, qids, k=10).to_pandas()  # nprobe=6
    recalls = []
    for qid in qids:
        e = set(exact[exact.query_id == qid].vec_id)
        a = set(approx[approx.query_id == qid].vec_id)
        recalls.append(len(e & a) / max(1, len(e)))
    assert np.mean(recalls) >= 0.95, recalls
    # spilled assignment really stores ~2x rows
    import pyarrow.parquet as pq_

    import glob

    n_stored = sum(
        pq_.read_metadata(f).num_rows
        for f in glob.glob(f"{out}/cell=*/*.parquet")
    )
    assert n_stored == 2 * 500


@pytest.mark.parametrize("driver_limit", [None, 0])
def test_connected_components_chain_and_islands(ray_session, driver_limit):
    """Chain graph (needs >1 propagation round) + disjoint island, on
    BOTH paths: driver union-find fast path (default limit) and the
    distributed label-sum-fixpoint loop (driver_limit=0)."""
    import ray.data as rd

    from raysearch.pipelines.dedup import connected_components

    pairs = rd.from_arrow(
        pa.table(
            {
                # chain 10-11-12-13-14 (diameter 4) and island {7, 9}
                "doc_a": pa.array([10, 11, 12, 13, 7], pa.int64()),
                "doc_b": pa.array([11, 12, 13, 14, 9], pa.int64()),
            }
        )
    )
    lab = connected_components(pairs, driver_limit=driver_limit).to_pandas()
    got = dict(zip(lab.u, lab.label))
    assert got == {10: 10, 11: 10, 12: 10, 13: 10, 14: 10, 7: 7, 9: 7}
    # empty edge set → empty labels
    empty = rd.from_arrow(
        pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
    )
    assert connected_components(empty, driver_limit=driver_limit).count() == 0


def test_cc_numpy_random_vs_bruteforce():
    """Driver union-find kernel vs a BFS reference on a random graph."""
    from raysearch.pipelines.dedup import _cc_numpy

    rng = np.random.default_rng(3)
    n, e = 300, 220
    ua, va = rng.integers(0, n, e) * 7, rng.integers(0, n, e) * 7
    ids, lab = _cc_numpy(ua.astype(np.int64), va.astype(np.int64))
    # BFS reference
    import collections
    adj = collections.defaultdict(set)
    for a, b in zip(ua, va):
        adj[a].add(b); adj[b].add(a)
    ref = {}
    for start in sorted(adj):
        if start in ref:
            continue
        seen, q = {start}, collections.deque([start])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y); q.append(y)
        root = min(seen)
        for x in seen:
            ref.setdefault(x, root)
    assert dict(zip(ids, lab)) == ref


def test_dup_clusters_transitive_and_singletons(docs_ds):
    """dup_clusters assigns every doc; exact+near dups collapse to the
    min doc_id transitively; non-dups are their own cluster."""
    from raysearch.pipelines.dedup import dup_clusters

    out = dup_clusters(docs_ds, threshold=0.5).to_pandas()
    got = dict(zip(out.doc_id, out.cluster_id))
    # docs 0/1/3 are the fox cluster (1 may reach 0 via 3): canonical 0
    assert got == {0: 0, 1: 0, 2: 2, 3: 0, 4: 4, 5: 5}
    # keep-set = cluster_id == doc_id
    assert sorted(d for d, c in got.items() if d == c) == [0, 2, 4, 5]


def test_stratified_sample_rates_and_determinism(ray_session):
    import ray.data as rd

    from raysearch.pipelines.sampling import stratified_sample

    n = 20000
    langs = ["en", "de", "zh"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "lang": pa.array([langs[i % 3] for i in range(n)], pa.string()),
        }
    )
    ds = rd.from_arrow(tbl)
    rates = {"en": 0.5, "de": 1.0}  # zh absent -> dropped
    a = stratified_sample(ds, rates).to_pandas().sort_values("doc_id")
    b = stratified_sample(rd.from_arrow(tbl), rates).to_pandas().sort_values("doc_id")
    assert a.doc_id.tolist() == b.doc_id.tolist()  # deterministic
    by = a.groupby("lang").size()
    assert by.get("zh", 0) == 0
    assert by["de"] == n // 3 + (1 if n % 3 >= 2 else 0)  # rate 1.0 keeps all
    assert abs(by["en"] / (n / 3) - 0.5) < 0.03  # equidistributed hash
    # membership is a pure function of doc_id: subset input -> subset output
    sub = stratified_sample(
        rd.from_arrow(tbl.slice(0, 3000)), rates
    ).to_pandas()
    assert set(sub.doc_id) == set(a[a.doc_id < 3000].doc_id)


def test_group_topn_matches_pandas_window(ray_session):
    import ray.data as rd

    from raysearch.pipelines.sampling import group_topn

    rng = np.random.default_rng(11)
    n = 5000
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "lang": pa.array([f"g{i}" for i in rng.integers(0, 7, n)], pa.string()),
            "n_chars": pa.array(rng.integers(0, 50, n), pa.int64()),  # many ties
        }
    )
    out = (
        group_topn(
            rd.from_arrow(tbl).repartition(8),
            group_col="lang", order_col="n_chars", n=5,
        )
        .to_pandas()
        .sort_values(["lang", "rk"])
        .reset_index(drop=True)
    )
    df = tbl.to_pandas().sort_values(
        ["lang", "n_chars", "doc_id"], ascending=[True, False, True]
    )
    ref = df.groupby("lang").head(5).copy()
    ref["rk"] = ref.groupby("lang").cumcount() + 1
    ref = ref[["lang", "doc_id", "n_chars", "rk"]].sort_values(
        ["lang", "rk"]
    ).reset_index(drop=True)
    assert out.equals(ref)


def test_quality_filter_thresholds(docs_ds):
    from raysearch.pipelines.dedup import exact_dedup  # noqa: F401 (ray warm)
    from raysearch.pipelines.textstats import doc_metrics, quality_filter

    m = doc_metrics(docs_ds).to_pandas().set_index("doc_id")
    out = quality_filter(
        docs_ds, min_tokens=3, min_quality=0.4, max_stop_ratio=0.5
    ).to_pandas()
    kept = set(out.doc_id)
    for d, row in m.iterrows():
        expect = (
            row.n_tokens >= 3
            and round(row.quality * 10000) >= 4000
            and round(row.stop_ratio * 10000) <= 5000
        )
        assert (d in kept) == expect, (d, dict(row))
    assert list(out.columns) == ["doc_id", "n_tokens", "quality", "stop_ratio"]


def test_vec_assign_clusters_generic_ids(ray_session):
    """connected_components + assign_clusters over a non-doc id column."""
    import ray.data as rd

    from raysearch.pipelines.dedup import assign_clusters, connected_components

    pairs = rd.from_arrow(
        pa.table(
            {
                "vec_a": pa.array([100, 101], pa.int64()),
                "vec_b": pa.array([101, 102], pa.int64()),
            }
        )
    )
    vecs = rd.from_arrow(pa.table({"vec_id": pa.array([100, 101, 102, 200], pa.int64())}))
    comp = connected_components(pairs, col_a="vec_a", col_b="vec_b")
    out = assign_clusters(vecs, comp, id_col="vec_id").to_pandas()
    assert dict(zip(out.vec_id, out.cluster_id)) == {100: 100, 101: 100, 102: 100, 200: 200}


def test_redact_text_pii_and_sequential_counts(ray_session):
    import ray.data as rd

    from raysearch.pipelines.textstats import REDACT_PATTERNS, redact_text

    texts = [
        "mail me at jo.doe+x@example.co.uk or call +1 (555) 123-4567 now",
        "server at 10.0.0.255 and 192.168.1.1 responded",
        "no pii here at all",
        "a@b.io a@b.io",  # two matches of one pattern
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(4), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = (
        redact_text(ds, patterns=REDACT_PATTERNS)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.n_redactions.tolist() == [2, 2, 0, 2]
    assert "@" not in out.text[0] and "555" not in out.text[0]
    assert out.text[0].count("[REDACTED]") == 2
    assert out.text[2] == "no pii here at all"
    # sequential semantics: ipv4 runs after phone, which already ate
    # digit-dot runs it overlapped — counts must reflect stage inputs
    assert out.text[1].count("[REDACTED]") >= 1


def test_pack_offsets_exact_prefix_and_chunks(ray_session):
    import ray.data as rd

    from raysearch.pipelines.packing import pack_offsets

    texts = ["a b c", "", "d e", "f g h i", "j", "k l m"]  # 3,0,2,4,1,3 tokens
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).repartition(3)
    # bucket_size=2 forces cross-bucket carry; seq_len=4 forces straddle
    out = (
        pack_offsets(ds, seq_len=4, bucket_size=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.n_tokens.tolist() == [3, 0, 2, 4, 1, 3]
    assert out.start_off.tolist() == [0, 3, 3, 5, 9, 10]
    assert out.chunk_first.tolist() == [0, 0, 0, 1, 2, 2]
    # doc 3 spans tokens 5..8 -> chunks 1..2; doc 5 spans 10..12 -> 2..3
    assert out.chunk_last.tolist() == [0, 0, 1, 2, 2, 3]


def test_hashed_features_deterministic_and_exact(ray_session):
    import hashlib

    import ray.data as rd

    from raysearch.pipelines.features import hashed_features

    texts = ["the cat sat", "cat cat dog", ""]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = hashed_features(ds, dim=64).to_pandas()

    def h64(tok: str) -> int:
        return int.from_bytes(
            hashlib.blake2b(tok.encode(), digest_size=8).digest(), "little"
        )

    ref = {}
    for d, t in enumerate(texts):
        for tok in t.split():
            k = (d, h64(tok) % 64)
            ref[k] = ref.get(k, 0) + 1
    got = {(r.doc_id, r.feature): r.tf for r in out.itertuples()}
    assert got == ref
    assert 2 not in set(out.doc_id)  # empty doc emits no rows


def test_curation_pipeline_stage_composition(docs_ds):
    """Composed survivors = stratified(keepers(quality(docs))) — check
    the set algebra against the stages run independently."""
    import ray.data as rd

    from raysearch.pipelines.curation import curation_pipeline
    from raysearch.pipelines.dedup import dup_clusters
    from raysearch.pipelines.sampling import stratified_sample
    from raysearch.pipelines.textstats import quality_filter

    tbl = docs_ds.to_pandas()
    tbl["lang"] = ["en", "en", "de", "en", "de", "zh"]
    docs = rd.from_pandas(tbl)
    rates = {"en": 1.0, "de": 1.0}  # keep all but zh; isolate filter+dedup
    out = curation_pipeline(
        docs, rates, min_tokens=3, min_quality=0.0, max_stop_ratio=1.0,
        threshold=0.5,
    ).to_pandas()

    q = set(
        quality_filter(docs, min_tokens=3, min_quality=0.0, max_stop_ratio=1.0)
        .to_pandas().doc_id
    )
    cl = dup_clusters(
        docs.select_columns(["doc_id", "text"]), threshold=0.5
    ).to_pandas()
    # doc 5 ("short") fails min_tokens; zh excluded by rates; dup
    # cluster {0,1,3} keeps only 0 (all three survive quality)
    expect = {
        d for d, c in zip(cl.doc_id, cl.cluster_id)
        if d in q and tbl.lang[d] != "zh"
    }
    # keep-set must be recomputed over the FILTERED corpus — here the
    # quality filter drops no fox docs, so cluster minima agree
    expect = {d for d in expect if cl.set_index("doc_id").cluster_id[d] == d}
    assert set(out.doc_id) == expect
    sam = stratified_sample(
        docs.select_columns(["doc_id", "lang"]), rates
    ).to_pandas()
    assert set(out.doc_id) <= set(sam.doc_id)


def test_tfidf_features_formula(ray_session):
    import ray.data as rd

    from raysearch.pipelines.features import hashed_features, tfidf_features

    texts = ["cat dog", "cat cat", "dog bird", "fish"]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(4), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    hf = hashed_features(ds, dim=128).to_pandas()
    df = hf.groupby("feature").doc_id.nunique()
    out = tfidf_features(ds, dim=128).to_pandas()
    for r in out.itertuples():
        assert abs(r.weight - round(r.tf * np.log(4 / df[r.feature]), 4)) <= 1e-4
    # a feature present in every doc would get idf 0; here 'cat' df=2
    assert (out.weight >= 0).all()


def test_column_profile_partials_vs_pandas(ray_session):
    import ray.data as rd

    from raysearch.pipelines.profile import column_profile

    rng = np.random.default_rng(5)
    vals = rng.normal(10, 3, 5000)
    mask = rng.random(5000) < 0.1
    col = pa.array([None if m else float(v) for m, v in zip(mask, vals)], pa.float64())
    tbl = pa.table({"x": col, "y": pa.array(np.arange(5000, dtype=np.float64))})
    out = (
        column_profile(rd.from_arrow(tbl).repartition(7), ["x", "y"])
        .to_pandas()
        .set_index("col_name")
    )
    assert out.loc["x", "n_rows"] == 5000
    assert out.loc["x", "n_nulls"] == int(mask.sum())
    xs = vals[~mask]
    assert out.loc["x", "min_val"] == xs.min() and out.loc["x", "max_val"] == xs.max()
    assert abs(out.loc["x", "sum_val"] - round(xs.sum(), 2)) < 0.05
    assert out.loc["y", "n_nulls"] == 0 and out.loc["y", "max_val"] == 4999.0


def test_ngram_jaccard_pairs_brute_force(docs_ds):
    from raysearch.pipelines.dedup import char_ngram_jaccard, ngram_jaccard_pairs

    out = ngram_jaccard_pairs(docs_ds, threshold=0.5, n=5).to_pandas()
    texts = {
        r.doc_id: r.text for r in docs_ds.to_pandas().itertuples()
    }
    # brute-force reference with the scalar primitive
    expect = {}
    ids = sorted(texts)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if len(texts[a]) < 5 or len(texts[b]) < 5:
                continue
            j = char_ngram_jaccard(texts[a], texts[b], n=5)
            if j >= 0.5:
                expect[(a, b)] = round(j, 4)
    got = {(r.doc_a, r.doc_b): r.jaccard for r in out.itertuples()}
    assert got == expect
    assert (0, 3) in got and got[(0, 3)] == 1.0  # exact dup pair


def test_events_hopping_window_membership(ray_session):
    import datetime as dt

    import ray.data as rd

    from raysearch.pipelines.relational import events_hopping_window

    t0 = dt.datetime(2026, 1, 1, 10, 7)  # 10:07 → windows 09:15..10:00
    ds = rd.from_arrow(
        pa.table(
            {
                "ts": pa.array([t0], pa.timestamp("us")),
                "value": pa.array([2.5], pa.float64()),
                "event_type": pa.array(["x"], pa.string()),
            }
        )
    )
    out = events_hopping_window(ds).to_pandas().sort_values("window_start")
    us = lambda h, m: int(dt.datetime(2026, 1, 1, h, m).timestamp() * 1e6)
    # 1h window / 15min hop: starts at 09:15, 09:30, 09:45, 10:00
    assert out.window_start.tolist() == [us(9, 15), us(9, 30), us(9, 45), us(10, 0)]
    assert out.n_events.tolist() == [1, 1, 1, 1]
    assert out.sum_value.tolist() == [2.5] * 4
    import pytest as _pytest
    with _pytest.raises(ValueError):
        events_hopping_window(ds, size_us=1000, hop_us=300)


def test_split_dataset_fractions_and_stability(ray_session):
    import ray.data as rd

    from raysearch.pipelines.sampling import split_dataset

    n = 30000
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64())})
    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    out = split_dataset(rd.from_arrow(tbl), fr).to_pandas()
    share = out.split.value_counts(normalize=True)
    assert abs(share["train"] - 0.8) < 0.01
    assert abs(share["val"] - 0.1) < 0.01 and abs(share["test"] - 0.1) < 0.01
    # stability: assignment of ids 0..999 unchanged when corpus shrinks
    sub = split_dataset(rd.from_arrow(tbl.slice(0, 1000)), fr).to_pandas()
    merged = sub.merge(out[out.doc_id < 1000], on="doc_id", suffixes=("_a", "_b"))
    assert (merged.split_a == merged.split_b).all()
    import pytest as _pytest
    with _pytest.raises(ValueError):
        split_dataset(rd.from_arrow(tbl), {"a": 0.5, "b": 0.4})


def test_new_ops_edge_cases(ray_session):
    """Empty/degenerate inputs across the round-3 curation operators."""
    import ray.data as rd

    from raysearch.pipelines.curation import curation_pipeline
    from raysearch.pipelines.packing import pack_offsets
    from raysearch.pipelines.sampling import group_topn, stratified_sample
    from raysearch.pipelines.textstats import redact_text

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["alpha beta", "gamma"], pa.string()),
                "lang": pa.array(["xx", "yy"], pa.string()),
            }
        )
    )
    # rates covering no group -> empty survivor set (schema preserved)
    out = stratified_sample(
        docs.select_columns(["doc_id", "lang"]), {"zz": 1.0}
    ).to_pandas()
    assert len(out) == 0
    # curation with all-drop rates -> empty but runs end-to-end
    cur = curation_pipeline(
        docs, {"zz": 1.0}, min_tokens=1, min_quality=0.0, max_stop_ratio=1.0
    ).to_pandas()
    assert len(cur) == 0
    # group_topn with n larger than any group -> all rows ranked
    docs2 = docs.map_batches(
        lambda b: b.append_column("n_chars", pa.array([10, 5], pa.int64())),
        batch_format="pyarrow",
    )
    gt = group_topn(docs2, group_col="lang", order_col="n_chars", n=99).to_pandas()
    assert len(gt) == 2 and set(gt.rk) == {1}
    # redact with empty pattern dict -> identity
    rt = redact_text(docs, patterns={}).to_pandas().sort_values("doc_id")
    assert rt.text.tolist() == ["alpha beta", "gamma"]
    assert rt.n_redactions.tolist() == [0, 0]
    # pack_offsets on a single tiny doc set
    po = pack_offsets(docs, seq_len=2, bucket_size=1000).to_pandas()
    assert po.start_off.tolist() == [0, 2] and po.chunk_first.tolist() == [0, 1]


def test_priority_sample_bottom_k_and_invariance(ray_session):
    """Exactly-k sample == brute-force bottom-k under the id hash;
    identical rows at different partitionings; k > n returns all."""
    import ray.data as rd

    from raysearch.pipelines.sampling import HASH_ADD, HASH_MUL, priority_sample

    n, k = 5000, 17
    ids = np.arange(n, dtype=np.uint64)
    langs = np.array(["en", "fr", "de"], object)[ids.astype(np.int64) % 3]
    tbl = pa.table({"doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                    "lang": pa.array(langs, pa.string())})
    key = ids * np.uint64(HASH_MUL) + np.uint64(HASH_ADD)
    want = np.argsort(key, kind="stable")[:k]

    out = priority_sample(rd.from_arrow(tbl), k, keep_cols=["lang"]).to_pandas()
    assert out.doc_id.tolist() == ids[want].astype(np.int64).tolist()
    assert out.rk.tolist() == list(range(1, k + 1))
    assert out.lang.tolist() == list(langs[want])
    # partitioning must not change the sample (bottom-k is global)
    out2 = priority_sample(
        rd.from_arrow(tbl).repartition(13), k, keep_cols=["lang"]
    ).to_pandas()
    assert out2.equals(out)
    # k larger than the corpus -> every row, still hash-ordered
    small = rd.from_arrow(tbl.slice(0, 5))
    all_rows = priority_sample(small, 50).to_pandas()
    assert len(all_rows) == 5 and all_rows.rk.tolist() == [1, 2, 3, 4, 5]


def test_exact_quantiles_matches_duckdb(ray_session):
    """Histogram-CDF quantiles == DuckDB quantile_disc, including
    heavy duplicates and q edge values; bins cap raises."""
    import duckdb
    import ray.data as rd

    import raysearch.pipelines.profile as prof
    from raysearch.pipelines.profile import exact_quantiles

    rng = np.random.default_rng(3)
    vals = np.concatenate(
        [rng.integers(0, 40, 3000), np.full(500, 7), np.full(1, 10_000)]
    ).astype(np.int64)
    tbl = pa.table({"n_chars": pa.array(vals, pa.int64())})
    qs = [0.0, 0.05, 0.5, 0.95, 0.999, 1.0]
    got = exact_quantiles(rd.from_arrow(tbl).repartition(7), "n_chars", qs).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    sql = " UNION ALL ".join(
        f"SELECT CAST({q} AS DOUBLE) AS q, "
        f"CAST(quantile_disc(n_chars, {q}) AS BIGINT) AS value FROM t"
        for q in qs
    )
    want = con.execute(f"SELECT * FROM ({sql}) ORDER BY q").df()
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))
    # empty input -> null values, one row per q
    empty = pa.table({"n_chars": pa.array([], pa.int64())})
    e = exact_quantiles(rd.from_arrow(empty), "n_chars", [0.5]).to_pandas()
    assert len(e) == 1 and e.value.isna().all()
    # documented bins bound is enforced
    cap, prof.MAX_QUANTILE_BINS = prof.MAX_QUANTILE_BINS, 10
    try:
        with pytest.raises(ValueError, match="MAX_QUANTILE_BINS"):
            exact_quantiles(rd.from_arrow(tbl), "n_chars", [0.5])
    finally:
        prof.MAX_QUANTILE_BINS = cap


def test_exact_quantiles_by_group_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from raysearch.pipelines.profile import exact_quantiles_by

    rng = np.random.default_rng(11)
    n = 4000
    langs = np.array(["de", "en", "fr"], object)[rng.integers(0, 3, n)]
    vals = rng.integers(1, 300, n).astype(np.int64)
    tbl = pa.table({"lang": pa.array(langs, pa.string()),
                    "n_chars": pa.array(vals, pa.int64())})
    qs = [0.95, 0.05, 0.5]  # unsorted on purpose: impl sorts
    got = exact_quantiles_by(
        rd.from_arrow(tbl).repartition(9), "n_chars", qs, group_col="lang"
    ).to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    sql = " UNION ALL ".join(
        f"SELECT lang, CAST({q} AS DOUBLE) AS q, "
        f"CAST(quantile_disc(n_chars, {q}) AS BIGINT) AS value FROM t GROUP BY lang"
        for q in sorted(qs)
    )
    want = con.execute(f"SELECT * FROM ({sql}) ORDER BY lang, q").df()
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))


def test_repetition_stats_brute_force(ray_session):
    """Vectorized bigram repetition metrics == per-doc Python counter;
    covers empty docs, all-same-token docs, and batch invariance."""
    from collections import Counter

    import ray.data as rd

    from raysearch.pipelines.textstats import repetition_stats

    texts = [
        "a b a b a b",             # top bigram 'a b' dominates
        "x y z w",                 # all distinct bigrams
        "",                        # empty -> zeros
        "solo",                    # one token -> no bigrams
        "r r r r r r r r",         # single repeated bigram
        "the quick the quick brown the quick",
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    got = repetition_stats(rd.from_arrow(tbl).repartition(3)).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    for i, t in enumerate(texts):
        toks = [w for w in t.split() if w]
        bgs = Counter(zip(toks, toks[1:]))
        nb = sum(bgs.values())
        assert got.n_bigrams[i] == nb
        if nb:
            assert abs(got.top_bigram_frac[i] - max(bgs.values()) / nb) < 5e-5
            assert abs(got.dup_bigram_frac[i] - (nb - len(bgs)) / nb) < 5e-5
        else:
            assert got.top_bigram_frac[i] == 0.0 == got.dup_bigram_frac[i]


def test_bigram_topk_brute_force(ray_session):
    """Distributed top-k bigrams == Counter brute force, ties pinned on
    (w1, w2); invariant under repartitioning."""
    from collections import Counter

    import ray.data as rd

    from raysearch.pipelines.textstats import bigram_topk

    texts = [
        "a b c a b", "b c a b", "z z z z", "", "q",
        "a b", "c a c a",
    ]
    tbl = pa.table({"text": pa.array(texts, pa.string())})
    cnt = Counter()
    for t in texts:
        toks = t.split()
        cnt.update(zip(toks, toks[1:]))
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    for parts in (1, 4):
        got = bigram_topk(rd.from_arrow(tbl).repartition(parts), k=5).to_pandas()
        assert got.rk.tolist() == [1, 2, 3, 4, 5]
        assert list(zip(got.w1, got.w2, got.n)) == [
            (w1, w2, n) for (w1, w2), n in want
        ]


def test_quality_topfrac_threshold_semantics(ray_session):
    """Adaptive filter keeps exactly the docs with qi >= the
    quantile_disc(1-frac) threshold, ties included."""
    import ray.data as rd

    from raysearch.pipelines.textstats import doc_metrics, quality_topfrac

    texts = [
        " ".join(f"w{j}" for j in range(5 + 13 * i)) for i in range(20)
    ] + ["the the the the"] * 3
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    ds = rd.from_arrow(tbl).repartition(4)
    got = quality_topfrac(ds, 0.5).to_pandas()
    m = doc_metrics(rd.from_arrow(tbl)).to_pandas()
    qi = np.rint(m.quality.to_numpy() * 10000).astype(np.int64)
    n = len(qi)
    thr = np.sort(qi)[max(1, int(np.ceil(0.5 * n))) - 1]
    want = m.doc_id.to_numpy()[qi >= thr]
    assert got.doc_id.tolist() == sorted(want.tolist())
    assert (got.qi.to_numpy() >= thr).all()


def _lm_brute(texts, top_uni, top_big):
    """Reference add-one bigram LM scorer (same truncation rule)."""
    import collections
    import re

    toks = [
        [t for t in re.split(r"[^a-z0-9]+", s.lower()) if t] for s in texts
    ]
    c1 = collections.Counter(t for ts in toks for t in ts)
    c2 = collections.Counter(
        (ts[i], ts[i + 1]) for ts in toks for i in range(len(ts) - 1)
    )
    vu = len(c1)
    keep1 = dict(sorted(c1.items(), key=lambda kv: (-kv[1], kv[0]))[:top_uni])
    keep2 = dict(sorted(c2.items(), key=lambda kv: (-kv[1], kv[0]))[:top_big])
    out = []
    for ts in toks:
        pairs = list(zip(ts, ts[1:]))
        if not pairs:
            out.append(0)
            continue
        sc = np.mean(
            [
                np.log((keep2.get(p, 0) + 1) / (keep1.get(p[0], 0) + vu))
                for p in pairs
            ]
        )
        from raysearch.util import round_half_away

        out.append(int(np.rint(round_half_away(sc, 4) * 10000)))
    return out


def test_lm_score_truncated_vs_brute_force(ray_session):
    """Small-V truncated LM: engine matches the brute-force definition
    (ties pinned on (n DESC, token asc)), at two partitionings."""
    import ray.data as rd

    from raysearch.pipelines.textstats import lm_score

    texts = [
        "the cat sat on the mat",
        "the dog sat on the log",
        "a cat and a dog",
        "",
        "solo",
        "the the the cat cat",
        "zebra yak xylophone walrus",
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    want = _lm_brute(texts, top_uni=5, top_big=4)
    for nparts in (1, 3):
        got = lm_score(
            rd.from_arrow(tbl).repartition(nparts),
            top_bigrams=4,
            top_unigrams=5,
        ).to_pandas()
        assert got.doc_id.tolist() == list(range(len(texts)))
        assert got.lm_qi.tolist() == want


def test_dup_ngram_stats_brute_force(ray_session):
    """dup_ngram_stats matches a row-by-row brute force: per doc, the
    count of 5-gram positions whose 5-gram occurs in >= 2 docs."""
    import re
    from collections import Counter

    import ray.data as rd

    from raysearch.pipelines.textstats import dup_ngram_stats

    shared = "alpha beta gamma delta epsilon"          # one shared 5-gram
    texts = [
        shared + " zeta one",                          # shares with doc 1
        "prefix " + shared,                            # shares with doc 0
        "unique tokens only here for doc two ok",      # no shared 5-gram
        shared + " " + shared,                         # internal repeat too
        "tiny doc",                                    # < 5 tokens: zeros
        "",                                            # empty: zeros
    ]
    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    got = dup_ngram_stats(rd.from_arrow(tbl).repartition(3)).to_pandas()

    def toks(s):
        return [t for t in re.split(r"[^a-z0-9]+", s.lower()) if t]

    grams = {
        i: [" ".join(ts[j : j + 5]) for ts in [toks(t)]
            for j in range(max(0, len(ts) - 4))]
        for i, t in enumerate(texts)
    }
    df_count = Counter()
    for i, gs in grams.items():
        for g in set(gs):
            df_count[g] += 1
    for i, t in enumerate(texts):
        gs = grams[i]
        nn = len(gs)
        nd = sum(1 for g in gs if df_count[g] >= 2)
        row = got[got.doc_id == i].iloc[0]
        assert row.n_ngrams == nn, (i, row.n_ngrams, nn)
        assert row.n_dup == nd, (i, row.n_dup, nd)
        exp = round(nd / nn, 4) if nn else 0.0
        assert abs(row.dup_frac - exp) < 1e-9
    assert got.doc_id.tolist() == sorted(got.doc_id.tolist())


def test_kmeans_clusters_brute_force(ray_session):
    """Distributed Lloyd's matches a single-process reference with the
    same deterministic contract (rounded centroids/distances, smallest-j
    ties, empty-cluster carry), across a multi-block partitioning."""
    import ray.data as rd

    from raysearch.pipelines.simsearch import (
        KMEANS_ROUND,
        kmeans_clusters,
    )
    from raysearch.util import round_half_away

    rng = np.random.Generator(np.random.PCG64(11))
    n, d, k, iters = 60, 6, 4, 3
    mat = rng.normal(size=(n, d)).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(
                [row.tolist() for row in mat], pa.list_(pa.float32())
            ),
        }
    )
    got = (
        kmeans_clusters(rd.from_arrow(tbl).repartition(5), k=k, iters=iters)
        .to_pandas()
    )

    x = mat.astype(np.float64)
    cent = round_half_away(x[:k], KMEANS_ROUND)

    def assign(c):
        d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(round_half_away(d2, KMEANS_ROUND), axis=1)

    for _ in range(iters):
        a = assign(cent)
        for j in range(k):
            m = x[a == j]
            if len(m):
                cent[j] = round_half_away(m.mean(axis=0), KMEANS_ROUND)
    want = assign(cent)
    assert got.vec_id.tolist() == list(range(n))
    assert got.cluster.tolist() == want.tolist()
    assert got.cluster.dtype == np.int64
