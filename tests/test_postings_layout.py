"""Posting layout: per-row ``doc_ids``/``tfs`` Parquet list columns,
written delta-packed by ``build._write_postings``; merged posting files
hold the wave segments' rows without the segments' ``bucket`` column,
and the merge writes each segment row as it is (term-sorted, no
decode/re-encode, no re-chunk)."""

import glob
import json
import os
import shutil
import tempfile
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import raysearch.build
from raysearch.build import (
    MERGED_POSTINGS_SCHEMA,
    POSTING_RG_VALUES,
    POSTINGS_SCHEMA,
    _encode_partition_segment,
    _wave_stats,
    _write_postings,
    conv_lemma_counts,
    decode_postings,
    merge_bucket,
)

#: a mix of ASCII and non-ASCII terms: the merge orders terms with
#: Arrow, the ground truth with Python (both by code point)
TERMS = ["a", "ab", "b", "z", "é", "жук", "ß"]


def _encode(postings, conv_of=None, vocab=TERMS):
    """(segment, the flush's (df, cf, pair codes, pair conversations)
    as ``_wave_stats`` takes them) of (term, doc, tf) triples, terms
    coded by their index in ``vocab``; ``conv_of`` maps a doc to its
    conversation (all in conversation 0 without it)."""
    terms = np.array(vocab, dtype=object)
    codes = np.array([vocab.index(t) for t, _, _ in postings], dtype=np.int64)
    docs = np.array([d for _, d, _ in postings], dtype=np.int64)
    tfs = np.array([tf for _, _, tf in postings], dtype=np.int64)
    seg, pair_codes, pair_convs = _encode_partition_segment(
        codes,
        terms,
        docs,
        tfs,
        np.zeros(len(docs), np.int64) if conv_of is None else conv_of[docs],
        1,
        {},
    )
    df, cf = np.bincount(codes), np.bincount(codes, weights=tfs).astype(np.int64)
    return seg, (df, cf, pair_codes, pair_convs)


def _segment(postings):
    """One segment table out of (term, doc, tf) triples."""
    return _encode(postings, vocab=sorted({t for t, _, _ in postings}))[0]


@st.composite
def partitioned_postings(draw):
    """Segments of random partitions: every doc lives in one partition
    (drawn per doc, so partition doc ranges interleave, and a
    conversation may straddle partitions), and each partition's docs
    are cut into 1-3 ascending spill flushes.  Also each partition's
    wave statistics (:func:`_wave_stats`)."""
    n_docs = draw(st.integers(1, 40))
    n_parts = draw(st.integers(1, 4))
    part_of = draw(st.lists(st.integers(0, n_parts - 1), min_size=n_docs, max_size=n_docs))
    pairs = sorted(
        draw(
            st.sets(
                st.tuples(st.sampled_from(TERMS), st.integers(0, n_docs - 1)),
                min_size=1,
                max_size=120,
            )
        )
    )
    tfs = draw(st.lists(st.integers(1, 60), min_size=len(pairs), max_size=len(pairs)))
    truth = [(t, d, tf) for (t, d), tf in zip(pairs, tfs)]
    conv_starts = np.array(
        sorted({0} | draw(st.sets(st.integers(1, max(1, n_docs - 1)), max_size=6))),
        dtype=np.int64,
    )
    conv_of = np.searchsorted(conv_starts, np.arange(n_docs), "right") - 1
    segments, stats = [], []
    for pid in range(n_parts):
        docs = sorted({d for _, d, _ in truth if part_of[d] == pid})
        if not docs:
            continue
        cuts = sorted(draw(st.sets(st.sampled_from(docs), max_size=2)))
        bounds = [docs[0]] + [c for c in cuts if c != docs[0]] + [n_docs]
        flushes = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            flush = [p for p in truth if part_of[p[1]] == pid and lo <= p[1] < hi]
            if flush:
                seg, flush_stats = _encode(flush, conv_of)
                segments.append(seg)
                flushes.append(flush_stats)
        all_docs = [d for d in range(n_docs) if part_of[d] == pid]
        stats.append(
            _wave_stats(
                np.array(TERMS, dtype=object),
                flushes,
                conv_of[all_docs],
                np.diff(np.append(conv_starts, n_docs)),
            )
        )
    draw(st.randoms()).shuffle(segments)
    return truth, segments, conv_starts, stats


def _row_group_locators(rows: list[dict], budget: int) -> dict[str, tuple]:
    """term → (rg, row_lo, row_hi) by the term-aligned row-group rule,
    one term at a time: a row group starts at the first term, at each
    term whose first value is in a later ``budget`` block than the
    previous term's, and at each term of more than ``budget`` values."""
    out, rg, rg_row, prev_blk, val = {}, -1, 0, None, 0
    for term in dict.fromkeys(r["term"] for r in rows):
        at = [i for i, r in enumerate(rows) if r["term"] == term]
        n = sum(len(rows[i]["doc_ids"]) for i in at)
        if rg < 0 or val // budget != prev_blk or n > budget:
            rg, rg_row = rg + 1, at[0]
        out[term] = (rg, at[0] - rg_row, at[-1] + 1 - rg_row)
        prev_blk, val = val // budget, val + n
    return out


def _one_segment_case(postings):
    """One partition, one flush, one conversation."""
    n_docs = max(d for _, d, _ in postings) + 1
    seg, flush_stats = _encode(postings)
    stats = _wave_stats(
        np.array(TERMS, dtype=object),
        [flush_stats],
        np.zeros(n_docs, np.int64),
        np.array([n_docs]),
    )
    return sorted(postings), [seg], np.array([0], np.int64), [stats]


@settings(max_examples=150, deadline=None)
@given(partitioned_postings(), st.sampled_from([POSTING_RG_VALUES, 1, 2, 4, 9]))
# a 6-value term after a 2-value one in the same 4-value block: alone
@example(_one_segment_case([("a", d, 1) for d in range(2)] + [("b", d, 1) for d in range(6)]), 4)
# terms at values 0, 3 and 5: the third starts a new 4-value block
@example(
    _one_segment_case([("a", d, 1) for d in range(3)] + [("b", 0, 1), ("b", 1, 1), ("z", 0, 1)]),
    4,
)
def test_merge_matches_exploded_postings(case, budget):
    """The merged rows flatten to exactly the exploded (term, doc_id,
    tf) postings; per term, the rows keep the segment rows' lengths
    (in first-doc order) and their doc ids ascend; the locators' df/cf
    and (rg, row_lo, row_hi) describe the rows — at the real row-group
    value budget and at small ones that cut these small buckets.  The
    partitions' wave statistics sum to the exact df/cf, and combine to
    the exact per-conversation lemma counts, also for a conversation
    whose docs lie in several partitions."""
    truth, segments, conv_starts, stats = case
    with mock.patch.object(raysearch.build, "POSTING_RG_VALUES", budget):
        merged, lexicon = merge_bucket(pa.concat_tables(segments))
    assert merged.schema == MERGED_POSTINGS_SCHEMA
    doc_ids, tfs = decode_postings(merged)
    terms = merged["term"].take(pc.list_parent_indices(merged["doc_ids"]))
    assert list(zip(terms.to_pylist(), doc_ids.tolist(), tfs.tolist())) == sorted(truth)

    seg_rows = sorted(
        (r["term"], r["doc_ids"][0], len(r["doc_ids"]))
        for seg in segments
        for r in seg.to_pylist()
    )
    rows = merged.to_pylist()
    assert [(r["term"], len(r["doc_ids"])) for r in rows] == [
        (t, n) for t, _, n in seg_rows
    ]
    assert all(len(r["doc_ids"]) == len(r["tfs"]) for r in rows)

    locators = _row_group_locators(rows, budget)
    want_lex = []
    for term in sorted({t for t, _, _ in truth}):
        tfs_of = [tf for t, _, tf in truth if t == term]
        want_lex.append((term, len(tfs_of), sum(tfs_of)) + locators[term])
    got_lex = lexicon.select(
        ["term", "df", "cf", "rg", "row_lo", "row_hi"]
    ).to_pylist()
    assert [tuple(r.values()) for r in got_lex] == want_lex

    summed = (
        pa.concat_tables([s[0] for s in stats])
        .group_by("term")
        .aggregate([("df", "sum"), ("cf", "sum")])
        .sort_by("term")
    )
    assert [tuple(r.values()) for r in summed.to_pylist()] == [r[:3] for r in want_lex]
    conv_of = np.searchsorted(conv_starts, np.arange(max(d for _, d, _ in truth) + 1), "right") - 1
    pairs = {(t, int(conv_of[d])) for t, d, _ in truth}
    want = np.bincount([c for _, c in pairs], minlength=len(conv_starts))
    got = conv_lemma_counts(
        pa.concat_tables([s[1] for s in stats]),
        pa.concat_tables([s[2] for s in stats]),
        len(conv_starts),
    )
    nz = np.flatnonzero(want)
    assert got["conv_idx"].to_pylist() == nz.tolist()
    assert got["lemmas"].to_pylist() == want[nz].tolist()


def test_merge_rejects_duplicate_doc_id():
    """A doc id in two partitions' rows of one term is a broken
    partitioning, not a posting to keep twice."""
    a = _segment([("x", 1, 1), ("x", 4, 2), ("y", 2, 1)])
    b = _segment([("x", 3, 1), ("x", 4, 5)])
    with pytest.raises(ValueError, match="duplicate doc_id in postings of 'x'"):
        merge_bucket(pa.concat_tables([a, b]))
    # the same rows without the repeat merge (interleaved ranges sort;
    # the values move between x's rows, the row lengths stay)
    c = _segment([("x", 3, 1)])
    merged, _ = merge_bucket(pa.concat_tables([a, c]))
    assert merged["doc_ids"].to_pylist() == [[1, 3], [4], [2]]
    assert merged["tfs"].to_pylist() == [[1, 1], [2], [1]]


def test_merge_sorts_row_and_rejects_repeated_doc_id():
    """Doc ids out of order inside one row are sorted (their tfs move
    with them); a doc twice inside one row — an input turn that appears
    twice — is rejected."""
    with pytest.raises(ValueError, match="duplicate doc_id in postings of 'x'"):
        merge_bucket(_segment([("x", 1, 1), ("x", 4, 2), ("x", 4, 1)]))
    seg = _segment([("x", 2, 5), ("x", 3, 7)])
    i = seg.schema.get_field_index("doc_ids")
    seg = seg.set_column(i, "doc_ids", pa.array([[3, 2]], seg.schema.field(i).type))
    i = seg.schema.get_field_index("tfs")
    seg = seg.set_column(i, "tfs", pa.array([[7, 5]], seg.schema.field(i).type))
    merged, _ = merge_bucket(seg)
    doc_ids, tfs = decode_postings(merged)
    assert (doc_ids.tolist(), tfs.tolist()) == ([2, 3], [5, 7])

def test_merge_reads_buckets_by_row_group(tmp_path):
    """A segment holds one row group per bucket and the merge task finds
    each bucket's by its statistics; a row group spanning buckets (not
    written by ``_write_postings``) is refused rather than half-read."""
    from raysearch.build import _merge_bucket_task

    terms = np.array(TERMS, dtype=object)
    seg, _, _ = _encode_partition_segment(
        np.arange(len(terms)), terms, np.arange(len(terms)), np.ones(len(terms), np.int64),
        np.zeros(len(terms), np.int64), 3, {},
    )
    buckets = sorted(set(seg["bucket"].to_pylist()))
    path = str(tmp_path / "seg.parquet")
    _write_postings(seg, path)
    assert pq.ParquetFile(path).num_row_groups == len(buckets) > 1
    out = str(tmp_path / "out")
    os.makedirs(out)
    assert _merge_bucket_task(buckets, [path], out, out) == len(terms)
    pq.write_table(seg, path)
    with pytest.raises(ValueError, match="spans several buckets"):
        _merge_bucket_task(buckets, [path], out, out)


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=500),
    st.integers(min_value=1, max_value=1000),
)
def test_postings_roundtrip(doc_set, tf_seed):
    """Posting rows survive a write through ``_write_postings`` and a
    read, doc ids up to 10^12 included."""
    doc_ids = np.array(sorted(doc_set), dtype=np.int64)
    tfs = np.random.default_rng(tf_seed).integers(1, 1000, size=doc_ids.size)
    seg = _segment([("t", int(d), int(tf)) for d, tf in zip(doc_ids, tfs)])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "seg.parquet")
        _write_postings(seg, path)
        got_ids, got_tfs = decode_postings(pq.read_table(path))
    assert got_ids.tolist() == doc_ids.tolist()
    assert got_tfs.tolist() == tfs.tolist()


def _encodings(path: str, column: str) -> list[set[str]]:
    """Encodings of ``column``'s chunk in each row group of a file."""
    md = pq.ParquetFile(path).metadata
    out = []
    for rg in range(md.num_row_groups):
        cols = [md.row_group(rg).column(i) for i in range(md.num_columns)]
        out.extend(set(c.encodings) for c in cols if c.path_in_schema == column)
    return out


def _assert_posting_encodings(files: list[str], segments: bool) -> None:
    """Delta-packed doc ids and dictionary-encoded terms and tfs.
    Segments have the segment schema, dictionary-encoded buckets and
    row groups that each hold one bucket (the merge reads a bucket by
    row-group statistics); merged posting files have no ``bucket``
    column."""
    assert files
    for f in files:
        schema = POSTINGS_SCHEMA if segments else MERGED_POSTINGS_SCHEMA
        assert pq.read_schema(f).remove_metadata() == schema, f
        for col in ("term", "bucket") if segments else ("term",):
            enc = _encodings(f, col)
            assert enc and all("RLE_DICTIONARY" in e for e in enc), (f, col, enc)
        doc_enc = _encodings(f, "doc_ids.list.element")
        assert doc_enc and all("DELTA_BINARY_PACKED" in e for e in doc_enc), (f, doc_enc)
        tf_enc = _encodings(f, "tfs.list.element")
        assert tf_enc and all("RLE_DICTIONARY" in e for e in tf_enc), (f, tf_enc)
        if not segments:
            continue
        pf = pq.ParquetFile(f)
        for rg in range(pf.num_row_groups):
            buckets = set(pf.read_row_group(rg, columns=["bucket"])["bucket"].to_pylist())
            assert len(buckets) == 1, (f, rg, buckets)


@pytest.fixture(scope="module")
def wave_index(ray_session, tiny_corpus, tmp_path_factory):
    """A tiny index: four partitions, one wave each."""
    from raysearch.build import build_index

    out = str(tmp_path_factory.mktemp("layout") / "idx")
    build_index(tiny_corpus, out, mode="latin", n_partitions=4)
    return tiny_corpus, out


def test_posting_files_are_delta_packed(wave_index, tmp_path):
    """Every segment has the segment schema, every merged bucket file
    and the delta file of a refreshed copy the merged schema, and all
    delta-pack their doc ids."""
    from raysearch.build import rebuild_partition

    corpus, index = wave_index
    _assert_posting_encodings(
        glob.glob(os.path.join(index, "waves", "*", "segments", "*.parquet")), True
    )
    _assert_posting_encodings(
        glob.glob(os.path.join(index, "merged", "postings", "*.parquet")), False
    )
    refreshed = str(tmp_path / "refreshed")
    shutil.copytree(index, refreshed)
    assert rebuild_partition(corpus, refreshed, partition_id=1)["delta_values"] > 0
    _assert_posting_encodings(
        [os.path.join(refreshed, "merged", "delta", "postings.parquet")], False
    )


def _merged_tables(index: str) -> dict[str, pa.Table]:
    """Every parquet file and doc store under ``merged/``, by path."""
    merged = os.path.join(index, "merged")
    out = {
        os.path.relpath(p, merged): pq.read_table(p)
        for p in glob.glob(os.path.join(merged, "**", "*.parquet"), recursive=True)
    }
    for p in glob.glob(os.path.join(merged, "docs", "*.arrow")):
        out[os.path.relpath(p, merged)] = pa.ipc.open_file(p).read_all()
    return out


def test_resume_recomputes_wave_of_old_format(wave_index, tmp_path, monkeypatch):
    """A wave whose manifest names an older format is rebuilt on
    resume, and only that wave; the merged index then equals a fresh
    build's.  Format 2 held byte-string segments; format 3 had no doc
    store (``docs.arrow``); format 4 segments carried per-row
    ``partition_id``/``first_doc``/``last_doc`` columns; format 5
    segments are format 6's (only the merged row groups changed), so
    the manifest alone marks the wave stale; format 6 waves have no
    statistics files (``WAVE_STATS``).  The resume compacts (the
    fraction is patched to 0), so every merged file equals the fresh
    build's; a refresh through the delta tier is checked logically in
    ``test_resume.py``."""
    from raysearch.build import INDEX_FORMAT, WAVE_STATS, build_index

    monkeypatch.setattr(raysearch.build, "DELTA_COMPACT_FRACTION", 0.0)
    corpus, index = wave_index
    want = _merged_tables(index)
    assert sum(name.startswith("docs" + os.sep) for name in want) == 4
    for stale_format in (2, 3, 4, 5, 6):
        old = str(tmp_path / f"old{stale_format}")
        shutil.copytree(index, old)
        waves = sorted(glob.glob(os.path.join(old, "waves", "*")))
        assert len(waves) == 4
        stale = waves[1]
        with open(os.path.join(stale, "manifest.json")) as f:
            manifest = json.load(f)
        manifest["format"] = stale_format
        with open(os.path.join(stale, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        if stale_format == 3:
            os.remove(os.path.join(stale, "docs.arrow"))
        if stale_format < INDEX_FORMAT:
            for name in WAVE_STATS:
                os.remove(os.path.join(stale, name))
        for seg in glob.glob(os.path.join(stale, "segments", "*.parquet")):
            t = pq.read_table(seg)
            if stale_format == 2:
                blobs = pa.array([b"\x01"] * t.num_rows, pa.binary())
                t = t.select(["term", "bucket"])
                t = t.append_column("docs", blobs).append_column("tfs", blobs)
            elif stale_format == 4:
                first = pc.list_element(t["doc_ids"], 0)
                t = t.add_column(1, "partition_id", pa.array([1] * t.num_rows, pa.int32()))
                t = t.add_column(3, "first_doc", first).add_column(4, "last_doc", first)
            else:
                continue
            pq.write_table(t, seg)
        kept = {w: os.path.getmtime(w) for w in waves if w != stale}

        build_index(corpus, old, mode="latin", n_partitions=4)

        for w, m in kept.items():
            assert os.path.getmtime(w) == m, f"wave {w} was recomputed"
        with open(os.path.join(stale, "manifest.json")) as f:
            assert json.load(f)["format"] == INDEX_FORMAT
        assert os.path.isfile(os.path.join(stale, "docs.arrow"))
        got = _merged_tables(old)
        assert sorted(got) == sorted(want)
        for name, table in want.items():
            assert got[name].equals(table), (stale_format, name)
