"""Regression tests for the round-3 VERDICT/ADVICE items:

* transcripts_snippets golden hash (the one fixture search row without
  a SQL twin — VERDICT r2 next-round #5);
* an index whose meta.json lacks the current "format" is refused;
* minhash LSH verification domain == jaccard_pairs_exact domain
  (short <k-token docs excluded on BOTH sides — ADVICE);
* HTTP handlers return structured JSON on malformed params (ADVICE)
  — in test_serve.py, which owns the server fixture.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest


def test_transcripts_snippets_golden_hash(ray_session):
    """Pinned canonical hash of the full snippet row output (sf0.001
    fixture corpus).  Regenerate after a DELIBERATE fixture/snippet
    change with:

        python3 -c "import sys; sys.path.insert(0, '.'); \
import importlib.util, hashlib; \
spec = importlib.util.spec_from_file_location('e', '__ray_entry__.py'); \
e = importlib.util.module_from_spec(spec); spec.loader.exec_module(e); \
df = e._q_transcripts_snippets('/root/testdata/sf0.001'); \
rows = sorted(tuple(str(v) for v in r) for r in df.itertuples(index=False, name=None)); \
h = hashlib.sha256(); \
[ (h.update(chr(31).join(r).encode()), h.update(b'\\x1e')) for r in rows ]; \
print(h.hexdigest()[:16])"
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "entry_for_snippet_golden",
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "__ray_entry__.py"),
    )
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    df = entry._q_transcripts_snippets("/root/testdata/sf0.001")
    assert len(df) == 12
    rows = sorted(
        tuple(str(v) for v in r) for r in df.itertuples(index=False, name=None)
    )
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    assert h.hexdigest()[:16] == "ef9ed7002720c540"


def test_lazy_lexicon_requires_buckets_meta(ray_session, tiny_corpus, tmp_path):
    """An index whose meta.json has no "format" field, or an older one
    (1: a separate term-locator sidecar and per-wave doc lengths; 2:
    byte-string posting rows; 4: re-chunked merged rows with per-row
    chunk columns; 5: lexicon row-group ranges over bucket-sized row
    groups), is refused with an error that says to
    rebuild — eager and lazy alike: neither can locate or read posting
    rows in it."""
    from raysearch.build import build_index
    from raysearch.search import IndexSearcher

    index = str(tmp_path / "idx")
    build_index(tiny_corpus, index, mode="latin", n_partitions=2)

    lazy = IndexSearcher(index, lazy_lexicon=True)
    assert lazy._lazy  # normal layout: lazy engages

    bad_indexes = []
    for name, fmt in (
        ("idx_noformat", None), ("idx_format1", 1), ("idx_format2", 2),
        ("idx_format4", 4), ("idx_format5", 5),
    ):
        bad = str(tmp_path / name)
        shutil.copytree(index, bad)
        meta_path = os.path.join(bad, "merged", "meta.json")
        with open(meta_path) as f:
            meta = json.load(f)
        meta.pop("format")
        if fmt is not None:
            meta["format"] = fmt
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        bad_indexes.append(bad)

    for bad in bad_indexes:
        for lazy_lexicon in (False, True):
            with pytest.raises(ValueError, match="rebuild the index"):
                IndexSearcher(bad, lazy_lexicon=lazy_lexicon)


def test_minhash_short_doc_domain_matches_exact(ray_session):
    """Two identical 2-token docs (< shingle k=3) must NOT be emitted
    by minhash_lsh_pairs — jaccard_pairs_exact excludes <k-token docs,
    and since round 3 the LSH verification shares that domain (so the
    recall row's 'precision 1.0 by construction' is literally true)."""
    import ray.data as rd

    from raysearch.pipelines.dedup import jaccard_pairs_exact, minhash_lsh_pairs

    texts = [
        "tiny doc",          # 2 tokens: outside the shingle domain
        "tiny doc",          # identical twin
        "a full length document about streaming data engines",
        "a full length document about streaming data planes",  # near-dup
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    lsh = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    exact = jaccard_pairs_exact(ds, threshold=0.5).to_pandas()
    l = set(zip(lsh.doc_a, lsh.doc_b))
    e = set(zip(exact.doc_a, exact.doc_b))
    assert (0, 1) not in l  # short twins excluded, like the exact twin
    assert l == e  # identical domain + exact verification
