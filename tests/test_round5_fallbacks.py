"""At-scale fallback-path equivalence of the MinHash verify stage.

The broadcast-verify plan (dedup.py) has two bounded fast paths, each
with a documented fallback that is the REAL path at 100 TB:

* ``VERIFY_BROADCAST_BYTES`` — candidate shingle sets too big for one
  ``ray.put`` CSR → fall back to two ``copartition_attach`` exchanges;
* ``BROADCAST_ID_LIMIT`` — candidate id set too big to broadcast →
  fall back to a distributed semi-join.

These tests pin that every fallback produces BYTE-IDENTICAL output to
the fast path it replaces (same rows, same pinned order, same dtypes),
by shrinking each cap to 0 via monkeypatch — both caps are read
driver-side, so a module-attribute patch is honored.
"""

from __future__ import annotations

import pandas as pd
import pytest


def _near_dup_docs():
    """Deterministic corpus with exact dups, near-dups and a <k-token
    doc (the domain edge case) — enough LSH collisions that every code
    path sees real candidates."""
    import ray.data as rd

    base = (
        "the quick brown fox jumps over the lazy dog while the cat "
        "sleeps on the warm mat near the open door of the old house"
    )
    rows = []
    for i in range(40):
        words = base.split()
        words[i % len(words)] = f"w{i}"  # one-word perturbation
        rows.append({"doc_id": i, "text": " ".join(words)})
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base})
    rows.append({"doc_id": 102, "text": base + " with one extra tail"})
    rows.append({"doc_id": 103, "text": "too short"})  # <k tokens
    return rd.from_pandas(pd.DataFrame(rows)).repartition(5)


def _pairs(ds):
    from raysearch.pipelines.dedup import minhash_lsh_pairs

    return (
        minhash_lsh_pairs(ds, threshold=0.5)
        .to_pandas()
        .reset_index(drop=True)
    )


@pytest.fixture()
def fast_pairs(ray_session):
    """Fast-path (all caps at defaults) reference output."""
    return _pairs(_near_dup_docs())


def test_fast_path_finds_the_planted_dups(fast_pairs):
    got = {
        (int(a), int(b))
        for a, b in zip(fast_pairs["doc_a"], fast_pairs["doc_b"])
    }
    assert (100, 101) in got  # exact dup pair must survive
    assert len(fast_pairs) >= 3


def test_verify_broadcast_fallback_equivalence(
    ray_session, monkeypatch, fast_pairs
):
    import raysearch.pipelines.dedup as dd

    monkeypatch.setattr(dd, "VERIFY_BROADCAST_BYTES", 0)
    slow = _pairs(_near_dup_docs())
    pd.testing.assert_frame_equal(fast_pairs, slow)


def test_broadcast_id_limit_fallback_equivalence(
    ray_session, monkeypatch, fast_pairs
):
    import raysearch.pipelines.dedup as dd

    monkeypatch.setattr(dd, "BROADCAST_ID_LIMIT", 0)
    slow = _pairs(_near_dup_docs())
    pd.testing.assert_frame_equal(fast_pairs, slow)


def test_all_fallbacks_stacked_equivalence(
    ray_session, monkeypatch, fast_pairs
):
    """The fully-distributed plan (every cap exceeded at once) — the
    configuration a 100 TB corpus would actually run — still matches."""
    import raysearch.pipelines.dedup as dd

    monkeypatch.setattr(dd, "VERIFY_BROADCAST_BYTES", 0)
    monkeypatch.setattr(dd, "BROADCAST_ID_LIMIT", 0)
    slow = _pairs(_near_dup_docs())
    pd.testing.assert_frame_equal(fast_pairs, slow)


def test_dup_clusters_prefilter_fallback_equivalence(
    ray_session, monkeypatch
):
    """dup_clusters consumes the same candidate and verify stages —
    cluster assignments must not depend on which verify plan ran."""
    from raysearch.pipelines.dedup import dup_clusters
    import raysearch.pipelines.dedup as dd

    fast = (
        dup_clusters(_near_dup_docs(), threshold=0.5)
        .to_pandas()
        .reset_index(drop=True)
    )
    monkeypatch.setattr(dd, "VERIFY_BROADCAST_BYTES", 0)
    slow = (
        dup_clusters(_near_dup_docs(), threshold=0.5)
        .to_pandas()
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(fast, slow)
    assert len(fast) >= 2  # the planted dup cluster is present


def test_contamination_shingle_cap_raises(ray_session, monkeypatch):
    """Benchmark shingle universes beyond BENCH_SHINGLE_LIMIT must fail
    loudly (the operator's contract: eval sets are small; a corpus-sized
    'benchmark' is a caller bug, not a silent driver OOM)."""
    import raysearch.pipelines.dedup as dd
    from raysearch.pipelines.dedup import contamination_flags

    ds = _near_dup_docs()
    monkeypatch.setattr(dd, "BENCH_SHINGLE_LIMIT", 1)
    with pytest.raises(ValueError):
        contamination_flags(ds, ds).to_pandas()
