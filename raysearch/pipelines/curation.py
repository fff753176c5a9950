"""Flagship corpus-curation pipeline — the operators of this package
composed end-to-end the way a training-data run would chain them:

    documents
      → quality_filter         (C4-style rules, streaming filter)
      → dup_clusters keep-set  (LSH pairs → connected components →
                                 keep cluster minima)
      → stratified_sample      (per-language data mixing, pure filter)
      → (doc_id, lang)         survivors

Each stage is the already-oracled operator; the composed pipeline is
itself exactly SQL-checkable because every stage's oracle composes
(the driver row ``curation_pipeline`` hash-checks the final survivor
set).  Stage-to-stage id handoff is the ``copartition_attach``
semi-join (hash merge, no join operator, no driver id sets).

Round-4 rework — single-tokenize: the corpus text is read and
tokenized EXACTLY ONCE, in a fused first pass that emits per doc both
the quality metrics (the stage-1 keep decision, applied in place) and
the sorted-unique shingle-hash blob (the stage-2 input).  Round 3
tokenized the corpus three times (metrics, minhash signatures,
verification shingle sets); every later stage now works off the
materialized ``(doc_id, lang, shingles)`` survivor table (~8 B per
distinct shingle — comparable to the text bytes; the object store
spills if needed) and no stage re-reads ``text`` after the first
pass.  The fused pass shares its math with the standalone operators
(:func:`~raysearch.pipelines.textstats.quality_metrics_from_codes`,
:func:`~raysearch.pipelines.dedup.shingle_hashes_from_codes`), so the
composed output is bit-identical to running the operators separately
— which is exactly what the composed SQL oracle checks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.lex import Lexer
from raysearch.pipelines.dedup import (
    assign_clusters,
    connected_components,
    minhash_lsh_pairs,
    pack_shingle_blobs,
    shingle_hashes_from_codes,
)
from raysearch.pipelines.sampling import stratified_sample
from raysearch.pipelines.textstats import (
    quality_keep_mask,
    quality_metrics_from_codes,
)
from raysearch.util import copartition_attach, round_half_away

BASE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("lang", pa.string()),
        ("shingles", pa.large_binary()),
    ]
)


class _FusedFirstPass:
    """(doc_id, text, lang) batch → quality survivors with shingle
    blobs attached: tokenize once, compute metrics + shingle hashes
    from the same token stream, filter in place."""

    def __init__(
        self,
        shingle: int,
        min_tokens: int,
        min_quality: float,
        max_stop_ratio: float,
    ):
        self.lexer = Lexer("simple")
        self.shingle = shingle
        self.min_tokens = min_tokens
        self.min_quality = min_quality
        self.max_stop_ratio = max_stop_ratio
        self._memo: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        parent, codes, uniq = self.lexer.token_parent_codes(batch["text"])
        n_tokens, _, stop_ratio, quality = quality_metrics_from_codes(
            parent, codes, uniq, n
        )
        mask = quality_keep_mask(
            n_tokens,
            quality,
            round_half_away(stop_ratio, 4),
            min_tokens=self.min_tokens,
            min_quality=self.min_quality,
            max_stop_ratio=self.max_stop_ratio,
        )
        sh_parent, sh = shingle_hashes_from_codes(
            self._memo, parent, codes, uniq, self.shingle
        )
        blobs = pack_shingle_blobs(n, sh_parent, sh)
        keep = pa.array(mask)
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()).filter(keep),
                "lang": batch["lang"].filter(keep),
                "shingles": blobs.filter(keep),
            }
        )


_FUSED_CACHE: dict[tuple, object] = {}


def _fused_task(batch: pa.Table, *, shingle, min_tokens, min_quality,
                max_stop_ratio) -> pa.Table:
    key = (shingle, min_tokens, min_quality, max_stop_ratio)
    inst = _FUSED_CACHE.get(key)
    if inst is None:
        inst = _FUSED_CACHE[key] = _FusedFirstPass(
            shingle, min_tokens, min_quality, max_stop_ratio
        )
    return inst(batch)


def curation_pipeline(
    docs,
    rates: dict[str, float],
    *,
    min_tokens: int = 5,
    min_quality: float = 0.5,
    max_stop_ratio: float = 0.6,
    threshold: float = 0.6,
    shingle: int = 3,
):
    """``docs`` must carry (doc_id, text, lang).  Returns the sampled
    survivor set ``(doc_id, lang)`` sorted by doc_id."""

    # 1. fused first pass: tokenize once → quality keep-set applied in
    #    place, shingle blobs attached; the ONLY pass over `text`
    base = docs.map_batches(
        _fused_task,
        fn_kwargs={
            "shingle": shingle,
            "min_tokens": min_tokens,
            "min_quality": min_quality,
            "max_stop_ratio": max_stop_ratio,
        },
        batch_format="pyarrow",
    ).materialize()

    # 2. near-dup clusters from the precomputed shingle blobs (no
    #    re-tokenize); keep cluster minima
    pairs = minhash_lsh_pairs(
        None,
        threshold=threshold,
        shingle=shingle,
        shingle_ds=base.select_columns(["doc_id", "shingles"]),
    )
    comp = connected_components(pairs)
    clusters = assign_clusters(
        base.select_columns(["doc_id"]), comp, id_col="doc_id"
    )

    def keepers(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["doc_id"], b["cluster_id"])).select(
            ["doc_id"]
        )

    keep_ids = clusters.map_batches(keepers, batch_format="pyarrow")
    docs_kept = copartition_attach(
        base.select_columns(["doc_id", "lang"]),
        keep_ids,
        "doc_id",
        pa.schema([("doc_id", pa.int64()), ("lang", pa.string())]),
        {},
        semi=True,
    )

    # 3. per-language mixing, then the survivor projection
    return stratified_sample(docs_kept, rates).sort("doc_id")
