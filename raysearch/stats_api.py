"""Statistics surface — analog of GET /api/statistics
(controllers/ApiController.java:28-31 →
services/StatisticsServiceImpl.java:34-70, A3/A5 in SURVEY §2.5).

The reference counts pages/lemmas per site with repository scans and
reports an ``isIndexing`` flag from the global run state; here the
numbers come from the wave manifests + lexicon (no table scans), and
"indexing in progress" means some partition lacks a committed wave.
Each partition commits itself as one wave; a ``_tmp_`` wave is a build
or eviction in progress (or a crashed one) and does not count, even
once its manifest is written."""

from __future__ import annotations

import glob
import json
import os


def index_stats(index_dir: str) -> dict:
    input_meta_path = os.path.join(index_dir, "input_meta.json")
    with open(input_meta_path) as f:
        input_meta = json.load(f)
    n_partitions = input_meta["n_partitions"]
    per_partition: dict[str, dict] = {}
    for mpath in sorted(
        glob.glob(os.path.join(index_dir, "waves", "*", "manifest.json"))
    ):
        wave = os.path.basename(os.path.dirname(mpath))
        if wave.startswith("_tmp_"):
            continue
        try:
            with open(mpath) as f:
                manifest = json.load(f)
        except FileNotFoundError:  # evicted since the glob: uncommitted
            continue
        for pid, stats in manifest["per_partition"].items():
            per_partition[pid] = {**stats, "wave": wave}
    committed = len(per_partition)
    meta_path = os.path.join(index_dir, "merged", "meta.json")
    merged = None
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            merged = json.load(f)
    return {
        # TotalStatistics analog (dto/statistics/TotalStatistics.java:7-10)
        "total": {
            "docs": input_meta["n_docs"],
            "terms": merged["n_terms"] if merged else None,
            "tokens": merged["total_tokens"] if merged else None,
            "avg_doc_len": merged["avg_doc_len"] if merged else None,
            # A5 analog (StatisticsServiceImpl.java:72-84)
            "is_indexing": committed < n_partitions or merged is None,
        },
        # DetailedStatisticsItem analog (dto/statistics/DetailedStatisticsItem.java:7-13)
        "partitions": per_partition,
        "n_partitions": n_partitions,
        "committed_partitions": committed,
    }
