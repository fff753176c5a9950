"""Cross-parallelism determinism check: print driver-style value
hashes for the named queries at a given num_cpus; run in two fresh
processes (8 and 32) and diff — byte-identical hashes mean the gate
result cannot depend on the driver's parallelism level.

Usage: python scripts/crosspar_check.py NCPUS [query ...]
"""

import os
import sys

sys.path.insert(0, "/root/repo")
os.chdir("/root/repo")

DEFAULT_QUERIES = [
    "minhash_pairs",
    "simhash_pairs",
    "embedding_near_dup",
    "curation_pipeline",
    "media_demux",
    "hll_vocab_registers",
    "hll_lang_registers",
    "cm_token_counters",
    "decontaminate",
    # round-5 additions with sorts / driver-side folds
    "priority_sample",
    "length_quantiles",
    "lang_length_quantiles",
    "repetition_stats",
    "bigram_topk",
    "quality_topfrac",
    "lm_score",
    "dup_ngram_stats",
    "kmeans_clusters",
    "epoch_shuffle",
    "group_sample_k",
    "normalize_text",
    "pmi_topk",
    "vocab_overlap",
    "chunk_manifest",
    "zipf_buckets",
    "js_divergence",
    "sliding_chunks",
    "ngram_novelty",
    "edit_distance_pairs",
    "vocab_encode",
    "conv_role_stats",
    "conv_dedup",
    "tool_stats",
    "turn_gap_stats",
    "sft_pairs",
    "role_transitions",
    "assistant_share",
    "role_run_stats",
    "conv_truncate",
    "boilerplate_turns",
    "turn_rate",
    "tool_latency",
    "conv_similarity_pairs",
    "conv_curation",
    # key-block passes (raysearch.util._key_blocks) outside convstats
    "group_topn",
    "events_sessionize",
    "events_asof_join",
    "funnel_counts",
    "order_gaps",
    "keyterms_topk",
    "lang_id_ngram",
    "pack_offsets",
    "jaccard_pairs_exact",
    "prefix_jaccard_pairs",
    "ngram_jaccard_pairs",
    "resumable_sink",
    "lang_mismatch",
    # the OR-mode and sharded search rows
    "transcripts_bm25_or",
    "transcripts_bm25_sharded",
]


def main():
    ncpu = int(sys.argv[1])
    names = sys.argv[2:] or DEFAULT_QUERIES
    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False)
    import __ray_entry__ as E
    from driver_sim import to_pandas, value_hash  # scripts/ sibling

    q = E.queries()
    for name in names:
        df = to_pandas(q[name]("/root/testdata/sf0.01"))
        print(f"{name} {value_hash(df)}", flush=True)
    ray.shutdown()


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
