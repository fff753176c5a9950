"""Independent expected answers, computed in a child process so the
reference's memory never counts toward the benchmark's peak RSS.

    python benchmark/reference.py engine CORPUS_DIR POOL_JSON OUT_JSON
    python benchmark/reference.py curate CORPUS_DIR OUT_JSON

``engine`` builds ``raysearch.oracle.Oracle`` over the corpus and writes
its lexicon digest, ``n_docs``/``total_tokens`` and, for every query in
the pool, the expected top-k: ``Oracle.search`` for AND and scoped AND,
and a brute-force union scorer over ``Oracle.postings`` for OR.
``curate`` evaluates the DuckDB twins of the two pipelines and writes a
row digest of each.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

# the repository root, not this directory, so no module here shadows another
sys.path[0] = os.getcwd()

K = 10


def or_topk(oracle, query: str, k: int = K) -> tuple[list[int], list[float]]:
    """Score every doc holding any query term; same BM25 terms summed in
    the same (df asc, term asc) order the engine pins, then score desc /
    doc_id asc."""
    from raysearch.scoring import BM25_B, BM25_K1, bm25_idf

    terms = oracle.query_terms(query)
    if not terms:
        return [], []
    docs = np.unique(np.concatenate([oracle.postings[t].doc_ids for t in terms]))
    dl = oracle.doc_lens[docs].astype(np.float64)
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / oracle.avg_doc_len))
    scores = np.zeros(len(docs), dtype=np.float64)
    for t in terms:
        p = oracle.postings[t]
        idf = bm25_idf(p.df, oracle.n_docs)
        tf = np.zeros(len(docs), dtype=np.float64)
        tf[np.searchsorted(docs, p.doc_ids)] = p.tfs
        hit = tf > 0
        scores[hit] += idf * (tf[hit] * (BM25_K1 + 1.0)) / (tf[hit] + norm[hit])
    order = np.lexsort((docs, -scores))[:k]
    return docs[order].tolist(), scores[order].tolist()


def engine_answers(corpus: str, pool: list[dict]) -> dict:
    from raysearch.oracle import Oracle

    from benchmark.common import digest_rows

    o = Oracle(corpus)
    lex = o.lexicon()
    out = {
        "n_docs": o.n_docs,
        "total_tokens": o.total_tokens,
        "lexicon_digest": digest_rows((t, df, cf) for t, (df, cf) in sorted(lex.items())),
        "answers": [],
    }
    for q in pool:
        if q["kind"] == "or":
            ids, scores = or_topk(o, q["q"])
            count = len(ids)
        else:
            ids, scores, count = o.search(q["q"], k=K, scope=q.get("scope"))
            ids, scores = ids.tolist(), scores.tolist()
        out["answers"].append({"ids": ids, "scores": scores, "count": int(count)})
    return out


def curate_answers(corpus: str) -> dict:
    import duckdb

    from raysearch.pipelines.convstats import conv_curation_sql
    from raysearch.pipelines.sketch import heavy_hitters_sql

    from benchmark.common import digest_rows

    con = duckdb.connect()
    con.sql("SET threads TO 1")
    con.sql(
        f"CREATE VIEW turns AS SELECT * FROM read_parquet('{corpus}/*.parquet')"
    )
    cur = con.sql(conv_curation_sql("turns", k=8)).fetchall()
    hh = con.sql(heavy_hitters_sql(table="turns")).fetchall()
    con.close()
    return {
        "curation": {"rows": len(cur), "digest": digest_rows(curation_rows(cur))},
        "heavy_hitters": {"rows": len(hh), "digest": digest_rows(hh_rows(hh))},
    }


def curation_rows(rows) -> list[tuple]:
    """(conv_id, turn_idx, prompt, response) normalised and sorted."""
    return sorted((str(c), int(t), str(p), str(r)) for c, t, p, r in rows)


def hh_rows(rows) -> list[tuple]:
    """(term, n) normalised and sorted by n desc, term asc."""
    return sorted(((str(t), int(n)) for t, n in rows), key=lambda r: (-r[1], r[0]))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "engine":
        corpus, pool_path, out_path = argv[1:4]
        with open(pool_path) as f:
            pool = json.load(f)
        result = engine_answers(corpus, pool)
    elif mode == "curate":
        corpus, out_path = argv[1:3]
        result = curate_answers(corpus)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    tmp = out_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
