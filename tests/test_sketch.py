"""HyperLogLog vocabulary sketch (raysearch/pipelines/sketch.py):
hash parity with the SQL twin, register math vs brute force, partition
invariance, and estimate accuracy vs the exact distinct count."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from raysearch.pipelines.sketch import (
    HLL_P,
    hll_estimate,
    hll_fold,
    hll_vocab_registers,
    md5_u64,
)


def test_md5_u64_matches_duckdb_md5_number_upper():
    import duckdb

    words = ["hello", "", "a", "zebra42", "ünïcode", "the"]
    got = md5_u64(words)
    want = [
        duckdb.sql("SELECT md5_number_upper(?)", params=[w]).fetchone()[0]
        for w in words
    ]
    assert [int(x) for x in got] == [int(w) for w in want]


def test_fold_matches_bit_twiddled_brute_force():
    rng = np.random.default_rng(7)
    hashes = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    hashes[0] = 0  # w == 0 edge: rank must be wbits+1
    p = HLL_P
    reg = np.zeros(1 << p, np.int64)
    hll_fold(reg, hashes, p)
    brute = np.zeros(1 << p, np.int64)
    wbits = 64 - p
    for h in hashes.tolist():
        bucket = h >> wbits
        w = h & ((1 << wbits) - 1)
        rank = (wbits + 1) - w.bit_length()  # bit_length(0) == 0
        brute[bucket] = max(brute[bucket], rank)
    assert (reg == brute).all()


def _vocab_docs(n_docs: int = 60, vocab: int = 3000):
    """Deterministic corpus with a known-ish vocabulary: doc i holds a
    slice of `tok000..tokV-1` plus shared stop-ish words."""
    import ray.data as rd

    rows = []
    for i in range(n_docs):
        lo = (i * vocab // n_docs)
        hi = ((i + 1) * vocab // n_docs)
        toks = [f"tok{j:05d}" for j in range(lo, hi)]
        rows.append(
            {"doc_id": i, "text": "the and of " + " ".join(toks)}
        )
    return rd.from_pandas(pd.DataFrame(rows))


def test_registers_partition_invariant_and_equal_brute(ray_session):
    ds = _vocab_docs()
    a = hll_vocab_registers(ds.repartition(1)).to_pandas()
    b = hll_vocab_registers(ds.repartition(7)).to_pandas()
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )
    # brute force: same tokenizer contract ([a-z0-9]+ of lowered text)
    import re

    vocab = set()
    for row in ds.take_all():
        vocab.update(
            t for t in re.split(r"[^a-z0-9]+", row["text"].lower()) if t
        )
    brute = np.zeros(1 << HLL_P, np.int64)
    hll_fold(brute, md5_u64(sorted(vocab)), HLL_P)
    nz = np.nonzero(brute)[0]
    assert a["bucket"].tolist() == nz.tolist()
    assert a["register"].tolist() == brute[nz].tolist()


def test_estimate_within_hll_error_band(ray_session):
    ds = _vocab_docs(n_docs=80, vocab=20000)
    t = hll_vocab_registers(ds).to_pandas()
    est = hll_estimate(t["bucket"].to_numpy(), t["register"].to_numpy())
    exact = 20000 + 3  # tokNNNNN vocab + {the, and, of}
    assert abs(est - exact) / exact < 0.05  # 3σ ≈ 4.9% at p=12


def test_oracle_sql_twin_bitwise_equal(ray_session, tmp_path):
    """The DuckDB twin (same formula in SQL) reproduces the engine's
    registers bit-for-bit on a real corpus slice."""
    import duckdb
    import pyarrow.parquet as pq

    ds = _vocab_docs(n_docs=30, vocab=1500)
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(ds.to_pandas()), path)
    got = hll_vocab_registers(ds).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')"
    )
    want = con.execute(
        "WITH tok AS (SELECT t.term FROM (SELECT unnest("
        "regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        "FROM documents) t WHERE t.term <> ''), "
        "h AS (SELECT md5_number_upper(term) AS h64 FROM tok), "
        "r AS (SELECT CAST(h64 >> 52 AS BIGINT) AS bucket, "
        "CAST(CASE WHEN (h64 & ((1::UBIGINT << 52) - 1)) = 0 THEN 53 "
        "ELSE 53 - length(bin(h64 & ((1::UBIGINT << 52) - 1))) END "
        "AS BIGINT) AS register FROM h) "
        "SELECT bucket, max(register) AS register FROM r "
        "GROUP BY bucket ORDER BY bucket"
    ).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True)
    )


def test_grouped_registers_match_per_group_brute(ray_session):
    """Grouped HLL == independent per-group HLL folds (brute), and is
    partition-invariant."""
    import re

    import ray.data as rd

    from raysearch.pipelines.sketch import hll_grouped_registers

    rows = []
    langs = ["en", "de", "fr"]
    for i in range(45):
        lang = langs[i % 3]
        toks = [f"{lang}tok{j}" for j in range(i, i + 20)]
        rows.append({"doc_id": i, "lang": lang, "text": " ".join(toks)})
    ds = rd.from_pandas(pd.DataFrame(rows))
    a = hll_grouped_registers(ds.repartition(1), key="lang").to_pandas()
    b = hll_grouped_registers(ds.repartition(6), key="lang").to_pandas()
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )
    out = []
    for lang in langs:
        vocab = set()
        for r in rows:
            if r["lang"] == lang:
                vocab.update(
                    t
                    for t in re.split(r"[^a-z0-9]+", r["text"].lower())
                    if t
                )
        reg = np.zeros(1 << HLL_P, np.int64)
        hll_fold(reg, md5_u64(sorted(vocab)), HLL_P)
        nz = np.nonzero(reg)[0]
        out.extend(
            {"lang": lang, "bucket": int(z), "register": int(reg[z])}
            for z in nz
        )
    brute = (
        pd.DataFrame(out)
        .sort_values(["lang", "bucket"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a.reset_index(drop=True), brute)


def test_cm_sketch_matches_brute_and_partition_invariant(ray_session):
    from raysearch.pipelines.sketch import (
        CM_D,
        CM_W,
        cm_token_counters,
    )

    ds = _vocab_docs(n_docs=40, vocab=2000)
    a = cm_token_counters(ds.repartition(1)).to_pandas()
    b = cm_token_counters(ds.repartition(6)).to_pandas()
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )
    # brute force over exact occurrence counts
    import re
    from collections import Counter

    tf = Counter()
    for r in ds.take_all():
        tf.update(t for t in re.split(r"[^a-z0-9]+", r["text"].lower()) if t)
    grid = np.zeros((CM_D, CM_W), np.int64)
    terms = sorted(tf)
    for d in range(CM_D):
        cells = md5_u64([f"{d}:{t}" for t in terms]) % np.uint64(CM_W)
        np.add.at(grid, (d, cells.astype(np.int64)), [tf[t] for t in terms])
    nz = np.nonzero(grid.ravel())[0]
    assert a["row"].tolist() == (nz // CM_W).tolist()
    assert a["cell"].tolist() == (nz % CM_W).tolist()
    assert a["n"].tolist() == grid.ravel()[nz].tolist()


def test_cm_point_queries_bounded_overestimates(ray_session):
    from raysearch.pipelines.sketch import CM_W, cm_estimate, cm_token_counters

    # skewed counts: term j appears j+1 times
    import ray.data as rd

    rows = []
    doc = []
    for j in range(400):
        doc.extend([f"w{j:04d}"] * (j + 1))
    rows.append({"doc_id": 0, "text": " ".join(doc[: len(doc) // 2])})
    rows.append({"doc_id": 1, "text": " ".join(doc[len(doc) // 2 :])})
    ds = rd.from_pandas(pd.DataFrame(rows))
    t = cm_token_counters(ds).to_pandas()
    terms = [f"w{j:04d}" for j in range(400)]
    est = cm_estimate(
        t["row"].to_numpy(), t["cell"].to_numpy(), t["n"].to_numpy(), terms
    )
    exact = np.arange(1, 401, dtype=np.int64)
    n_total = int(exact.sum())
    assert (est >= exact).all()  # CM never underestimates
    # standard guarantee: overestimate ≤ (e/w)·N w.h.p.; 3x slack
    assert (est - exact).max() <= 3 * np.e / CM_W * n_total


def test_cm_oracle_sql_twin_bitwise_equal(ray_session, tmp_path):
    import duckdb
    import pyarrow.parquet as pq

    from raysearch.pipelines.sketch import cm_token_counters

    ds = _vocab_docs(n_docs=25, vocab=900)
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(ds.to_pandas()), path)
    got = cm_token_counters(ds).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')"
    )
    import __ray_entry__ as E

    want = con.execute(E.oracle_sql()["cm_token_counters"]).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True)
    )


def test_cm_estimate_unseen_terms_and_sparse_grid():
    """Point queries against a sparse sketch: a term whose d cells are
    all absent estimates 0 (never negative, never KeyError)."""
    from raysearch.pipelines.sketch import cm_estimate

    # sketch containing a single populated cell per row
    rows = np.array([0, 1, 2, 3])
    cells = np.array([5, 6, 7, 8])
    counts = np.array([10, 10, 10, 10])
    est = cm_estimate(rows, cells, counts, ["almost-surely-unseen-term"])
    assert est.shape == (1,)
    assert 0 <= est[0] <= 10


def test_bloom_bits_match_duckdb_and_membership(ray_session):
    """Set bits equal the UBIGINT double-hash twin on sf0.001; every
    corpus term probes positive (no false negatives); random
    non-corpus probes stay under a generous FP bound for the
    m=2^14 / k=4 / n≈vocab geometry."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from raysearch.pipelines.sketch import (
        bloom_contains,
        bloom_vocab_bits,
        bloom_vocab_bits_sql,
    )

    sf = "/root/testdata/sf0.001"
    ds = rd.read_parquet(f"{sf}/documents.parquet", columns=["text"])
    got = bloom_vocab_bits(ds).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    orc = con.execute(bloom_vocab_bits_sql()).fetchdf()
    assert got.equals(orc)
    bits = got["bit"].to_numpy(np.int64)
    vocab = [
        r[0]
        for r in con.execute(
            "SELECT DISTINCT t.term FROM (SELECT unnest("
            "regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
            "FROM documents) t WHERE t.term <> ''"
        ).fetchall()
    ]
    assert bloom_contains(bits, vocab).all()  # no false negatives
    probes = [f"nonword{i:04d}" for i in range(2000)]
    fp = bloom_contains(bits, probes).mean()
    n = len(vocab)
    bound = (1 - np.exp(-4 * n / 16384.0)) ** 4
    assert fp <= max(5 * bound, 0.01), (fp, bound)
    # empty probe set and empty bit set behave
    assert bloom_contains(bits, []).shape == (0,)
    assert not bloom_contains(np.array([], np.int64), ["x"]).any()


def test_heavy_hitters_by_matches_duckdb_and_skew(ray_session):
    """Grouped exact heavy hitters equal the per-group HAVING twin
    on sf0.001; a skewed hand-built corpus across blocks pins the
    group-wise pigeonhole (a term heavy only in one small group is
    found; the same term diluted in a big group is not)."""
    import duckdb
    import ray.data as rd

    from __ray_entry__ import _q_heavy_hitters_by
    from raysearch.pipelines.sketch import (
        heavy_hitters_by,
        heavy_hitters_by_sql,
    )

    sf = "/root/testdata/sf0.001"
    got = _q_heavy_hitters_by(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    orc = con.execute(heavy_hitters_by_sql(key="lang")).fetchdf()
    assert got[orc.columns].equals(orc)
    assert len(got) > 0
    # skew: 'hot' is 3/5 of lang a's stream but only 3/23 of lang b's
    rows = (
        [{"lang": "a", "text": "hot hot hot x y"}]
        + [{"lang": "b", "text": "hot hot hot"}]
        + [{"lang": "b", "text": f"w{i} z{i}"} for i in range(10)]
    )
    out = (
        heavy_hitters_by(
            rd.from_items(rows, override_num_blocks=4), key="lang", k=2
        )
        .to_pandas()
        .set_index(["lang", "term"])["n"]
        .to_dict()
    )
    assert out == {("a", "hot"): 3}
    # no term exceeds half of any group: an empty Dataset, typed schema
    empty = heavy_hitters_by(
        rd.from_items([{"lang": "a", "text": "x y z"}]), key="lang", k=2
    )
    assert empty.schema().names == ["lang", "term", "n"] and empty.count() == 0
