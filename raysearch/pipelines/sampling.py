"""Sampling / data-mixing operators for training-data curation.

Two primitives every corpus-curation pipeline needs and the reference
engine has no analog for (its closest is the top-10 rank window,
K5 in SURVEY §2):

* :func:`stratified_sample` — per-group deterministic rate sampling
  (the "data mixing" step: keep 50% of English, 12.5% of Spanish, …).
  A PURE FILTER: one vectorized ``map_batches`` pass, zero shuffle,
  zero driver state — the cheapest possible plan at any scale.
  Determinism comes from a multiplicative Fibonacci hash of the id
  column (golden-ratio multiplier, mod 2⁶⁴): membership is a pure
  function of (id, quantized rate), so re-runs, retries and resumed
  partitions agree without coordination, and the SQL oracle can
  replicate the decision bit-for-bit with HUGEINT arithmetic.
* :func:`group_topn` — top-n rows per group under a total order
  (window ``row_number() ≤ n``), as per-block partial top-n (each
  block contributes at most groups×n candidate rows) followed by one
  SMALL groupby over candidates — the same partial/final shape as
  ``simsearch.cosine_topk``, so the all-to-all moves candidates, not
  the corpus.

Rates are quantized to 1/65536ths and applied as exact integer
thresholds against the hash's 64-bit output: both sides of the
engine↔oracle comparison use integers only (no float boundary rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.util import _group_head, _key_blocks

#: Fibonacci-hash multiplier (2⁶⁴/φ, odd — a bijection mod 2⁶⁴) and an
#: arbitrary odd offset so id 0 is not a fixed point.
HASH_MUL = 0x9E3779B97F4A7C15
HASH_ADD = 0xD1B54A32D192ED03
RATE_DENOM_BITS = 16  # rates quantized to 1/65536ths


def sample_threshold(rate: float) -> int:
    """Exact 64-bit keep-threshold for a [0, 1] rate (integer in both
    the engine and the interpolated oracle SQL)."""
    q = int(round(rate * (1 << RATE_DENOM_BITS)))
    q = max(0, min(1 << RATE_DENOM_BITS, q))
    return q << (64 - RATE_DENOM_BITS)


def sample_key_sql(id_col: str) -> str:
    """DuckDB expression computing the identical 64-bit hash key
    (HUGEINT arithmetic mod 2⁶⁴)."""
    return (
        f"(CAST({id_col} AS HUGEINT) * {HASH_MUL} + {HASH_ADD}) "
        f"% 18446744073709551616"
    )


def stratified_sample(ds, rates: dict[str, float], *, group_col: str = "lang",
                      id_col: str = "doc_id", default_rate: float = 0.0):
    """Keep each row iff ``hash(id) < threshold(rates[group])``.

    Groups absent from ``rates`` use ``default_rate`` (default: drop).
    Output keeps the input columns, filtered in place — downstream
    stages keep streaming; nothing is shuffled or materialized.  The
    kept fraction per group converges to the quantized rate (the
    multiplier is odd ⇒ the key sequence is equidistributed mod 2⁶⁴
    over any id range)."""
    groups = list(rates)
    raw = [sample_threshold(rates[g]) for g in groups] + [sample_threshold(default_rate)]
    # rate 1.0 quantizes to threshold 2^64 — representable in the
    # oracle's HUGEINT but not in uint64; carry it as a keep-all flag
    full = np.array([t >= 1 << 64 for t in raw], bool)
    thr = np.array([min(t, (1 << 64) - 1) for t in raw], np.uint64)
    value_set = pa.array(groups, pa.string())

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = ids * np.uint64(HASH_MUL) + np.uint64(HASH_ADD)  # wraps mod 2^64
        idx = pc.fill_null(
            pc.index_in(batch[group_col], value_set=value_set), len(groups)
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array((key < thr[idx]) | full[idx]))

    return ds.map_batches(keep, batch_format="pyarrow")


def group_topn(ds, *, group_col: str, order_col: str, n: int,
               id_col: str = "doc_id", descending: bool = True):
    """Top-``n`` rows per group under ``(order_col, id_col)`` — the
    distributed ``row_number() OVER (PARTITION BY g ORDER BY o) <= n``
    window.  Ties break on ascending ``id_col`` (a total order, so
    per-block partial selection is exact: any global top-n row is a
    block-local top-n row under the same comparator).

    Output: ``(group_col, id_col, order_col, rk)`` with ``rk`` 1-based
    within the group.  Each block keeps its per-group top ``n``
    (:func:`raysearch.util._group_head`); the only all-to-all is the
    key-block pass over those candidate rows (≤ blocks × groups × n),
    which selects again.  Rows whose ``group_col`` is null are dropped
    before it (Ray 2.49's sort raises on a null in a string key)."""
    order = "descending" if descending else "ascending"
    keys = [group_col, (order_col, order), id_col]

    def top(b: pa.Table) -> pa.Table:
        b, rk = _group_head(b.filter(pc.is_valid(b[group_col])), keys, n)
        return pa.table({group_col: b[group_col], id_col: b[id_col],
                         order_col: b[order_col], "rk": rk})

    return _key_blocks(ds.map_batches(top, batch_format="pyarrow"), group_col,
                       top)


def split_dataset(ds, fractions: dict[str, float], *, id_col: str = "doc_id"):
    """Deterministic train/val/test assignment: the id hash's position
    among cumulative quantized fraction thresholds names the split.
    Same zero-shuffle / zero-state properties as
    :func:`stratified_sample`; an id's split never changes when the
    corpus grows, shrinks, or is re-partitioned (pure function of id).

    ``fractions`` values must sum to 1 (after 1/65536 quantization the
    last split absorbs the rounding remainder).  Output: every input
    row as ``(id_col, split)``."""
    names = list(fractions)
    if abs(sum(fractions.values()) - 1.0) > 1e-6:
        raise ValueError("fractions must sum to 1")
    cum, edges = 0.0, []
    for g in names[:-1]:
        cum += fractions[g]
        edges.append(sample_threshold(cum))
    bounds = np.array(edges + [(1 << 64) - 1], np.uint64)  # last absorbs

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = ids * np.uint64(HASH_MUL) + np.uint64(HASH_ADD)
        idx = np.searchsorted(bounds, key, side="right").clip(0, len(names) - 1)
        return pa.table(
            {
                id_col: pc.cast(batch[id_col], pa.int64()),
                "split": pa.array(np.array(names, object)[idx], pa.string()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def split_case_sql(fractions: dict[str, float], id_col: str = "doc_id") -> str:
    """DuckDB CASE expression naming the identical split per row."""
    names = list(fractions)
    cum, parts = 0.0, []
    for g in names[:-1]:
        cum += fractions[g]
        parts.append(f"WHEN {sample_key_sql(id_col)} < {sample_threshold(cum)} THEN '{g}'")
    return "CASE " + " ".join(parts) + f" ELSE '{names[-1]}' END"


def priority_sample(ds, k: int, *, id_col: str = "doc_id",
                    keep_cols: list[str] | None = None):
    """Exactly-``k`` uniform-without-replacement sample: the global
    bottom-``k`` rows under the Fibonacci id hash (priority sampling
    with a deterministic priority).  The multiplier is odd, so the
    hash is a bijection mod 2⁶⁴ — distinct ids get distinct keys, the
    order is total, and the SAME k rows come back regardless of
    partitioning, retries, or corpus block layout; growing the corpus
    only perturbs the sample by the new ids' keys (bounded churn, the
    classic bottom-k sketch property).

    Plan: per-block partial bottom-``k`` (each block emits ≤ k rows),
    then ONE small ``sort().limit(k)`` over ≤ k × blocks candidate
    rows — the corpus itself is never shuffled and the driver never
    sees more than the k-row result.  Output:
    ``(rk, id_col, *keep_cols)`` with ``rk`` the 1-based rank under
    the hash order (pins output order for value-hash comparison).
    """
    cols = [id_col] + [c for c in (keep_cols or []) if c != id_col]

    def partial(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = ids * np.uint64(HASH_MUL) + np.uint64(HASH_ADD)
        take = np.argsort(key, kind="stable")[:k]
        out = b.select(cols).take(pa.array(take))
        return out.append_column("_key", pa.array(key[take], pa.uint64()))

    def rank(b: pa.Table) -> pa.Table:
        b = b.drop_columns(["_key"])
        return b.append_column(
            "rk", pa.array(np.arange(1, b.num_rows + 1, dtype=np.int64))
        ).select(["rk"] + cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .sort("_key")
        .limit(k)
        # k rows total -> one block; rank assignment is global
        .repartition(1)
        .map_batches(rank, batch_format="pyarrow")
    )


def priority_sample_sql(k: int, *, id_col: str = "doc_id",
                        keep_cols: list[str] | None = None,
                        table: str = "documents") -> str:
    """DuckDB query computing the identical bottom-k sample + rank."""
    cols = [id_col] + [c for c in (keep_cols or []) if c != id_col]
    sel = ", ".join(cols)
    return (
        f"SELECT CAST(row_number() OVER (ORDER BY {sample_key_sql(id_col)}) "
        f"AS BIGINT) AS rk, {sel} FROM {table} "
        f"ORDER BY {sample_key_sql(id_col)} LIMIT {k}"
    )


M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer (public-domain constant set) — expands a
    small epoch seed into a well-mixed 64-bit value so consecutive
    seeds yield unrelated shuffle permutations."""
    x = (x + 0x9E3779B97F4A7C15) & M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def shuffle_mask(seed: int) -> int:
    """63-bit xor-mask for an epoch seed (kept below 2⁶³ so the SQL
    twin can xor it against a BIGINT id without sign games)."""
    return _splitmix64(int(seed)) & ((1 << 63) - 1)


def epoch_shuffle(ds, seed: int, *, id_col: str = "doc_id",
                  keep_cols: list[str] | None = None):
    """Deterministic global epoch shuffle — the training-data
    "reshuffle every epoch" step, WITHOUT ``random_shuffle``'s
    non-reproducible order.  Every row gets a 64-bit key
    ``((id XOR splitmix64(seed)) * HASH_MUL + HASH_ADD) mod 2⁶⁴`` and
    the dataset is range-sort-partitioned on it; the multiplier is odd
    (a bijection mod 2⁶⁴) so distinct ids get distinct keys and the
    permutation is total.  Because the key is a pure function of
    (id, seed), the SAME order comes back regardless of partitioning,
    retries, or resumed runs — and a different ``seed`` gives an
    unrelated permutation (the xor mask enters BEFORE the multiply, so
    epochs are not rotations of each other; asserted in tests).

    Scale: one distributed sort on a uniformly-distributed integer key
    — exactly the all-to-all a global shuffle inherently requires, but
    with deterministic, resumable output and no RNG state anywhere.
    The emitted ``shuffle_key`` (top 63 bits, BIGINT both sides) pins
    the row order for value-hash comparison against the SQL twin.

    Requires non-negative ``id_col`` values (BIGINT-xor parity with
    the DuckDB oracle).
    """
    mask = shuffle_mask(seed)
    cols = [id_col] + [c for c in (keep_cols or []) if c != id_col]

    def key(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        k = ((ids ^ np.uint64(mask)) * np.uint64(HASH_MUL)
             + np.uint64(HASH_ADD)) >> np.uint64(1)
        return b.select(cols).append_column(
            "shuffle_key", pa.array(k.astype(np.int64), pa.int64())
        ).select(["shuffle_key"] + cols)

    return (
        ds.map_batches(key, batch_format="pyarrow")
        .sort(["shuffle_key", id_col])
    )


def epoch_shuffle_sql(seed: int, *, id_col: str = "doc_id",
                      keep_cols: list[str] | None = None,
                      table: str = "documents") -> str:
    """DuckDB query producing the identical shuffled order + key."""
    mask = shuffle_mask(seed)
    cols = [id_col] + [c for c in (keep_cols or []) if c != id_col]
    sel = ", ".join(cols)
    k = (
        f"CAST(((CAST(xor(CAST({id_col} AS BIGINT), {mask}) AS HUGEINT) "
        f"* {HASH_MUL} + {HASH_ADD}) % 18446744073709551616) // 2 AS BIGINT)"
    )
    return (
        f"SELECT {k} AS shuffle_key, {sel} FROM {table} "
        f"ORDER BY shuffle_key, {id_col}"
    )


def group_sample_k(ds, k: int, *, group_col: str = "lang",
                   id_col: str = "doc_id"):
    """Exactly-``k`` uniform sample PER GROUP — the balanced eval-set
    draw ("k docs from every language").  Per group it is the global
    bottom-``k`` under the bijective Fibonacci id hash, so membership
    is a pure function of (id, k): identical rows at any partitioning
    / retry, bounded churn under corpus growth (bottom-k property),
    and groups with fewer than ``k`` rows return all of them.

    Plan shape = :func:`group_topn` under the hash order: per-block
    per-group partial bottom-``k`` (each block emits ≤ groups×k rows),
    then the same selection in one key-block pass over the candidates
    (:func:`raysearch.util._key_blocks`) — the corpus is never
    shuffled.  Output ``(group_col, rk, id_col)`` with ``rk`` 1-based
    within the group; sorted by (group, rk) to pin the row order for
    value-hash comparison.  Rows with a null group are dropped, as in
    :func:`group_topn`."""

    def bottom_k(b: pa.Table) -> pa.Table:
        b, rk = _group_head(b, [group_col, "_key"], k)
        return pa.table({group_col: b[group_col], "rk": rk,
                         id_col: b[id_col], "_key": b["_key"]})

    def partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[group_col]))
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = ids * np.uint64(HASH_MUL) + np.uint64(HASH_ADD)
        return bottom_k(b.select([group_col, id_col]).append_column(
            "_key", pa.array(key, pa.uint64())))

    return (
        _key_blocks(ds.map_batches(partial, batch_format="pyarrow"),
                    group_col, bottom_k)
        .drop_columns(["_key"])
        .sort([group_col, "rk"])
    )


def group_sample_k_sql(k: int, *, group_col: str = "lang",
                       id_col: str = "doc_id",
                       table: str = "documents") -> str:
    """DuckDB window query computing the identical per-group sample."""
    return (
        f"SELECT {group_col}, rk, {id_col} FROM ("
        f"SELECT {group_col}, {id_col}, CAST(row_number() OVER ("
        f"PARTITION BY {group_col} "
        f"ORDER BY {sample_key_sql(id_col)}, {id_col}) AS BIGINT) AS rk "
        f"FROM {table}) WHERE rk <= {k} ORDER BY {group_col}, rk"
    )


def _temperature_plan(counts: dict[str, int], temperature: float):
    """Integer-exact per-source copy plan for :func:`temperature_mix`.

    The ONLY float op is the per-source weight ``w = (n_s/N)^(1/τ)``
    — for τ = 2 computed via ``sqrt`` (IEEE-754 correctly rounded, so
    numpy / Python / DuckDB agree bit-for-bit) — rounded half-away to
    an integer at 10¹² scale BEFORE the cross-source sum; quotas,
    base copies and the fractional-tail hash thresholds are exact
    integer arithmetic (Python ints, overflow-free at any corpus
    size; the SQL twin uses HUGEINT with every product's first factor
    < 2⁶³)."""
    import math

    alpha = 1.0 / temperature
    sources = sorted(counts)
    n_total = sum(counts.values())
    w_qi = {}
    for s in sources:
        p = counts[s] * 1.0 / n_total
        v = math.sqrt(p) if alpha == 0.5 else math.pow(p, alpha)
        w_qi[s] = int(math.floor(v * 1000000000000.0 + 0.5))
    s_qi = sum(w_qi.values())
    plan = {}
    for s in sources:
        target = (w_qi[s] * n_total) // s_qi
        n_s = counts[s]
        base, rem = divmod(target, n_s)
        plan[s] = (base, (rem << 64) // n_s)
    return plan


def temperature_mix(ds, *, temperature: float = 2.0,
                    group_col: str = "source", id_col: str = "doc_id"):
    """Temperature-based source resampling — the multinomial
    data-mixing step of multilingual / multi-source training corpora
    (sample source s proportional to ``p_s^(1/τ)``): τ > 1 upweights
    low-resource sources, τ = 1 is the natural distribution.  Output
    is the resampling PLAN ``(id, group, n_copies ≥ 1)`` — docs from
    downweighted sources drop (n_copies would be 0), docs from
    upweighted sources repeat — which a training loader executes
    without materializing the repetition.

    Plan: one tiny ``groupby(group).Count`` fold (S rows, pulled to
    the driver — the broadcast-small-side pattern), integer-exact
    quota arithmetic (:func:`_temperature_plan`), then ONE
    zero-shuffle vectorized filter/annotate pass: each doc's copy
    count is ``base_s`` plus one iff its Fibonacci hash falls under
    the source's exact fractional-tail threshold ``(rem·2⁶⁴)//n_s``
    — a pure function of (id, per-source integers), so re-runs,
    retries and any partitioning agree bit-for-bit."""
    from ray.data.aggregate import Count

    cnt_rows = (
        ds.groupby(group_col).aggregate(Count(alias_name="n")).take_all()
    )
    counts = {r[group_col]: int(r["n"]) for r in cnt_rows}
    plan = _temperature_plan(counts, temperature)
    groups = sorted(plan)
    base = np.array([plan[g][0] for g in groups] + [0], np.int64)
    thr = np.array([min(plan[g][1], (1 << 64) - 1) for g in groups] + [0],
                   np.uint64)
    value_set = pa.array(groups, pa.string())

    def annotate(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = ids * np.uint64(HASH_MUL) + np.uint64(HASH_ADD)
        idx = pc.fill_null(
            pc.index_in(batch[group_col], value_set=value_set), len(groups)
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        n_copies = base[idx] + (key < thr[idx])
        out = pa.table(
            {id_col: batch[id_col], group_col: batch[group_col],
             "n_copies": pa.array(n_copies, pa.int64())}
        )
        return out.filter(pa.array(n_copies >= 1))

    return ds.map_batches(annotate, batch_format="pyarrow").sort(id_col)


def temperature_mix_sql(*, temperature: float = 2.0,
                        group_col: str = "source", id_col: str = "doc_id",
                        table: str = "documents") -> str:
    """DuckDB twin of :func:`temperature_mix` (same sqrt/pow double
    op, same 10¹² rounding, HUGEINT quota and threshold arithmetic)."""
    alpha = 1.0 / temperature
    wexpr = (
        "sqrt(n * 1.0 / t.nt)" if alpha == 0.5
        else f"pow(n * 1.0 / t.nt, {alpha!r})"
    )
    return (
        f"WITH cnt AS (SELECT {group_col} AS g, count(*) AS n "
        f"FROM {table} GROUP BY 1), "
        "tot AS (SELECT sum(n) AS nt FROM cnt), "
        f"w AS (SELECT g, n, CAST(round({wexpr} * 1000000000000.0, 0) "
        "AS HUGEINT) AS wq FROM cnt, tot t), "
        "sw AS (SELECT sum(wq) AS s FROM w), "
        "b AS (SELECT g, n, (wq * (SELECT nt FROM tot)) "
        "// (SELECT s FROM sw) AS target FROM w), "
        "pl AS (SELECT g, n, target // n AS base, "
        "((target % n) * 18446744073709551616) // n AS thr FROM b), "
        f"k AS (SELECT d.{id_col}, d.{group_col}, CAST(pl.base + "
        f"CASE WHEN {sample_key_sql('d.' + id_col)} < pl.thr "
        "THEN 1 ELSE 0 END AS BIGINT) AS n_copies "
        f"FROM {table} d JOIN pl ON d.{group_col} = pl.g) "
        f"SELECT {id_col}, {group_col}, n_copies FROM k "
        f"WHERE n_copies >= 1 ORDER BY {id_col}"
    )
