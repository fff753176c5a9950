"""Conversation-level curation operators over the north-rule
transcript shape ``(conv_id, turn_idx, role, text, tool, ts)`` — the
columns the index pipeline does not consume (role / tool / ts) become
first-class curation signals here:

* :func:`role_stats` — per-role turn/token/conversation counts (the
  "how much assistant text vs user text am I training on" mix audit);
* :func:`conv_dedup` — whole-conversation exact dedup: md5 over the
  turn texts in pinned turn order, canonical keep = min conv_id per
  hash (the conversation-granularity sibling of ``exact_dedup``);
* :func:`tool_stats` — tool-call frequency and conversation reach per
  tool (agent-transcript telemetry);
* :func:`turn_gap_stats` — per-conversation inter-turn latency
  profile from ``ts`` (exact integer microseconds, no float folds);
* :func:`sft_pairs` — (prompt, response) extraction: every assistant
  turn whose predecessor (in turn_idx order) is a user turn becomes a
  supervised-finetuning example;
* :func:`role_transitions` — global (prev_role, role) bigram counts
  (conversation-structure audit: does user→assistant alternation
  hold, how often do tool loops run);
* :func:`assistant_share` — per-conversation assistant-token share in
  exact integer basis points + a keep flag (drop conversations the
  assistant barely speaks in, or monologues);
* :func:`role_run_stats` — per-(conversation, role) longest
  consecutive same-role run + run count (gaps-and-islands; catches
  degenerate tool loops and assistant monologue streaks);
* :func:`conv_truncate` — last-K-turn context windowing: keep each
  conversation's final ``k`` turns (the standard context-length
  truncation before packing);
* :func:`boilerplate_turns` — the most-repeated exact turn texts
  across the corpus (canned greetings, error templates, refusal
  boilerplate — the first thing a curation pass strips);
* :func:`turn_rate` — hourly turn / active-conversation throughput
  from ``ts`` (corpus freshness + collection-rate audit);
* :func:`tool_latency` — per-tool execution-time profile: the gap
  from each tool turn to the conversation's next turn (exact int64
  microseconds; slow-tool telemetry);
* :func:`conv_similarity_pairs` — EXACT all-pairs conversation
  vocabulary-overlap (unigram Jaccard ≥ τ) over whole-conversation
  token sets: related / near-duplicate conversation detection one
  level above :func:`conv_dedup`'s byte-exact hash (reuses the
  prefix-filtering machinery from ``dedup.py``);
* :func:`conv_curation` — the composed conversation flagship:
  assistant-share band ∧ whole-conversation dedup → last-K-turn
  truncation → SFT pair extraction, one chained SQL twin.

All stream: per-batch or per-conversation partials feed one or two
small hash aggregates; per-group Python appears only where the work
is irreducibly sequential over one conversation's own rows
(:func:`conv_dedup`'s md5, the turn-order shifts in
:func:`sft_pairs` / :func:`role_transitions`) — a conversation is the
natural work unit, never the corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

#: per-worker lexer cache (the build.py ST1 discipline: construct
#: stateful tokenizers once per process, not once per batch)
_LEX_CACHE: dict = {}

#: simple-mode token rule as a COUNT kernel: occurrences of [a-z0-9]+
#: runs in the lowered text == number of non-empty simple tokens
#: (lex._MODES["simple"] splits on the complement), so SQL replays it
#: with len(regexp_extract_all(lower(text), '[a-z0-9]+')).
SIMPLE_TOKEN_RUN = r"[a-z0-9]+"


def role_stats(ds):
    """Per-role ``(role, n_convs, n_turns, n_tokens)`` sorted by role.

    One pass emits per-batch ``(role, conv_id)`` partials with turn +
    token sums; a ``groupby(role, conv_id)`` fold (bounded by convs ×
    4 roles) collapses cross-batch splits, then ``groupby(role)``
    counts conversations and sums the rest — distinct-conv counting
    without a distinct operator."""
    from ray.data.aggregate import Count, Sum

    def partial(b: pa.Table) -> pa.Table:
        roles = b["role"].to_numpy(zero_copy_only=False)
        convs = b["conv_id"].to_numpy(zero_copy_only=False)
        toks = (
            pc.count_substring_regex(
                pc.utf8_lower(b["text"]), pattern=SIMPLE_TOKEN_RUN
            )
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        key = pd.MultiIndex.from_arrays([roles, convs])
        df = pd.DataFrame({"n_turns": 1, "n_tokens": toks}, index=key)
        agg = df.groupby(level=[0, 1], sort=True).sum()
        return pa.table(
            {
                "role": pa.array(
                    agg.index.get_level_values(0).to_numpy(object), pa.string()
                ),
                "conv_id": pa.array(
                    agg.index.get_level_values(1).to_numpy(object), pa.string()
                ),
                "n_turns": pa.array(agg["n_turns"].to_numpy(np.int64)),
                "n_tokens": pa.array(agg["n_tokens"].to_numpy(np.int64)),
            }
        )

    per_conv = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["role", "conv_id"])
        .aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("n_tokens", alias_name="n_tokens"),
        )
    )
    out = per_conv.groupby("role").aggregate(
        Count(alias_name="n_convs"),
        Sum("n_turns", alias_name="n_turns"),
        Sum("n_tokens", alias_name="n_tokens"),
    )

    def cast(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "role": b["role"],
                "n_convs": pc.cast(b["n_convs"], pa.int64()),
                "n_turns": pc.cast(b["n_turns"], pa.int64()),
                "n_tokens": pc.cast(b["n_tokens"], pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow").sort("role")


def role_stats_sql(table: str) -> str:
    """DuckDB twin of :func:`role_stats`."""
    return (
        f"SELECT role, CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs, "
        f"CAST(count(*) AS BIGINT) AS n_turns, "
        f"CAST(sum(len(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS BIGINT) "
        f"AS n_tokens FROM {table} GROUP BY role ORDER BY role"
    )


def conv_dedup(ds):
    """Whole-conversation exact dedup: ``(conv_id, content_hash,
    keep)`` sorted by conv_id, where ``content_hash`` is the md5 hex
    of the conversation's per-turn text md5s joined by ``\\x1f`` in
    turn_idx order and ``keep`` marks the lexicographically-smallest
    conv_id per hash (the canonical copy).

    Scale shape (round 5): each turn's text is digested to a 32-hex
    md5 inside a shuffle-free ``map_batches`` pass, so the
    ``groupby(conv_id)`` exchange carries ~40 B/turn of digests
    instead of the raw text — at 10^12 turns of ~0.5 KB that is a
    ~15× smaller all-to-all with identical dedup semantics (md5 of
    ordered turn-md5s equates exactly the conversations whose ordered
    turn texts are equal).  The hash → canonical-min resolution
    reuses :func:`raysearch.util.copartition_attach` over the
    n_convs-row hash table."""
    from raysearch.util import copartition_attach

    def turn_digest(b: pa.Table) -> pa.Table:
        th = [
            hashlib.md5(t.encode()).hexdigest()
            for t in b["text"].to_pylist()
        ]
        return pa.table(
            {
                "conv_id": b["conv_id"],
                "turn_idx": b["turn_idx"],
                "th": pa.array(th, pa.string()),
            }
        )

    def conv_hash(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        h = hashlib.md5("\x1f".join(g["th"].tolist()).encode()).hexdigest()
        return pd.DataFrame(
            {"conv_id": [g["conv_id"].iloc[0]], "content_hash": [h]}
        )

    hashes = (
        ds.map_batches(turn_digest, batch_format="pyarrow")
        .groupby("conv_id")
        .map_groups(conv_hash, batch_format="pandas")
        .materialize()
    )

    def to_min(b: pa.Table) -> pa.Table:
        return pa.table(
            {"content_hash": b["content_hash"], "canon": b["conv_id"]}
        )

    from ray.data.aggregate import Min

    canon = (
        hashes.map_batches(to_min, batch_format="pyarrow")
        .groupby("content_hash")
        .aggregate(Min("canon", alias_name="canon"))
    )
    joined = copartition_attach(
        hashes,
        canon,
        key="content_hash",
        left_schema=pa.schema(
            [("conv_id", pa.string()), ("content_hash", pa.string())]
        ),
        payload={"canon": pa.string()},
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": b["conv_id"],
                "content_hash": b["content_hash"],
                "keep": pc.equal(b["conv_id"], b["canon"]),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow").sort("conv_id")


def conv_dedup_sql(table: str) -> str:
    """DuckDB twin of :func:`conv_dedup` (same per-turn digest, same
    separator byte, same min-conv_id canonical rule)."""
    return (
        f"WITH h AS (SELECT conv_id, "
        f"md5(string_agg(md5(text), chr(31) ORDER BY turn_idx)) "
        f"AS content_hash "
        f"FROM {table} GROUP BY conv_id) "
        f"SELECT conv_id, content_hash, "
        f"conv_id = min(conv_id) OVER (PARTITION BY content_hash) AS keep "
        f"FROM h ORDER BY conv_id"
    )


def tool_stats(ds):
    """Per-tool ``(tool, n_calls, n_convs)`` over tool-role turns,
    sorted by tool — agent-telemetry mix audit.  Same distinct-conv
    fold shape as :func:`role_stats`."""
    from ray.data.aggregate import Count, Sum

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(b["role"], pa.scalar("tool")),
            pc.not_equal(b["tool"], pa.scalar("")),
        )
        b = b.filter(keep)
        tools = b["tool"].to_numpy(zero_copy_only=False)
        convs = b["conv_id"].to_numpy(zero_copy_only=False)
        key = pd.MultiIndex.from_arrays([tools, convs])
        agg = pd.DataFrame({"n_calls": 1}, index=key).groupby(
            level=[0, 1], sort=True
        ).sum()
        return pa.table(
            {
                "tool": pa.array(
                    agg.index.get_level_values(0).to_numpy(object), pa.string()
                ),
                "conv_id": pa.array(
                    agg.index.get_level_values(1).to_numpy(object), pa.string()
                ),
                "n_calls": pa.array(agg["n_calls"].to_numpy(np.int64)),
            }
        )

    per_conv = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["tool", "conv_id"])
        .aggregate(Sum("n_calls", alias_name="n_calls"))
    )
    out = per_conv.groupby("tool").aggregate(
        Count(alias_name="n_convs"), Sum("n_calls", alias_name="n_calls")
    )

    def cast(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tool": b["tool"],
                "n_calls": pc.cast(b["n_calls"], pa.int64()),
                "n_convs": pc.cast(b["n_convs"], pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow").sort("tool")


def tool_stats_sql(table: str) -> str:
    """DuckDB twin of :func:`tool_stats`."""
    return (
        f"SELECT tool, CAST(count(*) AS BIGINT) AS n_calls, "
        f"CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs "
        f"FROM {table} WHERE role = 'tool' AND tool <> '' "
        f"GROUP BY tool ORDER BY tool"
    )


def turn_gap_stats(ds):
    """Per-conversation inter-turn latency profile: ``(conv_id,
    n_turns, total_gap_us, max_gap_us)`` sorted by conv_id, gaps =
    consecutive ``ts`` deltas in turn_idx order.  Exact int64
    microseconds end-to-end (no float folds); single-turn
    conversations report 0/0.  Per-conv work is one vectorized sort +
    diff inside the conversation's own group."""

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        ts = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        d = np.diff(ts)
        return pd.DataFrame(
            {
                "conv_id": [g["conv_id"].iloc[0]],
                "n_turns": np.int64(len(g)),
                "total_gap_us": d.sum() if len(d) else np.int64(0),
                "max_gap_us": d.max() if len(d) else np.int64(0),
            }
        ).astype(
            {
                "n_turns": "int64",
                "total_gap_us": "int64",
                "max_gap_us": "int64",
            }
        )

    return (
        ds.groupby("conv_id")
        .map_groups(gaps, batch_format="pandas")
        .sort("conv_id")
    )


def sft_pairs(ds):
    """Supervised-finetuning pair extraction: ``(conv_id, turn_idx,
    prompt, response)`` sorted by (conv_id, turn_idx) — one row per
    assistant turn whose immediate predecessor in turn_idx order is a
    user turn (prompt = that user text, response = the assistant
    text).  ``groupby(conv_id)`` routes each conversation to one
    group; inside, a vectorized pandas shift finds the adjacencies.
    Expects columns (conv_id, turn_idx, role, text)."""

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        prev_role = g["role"].shift(1)
        prev_text = g["text"].shift(1)
        m = (g["role"] == "assistant") & (prev_role == "user")
        return pd.DataFrame(
            {
                "conv_id": g.loc[m, "conv_id"].to_numpy(),
                "turn_idx": g.loc[m, "turn_idx"].to_numpy(),
                "prompt": prev_text[m].to_numpy(),
                "response": g.loc[m, "text"].to_numpy(),
            }
        )

    return (
        ds.groupby("conv_id")
        .map_groups(pairs, batch_format="pandas")
        .sort(["conv_id", "turn_idx"])
    )


def sft_pairs_sql(table: str) -> str:
    """DuckDB twin of :func:`sft_pairs`."""
    return (
        f"WITH w AS (SELECT conv_id, turn_idx, role, text, "
        f"lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_role, "
        f"lag(text) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_text "
        f"FROM {table}) "
        f"SELECT conv_id, turn_idx, prev_text AS prompt, text AS response "
        f"FROM w WHERE role = 'assistant' AND prev_role = 'user' "
        f"ORDER BY conv_id, turn_idx"
    )


def role_transitions(ds):
    """Global conversation-structure bigram counts: ``(prev_role,
    role, n)`` sorted by (prev_role, role), counting consecutive-turn
    role adjacencies in turn_idx order within each conversation.
    Per-conversation partials (a shift + value_counts, rows ≤ roles²)
    feed one small ``groupby((prev_role, role)).Sum`` — the exchange
    carries role-pair counts, never turns."""
    from ray.data.aggregate import Sum

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        prev = g["role"].shift(1)
        m = prev.notna()
        if not m.any():
            return pd.DataFrame(
                {"prev_role": [], "role": [], "n": []}
            ).astype({"prev_role": "object", "role": "object", "n": "int64"})
        key = pd.MultiIndex.from_arrays([prev[m], g["role"][m]])
        agg = pd.Series(1, index=key).groupby(level=[0, 1]).sum()
        return pd.DataFrame(
            {
                "prev_role": agg.index.get_level_values(0),
                "role": agg.index.get_level_values(1),
                "n": agg.to_numpy(np.int64),
            }
        )

    out = (
        ds.groupby("conv_id")
        .map_groups(partial, batch_format="pandas")
        .groupby(["prev_role", "role"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def cast(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "prev_role": b["prev_role"],
                "role": b["role"],
                "n": pc.cast(b["n"], pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow").sort(
        ["prev_role", "role"]
    )


def role_transitions_sql(table: str) -> str:
    """DuckDB twin of :func:`role_transitions`."""
    return (
        f"WITH w AS (SELECT conv_id, role, "
        f"lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_role "
        f"FROM {table}) "
        f"SELECT prev_role, role, CAST(count(*) AS BIGINT) AS n "
        f"FROM w WHERE prev_role IS NOT NULL "
        f"GROUP BY prev_role, role ORDER BY prev_role, role"
    )


#: assistant-share keep band in basis points (floor division — exact
#: integers end-to-end); conversations outside [lo, hi] are flagged
#: drop: below lo the assistant barely speaks (low training signal),
#: above hi it's a monologue (likely degenerate).
ASSISTANT_SHARE_LO_BP = 1000
ASSISTANT_SHARE_HI_BP = 9000


def assistant_share(
    ds,
    lo_bp: int = ASSISTANT_SHARE_LO_BP,
    hi_bp: int = ASSISTANT_SHARE_HI_BP,
):
    """Per-conversation assistant-token share: ``(conv_id, n_turns,
    assistant_tokens, total_tokens, share_bp, keep)`` sorted by
    conv_id, where ``share_bp = assistant_tokens * 10000 //
    total_tokens`` (int64 floor — no float anywhere) and ``keep``
    means lo_bp ≤ share_bp ≤ hi_bp with total_tokens > 0.  One
    per-batch partial + one ``groupby(conv_id)`` of four int sums —
    the exchange carries 4 ints per (batch, conv)."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        convs = b["conv_id"].to_numpy(zero_copy_only=False)
        toks = (
            pc.count_substring_regex(
                pc.utf8_lower(b["text"]), pattern=SIMPLE_TOKEN_RUN
            )
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        is_a = pc.equal(b["role"], pa.scalar("assistant")).to_numpy(
            zero_copy_only=False
        )
        df = pd.DataFrame(
            {
                "n_turns": np.int64(1),
                "assistant_tokens": np.where(is_a, toks, 0),
                "total_tokens": toks,
            },
            index=convs,
        )
        agg = df.groupby(level=0, sort=True).sum()
        return pa.table(
            {
                "conv_id": pa.array(agg.index.to_numpy(object), pa.string()),
                "n_turns": pa.array(agg["n_turns"].to_numpy(np.int64)),
                "assistant_tokens": pa.array(
                    agg["assistant_tokens"].to_numpy(np.int64)
                ),
                "total_tokens": pa.array(
                    agg["total_tokens"].to_numpy(np.int64)
                ),
            }
        )

    per_conv = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("assistant_tokens", alias_name="assistant_tokens"),
            Sum("total_tokens", alias_name="total_tokens"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        at = b["assistant_tokens"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        tt = b["total_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        share = np.where(tt > 0, (at * 10000) // np.maximum(tt, 1), 0)
        keep = (tt > 0) & (share >= lo_bp) & (share <= hi_bp)
        return pa.table(
            {
                "conv_id": b["conv_id"],
                "n_turns": pc.cast(b["n_turns"], pa.int64()),
                "assistant_tokens": pa.array(at),
                "total_tokens": pa.array(tt),
                "share_bp": pa.array(share.astype(np.int64)),
                "keep": pa.array(keep),
            }
        )

    return per_conv.map_batches(finish, batch_format="pyarrow").sort("conv_id")


def assistant_share_sql(
    table: str,
    lo_bp: int = ASSISTANT_SHARE_LO_BP,
    hi_bp: int = ASSISTANT_SHARE_HI_BP,
) -> str:
    """DuckDB twin of :func:`assistant_share` (same floor-division
    basis points, same keep band)."""
    ntok = "len(regexp_extract_all(lower(text), '[a-z0-9]+'))"
    return (
        f"WITH c AS (SELECT conv_id, "
        f"CAST(count(*) AS BIGINT) AS n_turns, "
        f"CAST(sum(CASE WHEN role = 'assistant' THEN {ntok} ELSE 0 END) "
        f"AS BIGINT) AS assistant_tokens, "
        f"CAST(sum({ntok}) AS BIGINT) AS total_tokens "
        f"FROM {table} GROUP BY conv_id) "
        f"SELECT conv_id, n_turns, assistant_tokens, total_tokens, "
        f"CASE WHEN total_tokens > 0 THEN "
        f"(assistant_tokens * 10000) // total_tokens ELSE 0 END AS share_bp, "
        f"(total_tokens > 0 AND "
        f"(assistant_tokens * 10000) // total_tokens BETWEEN {lo_bp} AND {hi_bp}) "
        f"AS keep FROM c ORDER BY conv_id"
    )


def role_run_stats(ds):
    """Gaps-and-islands over turn roles: ``(conv_id, role, max_run,
    n_runs)`` sorted by (conv_id, role) — the longest consecutive
    same-role run and the number of runs, per conversation and role.
    A long ``tool`` run is a stuck agent loop; a long ``assistant``
    run is a monologue.  Per-conv work is one vectorized
    boundary-diff; output is bounded by convs × roles."""

    def runs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        roles = g["role"].to_numpy(object)
        # run boundaries: position 0 plus every role change
        change = np.flatnonzero(
            np.concatenate(([True], roles[1:] != roles[:-1]))
        )
        lengths = np.diff(np.append(change, len(roles)))
        run_roles = roles[change]
        df = pd.DataFrame({"role": run_roles, "len": lengths})
        agg = df.groupby("role", sort=True)["len"].agg(["max", "count"])
        return pd.DataFrame(
            {
                "conv_id": g["conv_id"].iloc[0],
                "role": agg.index.to_numpy(object),
                "max_run": agg["max"].to_numpy(np.int64),
                "n_runs": agg["count"].to_numpy(np.int64),
            }
        )

    return (
        ds.groupby("conv_id")
        .map_groups(runs, batch_format="pandas")
        .sort(["conv_id", "role"])
    )


def role_run_stats_sql(table: str) -> str:
    """DuckDB twin of :func:`role_run_stats` (row_number-difference
    islands)."""
    return (
        f"WITH s AS (SELECT conv_id, role, "
        f"row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) - "
        f"row_number() OVER (PARTITION BY conv_id, role ORDER BY turn_idx) "
        f"AS grp FROM {table}), "
        f"r AS (SELECT conv_id, role, grp, count(*) AS run_len "
        f"FROM s GROUP BY conv_id, role, grp) "
        f"SELECT conv_id, role, CAST(max(run_len) AS BIGINT) AS max_run, "
        f"CAST(count(*) AS BIGINT) AS n_runs "
        f"FROM r GROUP BY conv_id, role ORDER BY conv_id, role"
    )


def conv_truncate(ds, k: int):
    """Context-length truncation: keep each conversation's LAST ``k``
    turns — ``(conv_id, turn_idx, role, text)`` sorted by (conv_id,
    turn_idx).  The standard pre-packing window: recent context
    matters most, old turns drop.  Per-conv work is a sort + tail."""

    def tail(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("turn_idx").tail(k)[
            ["conv_id", "turn_idx", "role", "text"]
        ]

    return (
        ds.groupby("conv_id")
        .map_groups(tail, batch_format="pandas")
        .sort(["conv_id", "turn_idx"])
    )


def conv_truncate_sql(table: str, k: int) -> str:
    """DuckDB twin of :func:`conv_truncate`."""
    return (
        f"SELECT conv_id, turn_idx, role, text FROM {table} "
        f"QUALIFY row_number() OVER "
        f"(PARTITION BY conv_id ORDER BY turn_idx DESC) <= {k} "
        f"ORDER BY conv_id, turn_idx"
    )


def boilerplate_turns(ds, k: int = 20, min_count: int = 2):
    """Top-``k`` most-repeated exact turn texts: ``(text, n_turns,
    n_convs)`` ordered by (n_turns desc, text asc), texts appearing
    fewer than ``min_count`` times dropped.  Canned greetings / error
    templates / refusal boilerplate surface here first.

    Per-batch partials collapse duplicate (text, conv) rows before
    the exchange; the distinct-conv count is the same (key, conv)
    fold as :func:`role_stats`.  The final sort runs over the
    min_count-filtered distinct-text table and the result is
    ``limit(k)``-bounded."""
    from ray.data.aggregate import Count, Sum

    def partial(b: pa.Table) -> pa.Table:
        texts = b["text"].to_numpy(zero_copy_only=False)
        convs = b["conv_id"].to_numpy(zero_copy_only=False)
        key = pd.MultiIndex.from_arrays([texts, convs])
        agg = pd.DataFrame({"n": 1}, index=key).groupby(
            level=[0, 1], sort=True
        ).sum()
        return pa.table(
            {
                "text": pa.array(
                    agg.index.get_level_values(0).to_numpy(object),
                    pa.string(),
                ),
                "conv_id": pa.array(
                    agg.index.get_level_values(1).to_numpy(object),
                    pa.string(),
                ),
                "n": pa.array(agg["n"].to_numpy(np.int64)),
            }
        )

    per_conv = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["text", "conv_id"])
        .aggregate(Sum("n", alias_name="n"))
    )
    per_text = per_conv.groupby("text").aggregate(
        Sum("n", alias_name="n_turns"), Count(alias_name="n_convs")
    )

    def finish(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "text": b["text"],
                "n_turns": pc.cast(b["n_turns"], pa.int64()),
                "n_convs": pc.cast(b["n_convs"], pa.int64()),
            }
        )
        return t.filter(pc.greater_equal(t["n_turns"], min_count))

    return (
        per_text.map_batches(finish, batch_format="pyarrow")
        .sort(["n_turns", "text"], descending=[True, False])
        .limit(k)
    )


def boilerplate_turns_sql(table: str, k: int = 20, min_count: int = 2) -> str:
    """DuckDB twin of :func:`boilerplate_turns` (same tie-break)."""
    return (
        f"SELECT text, CAST(count(*) AS BIGINT) AS n_turns, "
        f"CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs "
        f"FROM {table} GROUP BY text HAVING count(*) >= {min_count} "
        f"ORDER BY n_turns DESC, text LIMIT {k}"
    )


def turn_rate(ds):
    """Hourly collection-rate audit: ``(hour, n_turns, n_convs)``
    sorted by hour, where ``hour`` is ``ts`` floored to the hour and
    ``n_convs`` counts conversations ACTIVE in that hour (same
    (hour, conv) fold as :func:`role_stats` — never a distinct
    operator).  Exact integer microsecond arithmetic."""
    from ray.data.aggregate import Count, Sum

    US_PER_HOUR = 3_600_000_000

    def partial(b: pa.Table) -> pa.Table:
        ts = (
            pc.cast(b["ts"], pa.timestamp("us"))
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        hours = (ts // US_PER_HOUR) * US_PER_HOUR
        convs = b["conv_id"].to_numpy(zero_copy_only=False)
        key = pd.MultiIndex.from_arrays([hours, convs])
        agg = pd.DataFrame({"n": 1}, index=key).groupby(
            level=[0, 1], sort=True
        ).sum()
        return pa.table(
            {
                "hour_us": pa.array(
                    agg.index.get_level_values(0).to_numpy(np.int64)
                ),
                "conv_id": pa.array(
                    agg.index.get_level_values(1).to_numpy(object),
                    pa.string(),
                ),
                "n": pa.array(agg["n"].to_numpy(np.int64)),
            }
        )

    per_conv = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["hour_us", "conv_id"])
        .aggregate(Sum("n", alias_name="n"))
    )
    out = per_conv.groupby("hour_us").aggregate(
        Sum("n", alias_name="n_turns"), Count(alias_name="n_convs")
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour": pc.cast(
                    pc.cast(b["hour_us"], pa.int64()), pa.timestamp("us")
                ),
                "n_turns": pc.cast(b["n_turns"], pa.int64()),
                "n_convs": pc.cast(b["n_convs"], pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow").sort("hour")


def turn_rate_sql(table: str) -> str:
    """DuckDB twin of :func:`turn_rate`."""
    return (
        f"SELECT date_trunc('hour', ts) AS hour, "
        f"CAST(count(*) AS BIGINT) AS n_turns, "
        f"CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs "
        f"FROM {table} GROUP BY hour ORDER BY hour"
    )


def _tool_durations(ds):
    """``(tool, dur_us)`` rows for every TIMED tool-role turn — the
    shared first stage of :func:`tool_latency` and
    :func:`tool_latency_quantiles`: per conversation (turn_idx
    order), a tool turn's latency is the exact int64-µs gap to the
    next turn; final turns have no successor and are untimed.
    Per-conv work is one vectorized shift; the exchange carries
    (tool, dur) rows for tool turns only."""

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        ts = g["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        dur = np.empty(len(g), dtype=np.int64)
        if len(g) > 1:
            dur[:-1] = ts[1:] - ts[:-1]
        m = (
            (g["role"].to_numpy(object) == "tool")
            & (g["tool"].to_numpy(object) != "")
            & (np.arange(len(g)) < len(g) - 1)
        )
        return pd.DataFrame(
            {
                "tool": g["tool"].to_numpy(object)[m],
                "dur_us": dur[m],
            }
        )

    return ds.groupby("conv_id").map_groups(partial, batch_format="pandas")


def tool_latency(ds):
    """Per-tool execution-time profile: ``(tool, n_timed, total_us,
    max_us)`` sorted by tool (:func:`_tool_durations` for the timing
    rule)."""
    from ray.data.aggregate import Count, Max, Sum

    timed = _tool_durations(ds)
    out = timed.groupby("tool").aggregate(
        Count(alias_name="n_timed"),
        Sum("dur_us", alias_name="total_us"),
        Max("dur_us", alias_name="max_us"),
    )

    def cast(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tool": b["tool"],
                "n_timed": pc.cast(b["n_timed"], pa.int64()),
                "total_us": pc.cast(b["total_us"], pa.int64()),
                "max_us": pc.cast(b["max_us"], pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow").sort("tool")


def tool_latency_quantiles(ds, qs=(0.5, 0.9, 0.99)):
    """Exact per-tool latency percentiles ``(tool, q, value)`` — the
    p50/p90/p99 tool-telemetry dashboard, composed from
    :func:`_tool_durations` (the tool_latency timing rule) and
    :func:`raysearch.pipelines.profile.exact_quantiles_by` (the
    grouped integer-domain exact-quantile histogram: fold and driver
    pull bounded by tools × distinct durations, no global sort)."""
    from raysearch.pipelines.profile import exact_quantiles_by

    return exact_quantiles_by(
        _tool_durations(ds), "dur_us", list(qs), group_col="tool"
    )


def tool_latency_quantiles_sql(table: str, qs=(0.5, 0.9, 0.99)) -> str:
    """DuckDB twin of :func:`tool_latency_quantiles`
    (quantile_disc per q, UNION ALL — the lang_length_quantiles
    oracle shape over the tool_latency timing CTE)."""
    cte = (
        f"WITH w AS (SELECT conv_id, role, tool, "
        f"epoch_us(lead(ts) OVER (PARTITION BY conv_id ORDER BY turn_idx)) "
        f"- epoch_us(ts) AS dur FROM {table}), "
        "t AS (SELECT tool, dur FROM w WHERE role = 'tool' "
        "AND tool <> '' AND dur IS NOT NULL) "
    )
    body = " UNION ALL ".join(
        f"SELECT tool, CAST({q} AS DOUBLE) AS q, "
        f"CAST(quantile_disc(dur, {q}) AS BIGINT) AS value "
        "FROM t GROUP BY tool"
        for q in qs
    )
    return cte + "SELECT * FROM (" + body + ") ORDER BY tool, q"


def tool_latency_sql(table: str) -> str:
    """DuckDB twin of :func:`tool_latency`."""
    return (
        f"WITH w AS (SELECT conv_id, role, tool, "
        f"epoch_us(lead(ts) OVER (PARTITION BY conv_id ORDER BY turn_idx)) "
        f"- epoch_us(ts) AS dur FROM {table}) "
        f"SELECT tool, CAST(count(*) AS BIGINT) AS n_timed, "
        f"CAST(sum(dur) AS BIGINT) AS total_us, "
        f"CAST(max(dur) AS BIGINT) AS max_us "
        f"FROM w WHERE role = 'tool' AND tool <> '' AND dur IS NOT NULL "
        f"GROUP BY tool ORDER BY tool"
    )


def conv_similarity_pairs(ds, threshold: float = 0.22, shingle: int = 1):
    """EXACT all-pairs conversation similarity: ``(conv_a, conv_b,
    jaccard)`` sorted by (conv_a, conv_b), where jaccard is computed
    over each conversation's distinct token-shingle set (turn texts
    joined by a space in turn_idx order) and pairs below ``threshold``
    drop.  Related / near-duplicate conversation detection one level
    above :func:`conv_dedup`'s byte-exact hash.

    Delegates to :func:`raysearch.pipelines.dedup.
    prefix_jaccard_pairs` (complete prefix-filtering plan — no missed
    pair) over a conversation-concatenated doc table; like the doc-
    level exact-Jaccard family this is a verification-scale setting —
    at low τ the prefix bound covers most of each set.  Expects
    ``conv-%08d``-style ids (the numeric suffix becomes the int64
    doc id the pair machinery requires; zero-padding makes string
    order equal numeric order)."""
    from raysearch.pipelines.dedup import prefix_jaccard_pairs

    def concat(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        cid = g["conv_id"].iloc[0]
        return pd.DataFrame(
            {
                "doc_id": [np.int64(int(cid.rsplit("-", 1)[1]))],
                "text": [" ".join(g["text"].tolist())],
            }
        )

    docs = ds.groupby("conv_id").map_groups(concat, batch_format="pandas")
    pairs = prefix_jaccard_pairs(docs, threshold=threshold, shingle=shingle)

    def fmt(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy(zero_copy_only=False)
        c = b["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "conv_a": pa.array(
                    [f"conv-{int(x):08d}" for x in a], pa.string()
                ),
                "conv_b": pa.array(
                    [f"conv-{int(x):08d}" for x in c], pa.string()
                ),
                "jaccard": b["jaccard"],
            }
        )

    return pairs.map_batches(fmt, batch_format="pyarrow").sort(
        ["conv_a", "conv_b"]
    )


def conv_similarity_pairs_sql(table: str, threshold: float = 0.22) -> str:
    """DuckDB twin of :func:`conv_similarity_pairs` (unigram sets,
    shingle=1; same tokenizer split and 4-dp rounding as the doc-level
    jaccard oracle)."""
    return (
        f"WITH docs AS (SELECT conv_id, "
        f"string_agg(text, ' ' ORDER BY turn_idx) AS text "
        f"FROM {table} GROUP BY conv_id), "
        f"arr AS (SELECT conv_id, list_filter(string_split_regex(lower(text), "
        f"'[^a-z0-9]+'), x -> x <> '') AS toks FROM docs), "
        f"sh AS (SELECT DISTINCT conv_id, UNNEST(toks) AS tok FROM arr), "
        f"sizes AS (SELECT conv_id, count(*) AS n FROM sh GROUP BY 1), "
        f"inter AS (SELECT a.conv_id AS conv_a, b.conv_id AS conv_b, "
        f"count(*) AS i FROM sh a JOIN sh b USING (tok) "
        f"WHERE a.conv_id < b.conv_id GROUP BY 1, 2) "
        f"SELECT conv_a, conv_b, "
        f"round(i * 1.0 / (sa.n + sb.n - i), 4) AS jaccard "
        f"FROM inter JOIN sizes sa ON sa.conv_id = conv_a "
        f"JOIN sizes sb ON sb.conv_id = conv_b "
        f"WHERE i * 1.0 / (sa.n + sb.n - i) >= {threshold} "
        f"ORDER BY conv_a, conv_b"
    )


def conv_curation(
    ds,
    lo_bp: int = ASSISTANT_SHARE_LO_BP,
    hi_bp: int = ASSISTANT_SHARE_HI_BP,
    k: int = 8,
):
    """Composed conversation-curation flagship: keep conversations
    that pass BOTH the assistant-token-share band
    (:func:`assistant_share`) and whole-conversation exact dedup
    (:func:`conv_dedup`), truncate each survivor to its last ``k``
    turns (:func:`conv_truncate`), and extract SFT ``(prompt,
    response)`` pairs (:func:`sft_pairs`) — the end-to-end SFT
    data-prep a training pipeline runs nightly.

    Scale shape: the two keep decisions are per-conversation tables
    (one row per conv, never per turn); their AND is one small
    groupby, and the turn stream is filtered by ONE semi-join
    (:func:`raysearch.util.copartition_attach`, ``semi=True``) before
    the truncate/extract tail.  Expects columns (conv_id, turn_idx,
    role, text)."""
    from ray.data.aggregate import Min

    from raysearch.util import copartition_attach

    share = assistant_share(
        ds.select_columns(["conv_id", "role", "text"]), lo_bp, hi_bp
    )
    dedup = conv_dedup(ds.select_columns(["conv_id", "turn_idx", "text"]))

    def keep_rows(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "conv_id": b["conv_id"],
                "ok": pc.cast(b["keep"], pa.int64()),
            }
        )
        return t

    both = (
        share.map_batches(keep_rows, batch_format="pyarrow")
        .union(dedup.map_batches(keep_rows, batch_format="pyarrow"))
        .groupby("conv_id")
        .aggregate(Min("ok", alias_name="ok"))
    )

    def kept_only(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(pc.cast(b["ok"], pa.int64()), 1))
        return b.select(["conv_id"])

    kept = both.map_batches(kept_only, batch_format="pyarrow")
    turns = copartition_attach(
        ds.select_columns(["conv_id", "turn_idx", "role", "text"]),
        kept,
        key="conv_id",
        left_schema=pa.schema(
            [
                ("conv_id", pa.string()),
                ("turn_idx", pa.int32()),
                ("role", pa.string()),
                ("text", pa.string()),
            ]
        ),
        payload={},
        semi=True,
    )

    # Fused truncate+pair tail (round 5): ``sft_pairs(conv_truncate(
    # turns, k))`` would shuffle the surviving turn stream by conv_id
    # TWICE more (each helper owns a groupby + a pinned global sort)
    # right after the semi-join above already hash-exchanged it.  Both
    # steps are per-conversation transforms, so one map_groups does
    # tail-k and adjacency extraction in a single pass — same rows,
    # same (conv_id, turn_idx) final order, two full-text all-to-alls
    # saved (the composed path's dominant cost at 10^12-turn scale).
    def tail_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx").tail(k)
        prev_role = g["role"].shift(1)
        prev_text = g["text"].shift(1)
        m = (g["role"] == "assistant") & (prev_role == "user")
        return pd.DataFrame(
            {
                "conv_id": g.loc[m, "conv_id"].to_numpy(),
                "turn_idx": g.loc[m, "turn_idx"].to_numpy(),
                "prompt": prev_text[m].to_numpy(),
                "response": g.loc[m, "text"].to_numpy(),
            }
        )

    return (
        turns.groupby("conv_id")
        .map_groups(tail_pairs, batch_format="pandas")
        .sort(["conv_id", "turn_idx"])
    )


def conv_curation_sql(
    table: str,
    lo_bp: int = ASSISTANT_SHARE_LO_BP,
    hi_bp: int = ASSISTANT_SHARE_HI_BP,
    k: int = 8,
) -> str:
    """DuckDB twin of :func:`conv_curation` — the component twins
    chained as CTEs (same share band, same dedup canonical rule, same
    truncation window, same pair adjacency)."""
    ntok = "len(regexp_extract_all(lower(text), '[a-z0-9]+'))"
    return (
        f"WITH share AS (SELECT conv_id, "
        f"CAST(sum(CASE WHEN role = 'assistant' THEN {ntok} ELSE 0 END) "
        f"AS BIGINT) AS a, CAST(sum({ntok}) AS BIGINT) AS t "
        f"FROM {table} GROUP BY conv_id), "
        f"skeep AS (SELECT conv_id FROM share WHERE t > 0 "
        f"AND (a * 10000) // t BETWEEN {lo_bp} AND {hi_bp}), "
        f"h AS (SELECT conv_id, "
        f"md5(string_agg(md5(text), chr(31) ORDER BY turn_idx)) AS ch "
        f"FROM {table} GROUP BY conv_id), "
        f"dkeep AS (SELECT conv_id FROM h "
        f"QUALIFY conv_id = min(conv_id) OVER (PARTITION BY ch)), "
        f"kept AS (SELECT conv_id FROM skeep INTERSECT "
        f"SELECT conv_id FROM dkeep), "
        f"trunc AS (SELECT conv_id, turn_idx, role, text FROM ("
        f"SELECT t.conv_id, t.turn_idx, t.role, t.text, "
        f"row_number() OVER "
        f"(PARTITION BY t.conv_id ORDER BY t.turn_idx DESC) AS rn "
        f"FROM {table} t JOIN kept USING (conv_id)) WHERE rn <= {k}), "
        f"w AS (SELECT conv_id, turn_idx, role, text, "
        f"lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS pr, "
        f"lag(text) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS pt "
        f"FROM trunc) "
        f"SELECT conv_id, turn_idx, pt AS prompt, text AS response "
        f"FROM w WHERE role = 'assistant' AND pr = 'user' "
        f"ORDER BY conv_id, turn_idx"
    )


def turn_gap_stats_sql(table: str) -> str:
    """DuckDB twin of :func:`turn_gap_stats`."""
    return (
        f"WITH g AS (SELECT conv_id, "
        f"epoch_us(ts) - lag(epoch_us(ts)) OVER "
        f"(PARTITION BY conv_id ORDER BY turn_idx) AS gap FROM {table}) "
        f"SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns, "
        f"CAST(COALESCE(sum(gap), 0) AS BIGINT) AS total_gap_us, "
        f"CAST(COALESCE(max(gap), 0) AS BIGINT) AS max_gap_us "
        f"FROM g GROUP BY conv_id ORDER BY conv_id"
    )


def tool_ngrams(ds):
    """Global tool-CALL-sequence bigram counts ``(prev_tool, tool,
    n)`` — the agent-workflow mining sibling of
    :func:`role_transitions`: within each conversation, the tool-role
    turns in turn_idx order form the conversation's tool-call
    sequence; consecutive calls (intervening non-tool turns ignored)
    are counted as transitions.  Which tool tends to follow which is
    the first-order Markov audit of agent behavior.

    Same exchange shape as role_transitions: per-conversation partials
    (filter to tool turns, shift, value_counts — rows ≤ tools² per
    conversation) feed one small ``groupby((prev_tool,
    tool)).Sum``; the exchange carries tool-pair counts, never
    turns."""
    from ray.data.aggregate import Sum

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g[(g["role"] == "tool") & (g["tool"] != "")]
        g = g.sort_values("turn_idx")
        prev = g["tool"].shift(1)
        m = prev.notna()
        if not m.any():
            return pd.DataFrame(
                {"prev_tool": [], "tool": [], "n": []}
            ).astype({"prev_tool": "object", "tool": "object", "n": "int64"})
        key = pd.MultiIndex.from_arrays([prev[m], g["tool"][m]])
        agg = pd.Series(1, index=key).groupby(level=[0, 1]).sum()
        return pd.DataFrame(
            {
                "prev_tool": agg.index.get_level_values(0),
                "tool": agg.index.get_level_values(1),
                "n": agg.to_numpy(np.int64),
            }
        )

    out = (
        ds.groupby("conv_id")
        .map_groups(partial, batch_format="pandas")
        .groupby(["prev_tool", "tool"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def cast(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "prev_tool": b["prev_tool"],
                "tool": b["tool"],
                "n": pc.cast(b["n"], pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow").sort(
        ["prev_tool", "tool"]
    )


def tool_ngrams_sql(table: str) -> str:
    """DuckDB twin of :func:`tool_ngrams` (LAG over the tool-turn
    subsequence)."""
    return (
        "WITH t AS (SELECT conv_id, turn_idx, tool FROM "
        f"{table} WHERE role = 'tool' AND tool <> ''), "
        "w AS (SELECT tool, lag(tool) OVER (PARTITION BY conv_id "
        "ORDER BY turn_idx) AS prev_tool FROM t) "
        "SELECT prev_tool, tool, CAST(count(*) AS BIGINT) AS n "
        "FROM w WHERE prev_tool IS NOT NULL "
        "GROUP BY 1, 2 ORDER BY 1, 2"
    )


_DAY_US = 86_400_000_000


def trending_terms(ds, k: int = 10):
    """Top-``k`` tokens per DAY of the transcript stream ``(day,
    term, n, rk)`` — the trending-terms dashboard window (what is
    the corpus talking about today?): day-bucketed token counts with
    an exact distributed per-day top-k.

    Plan: per-batch tokenize (the SQL-parity simple lexer) + one
    in-batch (day, term) fold → ``groupby((day, term)).Sum`` —
    exchange bounded by days × vocabulary, never tokens —
    → :func:`raysearch.pipelines.sampling.group_topn` (block-local
    partial top-k, candidate-bounded fold; ties pinned n DESC, term
    ASC) → ``sort((day, rk))``.  Day dtype pinned to timestamp[us]
    (the active_users lesson: pandas-routed folds degrade
    timestamp precision partitioning-dependently)."""
    from ray.data.aggregate import Sum

    from raysearch.lex import Lexer
    from raysearch.pipelines.sampling import group_topn

    def partial(b: pa.Table) -> pa.Table:
        lexer = _LEX_CACHE.get("simple")
        if lexer is None:
            lexer = _LEX_CACHE["simple"] = Lexer("simple")
        day = pc.cast(
            pc.floor_temporal(b["ts"], unit="day"), pa.timestamp("us")
        ).to_numpy(zero_copy_only=False)
        parent, codes, uniq = lexer.token_parent_codes(b["text"])
        if len(codes) == 0:
            return pa.table(
                {
                    "day": pa.array([], pa.timestamp("us")),
                    "term": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        # pack (day ordinal, term code): epoch µs × vocabulary would
        # overflow int64 past ~5k distinct terms per batch
        tok_day = day[parent].astype("datetime64[us]").astype(np.int64) // _DAY_US
        key = tok_day * np.int64(len(uniq)) + codes
        ukey, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "day": pa.array(
                    ((ukey // len(uniq)) * _DAY_US).astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
                "term": pa.array(
                    uniq[(ukey % len(uniq)).astype(np.int64)], pa.string()
                ),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["day", "term"])
        .aggregate(Sum("n", alias_name="n"))
    )
    top = group_topn(
        counts, group_col="day", order_col="n", n=k, id_col="term"
    )
    return top.map_batches(
        lambda b: pa.table(
            {
                "day": pc.cast(b["day"], pa.timestamp("us")),
                "term": b["term"],
                "n": pc.cast(b["n"], pa.int64()),
                "rk": pc.cast(b["rk"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).sort(["day", "rk"])


def trending_terms_sql(table: str, k: int = 10) -> str:
    """DuckDB twin of :func:`trending_terms` (same tie pins)."""
    return (
        "WITH t AS (SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) "
        "AS day, u.term FROM (SELECT ts, unnest("
        "regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term "
        f"FROM {table}) u(ts, term) WHERE u.term <> ''), "
        "c AS (SELECT day, term, count(*) AS n FROM t GROUP BY 1, 2), "
        "r AS (SELECT day, term, n, row_number() OVER ("
        "PARTITION BY day ORDER BY n DESC, term) AS rk FROM c) "
        "SELECT day, term, CAST(n AS BIGINT) AS n, "
        f"CAST(rk AS BIGINT) AS rk FROM r WHERE rk <= {k} "
        "ORDER BY day, rk"
    )
