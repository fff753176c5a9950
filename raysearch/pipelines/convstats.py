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

All stream: per-batch partials feed one or two small hash
aggregates, and work over a conversation's ordered turns runs as a
whole-block Arrow pass (:func:`_key_blocks`): after ``sort(conv_id)``
one call per block handles all of its conversations with group
offsets, segment reductions and shifted masks — no per-group
pandas ``map_groups``.
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


def _simple_tokens(text) -> np.ndarray:
    """Simple-mode token count of each turn (int64, null text → 0)."""
    return (
        pc.count_substring_regex(pc.utf8_lower(text), pattern=SIMPLE_TOKEN_RUN)
        .fill_null(0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )


def _is_role(b: pa.Table, role: str) -> np.ndarray:
    """Mask of the turns with this role (a null role matches none)."""
    m = pc.equal(b["role"], role).fill_null(False)
    return m.to_numpy(zero_copy_only=False)


def _ts_us(ts) -> np.ndarray:
    """Timestamps as int64 epoch microseconds."""
    us = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
    return us.to_numpy(zero_copy_only=False)


def _turn_tokens(b: pa.Table):
    """Each turn's ``(assistant tokens, tokens)``: the share's addends."""
    toks = _simple_tokens(b["text"])
    return np.where(_is_role(b, "assistant"), toks, 0), toks


def _share_band(at: np.ndarray, tt: np.ndarray, lo_bp: int, hi_bp: int):
    """``(share_bp, keep)`` from assistant / total token sums: int64
    floor basis points (0 when there are no tokens) and the
    lo_bp ≤ share_bp ≤ hi_bp band over conversations with tokens."""
    share = np.where(tt > 0, (at * 10000) // np.maximum(tt, 1), 0)
    return share, (tt > 0) & (share >= lo_bp) & (share <= hi_bp)


def _key_blocks(ds, key: str, fn):
    """Apply ``fn`` to each block of ``ds.sort(key)`` as one Arrow
    table.  The sort range-partitions on ``key``, so no group spans two
    blocks — the guarantee ``groupby(key).map_groups`` rests on under
    the default sort shuffle — but ``fn`` runs once per block, not once
    per group.  (``Dataset.repartition(keys=…)`` needs the hash-shuffle
    strategy, a global ``DataContext`` setting.)"""
    return ds.sort(key).map_batches(
        fn, batch_size=None, batch_format="pyarrow"
    )


def _groups(b: pa.Table, keys: list[str]):
    """``b`` sorted by ``keys``, and the int64 row offsets at which
    ``keys[0]`` changes: one start per group."""
    b = b.take(pc.sort_indices(b, sort_keys=[(k, "ascending") for k in keys]))
    col = b[keys[0]].combine_chunks()
    if len(col) == 0:
        return b, np.zeros(0, np.int64)
    change = pc.not_equal(col[1:], col[:-1]).to_numpy(zero_copy_only=False)
    return b, np.flatnonzero(np.concatenate(([True], change)))


def _group_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """Group number of each of ``n`` rows, given the group starts."""
    return np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))


def _tail_pairs(b: pa.Table, starts: np.ndarray, k: int | None = None):
    """Row masks over a block sorted by (conv_id, turn_idx) with
    conversation ``starts``: ``window`` marks each conversation's last
    ``k`` turns (every turn when ``k`` is None); ``pair`` marks the
    assistant turns whose predecessor is a user turn of the same
    conversation, inside that window (a null role matches neither)."""
    n = b.num_rows
    gid = _group_ids(starts, n)
    pos = np.arange(n) - starts[gid]
    lens = np.diff(np.append(starts, n))
    window = np.ones(n, bool) if k is None else pos >= lens[gid] - k
    pair = np.zeros(n, bool)
    pair[1:] = (
        _is_role(b, "assistant")[1:]
        & _is_role(b, "user")[:-1]
        & window[:-1]
        & (pos[1:] > 0)
    )
    return window, pair


def _pair_rows(b: pa.Table, idx: np.ndarray) -> pa.Table:
    """``(conv_id, turn_idx, prompt, response)`` for the rows ``idx``
    of a turn-ordered block: the prompt is the previous row's text."""
    return pa.table(
        {
            "conv_id": b["conv_id"].take(idx),
            "turn_idx": b["turn_idx"].take(idx),
            "prompt": b["text"].take(idx - 1),
            "response": b["text"].take(idx),
        }
    )


def _turn_digests(b: pa.Table) -> list[str]:
    """md5 hex of each turn's text.  Content hashes are defined over
    non-null text only: a null text raises ``ValueError`` naming its
    conversation."""
    text = b["text"]
    if text.null_count:
        conv = b["conv_id"].filter(pc.is_null(text))[0].as_py()
        raise ValueError(
            f"conversation {conv!r} has a null text turn; "
            "conversation content hashes need non-null text"
        )
    return [hashlib.md5(t.encode()).hexdigest() for t in text.to_pylist()]


def _conv_hashes(th: list[str], starts: np.ndarray) -> list[str]:
    """Each conversation's content hash: the md5 of its turn digests
    joined by ``\\x1f`` in turn order."""
    ends = np.append(starts[1:], len(th))
    return [
        hashlib.md5("\x1f".join(th[s:e]).encode()).hexdigest()
        for s, e in zip(starts, ends)
    ]


def _canonical(b: pa.Table):
    """``b`` sorted by (content_hash, conv_id), and a mask of the rows
    whose conv_id is the smallest of their content hash (the canonical
    copy).  ``b`` must hold whole content-hash groups."""
    b, starts = _groups(b, ["content_hash", "conv_id"])
    canon = b["conv_id"].take(starts[_group_ids(starts, b.num_rows)])
    return b, pc.equal(b["conv_id"], canon)


def _bigram_counts(col, starts: np.ndarray, prev: str, cur: str):
    """``(prev, cur, n)``: counts of the (previous value, value) pairs
    of consecutive rows of the same group in a group-ordered block,
    pairs holding a null left out."""
    has_prev = np.ones(len(col), bool)
    has_prev[starts] = False
    idx = np.flatnonzero(has_prev)
    t = pa.table({prev: col.take(idx - 1), cur: col.take(idx)})
    t = t.filter(pc.and_(pc.is_valid(t[prev]), pc.is_valid(t[cur])))
    agg = t.group_by([prev, cur]).aggregate([([], "count_all")])
    return pa.table({prev: agg[prev], cur: agg[cur], "n": agg["count_all"]})


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
        toks = _simple_tokens(b["text"])
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
    conv_id per hash (the canonical copy).  A null text turn raises
    ``ValueError`` naming its conversation.

    Plan: each turn's text is digested to a 32-hex md5 before the
    first exchange, so ``sort(conv_id)`` carries ~40 B/turn instead of
    the raw text.  One block pass (:func:`_key_blocks`) hashes every
    conversation of a block; ``sort(content_hash)`` then puts each
    hash's conversations in one block, where the canonical copy is the
    first of its hash group; a last ``sort(conv_id)`` orders the
    output.  Expects columns (conv_id, turn_idx, text)."""

    def digest(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": b["conv_id"],
                "turn_idx": b["turn_idx"],
                "th": pa.array(_turn_digests(b), pa.string()),
            }
        )

    def hash_convs(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        hashes = _conv_hashes(b["th"].to_pylist(), starts)
        return pa.table(
            {
                "conv_id": b["conv_id"].take(starts),
                "content_hash": pa.array(hashes, pa.string()),
            }
        )

    def mark_canonical(b: pa.Table) -> pa.Table:
        b, keep = _canonical(b)
        return b.append_column("keep", keep)

    hashes = _key_blocks(
        ds.map_batches(digest, batch_format="pyarrow"), "conv_id", hash_convs
    )
    return _key_blocks(hashes, "content_hash", mark_canonical).sort("conv_id")


def conv_dedup_sql(table: str) -> str:
    """DuckDB twin of :func:`conv_dedup` (same per-turn digest, same
    separator byte, same min-conv_id canonical rule).  It defines the
    result for non-null text only: :func:`conv_dedup` rejects a null
    text turn, while ``md5(NULL)`` drops out of ``string_agg`` here."""
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
    conversations report 0/0.  One whole-conversation block pass
    (:func:`_key_blocks`): a diff and two segment reductions."""

    def gaps(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        lens = np.diff(np.append(starts, b.num_rows))
        gap = np.diff(_ts_us(b["ts"]), prepend=np.int64(0))
        gap[starts] = 0  # a conversation's first turn has no gap
        top = gap.copy()
        top[starts] = np.iinfo(np.int64).min
        top = np.maximum.reduceat(top, starts)
        return pa.table(
            {
                "conv_id": b["conv_id"].take(starts),
                "n_turns": lens,
                "total_gap_us": np.add.reduceat(gap, starts),
                "max_gap_us": np.where(lens > 1, top, 0),
            }
        )

    return _key_blocks(ds, "conv_id", gaps).sort("conv_id")


def sft_pairs(ds):
    """Supervised-finetuning pair extraction: ``(conv_id, turn_idx,
    prompt, response)`` sorted by (conv_id, turn_idx) — one row per
    assistant turn whose immediate predecessor in turn_idx order is a
    user turn (prompt = that user text, response = the assistant
    text).  One whole-conversation block pass (:func:`_key_blocks`)
    finds the adjacencies with shifted role masks
    (:func:`_tail_pairs`).  Expects columns (conv_id, turn_idx, role,
    text)."""

    def pairs(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        _, pair = _tail_pairs(b, starts)
        return _pair_rows(b, np.flatnonzero(pair))

    return _key_blocks(ds, "conv_id", pairs).sort(["conv_id", "turn_idx"])


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
    Per-block partials (:func:`_key_blocks`; rows ≤ roles² per block)
    feed one small ``groupby((prev_role, role)).Sum`` — the exchange
    carries role-pair counts, never turns.  A pair with a null role on
    either side is not counted, so a null-role turn separates its
    neighbours (the twin filters the same pairs)."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        return _bigram_counts(b["role"], starts, "prev_role", "role")

    out = (
        _key_blocks(ds, "conv_id", partial)
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
    """DuckDB twin of :func:`role_transitions`.  A pair with a null
    role on either side is not counted: a null-role turn still sits
    between its neighbours (they form no pair), as in the operator."""
    return (
        f"WITH w AS (SELECT conv_id, role, "
        f"lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_role "
        f"FROM {table}) "
        f"SELECT prev_role, role, CAST(count(*) AS BIGINT) AS n "
        f"FROM w WHERE prev_role IS NOT NULL AND role IS NOT NULL "
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
    means lo_bp ≤ share_bp ≤ hi_bp with total_tokens > 0.  Each turn
    becomes its two token counts before the exchange, so
    ``sort(conv_id)`` carries two ints per turn, never text; one block
    pass (:func:`_key_blocks`) sums them per conversation."""

    def tokens(b: pa.Table) -> pa.Table:
        a, t = _turn_tokens(b)
        return pa.table({"conv_id": b["conv_id"], "a": a, "t": t})

    def per_conv(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id"])
        at = np.add.reduceat(b["a"].to_numpy(), starts)
        tt = np.add.reduceat(b["t"].to_numpy(), starts)
        share, keep = _share_band(at, tt, lo_bp, hi_bp)
        return pa.table(
            {
                "conv_id": b["conv_id"].take(starts),
                "n_turns": np.diff(np.append(starts, b.num_rows)),
                "assistant_tokens": at,
                "total_tokens": tt,
                "share_bp": share,
                "keep": keep,
            }
        )

    ds = ds.map_batches(tokens, batch_format="pyarrow")
    return _key_blocks(ds, "conv_id", per_conv).sort("conv_id")


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
    run is a monologue.  One whole-conversation block pass
    (:func:`_key_blocks`): run starts are the conversation starts plus
    every role change; output is bounded by convs × roles.  Runs of
    null-role turns are not reported, but a null-role turn still ends
    the run before it (the twin drops the same runs after its island
    detection)."""

    def runs(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        role = b["role"].combine_chunks()
        new = np.ones(b.num_rows, bool)
        if b.num_rows:
            change = pc.not_equal(role[1:], role[:-1]).fill_null(True)
            new[1:] = change.to_numpy(zero_copy_only=False)
        first = np.union1d(starts, np.flatnonzero(new))
        t = pa.table(
            {
                "conv_id": b["conv_id"].take(first),
                "role": role.take(first),
                "len": np.diff(np.append(first, b.num_rows)),
            }
        ).filter(pc.is_valid(role.take(first)))
        agg = t.group_by(["conv_id", "role"]).aggregate(
            [("len", "max"), ("len", "count")]
        )
        return pa.table(
            {
                "conv_id": agg["conv_id"],
                "role": agg["role"],
                "max_run": agg["len_max"],
                "n_runs": agg["len_count"],
            }
        )

    return _key_blocks(ds, "conv_id", runs).sort(["conv_id", "role"])


def role_run_stats_sql(table: str) -> str:
    """DuckDB twin of :func:`role_run_stats` (row_number-difference
    islands).  Runs of null-role turns are dropped after the islands
    are found, so a null-role turn still ends the run before it and
    starts a new one after it, as in the operator."""
    return (
        f"WITH s AS (SELECT conv_id, role, "
        f"row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) - "
        f"row_number() OVER (PARTITION BY conv_id, role ORDER BY turn_idx) "
        f"AS grp FROM {table}), "
        f"r AS (SELECT conv_id, role, grp, count(*) AS run_len "
        f"FROM s GROUP BY conv_id, role, grp) "
        f"SELECT conv_id, role, CAST(max(run_len) AS BIGINT) AS max_run, "
        f"CAST(count(*) AS BIGINT) AS n_runs "
        f"FROM r WHERE role IS NOT NULL "
        f"GROUP BY conv_id, role ORDER BY conv_id, role"
    )


def conv_truncate(ds, k: int):
    """Context-length truncation: keep each conversation's LAST ``k``
    turns — ``(conv_id, turn_idx, role, text)`` sorted by (conv_id,
    turn_idx).  The standard pre-packing window: recent context
    matters most, old turns drop.  One whole-conversation block pass
    (:func:`_key_blocks`) applies :func:`_tail_pairs`' window, the one
    :func:`conv_curation` truncates with."""

    def tail(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        window, _ = _tail_pairs(b, starts, k)
        return b.select(["conv_id", "turn_idx", "role", "text"]).filter(
            pa.array(window)
        )

    return _key_blocks(ds, "conv_id", tail).sort(["conv_id", "turn_idx"])


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
        hours = (_ts_us(b["ts"]) // US_PER_HOUR) * US_PER_HOUR
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
    next turn; final turns have no successor and are untimed.  One
    whole-conversation block pass (:func:`_key_blocks`); the exchange
    after it carries (tool, dur) rows for tool turns only."""

    def partial(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        n = b.num_rows
        dur = np.diff(_ts_us(b["ts"]), append=np.int64(0))
        timed = np.ones(n, bool)
        timed[starts - 1] = False  # a conversation's last turn
        timed &= _is_role(b, "tool")
        timed &= pc.not_equal(b["tool"], "").fill_null(False).to_numpy(
            zero_copy_only=False
        )
        idx = np.flatnonzero(timed)
        return pa.table({"tool": b["tool"].take(idx), "dur_us": dur[idx]})

    return _key_blocks(ds, "conv_id", partial)


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

    def concat(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        texts = b["text"].to_pylist()
        ends = np.append(starts[1:], len(texts))
        convs = b["conv_id"].take(starts).to_pylist()
        return pa.table(
            {
                "doc_id": pa.array(
                    [int(c.rsplit("-", 1)[1]) for c in convs], pa.int64()
                ),
                "text": [" ".join(texts[s:e]) for s, e in zip(starts, ends)],
            }
        )

    docs = _key_blocks(ds, "conv_id", concat)
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
    data-prep a training pipeline runs nightly.  A null text turn
    raises ``ValueError`` naming its conversation.

    Plan: three exchanges.  ``sort(conv_id)`` feeds one block pass
    (:func:`_key_blocks`) that computes, per conversation, the share
    band, the content hash and the last-``k`` user→assistant pairs; it
    emits the pairs of conversations inside the band plus one marker
    row (null turn_idx) per conversation, so the min-conv_id canonical
    rule sees every copy of a hash, in or out of the band.
    ``sort(content_hash)`` feeds a second block pass that keeps the
    pairs of each hash's canonical conversation; the final
    ``sort((conv_id, turn_idx))`` orders them.  Expects columns
    (conv_id, turn_idx, role, text); select them at the read, since
    any other column rides the first exchange."""

    def conv_pass(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        hashes = np.array(_conv_hashes(_turn_digests(b), starts), object)
        a, t = (np.add.reduceat(x, starts) for x in _turn_tokens(b))
        _, ok = _share_band(a, t, lo_bp, hi_bp)
        _, pair = _tail_pairs(b, starts, k)
        gid = _group_ids(starts, b.num_rows)
        idx = np.flatnonzero(pair & ok[gid])
        pairs = _pair_rows(b, idx).append_column(
            "content_hash", pa.array(hashes[gid[idx]], pa.string())
        )
        n, text_t = len(starts), b.schema.field("text").type
        markers = pa.table(
            {
                "conv_id": b["conv_id"].take(starts),
                "turn_idx": pa.nulls(n, b.schema.field("turn_idx").type),
                "prompt": pa.nulls(n, text_t),
                "response": pa.nulls(n, text_t),
                "content_hash": pa.array(hashes, pa.string()),
            }
        )
        return pa.concat_tables([markers, pairs])

    def canonical_pairs(b: pa.Table) -> pa.Table:
        b, keep = _canonical(b)
        b = b.filter(pc.and_(keep, pc.is_valid(b["turn_idx"])))
        return b.select(["conv_id", "turn_idx", "prompt", "response"])

    marked = _key_blocks(ds, "conv_id", conv_pass)
    return _key_blocks(marked, "content_hash", canonical_pairs).sort(
        ["conv_id", "turn_idx"]
    )


def conv_curation_sql(
    table: str,
    lo_bp: int = ASSISTANT_SHARE_LO_BP,
    hi_bp: int = ASSISTANT_SHARE_HI_BP,
    k: int = 8,
) -> str:
    """DuckDB twin of :func:`conv_curation` — the component twins
    chained as CTEs (same share band, same dedup canonical rule, same
    truncation window, same pair adjacency).  It defines the result
    for non-null text only: :func:`conv_curation` rejects a null text
    turn, while this query drops ``md5(NULL)`` from the content hash
    and the turn's tokens from the share."""
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

    Same exchange shape as role_transitions: per-block partials
    (filter to tool turns, then the same bigram count — rows ≤ tools²
    per block) feed one small ``groupby((prev_tool, tool)).Sum``; the
    exchange carries tool-pair counts, never turns."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        is_call = pc.not_equal(b["tool"], "").fill_null(False)
        b = b.filter(pc.and_(pc.equal(b["role"], "tool"), is_call))
        b, starts = _groups(b, ["conv_id", "turn_idx"])
        return _bigram_counts(b["tool"], starts, "prev_tool", "tool")

    out = (
        _key_blocks(ds, "conv_id", partial)
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
