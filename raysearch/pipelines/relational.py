"""Generic relational operators (groupby-aggregate, broadcast join,
windowed aggregate) demonstrated over the TPC-H-ish test tables.

These round out the engine's data-processing surface beyond full-text:
* ``revenue_by_flag`` — classic scan→project→aggregate with the
  projection/filter pushed into the read and partial aggregation in
  the map stage.
* ``top_customers`` — large⋈small broadcast hash join (ray.put the
  dimension side, merge inside map_batches) then a small groupby —
  the J4 pattern from SURVEY §2.4 generalized.
* ``events_window`` — tumbling event-time window aggregate over the
  events stream table (SURVEY §2.9: windows as groupby over a
  time-bucket column).

Aggregated doubles are rounded to 4 (or 2 for currency) decimals at
the boundary so the DuckDB oracle compares exactly despite summation
order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.util import (
    _group_ids,
    _groups,
    _key_blocks,
    _ts_us,
    round_half_away,
)


def revenue_by_flag(lineitem):
    """l_returnflag, l_linestatus → rounded revenue + qty sums + count."""
    from ray.data.aggregate import Count, Sum

    def project(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "l_quantity": batch["l_quantity"],
                "revenue": rev,
            }
        )

    agg = (
        lineitem.map_batches(project, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("revenue", alias_name="revenue"),
            Count(alias_name="n_rows"),
        )
    )

    def round_cols(batch: pd.DataFrame) -> pd.DataFrame:
        batch["sum_qty"] = round_half_away(batch["sum_qty"].to_numpy(), 2)
        batch["revenue"] = round_half_away(batch["revenue"].to_numpy(), 2)
        return batch

    return agg.map_batches(round_cols, batch_format="pandas")


def top_customers(orders, customer, k: int = 10):
    """Top-k customers by total order value: groupby-aggregate on the
    fact side only, Dataset-level ``sort(...).limit(k)`` for the
    reduce (the per-customer aggregate never lands on the driver), then
    the customer name attached to just the k winners by broadcasting
    the k winner KEYS and filtering the dimension distributed — the
    join is deferred past the top-k so the driver touches k rows, not
    |customers|, at any dimension width."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    agg = orders.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="total_spent"), Count(alias_name="n_orders")
    )

    def round_spend(batch: pd.DataFrame) -> pd.DataFrame:
        # round BEFORE the sort so ordering matches the SQL oracle's
        # ORDER BY round(...) DESC, o_custkey
        batch["total_spent"] = round_half_away(batch["total_spent"].to_numpy(), 2)
        return batch

    top = (
        agg.map_batches(round_spend, batch_format="pandas")
        .sort(["total_spent", "o_custkey"], descending=[True, False])
        .limit(k)
    )
    pdf = top.to_pandas()  # k rows — bounded by k by construction
    # attach names by broadcasting the k WINNER KEYS (not the dim!)
    # and filtering the customer table distributed: the driver never
    # holds more than k dimension rows, however wide the dim grows
    # (round 3 pulled the whole customer table into a driver dict).
    from raysearch.util import broadcast_id_filter

    winners = (
        broadcast_id_filter(
            customer.select_columns(["c_custkey", "c_name"]),
            "c_custkey",
            pdf["o_custkey"].to_numpy(np.int64),
        ).to_pandas()  # ≤ k rows
    )
    names = dict(zip(winners.c_custkey, winners.c_name))
    pdf["c_name"] = pdf["o_custkey"].map(names)
    return rd.from_pandas(
        pdf[["o_custkey", "c_name", "total_spent", "n_orders"]].reset_index(drop=True)
    )


def sessionize(events, gap_minutes: int = 30, salt_unit: str = "day"):
    """Gap-based sessionization (the classic stateful streaming window
    as a batch operator): per user, events sorted by (ts, event_id); a
    new session starts when the gap to the previous event exceeds
    ``gap_minutes``.  Output: one row per session with bounds, count,
    rounded value sum.

    Ray mapping, TWO-PHASE for skew safety (round 2 — round 1 used one
    ``groupby(user_id)`` whose hot group was a single bot user's whole
    history):

    1. a key-block pass after ``sort((user_id, time-bucket))``
       sessionizes each bucket's events locally into PARTIAL sessions
       (start, end, count, unrounded sum) — the hot unit is one
       user-bucket, bounded by a user's event rate × ``salt_unit``,
       not their lifetime;
    2. a key-block pass after ``sort(user_id)`` merges partial-session
       SUMMARIES: sessions
       are disjoint, start-sorted intervals, so the chain rule is one
       vectorized diff (merge adjacent partials when the inter-bucket
       gap ≤ the threshold) — per-user state is O(sessions + buckets),
       ~days of summaries even for a 10^9-event bot, never events.

    session_id numbering (chronological per user) and every aggregate
    are identical to the single-phase definition; sums are kept
    unrounded until the final merge so two-phase addition stays within
    the 4-decimal rounding the oracle compares at."""
    gap_us = gap_minutes * 60_000_000

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = pc.cast(pc.floor_temporal(batch["ts"], unit=salt_unit), pa.timestamp("us"))
        return pa.table(
            {
                "user_id": batch["user_id"],
                "bucket": b,
                "ts": batch["ts"],
                "event_id": batch["event_id"],
                "value": batch["value"],
            }
        )

    def sessions(t: pa.Table, starts: np.ndarray, lo, hi):
        """Session starts of a block sorted by (key, time): a group
        start, or a row whose ``lo`` is more than the gap after the
        previous row's ``hi``."""
        brk = np.ones(t.num_rows, bool)
        brk[1:] = _ts_us(t[lo])[1:] - _ts_us(t[hi])[:-1] > gap_us
        brk[starts] = True
        return np.flatnonzero(brk)

    def per_bucket(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["user_id", "bucket", "ts", "event_id"], 2)
        s = sessions(b, starts, "ts", "ts")
        ends = np.append(s[1:], b.num_rows)
        value = pc.fill_null(b["value"], 0).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": b["user_id"].take(s),
                "session_start": b["ts"].take(s),
                "session_end": b["ts"].take(ends - 1),
                "n_events": ends - s,
                "sum_value": np.add.reduceat(value, s) if len(s) else value,
            }
        )

    def merge_user(b: pa.Table) -> pa.Table:
        # partials are disjoint intervals in start order, so the
        # predecessor's end IS the previous row's; merge when the gap
        # closes
        b, starts = _groups(b, ["user_id", "session_start"])
        s = sessions(b, starts, "session_start", "session_end")
        first = np.searchsorted(s, starts)  # each user's first session
        ends = np.append(s[1:], b.num_rows)
        n = b["n_events"].to_numpy()
        value = b["sum_value"].to_numpy()
        return pa.table(
            {
                "user_id": b["user_id"].take(s),
                "session_id": np.arange(len(s)) - np.repeat(
                    first, np.diff(np.append(first, len(s)))
                ),
                "session_start": b["session_start"].take(s),
                "session_end": b["session_end"].take(ends - 1),
                "n_events": np.add.reduceat(n, s) if len(s) else n,
                "sum_value": round_half_away(
                    np.add.reduceat(value, s) if len(s) else value, 4
                ),
            }
        )

    partials = _key_blocks(
        events.select_columns(["user_id", "ts", "event_id", "value"])
        .map_batches(add_bucket, batch_format="pyarrow"),
        ["user_id", "bucket"],
        per_bucket,
    )
    return _key_blocks(partials, "user_id", merge_user)


def asof_last_event(events, match_type: str = "error", salt_unit: str = "day"):
    """As-of self-join: for every event, the timestamp of the same
    user's most recent STRICTLY PRIOR event of ``match_type`` (NaT when
    none) — the canonical as-of-join shape (trade→quote) over the
    events table.

    Ray mapping, TWO-PHASE for skew safety and FULLY DISTRIBUTED
    (round 3 — round 2 folded the carry-in into a driver-side dict +
    ``ray.put`` broadcast, O(users) driver memory):

    1. small aggregates (partial-combined, so only distinct
       (user, bucket) partials shuffle): per-user-bucket Max match ts
       (``summaries``) and the distinct bucket timeline (``needed``);
    2. a per-user prefix-max over the union of the two (one key-block
       pass after ``sort(user_id)``, one segmented cumulative max per
       block) → one CARRY row per (user, bucket) whose strictly-earlier
       buckets contain a match, emitted as a PSEUDO MATCH EVENT
       ``(event_id=-1, ts=carry_ts, is_match=True)`` — carry_ts lies
       in an earlier bucket, so it sorts strictly before every real
       event of the bucket;
    3. ONE event-scale key-block pass over events ∪ carry, sorted by
       (user_id, bucket), computes the in-bucket as-of with the carry
       already in sort position (a running last-match index), then
       drops the pseudo-rows.

    The carry attach is therefore a co-partitioned hash merge
    expressed as a sort — the same exchange a hash join would do,
    without Ray Data's join operator (whose aggregator actors
    mis-handle partitions that receive no right-side blocks at small
    scale).  No stage holds per-user state on the driver; step 2
    sees O(buckets-per-user) summary rows, never events.
    ``match_type`` is compared with ``pc.equal`` inside
    ``map_batches`` (not interpolated into a filter expression).  Real
    ``event_id`` values are assumed non-negative (−1 marks carry
    rows)."""
    from ray.data.aggregate import Count, Max

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = pc.cast(pc.floor_temporal(batch["ts"], unit=salt_unit), pa.timestamp("us"))
        return pa.table(
            {
                "user_id": batch["user_id"],
                # int64 epoch-micros key (timestamp keys in exchanges
                # are avoidable risk; the value is never shown)
                "bucket": pc.cast(b, pa.int64()),
                "ts": pc.cast(batch["ts"], pa.timestamp("us")),
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "is_match": pc.equal(batch["event_type"], pa.scalar(match_type)),
            }
        )

    bucketed = events.select_columns(
        ["user_id", "ts", "event_id", "event_type"]
    ).map_batches(add_bucket, batch_format="pyarrow")

    # --- carry rows -------------------------------------------------------
    summaries = (
        bucketed.map_batches(
            lambda b: b.filter(b["is_match"]).select(["user_id", "bucket", "ts"]),
            batch_format="pyarrow",
        )
        .groupby(["user_id", "bucket"])
        .aggregate(Max("ts", alias_name="last_match"))
    )
    needed = bucketed.groupby(["user_id", "bucket"]).aggregate(
        Count(alias_name="_n")
    )

    def as_timeline_row(b: pa.Table) -> pa.Table:
        # unify schemas for the union: (user_id, bucket, last_match)
        lm = (
            pc.cast(b["last_match"], pa.timestamp("us"))
            if "last_match" in b.column_names
            else pa.nulls(b.num_rows, pa.timestamp("us"))
        )
        return pa.table(
            {"user_id": b["user_id"], "bucket": b["bucket"], "last_match": lm}
        )

    timeline = needed.map_batches(as_timeline_row, batch_format="pyarrow").union(
        summaries.map_batches(as_timeline_row, batch_format="pyarrow")
    )

    nat = np.iinfo(np.int64).min

    def prefix_carry(b: pa.Table) -> pa.Table:
        # per (user, bucket): max last_match (needed rows are null);
        # carry for bucket i = max over the user's STRICTLY earlier
        # buckets.  One cumulative max over the whole block: dense
        # ranks (0 = no match) offset by the user's index never let a
        # value cross into the next user, whose offset is larger.
        b, bstarts = _groups(b, ["user_id", "bucket"], 2)
        lm = pc.fill_null(pc.cast(b["last_match"], pa.int64()), nat)
        lm = lm.to_numpy()
        per = np.maximum.reduceat(lm, bstarts) if len(lm) else lm
        user = b["user_id"].to_numpy()[bstarts]
        first = np.ones(len(per), bool)
        first[1:] = user[1:] != user[:-1]
        uniq, rank = np.unique(per, return_inverse=True)
        rank = rank + (uniq[0] != nat if len(uniq) else 0)  # NaT → 0
        base = np.cumsum(first) * (len(uniq) + 1)
        pref = np.maximum.accumulate(rank + base) - base
        prev = np.zeros(len(per), np.int64)
        prev[1:] = pref[:-1]
        prev[first] = 0  # nothing before a user's first bucket
        idx = np.flatnonzero(prev > 0)
        carry = np.concatenate(([nat], uniq[uniq != nat]))[prev[idx]]
        return pa.table(
            {
                "user_id": b["user_id"].take(bstarts[idx]),
                "bucket": b["bucket"].take(bstarts[idx]),
                "ts": pa.array(carry, pa.int64()).cast(pa.timestamp("us")),
                "event_id": pa.array(np.full(len(idx), -1, dtype=np.int64)),
                "is_match": pa.array(np.ones(len(idx), dtype=bool)),
            }
        )

    carry = _key_blocks(timeline, "user_id", prefix_carry)

    # --- the single event-scale exchange ----------------------------------
    def per_bucket(b: pa.Table) -> pa.Table:
        # carry row sorts first: its ts lies in an earlier bucket
        b, starts = _groups(b, ["user_id", "bucket", "ts", "event_id"], 2)
        n = b.num_rows
        pos = np.arange(n)
        # each row's latest match strictly before it, in its group
        last = np.maximum.accumulate(
            np.where(pc.fill_null(b["is_match"], False).to_numpy(), pos, -1)
        )
        before = np.full(n, -1)
        before[1:] = last[:-1]
        before[before < starts[_group_ids(starts, n)]] = -1
        real = b["event_id"].to_numpy() >= 0
        prev = b["ts"].take(np.maximum(before, 0))
        prev = prev.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": b["event_id"].filter(real),
                "user_id": b["user_id"].filter(real),
                "ts": b["ts"].filter(real),
                "prev_match_ts": pa.array(
                    prev[real], pa.timestamp("us"), mask=(before < 0)[real]
                ),
            }
        )

    return _key_blocks(
        bucketed.union(carry), ["user_id", "bucket"], per_bucket
    )


def events_window(events, window: str = "day"):
    """Tumbling window aggregate: (event_type, window_start) → count,
    rounded value sum.  Event time = ``ts``; the bucket column is
    computed vectorized per batch, then one groupby."""
    from ray.data.aggregate import Count, Sum

    def bucket(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(batch["ts"], unit=window), pa.timestamp("us"))
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": day,
                "value": batch["value"],
            }
        )

    agg = (
        events.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
    )

    def round_cols(batch: pd.DataFrame) -> pd.DataFrame:
        batch["sum_value"] = round_half_away(batch["sum_value"].to_numpy(), 4)
        return batch

    return agg.map_batches(round_cols, batch_format="pandas")


def events_hopping_window(events, size_us: int = 3_600_000_000,
                          hop_us: int = 900_000_000):
    """Hopping (sliding) window aggregate — the overlapping-window
    analog of :func:`events_window`: each event lands in exactly
    ``size/hop`` windows, so the per-batch stage REPLICATES each row
    once per hop offset (vectorized tile, no per-row loop) and one
    groupby folds the counts.  ``size`` must be a multiple of ``hop``.

    Window keys are int64 epoch-micros window starts (timestamp keys
    in exchanges are avoidable risk — same convention as the as-of
    join's bucket column).  Output: ``(window_start, n_events,
    sum_value)`` with the sum rounded to 4 dp.

    Scale note: the shuffle grows by the replication factor
    (size/hop, here 4) — the standard hopping-window cost; keep the
    factor small or pre-aggregate per (hop-bucket) first and roll up
    (the tumbling primitive composes for that)."""
    if size_us % hop_us:
        raise ValueError("size_us must be a multiple of hop_us")
    n_hops = size_us // hop_us
    from ray.data.aggregate import Count, Sum

    def explode(batch: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        t = ts.to_numpy(zero_copy_only=False)
        base = (t // hop_us) * hop_us
        starts = np.concatenate([base - k * hop_us for k in range(n_hops)])
        vals = np.tile(batch["value"].to_numpy(zero_copy_only=False), n_hops)
        return pa.table(
            {
                "window_start": pa.array(starts, pa.int64()),
                "value": pa.array(vals, pa.float64()),
            }
        )

    agg = (
        events.select_columns(["ts", "value"])
        .map_batches(explode, batch_format="pyarrow")
        .groupby("window_start")
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
    )

    def round_cols(batch: pd.DataFrame) -> pd.DataFrame:
        batch["sum_value"] = round_half_away(batch["sum_value"].to_numpy(), 4)
        return batch

    return agg.map_batches(round_cols, batch_format="pandas")


def rollup_counts(ds, dims: list[str], *, all_token: str = "(all)"):
    """Multi-level ROLLUP counts — the OLAP cube slice SQL engines
    give via ``GROUP BY ROLLUP(d1, d2, …)`` and Ray Data has no
    native analog for: one row per group at EVERY prefix level
    (finest, each partial rollup, grand total), rolled-up dimensions
    carrying the ``all_token`` sentinel and ``level`` = number of
    rolled dimensions.

    Plan: per-batch local partials compute ALL levels at once (a
    pandas groupby per level over the already-tiny per-batch distinct
    set), then ONE ``groupby(dims + level).Sum`` fold — exchange
    bounded by Σ_level cardinality(level), independent of row count;
    no second pass over the data for coarser levels.  Sentinel-filled
    UNION-ALL SQL twin (unambiguous where ROLLUP's NULL markers would
    collide with real NULLs)."""
    from ray.data.aggregate import Sum

    n_dims = len(dims)

    def partial(b: pa.Table) -> pa.Table:
        df = b.select(dims).to_pandas()
        outs = []
        for lvl in range(n_dims + 1):
            keep = dims[: n_dims - lvl]
            if keep:
                g = (
                    df.groupby(keep, sort=False, dropna=False)
                    .size()
                    .reset_index(name="n")
                )
            else:
                g = pd.DataFrame({"n": [len(df)]})
            for d in dims[n_dims - lvl:]:
                g[d] = all_token
            g["level"] = np.int64(lvl)
            outs.append(g[dims + ["level", "n"]])
        out = pd.concat(outs, ignore_index=True)
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(dims + ["level"])
        .aggregate(Sum("n", alias_name="n"))
        .sort(["level"] + dims)
    )


def rollup_counts_sql(dims: list[str], *, all_token: str = "(all)",
                      table: str = "documents") -> str:
    """DuckDB twin of :func:`rollup_counts` (explicit UNION ALL per
    level — equivalent to GROUP BY ROLLUP with sentinel markers)."""
    n_dims = len(dims)
    parts = []
    for lvl in range(n_dims + 1):
        keep = dims[: n_dims - lvl]
        cols = ", ".join(
            list(keep) + [f"'{all_token}' AS {d}" for d in dims[n_dims - lvl:]]
        )
        grp = f" GROUP BY {', '.join(str(i + 1) for i in range(len(keep)))}" \
            if keep else ""
        parts.append(
            f"SELECT {cols}, CAST({lvl} AS BIGINT) AS level, "
            f"CAST(count(*) AS BIGINT) AS n FROM {table}{grp}"
        )
    order = ", ".join(["level"] + dims)
    return " UNION ALL ".join(parts) + f" ORDER BY {order}"


def funnel_counts(events, steps: list[str]):
    """Ordered-step funnel over an event stream: how many users have
    a strictly time-increasing occurrence of step 1, then step 2
    after it, then step 3 after that, … — the classic
    product-analytics funnel (reach is the standard min-time-after
    recurrence: t_k = min ts of step_k with ts > t_{k-1}).

    Plan: filter to the step types at the READ (pushdown; the stream
    shrinks before anything moves) → one key-block pass after
    ``sort(user_id)``: k vectorized steps over each block's users (a
    per-user ``np.minimum.at`` of the step's times after the user's
    previous step) → per-user reached-level rows → a ≤ k-row count
    fold.  Skew note: a hot user (bot) lands in one block — for
    adversarial skew the same
    recurrence decomposes into k aggregate+join passes (t_k =
    ``groupby(user).Min`` after a copartition join of t_{k-1}), all
    shuffle-bounded by distinct users; the key-block form is the
    right default while per-user step events fit a worker heap."""
    from ray.data.aggregate import Count

    k = len(steps)
    step_set = pa.array(steps, pa.string())

    events = events.map_batches(
        lambda b: b.filter(pc.is_in(b["event_type"], value_set=step_set)),
        batch_format="pyarrow",
    )

    def reach(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["user_id"])
        gid = _group_ids(starts, b.num_rows)
        ts = _ts_us(b["ts"])
        si = pc.index_in(b["event_type"], value_set=step_set)
        si = si.to_numpy(zero_copy_only=False)
        # t: each user's time of the last step reached (max: stuck)
        t = np.full(len(starts), np.iinfo(np.int64).min)
        level = np.zeros(len(starts), np.int64)
        for i in range(k):
            hit = (si == i) & (ts > t[gid])
            nxt = np.full(len(starts), np.iinfo(np.int64).max)
            np.minimum.at(nxt, gid[hit], ts[hit])
            level += nxt < np.iinfo(np.int64).max
            t = nxt
        return pa.table({"level": level})

    levels = _key_blocks(events, "user_id", reach)

    def explode(b: pa.Table) -> pa.Table:
        lv = b["level"].to_numpy(zero_copy_only=False).astype(np.int64)
        # a user at level L counts toward steps 1..L (vectorized
        # ragged arange: global positions minus each segment's start)
        ends = np.cumsum(lv)
        total = int(ends[-1]) if len(lv) else 0
        out = (
            np.arange(total, dtype=np.int64)
            - np.repeat(ends - lv, lv) + 1
        )
        return pa.table({"step_idx": pa.array(out, pa.int64())})

    counted = (
        levels.map_batches(explode, batch_format="pyarrow")
        .groupby("step_idx")
        .aggregate(Count(alias_name="n_users"))
    )

    def label(b: pa.Table) -> pa.Table:
        idx = b["step_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"step_idx": b["step_idx"],
             "step": pa.array([steps[i - 1] for i in idx], pa.string()),
             "n_users": b["n_users"]}
        )

    return counted.map_batches(label, batch_format="pyarrow").sort("step_idx")


def funnel_counts_sql(steps: list[str], *, table: str = "events") -> str:
    """DuckDB twin of :func:`funnel_counts` (explicit min-after CTE
    per step)."""
    in_list = ", ".join(f"'{s}'" for s in steps)
    ctes = [
        f"e AS (SELECT user_id, ts, event_type FROM {table} "
        f"WHERE event_type IN ({in_list}))",
        f"t1 AS (SELECT user_id, min(ts) AS t FROM e "
        f"WHERE event_type = '{steps[0]}' GROUP BY 1)",
    ]
    for i in range(2, len(steps) + 1):
        ctes.append(
            f"t{i} AS (SELECT e.user_id, min(e.ts) AS t FROM e "
            f"JOIN t{i-1} p USING (user_id) "
            f"WHERE e.event_type = '{steps[i-1]}' AND e.ts > p.t GROUP BY 1)"
        )
    selects = [
        f"SELECT CAST({i} AS BIGINT) AS step_idx, '{steps[i-1]}' AS step, "
        f"CAST(count(*) AS BIGINT) AS n_users FROM t{i}"
        for i in range(1, len(steps) + 1)
    ]
    return (
        "WITH " + ", ".join(ctes) + " "
        + " UNION ALL ".join(selects) + " ORDER BY step_idx"
    )


#: one week in microseconds — the default retention period
WEEK_US = 7 * 24 * 3600 * 1_000_000


def retention_cohorts(events, *, period_us: int = WEEK_US):
    """Cohort-retention matrix over an event stream: users grouped by
    their FIRST active period (the cohort), counted in each later
    period they return — the standard growth-analytics triangle
    (cohort_week, weeks_since, n_users).

    Periods are pure integer epoch buckets (``epoch_us // period_us``)
    — no calendar functions, so the engine and the SQL twin agree
    exactly and the bucketing is a zero-state vectorized map.  Plan:
    per-batch bucket map → ``groupby(user, period)`` distinct fold
    (exchange bounded by distinct user-periods, the natural size of
    the answer) → per-user ``Min`` cohort fold → one
    :func:`~raysearch.util.copartition_attach` hash-merge of the
    cohort back onto the distinct rows (user_id-bounded exchange) →
    a tiny (cohort, offset) count fold.  Rows entering the final fold
    are already distinct per (user, period), so ``Count`` IS distinct
    users."""
    from ray.data.aggregate import Count, Min

    from raysearch.util import copartition_attach

    def bucket(b: pa.Table) -> pa.Table:
        ts = b["ts"].cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        return pa.table(
            {"user_id": b["user_id"],
             "w": pa.array(ts // period_us, pa.int64())}
        )

    active = (
        events.map_batches(bucket, batch_format="pyarrow")
        .groupby(["user_id", "w"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["user_id", "w"])
    )
    cohort = active.groupby("user_id").aggregate(Min("w", alias_name="cw"))
    att = copartition_attach(
        active.materialize(),
        cohort,
        "user_id",
        left_schema=pa.schema([("user_id", pa.int64()), ("w", pa.int64())]),
        payload={"cw": pa.int64()},
    )

    def proj(b: pa.Table) -> pa.Table:
        return pa.table(
            {"cohort_week": b["cw"],
             "weeks_since": pc.subtract(b["w"], b["cw"])}
        )

    return (
        att.map_batches(proj, batch_format="pyarrow")
        .groupby(["cohort_week", "weeks_since"])
        .aggregate(Count(alias_name="n_users"))
        .sort(["cohort_week", "weeks_since"])
    )


def retention_cohorts_sql(*, period_us: int = WEEK_US,
                          table: str = "events") -> str:
    """DuckDB twin of :func:`retention_cohorts` (same integer epoch
    bucketing)."""
    return (
        f"WITH a AS (SELECT DISTINCT user_id, "
        f"epoch_us(ts) // {period_us} AS w FROM {table}), "
        "c AS (SELECT user_id, min(w) AS cw FROM a GROUP BY 1) "
        "SELECT CAST(c.cw AS BIGINT) AS cohort_week, "
        "CAST(a.w - c.cw AS BIGINT) AS weeks_since, "
        "CAST(count(*) AS BIGINT) AS n_users "
        "FROM a JOIN c USING (user_id) "
        "GROUP BY 1, 2 ORDER BY 1, 2"
    )


def anti_join(left, right, *, left_key: str, right_key: str,
              columns: list[str]):
    """Relational ANTI-JOIN: ``left`` rows (projected to ``columns``)
    with NO match in ``right`` on the key — the referential-integrity
    audit every multi-table corpus needs (customers without orders,
    docs without embeddings, frames without media rows).

    One tagged-union hash exchange via
    :func:`~raysearch.util.copartition_attach` ``anti=True`` — same
    shuffle a hash join performs, keep condition inverted; no
    broadcast, so neither side needs to fit anywhere.  Output sorted
    by ``left_key`` (pinned order)."""
    from raysearch.util import copartition_attach

    sch = left.schema()
    types = dict(zip(sch.names, sch.types))
    left_schema = pa.schema([(c, types[c]) for c in columns])

    def key_only(b: pa.Table) -> pa.Table:
        return pa.table({left_key: b[right_key].cast(types[left_key])})

    keys = right.map_batches(key_only, batch_format="pyarrow")
    return copartition_attach(
        left.select_columns(columns),
        keys,
        left_key,
        left_schema=left_schema,
        payload={},
        anti=True,
    ).sort(left_key)


def anti_join_sql(*, left_table: str, right_table: str, left_key: str,
                  right_key: str, columns: list[str],
                  right_where: str = "") -> str:
    """DuckDB twin of :func:`anti_join` (NOT EXISTS form — immune to
    the NOT IN null trap).  ``right_where`` narrows the right side
    (matches a pre-filtered ``right`` Dataset on the Ray side)."""
    cols = ", ".join(f"l.{c}" for c in columns)
    extra = f" AND {right_where}" if right_where else ""
    return (
        f"SELECT {cols} FROM {left_table} l WHERE NOT EXISTS ("
        f"SELECT 1 FROM {right_table} r WHERE r.{right_key} = l.{left_key}"
        f"{extra}) ORDER BY l.{left_key}"
    )


# ---------------------------------------------------------------------------
# Round 5 (final block): event-type co-occurrence and props extraction.
# ---------------------------------------------------------------------------


def event_pairs(events):
    """Market-basket co-occurrence over the event stream: for every
    unordered pair of event types, how many USERS have both (the
    association mining / "users who did A also did B" statistic).

    Fully vectorized — no per-user Python.  Plan: a tiny
    ``groupby(event_type)`` vocabulary fold (pulled once — bounded by
    the type vocabulary, the langid-profile-broadcast precedent; bit
    assignment by sorted type order, T ≤ 63 asserted) → distinct
    (user_id, event_type) via one groupby → per-row mask ``1 <<
    bit`` → ``groupby(user_id).Sum(mask)``: rows are DISTINCT per
    (user, type), so the SUM of distinct powers of two IS the bitwise
    OR of the user's type-set → ``groupby(mask).Count`` (≤
    min(users, 2^T) rows) → each mask row expands to its ≤ T(T-1)/2
    present pairs → a tiny pair-count fold.  Every exchange after
    the distinct step is bounded by users, then by distinct masks.

    Output ``(type_a, type_b, n_users)`` with type_a < type_b, sorted."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    vocab = sorted(
        r["event_type"]
        for r in events.groupby("event_type").count().take_all()
    )
    if len(vocab) > 63:
        raise ValueError(
            f"event_pairs bitmask path supports <= 63 types, got "
            f"{len(vocab)}; use a per-user key-block pass for open "
            f"type vocabularies"
        )
    bit = {t: i for i, t in enumerate(vocab)}
    varr = np.asarray(vocab, dtype=object)

    def to_mask(b: pa.Table) -> pa.Table:
        codes = np.searchsorted(varr, np.asarray(
            b["event_type"].to_pylist(), dtype=object
        ))
        return pa.table(
            {
                "user_id": b["user_id"],
                "mask": pa.array(
                    np.int64(1) << codes.astype(np.int64), pa.int64()
                ),
            }
        )

    masks = (
        events.select_columns(["user_id", "event_type"])
        .groupby(["user_id", "event_type"])
        .count()
        .map_batches(to_mask, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("mask", alias_name="mask"))
        .groupby("mask")
        .aggregate(Count(alias_name="n"))
    )

    def expand(b: pa.Table) -> pa.Table:
        ms = b["mask"].to_numpy(zero_copy_only=False)
        ns = b["n"].to_numpy(zero_copy_only=False)
        out_a: list[str] = []
        out_b: list[str] = []
        out_n: list[int] = []
        for m, n in zip(ms, ns):  # <= distinct-mask rows, not events
            bits = [i for i in range(len(varr)) if m >> i & 1]
            for x in range(len(bits)):
                for y in range(x + 1, len(bits)):
                    out_a.append(varr[bits[x]])
                    out_b.append(varr[bits[y]])
                    out_n.append(int(n))
        return pa.table(
            {
                "type_a": pa.array(out_a, pa.string()),
                "type_b": pa.array(out_b, pa.string()),
                "n_users": pa.array(out_n, pa.int64()),
            }
        )

    return (
        masks.map_batches(expand, batch_format="pyarrow")
        .groupby(["type_a", "type_b"])
        .aggregate(Sum("n_users", alias_name="n_users"))
        .sort(["type_a", "type_b"])
    )


def event_pairs_sql(*, table: str = "events") -> str:
    """DuckDB twin of :func:`event_pairs` (distinct self-join form)."""
    return (
        f"WITH d AS (SELECT DISTINCT user_id, event_type FROM {table}) "
        "SELECT a.event_type AS type_a, b.event_type AS type_b, "
        "CAST(count(*) AS BIGINT) AS n_users "
        "FROM d a JOIN d b ON a.user_id = b.user_id "
        "AND a.event_type < b.event_type "
        "GROUP BY 1, 2 ORDER BY 1, 2"
    )


#: regex shared with the SQL twin — the props payload is {"k": <int>}
PROPS_K_RE = r'"k":\s*(\d+)'


def props_stats(events):
    """Per-event-type aggregate over a JSON-ish ``props`` payload
    field — the semi-structured-extraction stage every event pipeline
    runs (extract once, aggregate; never ship raw JSON through a
    shuffle).  Extraction is the Arrow RE2 kernel
    (``extract_regex``), partial aggregation happens inside the batch
    (one row per type per batch), and the only exchange is the ≤
    types-sized fold.

    Output ``(event_type, n, sum_k, min_k, max_k)`` sorted by type;
    events whose props lack ``k`` are excluded (n counts extracted
    rows, matching the SQL twin's WHERE)."""
    from ray.data.aggregate import Max, Min, Sum

    # Arrow RE2 requires a NAMED group; same pattern as the SQL twin
    named_re = PROPS_K_RE.replace("(", "(?P<k>", 1)

    def partial(b: pa.Table) -> pa.Table:
        m = pc.extract_regex(b["props"], named_re)
        valid = pc.is_valid(m)
        ks = pc.cast(pc.struct_field(m, ["k"]), pa.int64())
        t = pa.table(
            {"event_type": b["event_type"], "k": ks}
        ).filter(valid)
        if not t.num_rows:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "sum_k": pa.array([], pa.int64()),
                    "min_k": pa.array([], pa.int64()),
                    "max_k": pa.array([], pa.int64()),
                }
            )
        codes, uniq = pd.factorize(
            np.asarray(t["event_type"].to_pylist(), dtype=object)
        )
        ks_np = t["k"].to_numpy(zero_copy_only=False)
        n = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        s = np.bincount(codes, weights=ks_np, minlength=len(uniq)).astype(
            np.int64
        )
        order = np.argsort(codes, kind="stable")
        bounds = np.r_[0, np.cumsum(n)]
        ks_sorted = ks_np[order]
        mn = np.minimum.reduceat(ks_sorted, bounds[:-1])
        mx = np.maximum.reduceat(ks_sorted, bounds[:-1])
        return pa.table(
            {
                "event_type": pa.array(uniq, pa.string()),
                "n": pa.array(n, pa.int64()),
                "sum_k": pa.array(s, pa.int64()),
                "min_k": pa.array(mn, pa.int64()),
                "max_k": pa.array(mx, pa.int64()),
            }
        )

    return (
        events.select_columns(["event_type", "props"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_k", alias_name="sum_k"),
            Min("min_k", alias_name="min_k"),
            Max("max_k", alias_name="max_k"),
        )
        .sort("event_type")
    )


def props_stats_sql(*, table: str = "events") -> str:
    """DuckDB twin of :func:`props_stats` (same regex, same WHERE)."""
    return (
        "SELECT event_type, CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(k) AS BIGINT) AS sum_k, "
        "CAST(min(k) AS BIGINT) AS min_k, "
        "CAST(max(k) AS BIGINT) AS max_k FROM ("
        f"SELECT event_type, CAST(regexp_extract(props, '{PROPS_K_RE}', 1) "
        f"AS BIGINT) AS k FROM {table} "
        f"WHERE regexp_matches(props, '{PROPS_K_RE}')) "
        "GROUP BY 1 ORDER BY 1"
    )


def nation_revenue(lineitem, orders, customer, nation):
    """Revenue per customer nation — the TPC-H Q5-flavor multi-join
    (lineitem ⋈ orders ⋈ customer ⋈ nation) expressed as
    progressively-smaller bounded exchanges instead of one wide
    multi-way shuffle:

    1. per-batch partial revenue → ``groupby(l_orderkey)`` (exchange
       bounded by orders, not lineitems);
    2. ``copartition_attach`` of o_custkey onto the per-order rows
       (orders-bounded);
    3. ``groupby(o_custkey)`` (customers-bounded);
    4. ``copartition_attach`` of c_nationkey (customers-bounded —
       the dimension stays distributed, nothing vocab-scale on the
       driver);
    5. the 25-row nation table broadcast for the name lookup and a
       final ≤ nations fold.

    Revenue is integer CENTS of the per-lineitem rounded
    ``l_extendedprice·(1-l_discount)`` — summing ints is associative,
    so partial-sum order (Ray) vs single-pass order (DuckDB) cannot
    flip a rounding boundary; the float-sum-then-round alternative
    (revenue_by_flag's discipline) is exposed to ulp ties.

    Output ``(n_name, revenue_cents)`` sorted by n_name."""
    import ray
    from ray.data.aggregate import Sum

    from raysearch.util import copartition_attach

    def li_partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(
            b["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), b["l_discount"]),
        ).to_numpy(zero_copy_only=False)
        cents = round_half_away(
            round_half_away(rev, 2) * 100.0, 0
        ).astype(np.int64)
        keys = b["l_orderkey"].to_numpy(zero_copy_only=False)
        ukeys, inv = np.unique(keys, return_inverse=True)
        sums = np.bincount(inv, weights=cents).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": pa.array(ukeys, pa.int64()),
                "revenue_cents": pa.array(sums, pa.int64()),
            }
        )

    per_order = (
        lineitem.select_columns(
            ["l_orderkey", "l_extendedprice", "l_discount"]
        )
        .map_batches(li_partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )
    with_cust = copartition_attach(
        per_order,
        orders.select_columns(["o_orderkey", "o_custkey"]).map_batches(
            lambda b: pa.table(
                {"l_orderkey": b["o_orderkey"], "o_custkey": b["o_custkey"]}
            ),
            batch_format="pyarrow",
        ),
        "l_orderkey",
        pa.schema([("l_orderkey", pa.int64()), ("revenue_cents", pa.int64())]),
        {"o_custkey": pa.int64()},
    )
    per_cust = (
        with_cust.map_batches(
            lambda b: b.select(["o_custkey", "revenue_cents"]),
            batch_format="pyarrow",
        )
        .groupby("o_custkey")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )
    with_nation = copartition_attach(
        per_cust,
        customer.select_columns(["c_custkey", "c_nationkey"]).map_batches(
            lambda b: pa.table(
                {"o_custkey": b["c_custkey"], "c_nationkey": b["c_nationkey"]}
            ),
            batch_format="pyarrow",
        ),
        "o_custkey",
        pa.schema([("o_custkey", pa.int64()), ("revenue_cents", pa.int64())]),
        {"c_nationkey": pa.int64()},
    )
    nt = nation.select_columns(["n_nationkey", "n_name"]).to_pandas()
    keys = nt["n_nationkey"].to_numpy().astype(np.int64)
    names = nt["n_name"].to_numpy()
    order = np.argsort(keys, kind="stable")
    ref = ray.put((keys[order], names[order]))

    def to_name(b: pa.Table) -> pa.Table:
        ks, ns = ray.get(ref)
        nk = pc.cast(b["c_nationkey"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "n_name": pa.array(ns[np.searchsorted(ks, nk)], pa.string()),
                "revenue_cents": b["revenue_cents"],
            }
        )

    return (
        with_nation.map_batches(to_name, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .sort("n_name")
    )


def nation_revenue_sql() -> str:
    """DuckDB twin of :func:`nation_revenue` (same per-lineitem cents
    quantization, so the sums are integer-exact on both engines)."""
    return (
        "SELECT n_name, CAST(sum(CAST(round(round(l_extendedprice * "
        "(1 - l_discount), 2) * 100) AS BIGINT)) AS BIGINT) "
        "AS revenue_cents "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN nation ON c_nationkey = n_nationkey "
        "GROUP BY 1 ORDER BY 1"
    )


def order_priority_counts(orders, lineitem):
    """Orders per priority that have ≥ 1 lineitem shipped after the
    order date — the TPC-H Q4 EXISTS-semi-join shape.

    Plan: attach o_orderdate to the lineitem rows'
    (l_orderkey, l_shipdate) pairs?  No — cheaper the other way: the
    lineitem side reduces FIRST to one row per order (per-batch max
    shipdate partial → ``groupby(l_orderkey).Max`` — exchange bounded
    by orders), then ONE ``copartition_attach`` puts the max shipdate
    next to o_orderdate, a vectorized compare filters, and a ≤
    priorities fold counts.  The EXISTS never materializes pairs.

    Output ``(o_orderpriority, n_orders)`` sorted."""
    from ray.data.aggregate import Count, Max, Sum

    from raysearch.util import copartition_attach

    def li_partial(b: pa.Table) -> pa.Table:
        keys = b["l_orderkey"].to_numpy(zero_copy_only=False)
        ship = b["l_shipdate"].to_numpy(zero_copy_only=False)
        ukeys, inv = np.unique(keys, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.r_[0, np.cumsum(np.bincount(inv))]
        mx = np.maximum.reduceat(ship[order], bounds[:-1])
        return pa.table(
            {
                "l_orderkey": pa.array(ukeys, pa.int64()),
                "max_ship": pa.array(mx),
            }
        )

    max_ship = (
        lineitem.select_columns(["l_orderkey", "l_shipdate"])
        .map_batches(li_partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Max("max_ship", alias_name="max_ship"))
    )
    sch = max_ship.schema()  # ray.data Schema wrapper: .names/.types
    ship_type = dict(zip(sch.names, sch.types))["max_ship"]
    joined = copartition_attach(
        orders.select_columns(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        ).map_batches(
            lambda b: pa.table(
                {
                    "l_orderkey": b["o_orderkey"],
                    "o_orderdate": b["o_orderdate"],
                    "o_orderpriority": b["o_orderpriority"],
                }
            ),
            batch_format="pyarrow",
        ),
        max_ship,
        "l_orderkey",
        pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("o_orderdate", ship_type),
                ("o_orderpriority", pa.string()),
            ]
        ),
        {"max_ship": ship_type},
    )

    def late(b: pa.Table) -> pa.Table:
        keep = pc.greater(b["max_ship"], b["o_orderdate"])
        return pa.table(
            {"o_orderpriority": b.filter(keep)["o_orderpriority"]}
        )

    return (
        joined.map_batches(late, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_orders"))
        .sort("o_orderpriority")
    )


def order_priority_counts_sql() -> str:
    """DuckDB twin of :func:`order_priority_counts` (EXISTS form)."""
    return (
        "SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders "
        "FROM orders WHERE EXISTS (SELECT 1 FROM lineitem "
        "WHERE l_orderkey = o_orderkey AND l_shipdate > o_orderdate) "
        "GROUP BY 1 ORDER BY 1"
    )


def supplier_volume(lineitem, supplier):
    """Shipped quantity and line count per supplier with the name
    attached — the fact-side-first dimension join (J4 generalized to
    the supplier dimension): per-batch partial sums → ONE
    ``groupby(l_suppkey)`` fold (suppliers-bounded) → the supplier
    name attached by ``copartition_attach`` (the dimension never
    lands on the driver, at any supplier count).  Quantity is summed
    as integer centi-units (the synthetic quantities are 2-dp
    decimals), so cross-engine partial-sum order is irrelevant.

    Output ``(s_suppkey, s_name, sum_qty_c, n_lines)`` sorted."""
    from ray.data.aggregate import Sum

    from raysearch.util import copartition_attach

    def li_partial(b: pa.Table) -> pa.Table:
        keys = b["l_suppkey"].to_numpy(zero_copy_only=False)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        qc = round_half_away(
            round_half_away(qty, 2) * 100.0, 0
        ).astype(np.int64)
        ukeys, inv = np.unique(keys, return_inverse=True)
        return pa.table(
            {
                "s_suppkey": pa.array(ukeys, pa.int64()),
                "sum_qty_c": pa.array(
                    np.bincount(inv, weights=qc).astype(np.int64), pa.int64()
                ),
                "n_lines": pa.array(
                    np.bincount(inv).astype(np.int64), pa.int64()
                ),
            }
        )

    per_supp = (
        lineitem.select_columns(["l_suppkey", "l_quantity"])
        .map_batches(li_partial, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(
            Sum("sum_qty_c", alias_name="sum_qty_c"),
            Sum("n_lines", alias_name="n_lines"),
        )
    )
    joined = copartition_attach(
        per_supp,
        supplier.select_columns(["s_suppkey", "s_name"]),
        "s_suppkey",
        pa.schema(
            [
                ("s_suppkey", pa.int64()),
                ("sum_qty_c", pa.int64()),
                ("n_lines", pa.int64()),
            ]
        ),
        {"s_name": pa.string()},
    )
    return joined.map_batches(
        lambda b: b.select(["s_suppkey", "s_name", "sum_qty_c", "n_lines"]),
        batch_format="pyarrow",
    ).sort("s_suppkey")


def supplier_volume_sql() -> str:
    """DuckDB twin of :func:`supplier_volume`."""
    return (
        "SELECT s_suppkey, s_name, "
        "CAST(sum(CAST(round(round(l_quantity, 2) * 100) AS BIGINT)) "
        "AS BIGINT) AS sum_qty_c, "
        "CAST(count(*) AS BIGINT) AS n_lines "
        "FROM lineitem JOIN supplier ON l_suppkey = s_suppkey "
        "GROUP BY 1, 2 ORDER BY 1"
    )


def order_gaps(orders):
    """Per-customer inter-order gap statistics — the LAG-window
    family over the orders stream (repeat-purchase cadence): for each
    customer with ≥ 2 orders, the number of gaps and the total /
    min / max gap in MICROSECONDS between consecutive orders
    (ts-sorted, o_orderkey tie-break).  All integers — no float mean
    to cross engines; a consumer derives mean = sum/n exactly.

    Plan: one key-block pass after ``sort(o_custkey)`` (the
    funnel_counts precedent for per-entity ordered scans): each block
    sorts by (customer, date, orderkey), diffs neighbouring rows of a
    customer and folds the gaps with one Arrow ``group_by`` — state
    bounded by a block, same skew note as funnel_counts.  Output
    ``(o_custkey, n_gaps, sum_gap_us, min_gap_us, max_gap_us)``
    sorted."""

    def gaps(b: pa.Table) -> pa.Table:
        b, starts = _groups(b, ["o_custkey", "o_orderdate", "o_orderkey"])
        ts = _ts_us(b["o_orderdate"])
        later = np.ones(len(ts), bool)
        later[starts] = False  # rows with a predecessor in their group
        d = pa.table({"g": _group_ids(starts, len(ts))[later],
                      "d": np.diff(ts, prepend=0)[later]})
        agg = d.group_by("g", use_threads=False).aggregate(
            [("d", "count"), ("d", "sum"), ("d", "min"), ("d", "max")]
        )
        return pa.table(
            {
                "o_custkey": b["o_custkey"].take(starts[agg["g"].to_numpy()]),
                "n_gaps": agg["d_count"],
                "sum_gap_us": agg["d_sum"],
                "min_gap_us": agg["d_min"],
                "max_gap_us": agg["d_max"],
            }
        )

    return _key_blocks(
        orders.select_columns(["o_custkey", "o_orderkey", "o_orderdate"]),
        "o_custkey",
        gaps,
    ).sort("o_custkey")


def order_gaps_sql() -> str:
    """DuckDB twin of :func:`order_gaps` (LAG window form)."""
    return (
        "WITH w AS (SELECT o_custkey, o_orderdate, "
        "lag(o_orderdate) OVER (PARTITION BY o_custkey "
        "ORDER BY o_orderdate, o_orderkey) AS prev FROM orders), "
        "g AS (SELECT o_custkey, "
        "CAST(epoch_us(o_orderdate) - epoch_us(prev) AS BIGINT) AS gap "
        "FROM w WHERE prev IS NOT NULL) "
        "SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_gaps, "
        "CAST(sum(gap) AS BIGINT) AS sum_gap_us, "
        "CAST(min(gap) AS BIGINT) AS min_gap_us, "
        "CAST(max(gap) AS BIGINT) AS max_gap_us "
        "FROM g GROUP BY 1 ORDER BY 1"
    )


UNSHIPPED_CUTOFF = "1998-07-01"


def unshipped_revenue(lineitem, orders, cutoff: str = UNSHIPPED_CUTOFF, k: int = 10):
    """Top-k open-order revenue — the TPC-H Q3 shipping-priority
    shape (sans the absent o_shippriority column): orders placed
    before ``cutoff`` whose lineitems ship after it, ranked by
    outstanding revenue.

    Plan: the lineitem side filters (``l_shipdate > cutoff``) and
    partial-sums integer CENTS per order inside ``map_batches`` →
    ONE ``groupby(l_orderkey)`` fold (exchange bounded by qualifying
    orders, not lineitems) → ``copartition_attach`` of o_orderdate
    from the date-filtered orders side (inner semantics drop orders
    placed on/after the cutoff — the date predicate IS the join
    filter, no post-filter pass) → Dataset-level
    ``sort(...).limit(k)`` (the top_customers reduce; the sorted set
    is qualifying-orders-bounded and never lands on the driver).

    Integer-cents discipline (nation_revenue's): per-lineitem
    ``round(round(px·(1-disc),2)·100)`` summed as int64, so
    partial-sum order can't flip a rounding boundary.

    Output ``(l_orderkey, o_orderdate, revenue_cents)``, revenue
    desc, l_orderkey asc tie-break."""
    from raysearch.util import copartition_attach

    cut = np.datetime64(cutoff, "us")

    def li_partial(b: pa.Table) -> pa.Table:
        ship = b["l_shipdate"].to_numpy(zero_copy_only=False)
        keep = ship > cut
        rev = pc.multiply(
            b["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), b["l_discount"]),
        ).to_numpy(zero_copy_only=False)[keep]
        cents = round_half_away(
            round_half_away(rev, 2) * 100.0, 0
        ).astype(np.int64)
        keys = b["l_orderkey"].to_numpy(zero_copy_only=False)[keep]
        ukeys, inv = np.unique(keys, return_inverse=True)
        return pa.table(
            {
                "l_orderkey": pa.array(ukeys, pa.int64()),
                "revenue_cents": pa.array(
                    np.bincount(inv, weights=cents).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    from ray.data.aggregate import Sum

    per_order = (
        lineitem.select_columns(
            ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
        )
        .map_batches(li_partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )

    def ord_side(b: pa.Table) -> pa.Table:
        od = b["o_orderdate"].to_numpy(zero_copy_only=False)
        keep = od < cut
        return pa.table(
            {
                "l_orderkey": pa.array(
                    b["o_orderkey"].to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "o_orderdate": pa.array(od[keep], pa.timestamp("us")),
            }
        )

    with_date = copartition_attach(
        per_order,
        orders.select_columns(["o_orderkey", "o_orderdate"]).map_batches(
            ord_side, batch_format="pyarrow"
        ),
        "l_orderkey",
        pa.schema([("l_orderkey", pa.int64()), ("revenue_cents", pa.int64())]),
        {"o_orderdate": pa.timestamp("us")},
    )
    return (
        with_date.map_batches(
            lambda b: b.select(["l_orderkey", "o_orderdate", "revenue_cents"]),
            batch_format="pyarrow",
        )
        .sort(["revenue_cents", "l_orderkey"], descending=[True, False])
        .limit(k)
    )


def unshipped_revenue_sql(cutoff: str = UNSHIPPED_CUTOFF, k: int = 10) -> str:
    """DuckDB twin of :func:`unshipped_revenue` (same per-lineitem
    cents quantization)."""
    return (
        "SELECT l_orderkey, o_orderdate, "
        "CAST(sum(CAST(round(round(l_extendedprice * (1 - l_discount), 2) "
        "* 100) AS BIGINT)) AS BIGINT) AS revenue_cents "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        f"WHERE o_orderdate < TIMESTAMP '{cutoff}' "
        f"AND l_shipdate > TIMESTAMP '{cutoff}' "
        "GROUP BY 1, 2 "
        f"ORDER BY revenue_cents DESC, l_orderkey LIMIT {k}"
    )


def returned_revenue(lineitem, orders, customer, k: int = 20):
    """Top-k customers by revenue lost to returns — the TPC-H Q10
    returned-item-reporting shape: lineitems flagged ``R`` rolled up
    through orders to the customer, names attached to just the k
    winners.

    Plan (nation_revenue's bounded-exchange ladder + top_customers'
    deferred-dimension reduce): flag-filtered per-batch cents →
    ``groupby(l_orderkey)`` (returned-orders-bounded) →
    ``copartition_attach`` of o_custkey (orders-bounded) →
    ``groupby(o_custkey)`` (customers-bounded) →
    ``sort(...).limit(k)`` → the k winner KEYS broadcast to filter
    the customer dimension distributed (driver holds k rows, never
    |customers|).

    Output ``(c_custkey, c_name, revenue_cents)``, revenue desc,
    c_custkey asc tie-break."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from raysearch.util import broadcast_id_filter, copartition_attach

    def li_partial(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["l_returnflag"], pa.scalar("R")).to_numpy(
            zero_copy_only=False
        )
        rev = pc.multiply(
            b["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), b["l_discount"]),
        ).to_numpy(zero_copy_only=False)[keep]
        cents = round_half_away(
            round_half_away(rev, 2) * 100.0, 0
        ).astype(np.int64)
        keys = b["l_orderkey"].to_numpy(zero_copy_only=False)[keep]
        ukeys, inv = np.unique(keys, return_inverse=True)
        return pa.table(
            {
                "l_orderkey": pa.array(ukeys, pa.int64()),
                "revenue_cents": pa.array(
                    np.bincount(inv, weights=cents).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    per_order = (
        lineitem.select_columns(
            ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"]
        )
        .map_batches(li_partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )
    with_cust = copartition_attach(
        per_order,
        orders.select_columns(["o_orderkey", "o_custkey"]).map_batches(
            lambda b: pa.table(
                {"l_orderkey": b["o_orderkey"], "o_custkey": b["o_custkey"]}
            ),
            batch_format="pyarrow",
        ),
        "l_orderkey",
        pa.schema([("l_orderkey", pa.int64()), ("revenue_cents", pa.int64())]),
        {"o_custkey": pa.int64()},
    )
    top = (
        with_cust.map_batches(
            lambda b: b.select(["o_custkey", "revenue_cents"]),
            batch_format="pyarrow",
        )
        .groupby("o_custkey")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .sort(["revenue_cents", "o_custkey"], descending=[True, False])
        .limit(k)
    )
    pdf = top.to_pandas()  # k rows — bounded by k by construction
    winners = broadcast_id_filter(
        customer.select_columns(["c_custkey", "c_name"]),
        "c_custkey",
        pdf["o_custkey"].to_numpy(np.int64),
    ).to_pandas()  # <= k rows
    names = dict(zip(winners.c_custkey, winners.c_name))
    out = pd.DataFrame(
        {
            "c_custkey": pdf["o_custkey"].to_numpy(np.int64),
            "c_name": pdf["o_custkey"].map(names),
            "revenue_cents": pdf["revenue_cents"].to_numpy(np.int64),
        }
    )
    return rd.from_pandas(out)


def returned_revenue_sql(k: int = 20) -> str:
    """DuckDB twin of :func:`returned_revenue`."""
    return (
        "SELECT c_custkey, c_name, "
        "CAST(sum(CAST(round(round(l_extendedprice * (1 - l_discount), 2) "
        "* 100) AS BIGINT)) AS BIGINT) AS revenue_cents "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "WHERE l_returnflag = 'R' GROUP BY 1, 2 "
        f"ORDER BY revenue_cents DESC, c_custkey LIMIT {k}"
    )


ACTIVE_WINDOW_DAYS = 7


def active_users(events, window_days: int = ACTIVE_WINDOW_DAYS):
    """Trailing-window distinct active users per day — the sliding
    DAU/WAU analytics window (``n_users`` for bucket ``d`` = distinct
    users with ≥ 1 event in the ``window_days`` days ending at
    ``d``), computed EXACTLY with bounded exchanges instead of a
    per-window distinct over raw events:

    1. per-batch dedup to (user_id, day) pairs → ONE
       ``groupby((user_id, day)).count()`` — the only exchange that
       sees activity data, bounded by users × active-days, never
       events;
    2. a vectorized ×``window_days`` explode maps each activity day
       onto the trailing buckets it keeps alive (day .. day +
       window_days - 1) — buckets after the last event day appear
       exactly when their trailing window still contains activity,
       same as the SQL twin;
    3. ``groupby((bucket, user_id)).count()`` dedups users per
       bucket (≤ users × days × window_days rows), then per-batch
       partial counts → ``groupby(bucket).Sum`` folds to one row
       per bucket.

    Output ``(bucket, n_users)`` sorted by bucket."""
    from ray.data.aggregate import Sum

    day_us = np.int64(86_400_000_000)

    def to_days(b: pa.Table) -> pa.Table:
        d = pc.cast(
            pc.floor_temporal(b["ts"], unit="day"), pa.timestamp("us")
        ).to_numpy(zero_copy_only=False)
        u = b["user_id"].to_numpy(zero_copy_only=False)
        key = pd.MultiIndex.from_arrays([u, d]).drop_duplicates()
        return pa.table(
            {
                "user_id": pa.array(
                    key.get_level_values(0).to_numpy(), pa.int64()
                ),
                "day": pa.array(
                    key.get_level_values(1).to_numpy(), pa.timestamp("us")
                ),
            }
        )

    distinct_ud = (
        events.select_columns(["user_id", "ts"])
        .map_batches(to_days, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .count()
    )

    def explode(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False)
        d = b["day"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        offs = (np.arange(window_days, dtype=np.int64) * day_us).astype(
            "timedelta64[us]"
        )
        bucket = (d[:, None] + offs[None, :]).ravel()
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.timestamp("us")),
                "user_id": pa.array(np.repeat(u, window_days), pa.int64()),
            }
        )

    per_bucket_user = (
        distinct_ud.map_batches(explode, batch_format="pyarrow")
        .groupby(["bucket", "user_id"])
        .count()
    )

    def partial_counts(b: pa.Table) -> pa.Table:
        bk = b["bucket"].to_numpy(zero_copy_only=False)
        ub, inv = np.unique(bk, return_inverse=True)
        return pa.table(
            {
                "bucket": pa.array(
                    ub.astype("datetime64[us]"), pa.timestamp("us")
                ),
                "n_users": pa.array(np.bincount(inv).astype(np.int64)),
            }
        )

    return (
        per_bucket_user.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n_users", alias_name="n_users"))
        .map_batches(
            # pin the bucket dtype: Ray's pandas-routed fold paths can
            # degrade timestamp precision (observed [us] → [s]), which
            # would make the output schema partitioning-dependent
            lambda b: pa.table(
                {
                    "bucket": pc.cast(b["bucket"], pa.timestamp("us")),
                    "n_users": pc.cast(b["n_users"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .sort("bucket")
    )


def active_users_sql(window_days: int = ACTIVE_WINDOW_DAYS) -> str:
    """DuckDB twin of :func:`active_users` (same explode-side window
    definition)."""
    return (
        "WITH du AS (SELECT DISTINCT user_id, "
        "CAST(date_trunc('day', ts) AS TIMESTAMP) AS d FROM events), "
        "e AS (SELECT user_id, d + to_days(CAST(u.i AS INTEGER)) "
        "AS bucket FROM du, "
        f"unnest(generate_series(0, {window_days - 1})) AS u(i)) "
        "SELECT bucket, CAST(count(DISTINCT user_id) AS BIGINT) "
        "AS n_users FROM e GROUP BY 1 ORDER BY 1"
    )
