"""Small shared helpers."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def round_half_away(x, decimals: int = 4):
    """Round half away from zero — matches SQL ``round()`` (DuckDB),
    unlike numpy/pandas banker's rounding (0.03125 → 0.0313, not
    0.0312).  Used at every engine↔SQL comparison boundary."""
    a = np.asarray(x, dtype=np.float64)
    factor = 10.0**decimals
    return np.sign(a) * np.floor(np.abs(a) * factor + 0.5) / factor


def broadcast_id_filter(ds, col: str, ids: "np.ndarray"):
    """Semi-filter ``ds`` to rows whose ``col`` is in ``ids`` via ONE
    ``ray.put`` of the sorted id array and a searchsorted membership
    test inside ``map_batches`` — the canonical bounded small-side
    broadcast (no shuffle of ``ds`` at all).  ``ids`` must be modest
    (callers cap it, e.g. dedup.BROADCAST_ID_LIMIT / top-k winners)."""
    import ray

    ids = np.sort(np.asarray(ids))
    ids_ref = ray.put(ids)

    def keep(b: pa.Table) -> pa.Table:
        w = ray.get(ids_ref)  # sorted
        if len(w) == 0:
            return b.slice(0, 0)
        d = b[col].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(w, d)
        pos[pos >= len(w)] = len(w) - 1
        return b.filter(pa.array(w[pos] == d))

    return ds.map_batches(keep, batch_format="pyarrow")


def _ts_us(ts) -> np.ndarray:
    """Timestamps as int64 epoch microseconds."""
    us = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
    return us.to_numpy(zero_copy_only=False)


def _key_blocks(ds, key, fn):
    """Apply ``fn`` to each block of ``ds.sort(key)`` as one Arrow
    table (``key``: a column name or a list of them).  The sort
    range-partitions on ``key``, so no key spans two blocks — the
    guarantee ``groupby(key).map_groups`` rests on under the default
    sort shuffle — but ``fn`` runs once per block, not once per key.
    (``Dataset.repartition(keys=…)`` needs the hash-shuffle strategy, a
    global ``DataContext`` setting.)"""
    return ds.sort(key).map_batches(
        fn, batch_size=None, batch_format="pyarrow"
    )


def _groups(b: pa.Table, keys: list, n_keys: int = 1):
    """``b`` sorted by ``keys``, and the int64 row offsets at which any
    of the first ``n_keys`` keys changes: one start per group.  A key
    is a column name (ascending) or a ``(name, "descending")`` pair;
    null keys sort last and form one group, as in ``map_groups``."""
    keys = [k if isinstance(k, tuple) else (k, "ascending") for k in keys]
    b = b.take(pc.sort_indices(b, sort_keys=keys))
    if b.num_rows == 0:
        return b, np.zeros(0, np.int64)
    change = np.zeros(b.num_rows - 1, bool)
    for name, _ in keys[:n_keys]:
        col = b[name].combine_chunks()
        cur, prev = col[1:], col[:-1]
        ne = pc.fill_null(
            pc.not_equal(cur, prev),
            pc.not_equal(pc.is_null(cur), pc.is_null(prev)),
        )
        change |= ne.to_numpy(zero_copy_only=False)
    return b, np.flatnonzero(np.concatenate(([True], change)))


def _group_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """Group number of each of ``n`` rows, given the group starts."""
    return np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))


def _group_head(b: pa.Table, keys: list, n: int):
    """The first ``n`` rows of each ``keys[0]`` group of ``b`` in
    ``keys`` order (:func:`_groups`), and their int64 1-based ranks —
    ``row_number() OVER (PARTITION BY keys[0] ORDER BY keys[1:]) <= n``
    over one block."""
    b, starts = _groups(b, keys)
    rk = np.arange(1, b.num_rows + 1) - starts[_group_ids(starts, b.num_rows)]
    keep = rk <= n
    return b.filter(pa.array(keep)), rk[keep]


def copartition_attach(
    left,
    right,
    key: str,
    left_schema: "pa.Schema",
    payload: dict[str, "pa.DataType"],
    semi: bool = False,
    anti: bool = False,
):
    """Hash-join ``right`` onto ``left`` by ``key``, expressed as a
    tagged union + ONE key-block pass (:func:`_key_blocks`) — the same
    all-to-all exchange a hash join performs, without Ray Data's join
    operator.  Each block pairs all of its keys' rows with repeat /
    take index arithmetic, no per-key Python.

    Why not ``Dataset.join``: in Ray 2.49 the join aggregator's
    per-partition ``finalize`` (ray/data/_internal/execution/operators/
    join.py) builds each side from whatever blocks the partition
    received; a partition that received ZERO blocks from one side
    yields a schemaless empty table and ``pa.Table.join`` raises
    ``No match or multiple matches for key field reference`` — a hard
    crash whenever ``num_partitions`` exceeds the number of occupied
    key slots (always at small scale, possible under skew at any
    scale).  The sort shuffles the same tagged rows and has no
    empty-partition failure mode.  (``pa.Table.join`` inside the block
    would not do either: pyarrow 16 rejects list-typed payload columns
    there, and it never matches null keys, which pair here.)

    ``left``: Dataset whose columns are exactly ``left_schema`` (must
    include ``key``).  ``right``: Dataset with columns ``[key] +
    list(payload)`` — the lookup side, typically few rows per key.
    Inner-join semantics: every (left-row × matching right-row)
    combination is emitted with the payload columns attached.  With
    ``semi=True``: left rows with ≥1 match are emitted unchanged
    (``payload`` may be ``{}``).  With ``anti=True``: left rows with
    ZERO matches are emitted unchanged — the relational anti-join,
    same exchange, inverted keep condition.

    Scale note: per-key work is O(|L_key| × |R_key|) inside one block;
    keep the right side unique-ish per key (it is, for id→set lookups)
    or pre-aggregate before calling."""
    left_cols = [f.name for f in left_schema]
    left_types = {f.name: f.type for f in left_schema}
    pay_cols = list(payload)
    out_fields = [(c, left_types[c]) for c in left_cols]
    if not (semi or anti):
        out_fields += [(c, payload[c]) for c in pay_cols]
    out_schema = pa.schema(out_fields)
    all_cols = left_cols + [c for c in pay_cols if c not in left_cols]

    def pad_left(b: pa.Table) -> pa.Table:
        cols = {c: b[c] for c in left_cols}
        for c in pay_cols:
            cols[c] = pa.nulls(b.num_rows, payload[c])
        cols["_side"] = pa.array(np.zeros(b.num_rows, np.int8))
        return pa.table(cols)

    def pad_right(b: pa.Table) -> pa.Table:
        cols = {}
        for c in all_cols:
            if c == key:
                cols[c] = b[key]
            elif c in pay_cols:
                cols[c] = b[c]
            else:
                cols[c] = pa.nulls(b.num_rows, left_types[c])
        cols["_side"] = pa.array(np.ones(b.num_rows, np.int8))
        return pa.table(cols)

    def merge(b: pa.Table) -> pa.Table:
        # each key's left rows (_side 0) come before its right rows
        b, starts = _groups(b, [key, "_side"])
        gid = _group_ids(starts, b.num_rows)
        is_left = b["_side"].to_numpy(zero_copy_only=False) == 0
        n_left = np.bincount(gid, weights=is_left, minlength=len(starts))
        n_left = n_left.astype(np.int64)
        n_right = np.diff(np.append(starts, b.num_rows)) - n_left
        li = np.flatnonzero(is_left)
        if anti or semi:
            kept = b.take(li[(n_right[gid[li]] > 0) != anti])
            return pa.table({c: kept[c] for c in left_cols}).cast(out_schema)
        # every left row × its key's right rows, left-major
        reps = n_right[gid[li]]
        first = np.repeat(starts[gid[li]] + n_left[gid[li]], reps)
        ri = first + np.arange(reps.sum())
        ri -= np.repeat(np.cumsum(reps) - reps, reps)
        lpart = b.take(np.repeat(li, reps))
        rpart = b.take(ri)
        cols = {c: lpart[c] for c in left_cols}
        for c in pay_cols:
            cols[c] = rpart[c]
        return pa.table(cols).cast(out_schema)

    tagged = left.map_batches(pad_left, batch_format="pyarrow").union(
        right.map_batches(pad_right, batch_format="pyarrow")
    )
    return _key_blocks(tagged, key, merge)
