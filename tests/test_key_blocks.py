"""The per-key primitive of the pipelines (``raysearch.util``):
``_key_blocks`` hands every key's rows to exactly one call, ``_groups``
finds each key's rows in a block (null keys included), and the
operators built on them keep their column types — ``write_resumable``
round-trips a nullable int64 column, ``copartition_attach`` pairs null
keys and carries list payloads, ``dedup._bucket_pairs`` emits each
bucket's ``triu`` pairs or its star."""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

KEYS = st.one_of(st.none(), st.integers(-3, 3))


@st.composite
def keyed_rows(draw):
    """A table ``(k1[, k2], row)`` with few distinct keys, some null,
    and how many blocks to split it into.  Of a two-column key only
    ``k2`` holds nulls: Ray 2.49's ``Dataset.sort`` (and so
    ``map_groups``) duplicates rows when both key columns do."""
    two = draw(st.booleans())
    n = draw(st.integers(0, 60))
    k1 = st.integers(-3, 3) if two else KEYS
    cols = {"k1": pa.array(draw(st.lists(k1, min_size=n, max_size=n)), pa.int64())}
    if two:
        cols["k2"] = pa.array(draw(st.lists(KEYS, min_size=n, max_size=n)), pa.int64())
    cols["row"] = pa.array(np.arange(n, dtype=np.int64))
    return pa.table(cols), draw(st.sampled_from([1, 7, 37]))


@settings(max_examples=25, deadline=None)
@given(keyed_rows())
@example((pa.table({"k1": pa.array([], pa.int64()),
                    "row": pa.array([], pa.int64())}), 7))
def test_key_blocks_give_each_key_one_call(ray_session, case):
    import ray.data as rd

    from raysearch.util import _group_ids, _groups, _key_blocks

    table, n_blocks = case
    keys = [c for c in table.column_names if c != "row"]
    step = max(1, -(-table.num_rows // n_blocks))
    parts = [table.slice(i, step) for i in range(0, table.num_rows, step)]
    ds = rd.from_arrow(parts or [table])

    def key_of(t: pa.Table) -> list[tuple]:
        return list(zip(*(t[k].to_pylist() for k in keys)))

    def tag(b: pa.Table) -> pa.Table:
        # (a nested function: Ray workers cannot import this module)
        b, starts = _groups(b, keys, len(keys))
        gid = _group_ids(starts, b.num_rows)
        # every row of a group has its group's key; groups are distinct
        key = key_of(b)
        assert all(key[i] == key[starts[g]] for i, g in enumerate(gid))
        assert len({key[s] for s in starts}) == len(starts)
        return pa.table(
            {"row": b["row"], "call": pa.array([uuid.uuid4().hex] * b.num_rows)}
        )

    out = [t for t in _key_blocks(ds, keys if len(keys) > 1 else keys[0], tag)
           .iter_batches(batch_format="pyarrow", batch_size=None)]
    out = pa.concat_tables(out) if out else pa.table({"row": [], "call": []})
    rows = out["row"].to_pylist()
    assert sorted(rows) == table["row"].to_pylist()
    call_of = dict(zip(rows, out["call"].to_pylist()))
    calls: dict[tuple, set] = {}
    for key, row in zip(key_of(table), table["row"].to_pylist()):
        calls.setdefault(key, set()).add(call_of[row])
    assert all(len(c) == 1 for c in calls.values())


def test_groups_keep_nulls_apart_from_values():
    from raysearch.util import _groups

    t = pa.table({"k": pa.array([None, 2, None, 2, 1], pa.int64()),
                  "v": pa.array([0, 1, 2, 3, 4])})
    b, starts = _groups(t, ["k", ("v", "descending")])
    assert b["k"].to_pylist() == [1, 2, 2, None, None]
    assert b["v"].to_pylist() == [4, 3, 1, 2, 0]
    assert starts.tolist() == [0, 1, 3]


def test_resumable_sink_keeps_nullable_int64(ray_session, tmp_path):
    """A nullable int64 column reaches the Parquet files as int64 with
    its values, 2**53 + 1 (not representable as a double) included."""
    import ray.data as rd

    from raysearch.pipelines.sink import write_resumable

    big = 2**53 + 1
    score = [1, None, 3, big, None, -big, 7, 8]
    t = pa.table({"doc_id": pa.array(np.arange(8), pa.int64()),
                  "score": pa.array(score, pa.int64())})
    out = str(tmp_path / "sink")
    write_resumable(rd.from_arrow([t.slice(0, 3), t.slice(3)]), out,
                    key_col="doc_id", n_buckets=2)
    files = sorted(
        os.path.join(out, d, "part-0.parquet") for d in os.listdir(out)
    )
    back = pa.concat_tables([pq.read_table(f) for f in files])
    assert back.schema.field("score").type == pa.int64()
    got = dict(zip(back["doc_id"].to_pylist(), back["score"].to_pylist()))
    assert got == dict(enumerate(score))


def test_copartition_attach_pairs_null_keys_and_list_payloads(ray_session):
    import ray.data as rd

    from raysearch.util import copartition_attach

    left = pa.table({"k": pa.array([1, None, 2, None, 3], pa.int64()),
                     "a": pa.array([10, 11, 12, 13, 14], pa.int64())})
    right = pa.table({"k": pa.array([None, 1, 1, 4], pa.int64()),
                      "p": pa.array([[0], [1, 2], [], [4]], pa.list_(pa.int64()))})
    schema = left.schema

    def run(**kw):
        pay = {} if kw else {"p": pa.list_(pa.int64())}
        ds = copartition_attach(rd.from_arrow([left.slice(0, 2), left.slice(2)]),
                                rd.from_arrow(right), "k", schema, pay, **kw)
        return sorted(map(str, ds.take_all()))

    assert run() == sorted(map(str, [
        {"k": 1, "a": 10, "p": [1, 2]}, {"k": 1, "a": 10, "p": []},
        {"k": None, "a": 11, "p": [0]}, {"k": None, "a": 13, "p": [0]},
    ]))
    assert run(semi=True) == sorted(map(str, [
        {"k": 1, "a": 10}, {"k": None, "a": 11}, {"k": None, "a": 13},
    ]))
    assert run(anti=True) == sorted(map(str, [
        {"k": 2, "a": 12}, {"k": 3, "a": 14},
    ]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 12)), max_size=80),
    st.sampled_from([None, 1, 3]),
)
def test_bucket_pairs_match_per_bucket_triu(rows, star_above):
    from raysearch.pipelines.dedup import _bucket_pairs

    t = pa.table({"bucket": pa.array([r[0] for r in rows], pa.int64()),
                  "doc_id": pa.array([r[1] for r in rows], pa.int64())})
    b, ai, bi = _bucket_pairs(t, ["bucket"], "doc_id", star_above)
    ids, bk = b["doc_id"].to_numpy(), b["bucket"].to_numpy()
    got = sorted(zip(bk[ai], ids[ai], ids[bi]))
    want = []
    for g in sorted({r[0] for r in rows}):
        u = np.unique([r[1] for r in rows if r[0] == g])
        if star_above is not None and len(u) > star_above:
            want += [(g, u[0], v) for v in u[1:]]
        else:
            ii, jj = np.triu_indices(len(u), k=1)
            want += [(g, u[i], u[j]) for i, j in zip(ii, jj)]
    assert got == sorted(want)


@pytest.mark.parametrize("typ", [pa.string(), pa.int64()])
def test_group_selections_drop_null_groups_and_keep_key_types(ray_session, typ):
    """``group_topn`` and ``group_sample_k`` drop the rows of a null
    group (a string key with nulls must not reach Ray's sort) and keep
    the group column's type (an int64 key with nulls stays int64, not
    double)."""
    import ray.data as rd

    from raysearch.pipelines.sampling import group_sample_k, group_topn

    g = [1, None, 2, None, 1, 2, None, 1]
    g = [None if v is None else (f"g{v}" if typ == pa.string() else v) for v in g]
    t = pa.table({"g": pa.array(g, typ),
                  "o": pa.array([5, 4, 3, 2, 1, 6, 7, 8], pa.int64()),
                  "doc_id": pa.array(np.arange(8), pa.int64())})
    ds = rd.from_arrow([t.slice(0, 3), t.slice(3)])
    top = pa.concat_tables(
        group_topn(ds, group_col="g", order_col="o", n=2)
        .iter_batches(batch_format="pyarrow", batch_size=None))
    assert top.schema.field("g").type == typ
    assert sorted(zip(top["g"].to_pylist(), top["rk"].to_pylist(),
                      top["doc_id"].to_pylist())) == sorted(
        [(g[7], 1, 7), (g[0], 2, 0), (g[5], 1, 5), (g[2], 2, 2)])
    sample = pa.concat_tables(
        group_sample_k(ds, 2, group_col="g")
        .iter_batches(batch_format="pyarrow", batch_size=None))
    assert sample.schema.field("g").type == typ
    assert sorted(set(sample["g"].to_pylist())) == sorted({g[0], g[2]})
    assert sample.num_rows == 4
