"""Whole-conversation block passes (``raysearch.util._key_blocks``):
``conv_curation``, ``conv_dedup``, ``sft_pairs``, ``conv_truncate``,
``assistant_share``, ``turn_gap_stats``, ``tool_latency``,
``role_transitions``, ``role_run_stats`` and ``tool_ngrams`` against
their DuckDB twins on generated corpora, the null-text and null-role
contracts, and the shape of ``conv_curation``'s plan."""

from __future__ import annotations

import random
import re

import pytest

ROLES = ["user", "assistant", "tool", "system"]
WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]


def _text(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.08:
        return ""  # empty turn: no tokens, still hashed
    if r < 0.12:
        return "?! --"  # punctuation only: no tokens
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))


def _corpus(seed: int):
    """Seeded transcript table (conv_id, turn_idx, role, text, tool,
    ts) in shuffled row order with gaps in turn_idx; ``ts`` steps may
    be zero or negative.  It holds single-turn conversations, an
    all-assistant monologue, and planted content duplicates: some copy
    roles too (one copy passes the share band exactly when the
    original does), some make every turn a user turn (share 0, so the
    copy fails the band whatever the original does), and some copies
    take a smaller conv_id than their original."""
    import pyarrow as pa

    rng = random.Random(seed)
    convs: dict[str, list[tuple[str, str]]] = {}
    for i in range(40):
        n = 1 if i % 9 == 0 else rng.randint(2, 12)
        convs[f"c{100 + i:04d}"] = [
            (rng.choice(ROLES[:2] * 3 + ROLES[2:]), _text(rng))
            for _ in range(n)
        ]
    convs["c0150"] = [("assistant", _text(rng)) for _ in range(5)]
    # in the band, but its canonical copy c0001 (all user turns) is not
    convs["c0151"] = [
        ("user", "alpha beta"),
        ("assistant", "gamma delta"),
        ("user", "eps"),
        ("assistant", "zeta eta"),
    ]
    convs["c0001"] = [("user", t) for _, t in convs["c0151"]]
    originals = sorted(convs)
    for j in range(12):
        src = convs[rng.choice(originals)]
        turns = [("user", t) for _, t in src] if j % 2 else list(src)
        cid = f"c{rng.randint(0, 99):04d}" if j % 3 == 0 else f"c{300 + j:04d}"
        convs.setdefault(cid, turns)
    rows = []
    for cid, turns in convs.items():
        idx, ts = 0, rng.randint(0, 10**9)
        for role, text in turns:
            idx += rng.randint(1, 3)
            ts += rng.choice([0, -7, 1, 250, 90_000])
            tool = rng.choice(["grep", "ls", ""]) if role == "tool" else ""
            rows.append((cid, idx, role, text, tool, ts))
    rng.shuffle(rows)
    return pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "tool": pa.array([r[4] for r in rows], pa.string()),
            "ts": pa.array([r[5] for r in rows], pa.timestamp("us")),
        }
    )


TURN_COLS = ["conv_id", "turn_idx", "role", "text"]


def _twin(tbl, sql: str):
    import duckdb

    con = duckdb.connect()
    con.register("corpus", tbl)
    return con.execute(sql).fetchdf()


def _same(ds, orc) -> bool:
    """Same rows in the same order (Ray keeps no schema for an empty
    result, so an empty result compares by count)."""
    if len(orc) == 0:
        return ds.count() == 0
    got = ds.to_pandas().reset_index(drop=True)
    return list(got.columns) == list(orc.columns) and got.astype(str).equals(
        orc.astype(str)
    )


def test_generated_corpus_covers_its_cases():
    tbl = _corpus(7)
    df = tbl.to_pandas()
    sizes = df.groupby("conv_id").size()
    assert (sizes == 1).any() and sizes.max() < 100
    assert (df["text"] == "").any()
    mono = df[df["conv_id"] == "c0150"]
    assert set(mono["role"]) == {"assistant"}
    from raysearch.pipelines.convstats import assistant_share_sql, conv_dedup_sql

    dup = _twin(tbl, conv_dedup_sql("corpus")).merge(
        _twin(tbl, assistant_share_sql("corpus"))[["conv_id", "keep"]],
        on="conv_id",
        suffixes=("", "_share"),
    )
    assert (~dup["keep"]).sum() >= 6
    # a duplicated content hash whose copies fall on both sides of the band
    split = dup.groupby("content_hash")["keep_share"].nunique()
    assert (split == 2).any()
    by = dup.set_index("conv_id")
    assert by.loc["c0151", "keep_share"] and not by.loc["c0151", "keep"]
    assert not by.loc["c0001", "keep_share"] and by.loc["c0001", "keep"]
    assert not df["turn_idx"].is_monotonic_increasing  # shuffled rows


@pytest.mark.parametrize("k", [1, 2, 8, 100])
@pytest.mark.parametrize("blocks", [1, 37])
def test_conv_curation_matches_twin(ray_session, k, blocks):
    """Rows equal ``conv_curation_sql``, in order, for every window
    size (100 is longer than any conversation) whether a conversation
    sits in one input block or is spread over many."""
    import ray.data as rd

    from raysearch.pipelines.convstats import conv_curation, conv_curation_sql

    tbl = _corpus(7)
    orc = _twin(tbl, conv_curation_sql("corpus", k=k))
    # a one-turn window holds no (user, assistant) pair
    assert (len(orc) == 0) == (k == 1)
    ds = rd.from_arrow(tbl.select(TURN_COLS)).repartition(blocks)
    assert _same(conv_curation(ds, k=k), orc)


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("blocks", [1, 37])
def test_conv_dedup_matches_twin(ray_session, seed, blocks):
    import ray.data as rd

    from raysearch.pipelines.convstats import conv_dedup, conv_dedup_sql

    tbl = _corpus(seed)
    orc = _twin(tbl, conv_dedup_sql("corpus"))
    assert (~orc["keep"]).sum() >= 3
    ds = rd.from_arrow(tbl.select(["conv_id", "turn_idx", "text"]))
    assert _same(conv_dedup(ds.repartition(blocks)), orc)


@pytest.mark.parametrize("blocks", [1, 37])
def test_sft_pairs_and_truncate_match_twins(ray_session, blocks):
    import ray.data as rd

    from raysearch.pipelines.convstats import (
        conv_truncate,
        conv_truncate_sql,
        sft_pairs,
        sft_pairs_sql,
    )

    tbl = _corpus(8)
    ds = rd.from_arrow(tbl.select(TURN_COLS)).repartition(blocks)
    assert _same(sft_pairs(ds), _twin(tbl, sft_pairs_sql("corpus")))
    for k in (1, 3, 100):
        orc = _twin(tbl, conv_truncate_sql("corpus", k))
        assert _same(conv_truncate(ds, k), orc)


@pytest.mark.parametrize("blocks", [1, 37])
def test_per_conversation_stats_match_twins(ray_session, blocks):
    import ray.data as rd

    from raysearch.pipelines import convstats as cs
    from raysearch.pipelines.convstats import (
        assistant_share,
        assistant_share_sql,
        tool_latency,
        tool_latency_sql,
        turn_gap_stats,
        turn_gap_stats_sql,
    )

    tbl = _corpus(9)
    ds = rd.from_arrow(tbl).repartition(blocks)
    share = _twin(tbl, assistant_share_sql("corpus"))
    assert share["keep"].any() and not share["keep"].all()
    assert _same(assistant_share(ds), share)
    gaps = _twin(tbl, turn_gap_stats_sql("corpus"))
    assert (gaps["max_gap_us"] < 0).any()  # every step of a conv negative
    assert _same(turn_gap_stats(ds), gaps)
    assert _same(tool_latency(ds), _twin(tbl, tool_latency_sql("corpus")))
    for name in ("role_transitions", "role_run_stats", "tool_ngrams"):
        orc = _twin(tbl, getattr(cs, name + "_sql")("corpus"))
        assert len(orc) > 0, name
        assert _same(getattr(cs, name)(ds), orc), name


def test_empty_input_gives_empty_output(ray_session):
    import ray.data as rd

    from raysearch.pipelines.convstats import (
        assistant_share,
        conv_curation,
        conv_dedup,
        conv_truncate,
        sft_pairs,
        tool_latency,
        turn_gap_stats,
    )

    empty = rd.from_arrow(_corpus(7).slice(0, 0))
    ops = (conv_curation, conv_dedup, sft_pairs, assistant_share)
    for op in ops + (turn_gap_stats, tool_latency):
        assert op(empty).count() == 0
    assert conv_truncate(empty, 3).count() == 0


def _two_convs(text_b1=None, role_b1="assistant"):
    import pyarrow as pa

    return pa.table(
        {
            "conv_id": pa.array(["a", "a", "b", "b"], pa.string()),
            "turn_idx": pa.array([0, 1, 0, 1], pa.int32()),
            "role": pa.array(["user", "assistant", "user", role_b1]),
            "text": pa.array(["hi there", "hello you", "x y", text_b1]),
        }
    )


@pytest.mark.parametrize("op", ["conv_curation", "conv_dedup"])
def test_null_text_names_its_conversation(ray_session, op):
    """A null text turn fails with a ValueError that names the
    conversation (Ray reports it wrapped in its task error)."""
    import ray.data as rd

    from raysearch.pipelines import convstats

    ds = rd.from_arrow(_two_convs(text_b1=None))
    with pytest.raises(Exception) as err:
        getattr(convstats, op)(ds).materialize()
    assert re.search(r"ValueError: conversation 'b' has a null text", str(err.value))


def test_null_role_matches_twins(ray_session):
    """A null role is neither user nor assistant: it adds tokens to the
    share's total only and forms no pair, as in the twins."""
    import ray.data as rd

    from raysearch.pipelines.convstats import (
        conv_curation,
        conv_curation_sql,
        conv_dedup,
        conv_dedup_sql,
        sft_pairs,
        sft_pairs_sql,
    )

    tbl = _two_convs(text_b1="z w v", role_b1=None)
    ds = rd.from_arrow(tbl).repartition(2)
    orc = _twin(tbl, conv_curation_sql("corpus"))
    assert list(orc["conv_id"]) == ["a"]
    assert _same(conv_curation(ds), orc)
    assert _same(conv_dedup(ds), _twin(tbl, conv_dedup_sql("corpus")))
    assert _same(sft_pairs(ds), _twin(tbl, sft_pairs_sql("corpus")))


def test_null_role_runs_and_transitions_match_twins(ray_session):
    """A null-role turn forms no transition and no run of its own, but
    it still separates its neighbours: no (prev, role) pair spans it
    and the runs on either side of it stay apart."""
    import pyarrow as pa
    import ray.data as rd

    from raysearch.pipelines.convstats import (
        role_run_stats,
        role_run_stats_sql,
        role_transitions,
        role_transitions_sql,
    )

    convs = {
        "a": ["user", None, None, "assistant"],
        "b": ["tool", None],
        "c": ["user", None, "user", "user"],
    }
    tbl = pa.table(
        {
            "conv_id": [c for c, roles in convs.items() for _ in roles],
            "turn_idx": pa.array(
                [i for roles in convs.values() for i in range(len(roles))], pa.int32()
            ),
            "role": [r for roles in convs.values() for r in roles],
        }
    )
    ds = rd.from_arrow(tbl).repartition(2)
    trans = _twin(tbl, role_transitions_sql("corpus"))
    assert trans.values.tolist() == [["user", "user", 1]]
    assert _same(role_transitions(ds), trans)
    runs = _twin(tbl, role_run_stats_sql("corpus"))
    assert runs.values.tolist() == [
        ["a", "assistant", 1, 1],
        ["a", "user", 1, 1],
        ["b", "tool", 1, 1],
        ["c", "user", 2, 2],
    ]
    assert _same(role_run_stats(ds), runs)


def test_conv_curation_plan_has_six_operators(ray_session, tiny_corpus):
    """Three exchanges and two block passes after the read: a return
    to per-group UDFs or aggregates shows up here, not only in the
    benchmark's operator count."""
    import ray.data as rd

    from raysearch.pipelines.convstats import conv_curation

    cols = ["conv_id", "turn_idx", "role", "text"]
    out = conv_curation(rd.read_parquet(tiny_corpus, columns=cols)).materialize()
    ops = re.findall(r"^Operator \d+ (.*?):", out.stats(), re.M)
    assert 0 < len(ops) <= 6, ops
    assert not any("Aggregate" in op or "MapGroups" in op for op in ops), ops
