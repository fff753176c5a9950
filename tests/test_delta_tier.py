"""Refresh through the delta tier: a refresh merges the waves changed
since the base into one delta posting file and masks their docs in the
base.  These tests hold the refreshed index to the oracle and to fresh
builds — a conversation split across partitions, a crash before the
delta generation is published, random edit sequences that cross the
compaction threshold, and searches in another process while refreshes
publish generation after generation."""

import glob
import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raysearch.oracle import Oracle
from raysearch.vocab import LEMMAS
from test_build_search import _assert_or_matches_brute_force


def _set_text(corpus: str, conv_id: str, turn_idx: int, edit) -> None:
    """Replace one turn's text in the input with ``edit(old_text)``."""
    for path in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
        t = pq.read_table(path)
        hit = pc.and_(pc.equal(t["conv_id"], conv_id), pc.equal(t["turn_idx"], turn_idx))
        rows = np.flatnonzero(hit.to_numpy(zero_copy_only=False))
        if not len(rows):
            continue
        texts = t["text"].to_pylist()
        texts[rows[0]] = edit(texts[rows[0]])
        i = t.schema.get_field_index("text")
        pq.write_table(t.set_column(i, t.schema.field(i), pa.array(texts, pa.string())), path)
        return
    raise KeyError((conv_id, turn_idx))


def _lexicon(index: str) -> list[tuple]:
    t = pq.read_table(
        os.path.join(index, "merged", "lexicon.parquet"), columns=["term", "df", "cf"]
    ).sort_by("term")
    return list(zip(*(t[c].to_pylist() for c in t.column_names)))


def _assert_rank_identical(got, want, what) -> None:
    assert got[0].tolist() == want[0].tolist(), what
    assert got[1].tolist() == want[1].tolist(), what


def _conv_stats(index: str) -> dict:
    """Per-conversation rows of ``/api/statistics`` (no timestamps)."""
    from raysearch.serve import EngineServer

    detailed = EngineServer(index, detail_limit=10**6).statistics()["statistics"]["detailed"]
    return {r["url"]: (r["pages"], r["tokens"], r["lemmas"]) for r in detailed}


def test_split_conversation_refresh(ray_session, small_corpus, tmp_path):
    """A conversation straddles the file (and partition) boundary 5|6.
    A refresh of a conversation in partition 9, then one of the split
    conversation, leaves partitions 5, 6 and 9 in the delta tier — a
    mask that is a doc-id set with unmasked docs (partitions 7, 8)
    inside its span.  AND, OR, scoped and sharded search then equal the
    oracle (doc ids and float64 scores; OR also a fresh build's), and
    the per-conversation statistics equal a fresh build's."""
    from raysearch.build import build_index, decoded_postings, partitions_of, rebuild_partition
    from raysearch.search import IndexSearcher, ShardedSearcher

    table = pq.read_table(small_corpus).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    convs = table["conv_id"].to_pylist()
    bounds = [table.num_rows * i // 12 for i in range(13)]
    while convs[bounds[6] - 1] != convs[bounds[6]]:  # cut inside a conversation
        bounds[6] += 1
    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    for i in range(12):
        pq.write_table(
            table.slice(bounds[i], bounds[i + 1] - bounds[i]),
            os.path.join(corpus, f"part-{i:02d}.parquet"),
        )
    index = str(tmp_path / "index")
    build_index(corpus, index, mode="latin", n_partitions=12)
    split = convs[bounds[6]]
    inner = convs[(bounds[9] + bounds[10]) // 2]
    assert partitions_of(index, split) == [5, 6]
    assert partitions_of(index, inner) == [9]

    n_split = convs.count(split)
    _set_text(corpus, inner, 0, lambda t: t + " wombat")
    assert rebuild_partition(corpus, index, conv_id=inner)["delta_values"] > 0
    _set_text(corpus, split, 0, lambda t: t + " quokka")
    _set_text(corpus, split, n_split - 1, lambda t: "quokka wombat")
    meta = rebuild_partition(corpus, index, conv_id=split)
    assert 0 < meta["delta_values"] < meta["base_values"]
    masked = pq.read_table(os.path.join(index, "merged", "delta", "masked.parquet"))
    masked = masked["doc_id"].to_numpy()
    want_masked = np.concatenate(
        [np.arange(bounds[p], bounds[p + 1]) for p in (5, 6, 9)]
    )
    assert masked.tolist() == want_masked.tolist() == sorted(set(want_masked.tolist()))
    assert meta["delta_docs"] == len(masked) < masked[-1] - masked[0] + 1

    fresh = str(tmp_path / "fresh")
    build_index(corpus, fresh, mode="latin", n_partitions=12)
    assert _lexicon(index) == _lexicon(fresh)
    assert decoded_postings(index).equals(decoded_postings(fresh))

    oracle = Oracle(corpus, mode="latin")
    s, f = IndexSearcher(index), IndexSearcher(fresh)
    sharded = ShardedSearcher(index, n_shards=3)
    queries = [
        "quokka", "wombat", "quokka wombat", LEMMAS[1], f"{LEMMAS[1]} quokka",
        f"{LEMMAS[5]} {LEMMAS[40]}", f"{LEMMAS[8]} {LEMMAS[80]}", LEMMAS[150],
    ]
    for q in queries:
        for scorer in ("bm25", "reference"):
            want = oracle.search(q, k=10, scorer=scorer)
            _assert_rank_identical(s.search(q, k=10, scorer=scorer), want, (q, scorer))
            got = sharded.search(q, k=10, scorer=scorer)
            _assert_rank_identical(got, want, ("sharded", q, scorer))
            assert got[2] == want[2]
        for scope in (split, inner, convs[bounds[7]]):
            _assert_rank_identical(
                s.search(q, k=10, scope=scope), oracle.search(q, k=10, scope=scope), (q, scope)
            )
        _assert_rank_identical(s.search_or(q, k=10), f.search_or(q, k=10), ("or", q))
        _assert_rank_identical(sharded.search_or(q, k=10), f.search_or(q, k=10), ("or", q))
        _assert_or_matches_brute_force(s, oracle, q)
    stats = _conv_stats(index)
    assert stats == _conv_stats(fresh)
    assert stats[split][2] > 0


@pytest.mark.parametrize("crash", ["before_publish", "between_swap_steps"])
def test_refresh_crash_resumes(ray_session, tiny_corpus, tmp_path, monkeypatch, crash):
    """A refresh that dies before its delta generation is published —
    while writing it, or once it and its new ``merged`` link are
    written but before the link is swapped in — leaves the previous
    generation serving.  The next ``build_index(resume=True)`` merges
    against that generation and publishes the logical postings and
    lexicon of a clean build of the edited input; a generation orphaned
    by a crash is gone after the next publish of other wave commits."""
    import raysearch.build as build
    from raysearch.gen import conv_name
    from raysearch.search import IndexSearcher

    corpus = str(tmp_path / "corpus")
    shutil.copytree(tiny_corpus, corpus)
    index = str(tmp_path / "index")
    build.build_index(corpus, index, mode="latin", n_partitions=4)
    merged = os.path.join(index, "merged")
    gens = os.path.join(index, "generations")

    class Crash(Exception):
        pass

    def crashed_refresh(word: str) -> str:
        """Edit conversation 7, crash its refresh; returns the orphan."""
        published, kept = os.path.realpath(merged), set(os.listdir(gens))
        digest = IndexSearcher(index).meta["waves_digest"]
        _set_text(corpus, conv_name(7), 0, lambda t: f"{t} {word}")
        with monkeypatch.context() as m:
            if crash == "before_publish":
                def crash_in(*args, **kwargs):
                    raise Crash

                m.setattr(build, "conv_lemma_counts", crash_in)
            else:
                replace = os.replace

                def crash_in(src, dst):
                    if os.path.abspath(dst) == os.path.abspath(merged):
                        raise Crash
                    return replace(src, dst)

                m.setattr(os, "replace", crash_in)
            with pytest.raises(Crash):
                build.rebuild_partition(corpus, index, conv_id=conv_name(7))
        (orphan,) = set(os.listdir(gens)) - kept
        orphan = os.path.join(gens, orphan)
        assert os.path.isfile(os.path.join(orphan, "delta", "postings.parquet"))
        assert os.path.isfile(os.path.join(orphan, "delta", "masked.parquet"))
        assert os.path.isfile(os.path.join(orphan, "meta.json")) == (crash != "before_publish")
        s = IndexSearcher(index)  # the previous generation still serves
        assert s.generation == os.path.realpath(merged) == published
        assert s.meta["waves_digest"] == digest
        assert word not in dict((t, df) for t, df, _ in _lexicon(index))
        assert not len(s.search(word)[0])
        return orphan

    def assert_clean(meta) -> None:
        assert meta["delta_values"] > 0  # the published generation was the base
        clean = str(tmp_path / "clean")
        shutil.rmtree(clean, ignore_errors=True)
        build.build_index(corpus, clean, mode="latin", n_partitions=4)
        assert _lexicon(index) == _lexicon(clean)
        assert build.decoded_postings(index).equals(build.decoded_postings(clean))

    base = os.path.realpath(merged)
    orphan = crashed_refresh("quokka")
    # the resume merges the same wave commits: the orphan's name, rebuilt
    assert_clean(build.build_index(corpus, index, mode="latin", n_partitions=4))
    assert os.path.realpath(merged) == orphan
    assert set(os.listdir(gens)) == {os.path.basename(base), os.path.basename(orphan)}
    # an orphan of wave commits no later build merges goes at the next publish
    base = os.path.realpath(merged)
    orphan = crashed_refresh("wombat")
    _set_text(corpus, conv_name(7), 1, lambda t: f"{t} numbat")
    assert_clean(build.rebuild_partition(corpus, index, conv_id=conv_name(7)))
    assert not os.path.exists(orphan)
    assert set(os.listdir(gens)) == {
        os.path.basename(base), os.path.basename(os.path.realpath(merged))
    }


def test_sharded_searcher_pins_its_generation(ray_session, tiny_corpus, tmp_path):
    """A ShardedSearcher opened just before a refresh answers from the
    generation published when it opened: every shard opens that
    generation's directory, however late its actor starts, so the
    merged ranking (doc ids and float64 scores, bm25 and reference, AND
    and OR) equals that of a searcher opened before the refresh, and
    no shard mixes in the new generation's df or ``avg_doc_len``."""
    import ray

    from raysearch.build import build_index, rebuild_partition
    from raysearch.gen import conv_name
    from raysearch.search import IndexSearcher, ShardedSearcher

    corpus = str(tmp_path / "corpus")
    shutil.copytree(tiny_corpus, corpus)
    index = str(tmp_path / "index")
    build_index(corpus, index, mode="latin", n_partitions=4)
    queries = [LEMMAS[10], f"{LEMMAS[5]} {LEMMAS[40]}", f"{LEMMAS[3]} {LEMMAS[25]}"]
    before = IndexSearcher(index)
    want = {
        (q, scorer): before.search(q, k=10, scorer=scorer)
        for q in queries
        for scorer in ("bm25", "reference")
    }
    want_or = {q: before.search_or(q, k=10) for q in queries}
    sharded = ShardedSearcher(index, n_shards=3)
    _set_text(corpus, conv_name(7), 0, lambda t: f"{t} {LEMMAS[10]} {LEMMAS[5]} {LEMMAS[3]}")
    rebuild_partition(corpus, index, conv_id=conv_name(7))
    try:
        for (q, scorer), (ids, scores, total) in want.items():
            got = sharded.search(q, k=10, scorer=scorer)
            assert got[0].tolist() == ids.tolist(), (q, scorer)
            assert got[1].tolist() == scores.tolist(), (q, scorer)
            assert got[2] == total, (q, scorer)
            if scorer == "bm25":  # the reference scorer reads no df
                now = IndexSearcher(index).search(q, k=10)
                assert now[1].tolist() != scores.tolist(), "the refresh changed no score"
        for q, want_q in want_or.items():
            _assert_rank_identical(sharded.search_or(q, k=10), want_q, ("or", q))
    finally:
        for shard in sharded.shards:
            ray.kill(shard)


#: the concurrent reader's loop: a fresh searcher per query, each
#: response recorded with the generation it came from (or the error)
_READER = """
import json, os, sys
from raysearch.search import IndexSearcher

index, out, stop, queries = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
rows, i = [], 0
while not os.path.exists(stop):
    q, mode = queries[i % len(queries)]
    i += 1
    try:
        s = IndexSearcher(index)
        rows.append([os.path.basename(s.generation), q, mode, s.search_response(q, k=5, mode=mode)])
    except Exception as e:
        rows.append([None, q, mode, repr(e)])
    if i == 1:
        open(out + ".ready", "w").close()
with open(out, "w") as f:
    json.dump(rows, f)
"""


def test_searches_in_another_process_during_refreshes(ray_session, tiny_corpus, tmp_path):
    """While this process runs 20 refreshes (delta merges and
    compactions), another opens a fresh searcher per query.  Every
    response it gets is error-free, whole and from one generation: it
    equals the response of a searcher opened alone on that generation
    (doc ids, float64 scores and snippet text).  Each generation also
    matches the oracle (bm25, reference, scoped and OR), and after
    every publish ``generations/`` holds exactly the published
    generation and the one it replaced."""
    import json
    import subprocess
    import sys
    import time

    from raysearch.build import build_index, rebuild_partition
    from raysearch.gen import conv_name
    from raysearch.search import IndexSearcher

    corpus = str(tmp_path / "corpus")
    shutil.copytree(tiny_corpus, corpus)
    index = str(tmp_path / "index")
    build_index(corpus, index, mode="latin", n_partitions=4)
    queries = [
        ("quokka", "and"), (LEMMAS[10], "and"), (f"{LEMMAS[5]} {LEMMAS[40]}", "and"),
        (f"quokka {LEMMAS[3]}", "or"),
    ]
    expected: dict[str, dict] = {}

    def record() -> str:
        s = IndexSearcher(index)
        gen = os.path.basename(s.generation)
        expected[gen] = {
            (q, mode): json.loads(json.dumps(s.search_response(q, k=5, mode=mode)))
            for q, mode in queries
        }
        oracle = Oracle(corpus, mode="latin")
        for q, _ in queries:
            for scorer in ("bm25", "reference"):
                _assert_rank_identical(
                    s.search(q, k=5, scorer=scorer), oracle.search(q, k=5, scorer=scorer), q
                )
            scope = conv_name(7)
            _assert_rank_identical(
                s.search(q, k=5, scope=scope), oracle.search(q, k=5, scope=scope), q
            )
            _assert_or_matches_brute_force(s, oracle, q, k=5)
        return gen

    published = [record()]
    out, stop = str(tmp_path / "reader.json"), str(tmp_path / "stop")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    reader = subprocess.Popen(
        [sys.executable, "-c", _READER, index, out, stop, json.dumps(queries)],
        cwd=repo,
        env={**os.environ, "PYTHONPATH": repo},
    )
    kinds = []
    try:
        deadline = time.monotonic() + 120
        while not os.path.exists(out + ".ready"):
            assert reader.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        for i in range(20):
            conv = conv_name((7 * i) % 20)
            word = "quokka" if i % 3 else LEMMAS[5]
            _set_text(corpus, conv, 0, lambda t, w=word: f"{t} {w}")
            meta = rebuild_partition(corpus, index, conv_id=conv)
            kinds.append("delta" if meta["delta_values"] else "compacted")
            published.append(record())
            gens = set(os.listdir(os.path.join(index, "generations")))
            assert gens == set(published[-2:]), i
    finally:
        open(stop, "w").close()
        try:
            reader.wait(timeout=120)
        finally:
            reader.kill()
    assert reader.returncode == 0
    assert "delta" in kinds and "compacted" in kinds, kinds
    with open(out) as f:
        rows = json.load(f)
    errors = [r for r in rows if r[0] is None]
    assert not errors, errors[:3]
    seen = set()
    for gen, q, mode, resp in rows:
        assert resp == expected[gen][(q, mode)], (gen, q, mode)
        seen.add(gen)
    assert len(seen) >= 3, (len(rows), len(seen))


#: the property test's corpus: six files of two conversations each, one
#: partition per file holding 8.5–26% of the postings, so one
#: partition's stay under the compaction fraction and any four pass it
_SEQ_CORPUS = dict(n_convs=12, avg_turns=4, avg_tokens=12, seed=5, n_files=6)
_EDIT_WORDS = ["quokka", "wombat", "numbat", "bilby", "dingo"]


@st.composite
def _edit_sequences(draw):
    """(partition, conversation slot, edit) steps over four distinct
    partitions: the first edit adds a new word to a conversation, later
    edits touch three other partitions (crossing the compaction
    threshold), and the last removes the first word again — its last
    occurrence."""
    parts = draw(st.permutations(range(6)))[:4]
    steps = [(parts[0], draw(st.integers(0, 1)), "add")]
    for p in parts[1:]:
        steps.append((p, draw(st.integers(0, 1)), draw(st.sampled_from(["add", "clear"]))))
    draw(st.randoms()).shuffle(steps[1:])
    return steps + [(steps[0][0], steps[0][1], "remove")]


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(steps=_edit_sequences())
def test_refresh_sequences_cross_compaction(ray_session, steps):
    """After every refresh of a random edit sequence — through the
    delta tier, across a compaction and back into a new delta — the
    lexicon equals a fresh build's and ``search``/``search_or`` equal
    the oracle (doc ids and float64 scores; OR also a fresh build's)."""
    from raysearch.build import build_index, decoded_postings, rebuild_partition
    from raysearch.gen import write_corpus
    from raysearch.search import IndexSearcher

    with tempfile.TemporaryDirectory() as d:
        corpus, index = os.path.join(d, "corpus"), os.path.join(d, "index")
        write_corpus(corpus, **_SEQ_CORPUS)
        build_index(corpus, index, mode="latin", n_partitions=6)
        files = sorted(glob.glob(os.path.join(corpus, "*.parquet")))
        by_part = [
            pq.read_table(f, columns=["conv_id"])["conv_id"].unique().to_pylist() for f in files
        ]
        first_word = _EDIT_WORDS[0]
        kinds = []
        for i, (part, slot, edit) in enumerate(steps):
            conv = by_part[part][slot % len(by_part[part])]
            if edit == "add":
                word = _EDIT_WORDS[i]
                _set_text(corpus, conv, 0, lambda t, w=word: f"{t} {w} {w}")
            elif edit == "clear":
                _set_text(corpus, conv, 0, lambda t: "")
            else:
                _set_text(corpus, conv, 0, lambda t: t.replace(f" {first_word}", ""))
            meta = rebuild_partition(corpus, index, conv_id=conv)
            kinds.append("delta" if meta["delta_values"] else "compacted")
            fresh = os.path.join(d, f"fresh-{i}")
            build_index(corpus, fresh, mode="latin", n_partitions=6)
            lex = _lexicon(index)
            assert lex == _lexicon(fresh), (i, steps)
            assert decoded_postings(index).equals(decoded_postings(fresh)), (i, steps)
            oracle = Oracle(corpus, mode="latin")
            s, f = IndexSearcher(index), IndexSearcher(fresh)
            queries = _EDIT_WORDS + [LEMMAS[1], LEMMAS[20], f"{LEMMAS[3]} {LEMMAS[30]}"]
            for q in queries + [f"{first_word} {LEMMAS[2]}"]:
                _assert_rank_identical(s.search(q, k=5), oracle.search(q, k=5), (i, q))
                _assert_rank_identical(s.search_or(q, k=5), f.search_or(q, k=5), (i, q))
                _assert_or_matches_brute_force(s, oracle, q, k=5)
            shutil.rmtree(fresh)
        assert first_word not in {t for t, _, _ in lex}
        assert kinds[0] == "delta" and "compacted" in kinds, kinds
