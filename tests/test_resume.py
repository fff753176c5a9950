"""Checkpoint/resume lifecycle tests (SURVEY.md §5 item (c); FIXTURES.md §5
'Resume': a rebuild after losing some partitions must produce an index
equal to an uninterrupted build, without redoing committed work)."""

import glob
import json
import os
import shutil

import pytest


@pytest.fixture()
def two_indexes(ray_session, tiny_corpus, tmp_path):
    from raysearch.build import build_index

    full = str(tmp_path / "full")
    build_index(tiny_corpus, full, mode="latin", n_partitions=4)
    return tiny_corpus, full, tmp_path


def _lexicon_rows(index_dir):
    import duckdb

    return duckdb.sql(
        f"SELECT term, df, cf FROM read_parquet('{index_dir}/merged/lexicon.parquet') ORDER BY term"
    ).fetchall()


def _postings_rows(index_dir):
    import duckdb

    return duckdb.sql(
        f"SELECT term, doc_ids, tfs "
        f"FROM read_parquet('{index_dir}/merged/postings/*.parquet') ORDER BY term, doc_ids[1]"
    ).fetchall()


def _decoded_postings(index_dir):
    """The index's logical postings as exploded (term, doc_id, tf) rows
    (base rows without the masked docs, plus the delta rows)."""
    from raysearch.build import decoded_postings

    t = decoded_postings(index_dir)
    return list(zip(*(t[c].to_pylist() for c in t.column_names)))


def _unpublish(index_dir):
    """Remove the published index: the ``merged`` link and every
    generation (the state before a first build's merge)."""
    os.remove(os.path.join(index_dir, "merged"))
    shutil.rmtree(os.path.join(index_dir, "generations"))


def test_resume_after_lost_wave(two_indexes):
    from raysearch.build import build_index

    corpus, full, tmp = two_indexes
    # clone the index dir, destroy one wave + the merged index
    broken = str(tmp / "broken")
    shutil.copytree(full, broken, symlinks=True)
    waves = sorted(glob.glob(os.path.join(broken, "waves", "*")))
    assert len(waves) == 4
    shutil.rmtree(waves[2])
    _unpublish(broken)
    # record mtimes of surviving waves: resume must not recompute them
    mtimes = {w: os.path.getmtime(w) for w in waves if os.path.isdir(w)}
    build_index(corpus, broken, mode="latin", n_partitions=4)
    for w, m in mtimes.items():
        assert os.path.getmtime(w) == m, f"committed wave {w} was recomputed"
    assert _lexicon_rows(broken) == _lexicon_rows(full)
    assert _postings_rows(broken) == _postings_rows(full)


def test_crashed_wave_tmp_is_cleaned(two_indexes):
    from raysearch.build import build_index

    corpus, full, tmp = two_indexes
    broken = str(tmp / "crashed")
    shutil.copytree(full, broken, symlinks=True)
    # simulate a crash: a wave dir present WITHOUT manifest.json
    waves = sorted(glob.glob(os.path.join(broken, "waves", "*")))
    os.remove(os.path.join(waves[1], "manifest.json"))
    _unpublish(broken)
    build_index(corpus, broken, mode="latin", n_partitions=4)
    assert _postings_rows(broken) == _postings_rows(full)


def test_changed_input_rejected(two_indexes, tmp_path_factory):
    from raysearch.build import build_index
    from raysearch.gen import write_corpus

    _, full, _ = two_indexes
    other = str(tmp_path_factory.mktemp("corpus2"))
    write_corpus(other, n_convs=10, avg_turns=5, n_files=2)
    with pytest.raises(ValueError, match="file list changed"):
        build_index(other, full, mode="latin")


def test_manifest_lineage(two_indexes):
    _, full, _ = two_indexes
    for mpath in glob.glob(os.path.join(full, "waves", "*", "manifest.json")):
        with open(mpath) as f:
            m = json.load(f)
        assert m["wall_s"] >= 0
        for pid, st in m["per_partition"].items():
            assert st["files"], pid  # lineage: input fragments recorded
            assert st["n_docs"] > 0 and st["n_postings"] > 0


def _compact(monkeypatch, corpus, index, **target):
    """Refresh once more with the compaction fraction patched to 0, so
    the refresh runs the full merge; returns its meta."""
    import raysearch.build as build

    with monkeypatch.context() as m:
        m.setattr(build, "DELTA_COMPACT_FRACTION", 0.0)
        meta = build.rebuild_partition(corpus, index, **target)
    assert meta["delta_values"] == meta["delta_docs"] == 0
    return meta


def test_rebuild_partition_restores_index(two_indexes, monkeypatch):
    """§3.3 analog: evict one partition and rebuild it.  The refresh
    merges only that wave, into the delta tier, and the index decodes
    to the same (term, doc_id, tf) rows and lexicon as the full build;
    after a compaction its posting files equal the full build's."""
    from raysearch.build import rebuild_partition

    corpus, full, tmp = two_indexes
    redo = str(tmp / "redo")
    shutil.copytree(full, redo)
    meta = rebuild_partition(corpus, redo, partition_id=2)
    assert meta["n_docs"] > 0
    assert 0 < meta["delta_values"] < meta["base_values"]
    assert _lexicon_rows(redo) == _lexicon_rows(full)
    assert _decoded_postings(redo) == _decoded_postings(full)
    _compact(monkeypatch, corpus, redo, partition_id=2)
    assert _lexicon_rows(redo) == _lexicon_rows(full)
    assert _postings_rows(redo) == _postings_rows(full)


def test_rebuild_partition_by_conv_id(two_indexes, monkeypatch):
    from raysearch.build import partitions_of, rebuild_partition
    from raysearch.gen import conv_name

    corpus, full, tmp = two_indexes
    redo = str(tmp / "redo_conv")
    shutil.copytree(full, redo)
    pids = partitions_of(redo, conv_name(7))
    assert pids and all(0 <= p < 4 for p in pids)
    assert rebuild_partition(corpus, redo, conv_id=conv_name(7))["delta_values"] > 0
    assert _decoded_postings(redo) == _decoded_postings(full)
    _compact(monkeypatch, corpus, redo, conv_id=conv_name(7))
    assert _postings_rows(redo) == _postings_rows(full)


def _files(root):
    return {
        os.path.join(d, f): os.path.getmtime(os.path.join(d, f))
        for d, _, names in os.walk(root)
        for f in names
    }


def test_evict_drops_partition_rows(two_indexes):
    """Eviction deletes the partition's wave dir and nothing else: no
    file is written and every other wave file keeps its mtime."""
    from raysearch.build import _committed_partitions, evict_partition

    corpus, full, tmp = two_indexes
    broken = str(tmp / "evicted")
    shutil.copytree(full, broken)
    gone = os.path.join(broken, "waves", "p-00001")
    before = _files(broken)
    assert evict_partition(broken, 1) == "p-00001"
    assert not os.path.exists(gone)
    pids, _ = _committed_partitions(broken)
    assert sorted(pids) == [0, 2, 3]
    assert _files(broken) == {
        f: m for f, m in before.items() if not f.startswith(gone + os.sep)
    }
    assert evict_partition(broken, 1) is None


def test_merge_resumes_from_partial_tmp(two_indexes):
    """A crashed merge leaves an unpublished generation with some
    atomic bucket files; resume must keep them (same wave set), only
    produce the missing buckets and publish that generation."""
    import time

    from raysearch.build import build_index

    corpus, full, tmp = two_indexes
    broken = str(tmp / "merge_crash")
    shutil.copytree(full, broken, symlinks=True)
    # simulate the crash: the generation is unpublished, without its
    # meta.json and with half its bucket files missing
    gen = os.path.realpath(os.path.join(broken, "merged"))
    os.remove(os.path.join(broken, "merged"))
    os.remove(os.path.join(gen, "meta.json"))
    bucket_files = sorted(glob.glob(os.path.join(gen, "postings", "*.parquet")))
    assert len(bucket_files) > 2
    for f in bucket_files[::2]:
        os.remove(f)
    survivors = {
        f: os.path.getmtime(f) for f in bucket_files if os.path.exists(f)
    }
    time.sleep(0.05)
    build_index(corpus, broken, mode="latin", n_partitions=4)
    assert os.path.realpath(os.path.join(broken, "merged")) == gen
    for f, m in survivors.items():
        assert os.path.getmtime(f) == m, "completed bucket was redone"
    assert _postings_rows(broken) == _postings_rows(full)
    assert _lexicon_rows(broken) == _lexicon_rows(full)


def test_pipelines_produce_identical_index(two_indexes):
    """A forced-spill build (many doc-disjoint sub-segments per
    partition, one wave) must decode to the same merged postings and
    lexicon as the default build (one flush per partition, one wave
    each).  Merged rows follow the flushes, so the spill build has
    more of them."""
    from raysearch.build import build_index

    corpus, full, tmp = two_indexes
    out = str(tmp / "pipe_spill")
    # small read batches + tiny spill budget force MULTIPLE flushes per
    # partition (mid-stream sub-segments + final flush)
    build_index(
        corpus, out, mode="latin", n_partitions=4, spill_rows=200, read_batch_rows=8
    )
    assert _decoded_postings(out) == _decoded_postings(full)
    assert _lexicon_rows(out) == _lexicon_rows(full)
    assert len(_postings_rows(out)) > len(_postings_rows(full))
    for mpath in glob.glob(os.path.join(out, "waves", "*", "manifest.json")):
        with open(mpath) as f:
            m = json.load(f)
        assert all(
            p["n_flushes"] > 1 for p in m["per_partition"].values()
        ), "spill did not produce multiple sub-segments"


def _append_to_first_turn(corpus, conv_id, word):
    """Edit the input in place: append ``word`` to turn 0 of ``conv_id``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    for path in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
        t = pq.read_table(path)
        hit = pc.and_(pc.equal(t["conv_id"], conv_id), pc.equal(t["turn_idx"], 0))
        if not pc.any(hit).as_py():
            continue
        edited = pc.binary_join_element_wise(t["text"], pa.scalar(word), " ")
        i = t.schema.get_field_index("text")
        t = t.set_column(i, t.schema.field(i), pc.if_else(hit, edited, t["text"]))
        pq.write_table(t, path)
        return
    raise KeyError(conv_id)


@pytest.mark.parametrize(
    "n_partitions", [4, 1], ids=["wave_per_partition", "one_wave"]
)
def test_refresh_after_input_edit_matches_fresh_build(
    ray_session, tiny_corpus, tmp_path, monkeypatch, n_partitions
):
    """After each refresh of an edited conversation's partition the
    index decodes to the same (term, doc_id, tf) rows and lexicon as a
    fresh build of the edited input, also when the refresh recreates a
    wave under its old name (each refresh of the same conversation
    recreates its ``p-…`` wave; with one partition that wave is the
    whole index, so every refresh compacts).  The merge is keyed on
    wave commit ids, not wave names.  After a compaction the posting
    files equal the fresh build's."""
    from raysearch.build import build_index, rebuild_partition
    from raysearch.gen import conv_name

    corpus = str(tmp_path / "corpus")
    shutil.copytree(tiny_corpus, corpus)
    index = str(tmp_path / "index")
    build_index(corpus, index, mode="latin", n_partitions=n_partitions)
    conv = conv_name(7)
    for word in ("quokka", "wombat"):
        _append_to_first_turn(corpus, conv, word)
        meta = rebuild_partition(corpus, index, conv_id=conv)
        assert (meta["delta_values"] > 0) == (n_partitions > 1)
        assert word in {r[0] for r in _lexicon_rows(index)}, word
        fresh = str(tmp_path / f"fresh-{word}")
        build_index(corpus, fresh, mode="latin", n_partitions=n_partitions)
        assert _lexicon_rows(index) == _lexicon_rows(fresh)
        assert _decoded_postings(index) == _decoded_postings(fresh)
    _compact(monkeypatch, corpus, index, conv_id=conv)
    assert _lexicon_rows(index) == _lexicon_rows(fresh)
    assert _postings_rows(index) == _postings_rows(fresh)
    from raysearch.search import IndexSearcher

    got, want = IndexSearcher(index), IndexSearcher(fresh)
    assert got.n_docs == want.n_docs
    all_docs = list(range(want.n_docs))
    assert got.fetch_docs(all_docs).equals(want.fetch_docs(all_docs))


def test_merge_skipped_when_up_to_date(two_indexes):
    from raysearch.build import build_index

    corpus, full, _ = two_indexes
    mtime = max(
        os.path.getmtime(p)
        for p in glob.glob(os.path.join(full, "merged", "postings", "*.parquet"))
    )
    build_index(corpus, full, mode="latin")  # no-op resume
    mtime2 = max(
        os.path.getmtime(p)
        for p in glob.glob(os.path.join(full, "merged", "postings", "*.parquet"))
    )
    assert mtime == mtime2


def test_meta_size_is_flat_in_partition_count(ray_session, tmp_path):
    """``meta.json``, which every searcher open parses, keeps a digest
    of the wave → commit map, not the map: at 2 and 8 partitions it
    has the same size once its timings are dropped."""
    from raysearch.build import build_index
    from raysearch.gen import write_corpus

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_convs=16, avg_turns=4, avg_tokens=10, seed=3, n_files=8)
    sizes = {}
    for n in (2, 8):
        out = str(tmp_path / f"idx{n}")
        meta = build_index(corpus, out, mode="latin", n_partitions=n)
        assert meta["n_waves"] == n and "waves" not in meta
        with open(os.path.join(out, "merged", "meta.json")) as f:
            on_disk = json.load(f)
        assert on_disk == json.loads(json.dumps(meta))
        for timing in ("build_wall_s", "stage_times"):
            on_disk.pop(timing)
        sizes[n] = len(json.dumps(on_disk, indent=1))
    assert sizes[2] == sizes[8]


def test_sigterm_midbuild_then_resume(ray_session, tiny_corpus, tmp_path):
    """Kill a REAL build process mid-run (the serve stopIndexing path:
    SIGTERM of a default build, not a simulated missing wave), then
    resume: committed waves must survive untouched and the final index
    must equal an uninterrupted build's."""
    import subprocess
    import sys
    import time

    from raysearch.build import build_index

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = str(tmp_path / "killed")
    p = subprocess.Popen(
        [
            sys.executable, "-m", "raysearch", "--num-cpus", "4", "build",
            "--input", tiny_corpus, "--out", out,
            "--partitions", "4",
        ],
        cwd=repo,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if glob.glob(os.path.join(out, "waves", "*", "manifest.json")):
            break
        if p.poll() is not None:
            break
        time.sleep(0.2)
    interrupted = p.poll() is None
    p.terminate()
    p.wait(timeout=60)

    committed = {
        w: os.path.getmtime(w)
        for w in glob.glob(os.path.join(out, "waves", "*"))
        if os.path.isfile(os.path.join(w, "manifest.json"))
    }
    # resume in-process; committed waves must not be recomputed
    build_index(tiny_corpus, out, mode="latin", n_partitions=4)
    for w, m in committed.items():
        assert os.path.getmtime(w) == m, f"committed wave {w} recomputed"

    clean = str(tmp_path / "clean")
    build_index(tiny_corpus, clean, mode="latin", n_partitions=4)
    assert _lexicon_rows(out) == _lexicon_rows(clean)
    assert _postings_rows(out) == _postings_rows(clean)
    assert interrupted or committed, "build finished before any commit"


def _commits(index_dir):
    out = {}
    for mpath in glob.glob(os.path.join(index_dir, "waves", "*", "manifest.json")):
        with open(mpath) as f:
            out[os.path.basename(os.path.dirname(mpath))] = json.load(f)["commit"]
    return out


def test_every_wave_holds_one_partition(two_indexes):
    _, full, _ = two_indexes
    waves = {}
    for mpath in glob.glob(os.path.join(full, "waves", "*", "manifest.json")):
        with open(mpath) as f:
            waves[os.path.basename(os.path.dirname(mpath))] = json.load(f)["partitions"]
    assert waves == {f"p-{p:05d}": [p] for p in range(4)}


def test_tmp_wave_with_manifest_is_not_committed(two_indexes):
    """A partition task that wrote its manifest but crashed before its
    rename leaves ``waves/_tmp_p-…`` complete-looking: statistics must
    count the partition as uncommitted and resume must rebuild it, not
    merge from the tmp dir."""
    from raysearch.build import build_index
    from raysearch.stats_api import index_stats

    corpus, full, tmp = two_indexes
    broken = str(tmp / "tmp_wave")
    shutil.copytree(full, broken)
    waves = os.path.join(broken, "waves")
    os.rename(os.path.join(waves, "p-00001"), os.path.join(waves, "_tmp_p-00001"))
    assert os.path.isfile(os.path.join(waves, "_tmp_p-00001", "manifest.json"))
    st = index_stats(broken)
    assert "1" not in st["partitions"]
    assert st["committed_partitions"] == 3
    assert st["total"]["is_indexing"] is True
    build_index(corpus, broken, mode="latin", n_partitions=4)
    assert sorted(os.listdir(waves)) == [f"p-{p:05d}" for p in range(4)]
    assert _lexicon_rows(broken) == _lexicon_rows(full)
    assert _postings_rows(broken) == _postings_rows(full)


def test_rebuild_by_conv_keeps_other_waves(two_indexes):
    """A refresh rewrites only the waves of the conversation's
    partitions: every other wave keeps its commit id."""
    from raysearch.build import partitions_of, rebuild_partition
    from raysearch.gen import conv_name

    corpus, full, tmp = two_indexes
    redo = str(tmp / "redo_commits")
    shutil.copytree(full, redo)
    before = _commits(redo)
    rebuilt = {f"p-{p:05d}" for p in partitions_of(redo, conv_name(7))}
    rebuild_partition(corpus, redo, conv_id=conv_name(7))
    after = _commits(redo)
    assert sorted(after) == sorted(before)
    for w, c in before.items():
        assert (after[w] != c) == (w in rebuilt), w


def test_multi_partition_wave_is_rebuilt(two_indexes):
    """A wave holding several partitions (as batch-committing builds
    wrote them) is deleted and its partitions rebuilt one wave each on
    resume; the other waves stay, and the index equals a fresh build."""
    from raysearch.build import build_index

    corpus, full, tmp = two_indexes
    old = str(tmp / "multi")
    shutil.copytree(full, old)
    waves = os.path.join(old, "waves")
    multi = os.path.join(waves, "w-00001-2")
    os.makedirs(os.path.join(multi, "segments"))
    parts = []
    for pid in (1, 2):
        src = os.path.join(waves, f"p-{pid:05d}")
        for f in os.listdir(os.path.join(src, "segments")):
            os.rename(os.path.join(src, "segments", f), os.path.join(multi, "segments", f))
        os.rename(os.path.join(src, "doclens.arrow"), os.path.join(multi, f"doclens-{pid}.arrow"))
        with open(os.path.join(src, "manifest.json")) as f:
            parts.append(json.load(f))
        shutil.rmtree(src)
    with open(os.path.join(multi, "manifest.json"), "w") as f:
        json.dump(
            {
                **parts[0],
                "partitions": [1, 2],
                "per_partition": {k: v for m in parts for k, v in m["per_partition"].items()},
            },
            f,
        )
    kept = {w: os.path.getmtime(os.path.join(waves, w)) for w in ("p-00000", "p-00003")}

    build_index(corpus, old, mode="latin", n_partitions=4)

    assert sorted(os.listdir(waves)) == [f"p-{p:05d}" for p in range(4)]
    for w, m in kept.items():
        assert os.path.getmtime(os.path.join(waves, w)) == m, w
    assert _lexicon_rows(old) == _lexicon_rows(full)
    assert _postings_rows(old) == _postings_rows(full)


def test_no_resume_replaces_every_wave(two_indexes):
    """``resume=False`` rebuilds every partition and first drops every
    wave, so a committed wave under another name (a single-partition
    wave of a batch-committing build) cannot duplicate a partition."""
    from raysearch.build import build_index

    corpus, full, tmp = two_indexes
    redo = str(tmp / "no_resume")
    shutil.copytree(full, redo)
    waves = os.path.join(redo, "waves")
    os.rename(os.path.join(waves, "p-00003"), os.path.join(waves, "w-00003-1"))
    build_index(corpus, redo, mode="latin", n_partitions=4, resume=False)
    assert sorted(os.listdir(waves)) == [f"p-{p:05d}" for p in range(4)]
    assert _lexicon_rows(redo) == _lexicon_rows(full)
    assert _postings_rows(redo) == _postings_rows(full)
