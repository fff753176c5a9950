"""Ray-Data-native inverted-index build pipeline (SURVEY.md §3.1 restated).

Replaces the reference's crawl-and-upsert build (ForkJoinPool crawler →
per-page ``new LemmaSearch()`` → row-at-a-time MySQL writes,
services/RecursiveSearch.java:46-162 and
services/IndexingServiceImpl.java:80-135) with one partition-local
pipeline.

One Ray task per input partition (``build_partition_task``) streams
the partition's parquet fragments, tokenizes them with per-worker
cached lemmatizer state (the ST1 load-once pattern; the reference pays
dictionary load once per page, RecursiveSearch.java:68), aggregates tf
per doc in-batch (A1 analog, LemmaSearch.java:50-53), and flushes
sorted sub-segments whenever its posting buffer reaches ``spill_rows``
("per-partition spill").  A posting row is (term, bucket, ``doc_ids``,
``tfs``) with the two lists stored as Parquet list columns — doc ids
``DELTA_BINARY_PACKED``, tfs, terms and buckets dictionary-encoded —
so Parquet does the compression and ``_write_postings`` is the one
place that sets it.  Merged posting files hold the segment rows
without ``bucket`` (``MERGED_POSTINGS_SCHEMA``).  Doc lengths and lineage stats are
computed in the same task.  A partition is fully determined by its
input files, so posting rows never cross workers: df comes from the
merge or the waves' statistics, not a shared counter (contrast
RecursiveSearch.java:150-162).  The only all-to-all
in the build is the merge: a task per run of term buckets reads each
bucket's row groups of every segment (segments are written
bucket-sorted) and LSM-merges them into the global index + lexicon +
meta (S6/S7 analog), writing the segment rows as they are, in (term,
first doc id) order, without decoding or re-encoding their lists.  A
merged bucket file's row groups hold whole terms, about
``POSTING_RG_VALUES`` values each, so a searcher reads a term as one
row slice of one row group.  The merge writes everything a searcher
opens: ``lexicon.parquet`` (df, cf and each term's posting bucket, row
group and row range) and one doc_id-ordered ``doclens.parquet``,
besides the build's ``conv_offsets.parquet``; ``meta.json`` names the
layout (``INDEX_FORMAT``).  Each partition task also writes its turns' raw
(doc_id, role, text) once, as a doc_id-ordered uncompressed Arrow IPC
file (``docs.arrow``, ``DOC_BATCH_ROWS``-row record batches); the merge
hard-links every wave's file into ``merged/docs/``, so results render
from the index, a refresh copies no text, and a searcher's text comes
from the same generation as its scores.

Deterministic doc_id: dense rank under stable (conv_id, turn_idx)
order, realized WITHOUT a global sort — conv offsets are computed from
a (small) groupby over conv_id and broadcast via ``ray.put``; then
``doc_id = offset[conv_id] + turn_idx`` (turn_idx is contiguous per
conversation by input contract; ``validate=True`` asserts it).  This is
SURVEY §7 hard-part (a)'s range-partition mitigation.

Skew: hot Zipf terms (df≈N) never form one giant group — a segment
row holds one term's postings within one partition flush, so its size
is bounded by the flush's posting buffer (``spill_rows``); the merge
groups rows by crc32(term) % buckets and writes each per-partition
row as it stands (doc-disjoint by construction), so no stored list
scales with global df (SURVEY §4, "Skew / hot keys").

Refresh: the merged index has a base tier (the full merge's bucket
files) and a delta tier (one posting file merged from the waves
rebuilt since, whose docs the base no longer answers for); a refresh
merges its changed waves only, and the full merge runs again once the
delta outgrows ``DELTA_COMPACT_FRACTION`` of the base (see
:func:`build_index`).  Global statistics never come from a scan: each
wave writes its per-term (df, cf) and per-conversation lemma counts
(:func:`_wave_stats`), and every generation sums them.

Checkpoint/resume: the unit of commit is the partition.  Each
partition task writes its segments, doc lengths, doc store and a
manifest (lineage: input files, row counts, wall time, a unique commit
id) into ``waves/_tmp_p-NNNNN`` and, as its last act, atomically
renames it to ``waves/p-NNNNN``.  A wave dir without the ``_tmp_``
prefix is complete by invariant; resume skips partitions that have
one, so a stopped build keeps every partition it finished, and
evicting a partition is a rename plus a directory delete.  The merge is keyed on the commit ids
of the waves it read, so it reruns whenever any wave was rewritten —
even under the same wave name — and is idempotent; this mirrors &
replaces the reference's destructive re-init
(IndexingServiceImpl.java:154-163, S8).  Each merge writes a new
generation directory and publishes it by swapping one symlink
(:func:`_publish`; Lucene's commit point: a new ``segments_N`` never
overwrites a file a reader holds).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
import uuid
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raysearch.lex import Lexer

#: input bytes per merge bucket at most: a build has
#: ``max(n_partitions, ceil(input_bytes / BUCKET_INPUT_BYTES))`` buckets,
#: so the merge's unit of work matches the build's and a merge task
#: (which concatenates a whole bucket) stays bounded on a large input
BUCKET_INPUT_BYTES = 64 << 20
#: one directory per merged generation; ``merged`` links to the published one
GENERATIONS = "generations"
#: posting layout version in ``merged/meta.json`` and every wave
#: manifest; searchers refuse other indexes, the build recomputes other waves
INDEX_FORMAT = 7
#: one posting row of a wave segment: a term's doc ids (ascending) and
#: tfs within one partition flush, and the term's merge bucket (the
#: merge finds a bucket's row groups by its statistics)
POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()), ("bucket", pa.int32()),
        ("doc_ids", pa.list_(pa.int64())), ("tfs", pa.list_(pa.int64())),
    ]
)
#: a merged posting file's rows (a base bucket file or the delta file):
#: the segment rows without ``bucket``, which is constant per bucket file
#: and read by no searcher
MERGED_POSTINGS_SCHEMA = pa.schema(
    [f for f in POSTINGS_SCHEMA if f.name != "bucket"]
)
#: a refresh merges the waves changed since the base was merged into one
#: delta posting file and masks their docs in the base; once the delta
#: would hold more than this fraction of the base's posting values, the
#: refresh runs the full merge instead, which compacts the delta away
DELTA_COMPACT_FRACTION = 0.3
#: rows per record batch of a wave's doc store: a searcher reads doc row
#: ``r`` of a file as batch ``r // DOC_BATCH_ROWS``
DOC_BATCH_ROWS = 256
#: a wave's doc store: each turn's raw input role and text, doc_id order
DOC_STORE_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("role", pa.string()), ("text", pa.string())]
)


def term_bucket(term: str, buckets: int) -> int:
    """Deterministic merge bucket for a term (stable across processes,
    unlike builtin hash)."""
    return zlib.crc32(term.encode("utf-8")) % buckets


# ---------------------------------------------------------------------------
# Stage 0 — conv offsets (deterministic doc_id assignment backbone)
# ---------------------------------------------------------------------------


def _file_conv_agg(path: str) -> pa.Table:
    """Per-file (conv_id, turn_idx_max, turn_idx_count) partial
    aggregate — reads only the two key columns; the count counts every
    row, so a duplicated turn shows in it."""
    t = pq.read_table(path, columns=["conv_id", "turn_idx"])
    return t.group_by("conv_id").aggregate(
        [("turn_idx", "max"), ("turn_idx", "count", pc.CountOptions(mode="all"))]
    )


def _combine_conv_aggs(*tables: pa.Table) -> pa.Table:
    """Associative combine of :func:`_file_conv_agg` partials (same
    schema out as in)."""
    agg = (
        pa.concat_tables(tables)
        .group_by("conv_id")
        .aggregate([("turn_idx_max", "max"), ("turn_idx_count", "sum")])
    )
    return agg.rename_columns(["conv_id", "turn_idx_max", "turn_idx_count"])


TREE_FANIN = 32  # per-file partials combined per tree-reduce task


def compute_conv_offsets(files: list[str], validate: bool = False):
    """Global (conv_id → first doc_id, n_turns) via parallel per-file
    partial aggregates + a TREE reduce of the combines.

    The wide input is reduced to one row per conversation; conv count ≪
    turn count, so materializing the final table on the driver is the
    deliberate range-partition alternative to a 10^12-row global sort
    (SURVEY §7 hard part (a)).  Per-file partials are plain Ray tasks;
    combines run as a fan-in-``TREE_FANIN`` reduction tree so neither
    the driver nor any single task ever holds more than fan-in partial
    tables at once.  Returns an arrow table sorted by conv_id."""
    import ray

    agg_remote = ray.remote(num_cpus=1)(_file_conv_agg)
    combine_remote = ray.remote(num_cpus=1)(_combine_conv_aggs)
    refs = [agg_remote.remote(p) for p in files]
    while len(refs) > TREE_FANIN:
        refs = [
            combine_remote.remote(*refs[i : i + TREE_FANIN])
            for i in range(0, len(refs), TREE_FANIN)
        ]
    table = _combine_conv_aggs(*ray.get(refs)).sort_by("conv_id")
    n_turns = pc.add(table["turn_idx_max"], 1).cast(pa.int64())
    counts = n_turns.to_numpy()
    offsets = np.cumsum(counts) - counts
    out = pa.table(
        {
            "conv_id": table["conv_id"],
            "offset": pa.array(offsets, pa.int64()),
            "n_turns": pa.array(counts, pa.int64()),
        }
    )
    if validate:
        # D2 analog (RecursiveSearch.java:164-169): (conv_id, turn_idx)
        # unique AND contiguous from 0 — the per-conv row count must
        # equal max(turn_idx)+1 (a duplicated turn makes the count too
        # high or, with a compensating gap, fails the per-file dup
        # check inside _file_conv_agg's source reads downstream).
        rc = table["turn_idx_count"].to_numpy()
        bad = np.flatnonzero(rc != counts)
        if len(bad):
            c = table["conv_id"][int(bad[0])].as_py()
            raise ValueError(
                f"turn_idx not contiguous/unique for conv_id {c!r} "
                f"(rows={int(rc[bad[0]])}, max_turn+1={int(counts[bad[0]])})"
            )
    return out


def file_conv_ranges(files: list[str]) -> list[dict]:
    """Per-file conv_id min/max from parquet footer statistics — used by
    :func:`partitions_of` to find the partitions a conversation's
    refresh must rebuild."""
    out = []
    for path in files:
        md = pq.ParquetFile(path).metadata
        cmin, cmax, rows = None, None, md.num_rows
        for rg in range(md.num_row_groups):
            col = md.row_group(rg).column(0)
            st = col.statistics
            if st is not None and st.has_min_max:
                lo = st.min if isinstance(st.min, str) else st.min.decode()
                hi = st.max if isinstance(st.max, str) else st.max.decode()
                cmin = lo if cmin is None or lo < cmin else cmin
                cmax = hi if cmax is None or hi > cmax else cmax
        out.append({"path": path, "conv_min": cmin, "conv_max": cmax, "rows": rows})
    return out


# ---------------------------------------------------------------------------
# Stage 1 — tokenizer stage (ST1 analog: state loaded once per worker)
# ---------------------------------------------------------------------------

#: per-worker tokenizer state cache for the task-based stage: the ST1
#: "load once per worker" pattern without an actor pool — Ray reuses
#: worker processes across map tasks, so the state is constructed once
#: per (worker, build) and shared by every batch that worker processes.
#: Measured: a 30-actor pool spends ~6s of a 10s stage on actor startup
#: (cold interpreter per actor); warm task workers cut the stage 2-3x.
_WORKER_TOKENIZERS: dict[tuple, "TokenizerActor"] = {}

_ARROW_PINNED = False


def _pin_arrow_threads() -> None:
    """Each Ray worker gets num_cpus=1, but pyarrow's internal pools
    default to the MACHINE core count — 32 one-cpu workers would run
    ~32x32 threads and per-task wall time measurably 4x-es from the
    contention.  Pin once per worker process."""
    global _ARROW_PINNED
    if not _ARROW_PINNED:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        _ARROW_PINNED = True


class TokenizerActor:
    """Per-worker lemmatizer state (SURVEY §2.3 ST1).

    The reference constructs the morphology dictionary once per page
    (``new LemmaSearch()``, services/RecursiveSearch.java:68); a worker
    builds this once and reuses it for every batch of every partition
    it processes.  Per batch (zero-copy Arrow in): vectorized tokenize
    (lex.Lexer.token_parent_codes), per-doc tf aggregation
    (LemmaSearch.java:50-53 semantics), and doc_id assignment from the
    broadcast conv-offset table.
    """

    def __init__(self, offsets_ref, mode: str, strip_html: bool = False):
        import ray

        _pin_arrow_threads()
        offsets = (
            ray.get(offsets_ref)
            if isinstance(offsets_ref, ray.ObjectRef)
            else offsets_ref
        )
        self.conv_arr = offsets["conv_id"].combine_chunks()
        self.offset_arr = offsets["offset"].to_numpy()
        self.turns_arr = offsets["n_turns"].to_numpy()
        self.lexer = Lexer(mode)
        self.strip_html = strip_html
        self._bucket_memo: dict[str, int] = {}

    def _strip_markup(self, texts: pa.ChunkedArray) -> pa.Array:
        """M1 analog (LemmaSearch.clearCodeFromTags,
        services/LemmaSearch.java:68-70), mostly vectorized: tag removal
        is one Arrow regex kernel; entity decode falls back to Python
        only for the rows that actually contain '&'."""
        import html

        no_tags = pc.replace_substring_regex(texts, r"<[^>]*>", "")
        if isinstance(no_tags, pa.ChunkedArray):
            no_tags = no_tags.combine_chunks()
        has_amp = pc.match_substring(no_tags, "&").to_numpy(zero_copy_only=False)
        if has_amp.any():
            vals = no_tags.to_pylist()
            for i in np.flatnonzero(has_amp):
                vals[i] = html.unescape(vals[i])
            no_tags = pa.array(vals, pa.string())
        return no_tags

    def explode_arrays(self, batch: pa.Table):
        """Vectorized core: batch → (doc_ids per row, conv index per
        row, doc_len per row, p_row posting→row index, term code per
        posting, p_tf, the batch vocabulary the codes index)."""
        n_rows = batch.num_rows
        conv_idx = pc.index_in(batch["conv_id"], value_set=self.conv_arr)
        conv_idx_np = conv_idx.to_numpy(zero_copy_only=False)
        if np.any(conv_idx_np < 0) or conv_idx.null_count:
            raise KeyError("conv_id missing from offset table")
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        doc_ids = self.offset_arr[conv_idx_np] + turn
        texts = batch["text"]
        if self.strip_html:
            texts = self._strip_markup(texts)
        parent, codes, uniq = self.lexer.token_parent_codes(texts)
        if len(codes):
            n_uniq = len(uniq)
            key = parent.astype(np.int64) * n_uniq + codes
            uniq_keys, tf = np.unique(key, return_counts=True)
            p_row = uniq_keys // n_uniq
            ucodes = uniq_keys % n_uniq
            p_tf = tf.astype(np.int64)
            doc_len = np.bincount(parent, minlength=n_rows).astype(np.int64)
        else:
            p_row = np.empty(0, dtype=np.int64)
            ucodes = np.empty(0, dtype=np.int64)
            p_tf = np.empty(0, dtype=np.int64)
            uniq = np.empty(0, dtype=object)
            doc_len = np.zeros(n_rows, dtype=np.int64)
        return doc_ids, conv_idx_np, doc_len, p_row, ucodes, p_tf, uniq


# ---------------------------------------------------------------------------
# Stage 2 — partition-local segment build (A2 analog)
# ---------------------------------------------------------------------------

#: a wave's statistics files, as :func:`_wave_stats` returns them; like
#: its ``doclens.arrow`` (doc_id, doc_len), uncompressed Arrow IPC: every
#: merged generation reads each wave's, and a small Parquet file costs
#: ~10x more to open and decode
WAVE_STATS = ("termstats.arrow", "convlex.arrow", "convterms.arrow")

#: exploded-posting buffer budget per partition before an early flush
#: writes a partial (doc-disjoint) sub-segment — the "per-partition
#: spill" of the north star.  ~24 bytes/posting + term strings.
DEFAULT_SPILL_ROWS = 8_000_000


def _encode_partition_segment(
    codes: np.ndarray, uniq_terms: np.ndarray, docs: np.ndarray,
    tfs: np.ndarray, convs: np.ndarray, buckets: int, bucket_memo: dict,
) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """Sort one partition's exploded (term-code, doc, tf) rows into
    per-term posting rows, bucket-major (bucket assigned per term by
    hash), so that each merge task reads its own bucket's row groups.
    Terms arrive as integer codes into ``uniq_terms`` — the Python-level
    work is bounded by the partition VOCABULARY, not its postings.

    One Arrow row per term per partition replaces the reference's one
    SQL row per (lemma, page) (model/SearchIndex.java:12-27); its
    ``doc_ids``/``tfs`` lists are slices of the sorted flat arrays.

    Also returns the distinct (term code, conversation) pairs of the
    rows (``convs`` is each posting's conversation index): doc ids
    ascend within a term and conversations own contiguous doc ids, so a
    pair starts at each term start and conversation change of the same
    sort — O(n), no second sort."""
    if len(codes) == 0:
        none = np.empty(0, np.int64)
        return POSTINGS_SCHEMA.empty_table(), none, none
    bucket_of = np.array(
        [
            bucket_memo[t]
            if t in bucket_memo
            else bucket_memo.setdefault(t, term_bucket(t, buckets))
            for t in uniq_terms
        ],
        dtype=np.int64,
    )
    order = np.lexsort((docs, codes, bucket_of[codes]))
    s_codes = codes[order]
    s_convs = convs[order]
    new_code = np.concatenate(([True], s_codes[1:] != s_codes[:-1]))
    starts = np.flatnonzero(new_code)
    pair = new_code
    pair[1:] |= s_convs[1:] != s_convs[:-1]
    offsets = np.append(starts, len(s_codes))
    row_codes = s_codes[starts]
    table = pa.Table.from_arrays(
        [
            pa.array(uniq_terms[row_codes], pa.string()),
            pa.array(bucket_of[row_codes], pa.int32()),
            _lists(offsets, docs[order]), _lists(offsets, tfs[order]),
        ],
        schema=POSTINGS_SCHEMA,
    )
    return table, s_codes[pair], s_convs[pair].astype(np.int64)


def _wave_stats(
    terms: np.ndarray,
    flushes: list[tuple[np.ndarray, ...]],
    doc_convs: np.ndarray,
    conv_turns: np.ndarray,
) -> tuple[pa.Table, pa.Table, pa.Table]:
    """A partition's summary, from which every merged generation takes
    its global statistics without reading a segment (a refresh sums
    them over the waves; nothing is ever subtracted):

    * ``termstats`` — (term, df, cf) of the partition's postings;
    * ``convlex`` — (conv_idx, lemmas): the distinct-lemma count of each
      conversation whose turns all lie in this partition;
    * ``convterms`` — (conv_idx, term): the distinct lemmas of each
      conversation that straddles a partition boundary, whose count is
      the size of the union of its partitions' sets.

    Each spill flush gives (df, cf) by term code (into ``terms``; a
    later flush may know more terms) and its distinct (term code,
    conversation) pairs (a pair may recur in a later flush).
    ``doc_convs`` is the conversation of each of the partition's docs
    and ``conv_turns`` every conversation's turn count."""
    df = np.zeros(len(terms), np.int64)
    cf = np.zeros(len(terms), np.int64)
    for f_df, f_cf, _, _ in flushes:
        df[: len(f_df)] += f_df
        cf[: len(f_cf)] += f_cf
    has = df > 0
    termstats = pa.table(
        {
            "term": pa.array(terms[has], pa.string()),
            "df": pa.array(df[has], pa.int64()),
            "cf": pa.array(cf[has], pa.int64()),
        }
    )
    p_code = np.concatenate([f[2] for f in flushes] or [np.empty(0, np.int64)])
    p_conv = np.concatenate([f[3] for f in flushes] or [np.empty(0, np.int64)])
    if len(flushes) > 1:
        n = max(len(terms), 1)
        p_conv, p_code = np.divmod(np.unique(p_conv * n + p_code), n)
    lo = int(doc_convs.min()) if len(doc_convs) else 0
    n_docs = np.bincount(doc_convs - lo)
    here = np.flatnonzero(n_docs) + lo
    split_conv = np.zeros(len(n_docs), dtype=bool)
    split_conv[here - lo] = n_docs[here - lo] < conv_turns[here]
    split = split_conv[p_conv - lo]
    lemmas = np.bincount(p_conv[~split] - lo, minlength=len(n_docs))
    whole = np.flatnonzero(lemmas)
    convlex = pa.table(
        {
            "conv_idx": pa.array(whole + lo, pa.int64()),
            "lemmas": pa.array(lemmas[whole], pa.int64()),
        }
    )
    convterms = pa.table(
        {
            "conv_idx": pa.array(p_conv[split], pa.int64()),
            "term": pa.array(terms[p_code[split]], pa.string()),
        }
    )
    return termstats, convlex, convterms


def _lists(offsets: np.ndarray, values: np.ndarray) -> pa.ListArray:
    """``list<int64>`` rows: row i holds ``values[offsets[i]:offsets[i+1]]``."""
    return pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(values, pa.int64())
    )


def _atomic_write_table(table: pa.Table, path: str, **write_options) -> None:
    tmp = path + ".tmp"
    pq.write_table(table, tmp, **write_options)
    os.replace(tmp, path)


def _write_postings(
    table: pa.Table, path: str, cuts: np.ndarray | None = None
) -> None:
    """Write term-sorted posting rows: a wave segment
    (``POSTINGS_SCHEMA``, bucket-sorted) or a merged posting file
    (``MERGED_POSTINGS_SCHEMA``).  Doc ids — ascending within a row —
    are delta-packed; terms, buckets and tfs dictionary-encoded.
    Parquet names a list column's values ``<col>.list.element``; it
    ignores an encoding set under any other name and writes that column
    PLAIN.  Row group ``i`` holds rows ``cuts[i]:cuts[i + 1]`` (a merged
    file's term-aligned groups, see :func:`merge_bucket`); without
    ``cuts`` a segment gets one row group per bucket, and only
    ``bucket`` carries statistics, so a merge task finds one bucket's
    row groups from the footer alone.  The footer keeps no copy of the
    Arrow schema: the columns read back as their schema from the
    Parquet schema alone, and the copy cost ~0.5 kB per file (2% of
    corpus C's merged postings)."""
    segment = "bucket" in table.column_names
    if cuts is None:
        b = table["bucket"].to_numpy()
        cuts = np.concatenate(
            ([0], np.flatnonzero(b[1:] != b[:-1]) + 1, [len(b)])
        )
    tmp = path + ".tmp"
    with pq.ParquetWriter(
        tmp,
        table.schema,
        use_dictionary=["term", "tfs.list.element"] + (["bucket"] if segment else []),
        column_encoding={"doc_ids.list.element": "DELTA_BINARY_PACKED"},
        write_statistics=["bucket"] if segment else False,
        store_schema=False,
    ) as writer:
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            writer.write_table(table.slice(lo, hi - lo), row_group_size=hi - lo)
    os.replace(tmp, path)


def decode_postings(rows: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, tfs) of posting rows, concatenated in row order, as
    int64 arrays (a list flatten)."""
    return (
        pc.list_flatten(rows["doc_ids"]).to_numpy(),
        pc.list_flatten(rows["tfs"]).to_numpy(),
    )


def build_partition_task(
    batch: pa.Table,
    *,
    offsets_ref,
    mode: str,
    buckets: int,
    strip_html: bool,
    out_dir: str,
    spill_rows: int = DEFAULT_SPILL_ROWS,
    read_batch_rows: int = 32768,
) -> pa.Table:
    """One task per input partition: stream its parquet fragments
    (record-batch granularity), tokenize with the shared per-worker
    state, accumulate exploded postings up to ``spill_rows``, and flush
    sorted sub-segments.  Because input is consumed in doc order,
    flushed sub-segments are doc-DISJOINT per term, so the merge
    stage concatenates them like any other per-partition rows — spill
    costs no extra merge complexity.

    No shuffle: a partition's postings never leave the worker (the
    partition is file-determined, SURVEY §4 skew note); the only
    all-to-all in the build is the merge over segment rows.
    Each partition commits itself: segments, doc lengths, its doc store
    (``docs.arrow``: the raw role and text of its turns in doc_id order,
    never rewritten once committed), its term and conversation
    statistics (:func:`_wave_stats`) and its manifest (lineage and
    metrics) go into ``waves/_tmp_p-NNNNN``, which is renamed to
    ``waves/p-NNNNN`` as the task's last act.  A Ray retry
    starts by deleting the tmp dir, so it is idempotent.  Returns the
    committed partition ids."""
    key = (
        offsets_ref.hex() if hasattr(offsets_ref, "hex") else id(offsets_ref),
        mode,
        buckets,
        strip_html,
    )
    tok = _WORKER_TOKENIZERS.get(key)
    if tok is None:
        _pin_arrow_threads()
        _WORKER_TOKENIZERS.clear()
        tok = _WORKER_TOKENIZERS[key] = TokenizerActor(
            offsets_ref, mode, strip_html
        )
    done = []
    for row in range(batch.num_rows):
        pid = int(batch["pid"][row].as_py())
        files = batch["files"][row].as_py()
        t0 = time.monotonic()
        wave = os.path.join(out_dir, "waves", f"p-{pid:05d}")
        tmp = os.path.join(out_dir, "waves", f"_tmp_p-{pid:05d}")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.join(tmp, "segments"))
        # partition-level vocabulary: batch-local codes are remapped to
        # stable partition codes (Python work ∝ per-batch vocab, not
        # postings); posting buffers are pure int64 arrays
        part_vocab: dict[str, int] = {}
        part_terms: list[str] = []
        code_buf: list[np.ndarray] = []
        doc_buf: list[np.ndarray] = []
        tf_buf: list[np.ndarray] = []
        conv_buf: list[np.ndarray] = []
        flushes: list[tuple[np.ndarray, ...]] = []  # see _wave_stats
        dl_doc: list[np.ndarray] = []
        dl_conv: list[np.ndarray] = []
        dl_len: list[np.ndarray] = []
        doc_role: list[pa.Array] = []
        doc_text: list[pa.Array] = []
        n_buf = 0
        flush_i = 0
        n_postings = 0

        def flush():
            nonlocal n_buf, flush_i
            if not n_buf:
                return
            codes, tfs = np.concatenate(code_buf), np.concatenate(tf_buf)
            seg, pair_codes, pair_convs = _encode_partition_segment(
                codes,
                np.array(part_terms, dtype=object),
                np.concatenate(doc_buf),
                tfs,
                np.concatenate(conv_buf),
                buckets,
                tok._bucket_memo,
            )
            flushes.append(
                (
                    np.bincount(codes),
                    np.bincount(codes, weights=tfs).astype(np.int64),
                    pair_codes,
                    pair_convs,
                )
            )
            _write_postings(
                seg,
                os.path.join(
                    tmp, "segments", f"pid-{pid:05d}-f{flush_i:03d}.parquet"
                ),
            )
            code_buf.clear()
            doc_buf.clear()
            tf_buf.clear()
            conv_buf.clear()
            n_buf = 0
            flush_i += 1

        for path in files:
            pf = pq.ParquetFile(path)
            has_role = "role" in pf.schema_arrow.names
            for rb in pf.iter_batches(
                batch_size=read_batch_rows,
                columns=["conv_id", "turn_idx", "text"] + (["role"] if has_role else []),
            ):
                tbl = pa.Table.from_batches([rb])
                doc_ids, convs, doc_len, p_row, ucodes, p_tf, uniq = (
                    tok.explode_arrays(tbl)
                )
                doc_role.append(
                    rb.column("role") if has_role else pa.nulls(rb.num_rows, pa.string())
                )
                doc_text.append(rb.column("text"))
                if len(ucodes):
                    remap = np.empty(len(uniq), dtype=np.int64)
                    for i, t in enumerate(uniq):
                        c = part_vocab.get(t)
                        if c is None:
                            c = part_vocab[t] = len(part_terms)
                            part_terms.append(t)
                        remap[i] = c
                    code_buf.append(remap[ucodes])
                    doc_buf.append(doc_ids[p_row])
                    tf_buf.append(p_tf)
                    conv_buf.append(convs[p_row])
                dl_doc.append(doc_ids)
                dl_conv.append(convs)
                dl_len.append(doc_len)
                n_buf += len(ucodes)
                n_postings += len(ucodes)
                if n_buf >= spill_rows:
                    flush()
        flush()
        docs = np.concatenate(dl_doc) if dl_doc else np.empty(0, np.int64)
        lens = np.concatenate(dl_len) if dl_len else np.empty(0, np.int64)
        _write_arrow(
            pa.table(
                {
                    "doc_id": pa.array(docs, pa.int64()),
                    "doc_len": pa.array(lens, pa.int64()),
                }
            ),
            os.path.join(tmp, "doclens.arrow"),
        )
        _write_doc_store(
            os.path.join(tmp, "docs.arrow"), docs, doc_role, doc_text
        )
        stat_tables = _wave_stats(
            np.array(part_terms, dtype=object),
            flushes,
            np.concatenate(dl_conv).astype(np.int64) if dl_conv else np.empty(0, np.int64),
            tok.turns_arr,
        )
        for name, table in zip(WAVE_STATS, stat_tables):
            _write_arrow(table, os.path.join(tmp, name))
        wall_s = round(time.monotonic() - t0, 3)
        stats = {
            "files": files,
            "n_docs": int(len(docs)),
            "n_tokens": int(lens.sum()),
            "n_terms": len(part_terms),
            "n_postings": int(n_postings),
            "n_flushes": flush_i,
            "build_s": wall_s,
        }
        _atomic_write_json(
            os.path.join(tmp, "manifest.json"),
            {
                "format": INDEX_FORMAT,
                "partitions": [pid],
                "commit": uuid.uuid4().hex,
                "wall_s": wall_s,
                "per_partition": {str(pid): stats},
            },
        )
        shutil.rmtree(wave, ignore_errors=True)
        os.replace(tmp, wave)
        done.append(pid)
    return pa.table({"partition_id": pa.array(done, pa.int64())})


def _write_arrow(table: pa.Table, path: str) -> None:
    """Write a table as one uncompressed Arrow IPC file, atomically."""
    with pa.ipc.new_file(path + ".tmp", table.schema) as writer:
        writer.write_table(table)
    os.replace(path + ".tmp", path)


def _write_doc_store(
    path: str,
    doc_ids: np.ndarray,
    roles: list[pa.Array],
    texts: list[pa.Array],
) -> None:
    """Write a partition's turns as an uncompressed Arrow IPC file in
    doc_id order, ``DOC_BATCH_ROWS`` rows per record batch, so a
    searcher memory-maps it and slices one row out of one batch.  The
    text is the raw input text (before any markup strip): what a
    result renders."""

    def column(parts: list[pa.Array]) -> pa.ChunkedArray:
        return pa.chunked_array([p.cast(pa.string()) for p in parts], pa.string())

    table = pa.table(
        [pa.array(doc_ids, pa.int64()), column(roles), column(texts)],
        schema=DOC_STORE_SCHEMA,
    )
    table = table.take(np.argsort(doc_ids, kind="stable")).combine_chunks()
    with pa.ipc.new_file(path, DOC_STORE_SCHEMA) as writer:
        writer.write_table(table, max_chunksize=DOC_BATCH_ROWS)


# ---------------------------------------------------------------------------
# Stage 3 — LSM-style merge (per-bucket k-way concat of doc-disjoint subs)
# ---------------------------------------------------------------------------


#: posting values per row group of a merged bucket file: a row group
#: holds whole terms, and a new one starts at the first term whose first
#: value lies past the next multiple of this budget, so a cold fetch
#: decodes about this many values besides its own term's
POSTING_RG_VALUES = 4096


#: a term's lexicon row: its df and cf, its posting bucket, and two
#: locators — its base rows are rows ``row_lo:row_hi`` of row group
#: ``rg`` of the bucket file, its delta rows rows ``delta_lo:delta_hi``
#: of row group ``delta_rg`` of the delta file (an empty range: none)
_LEXICON_SCHEMA = pa.schema(
    [("term", pa.string())]
    + [
        (c, pa.int64())
        for c in (
            "df", "cf", "bucket", "rg", "row_lo", "row_hi",
            "delta_rg", "delta_lo", "delta_hi",
        )
    ]
)
#: what :func:`merge_bucket` says of each term of the file it merged
_LOCATOR_SCHEMA = pa.schema(
    [("term", pa.string())]
    + [(c, pa.int64()) for c in ("df", "cf", "rg", "row_lo", "row_hi")]
)
_DELTA_LOCATOR = ["delta_rg", "delta_lo", "delta_hi"]


def merge_bucket(group: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Merge segment rows (one bucket's, or a delta's) into one
    term-sorted posting file's rows and a locator per term.  Segment
    rows are doc-disjoint (a doc lives in exactly one partition flush),
    so once the rows are in (term, first doc id) order — one ``take`` —
    each term's doc ids are its rows' ``doc_ids`` lists as they stand,
    and every row is written with its segment length: no decode, no
    re-encode, no re-chunk.  A value-level order audit sorts a term
    whose partitions' doc ranges interleave (its values move between
    its rows; the row lengths stay) and rejects a repeated doc id.

    The locator table (``_LOCATOR_SCHEMA``) comes from the same term
    boundaries: a term's df and cf, and its row group ``rg`` of the
    file with its rows ``row_lo:row_hi`` there, so a searcher locates a
    term's postings from its lexicon row alone.  Row groups hold whole
    terms: one starts at each term whose first value crosses into a new
    multiple of ``POSTING_RG_VALUES``, and a term longer than that gets
    one of its own, so a row group holds at most ``POSTING_RG_VALUES``
    values besides its last term's.  (:func:`_write_merged` reads the
    row-group cuts back off the locators.)"""
    _pin_arrow_threads()
    group = group.select(MERGED_POSTINGS_SCHEMA.names)
    if group.num_rows == 0:
        return MERGED_POSTINGS_SCHEMA.empty_table(), _LOCATOR_SCHEMA.empty_table()
    keys = pa.table(
        {"term": group["term"], "first": pc.list_element(group["doc_ids"], 0)}
    )
    order = pc.sort_indices(
        keys, [("term", "ascending"), ("first", "ascending")]
    ).to_numpy()
    terms = group["term"].to_numpy(zero_copy_only=False)[order]
    term_row_starts = np.flatnonzero(
        np.concatenate(([True], terms[1:] != terms[:-1]))
    )
    # the rows' values in the new row order: two numpy gathers over the
    # flattened lists cost less than a list ``take`` of the rows
    lens = pc.list_value_length(group["doc_ids"]).to_numpy()
    row_offsets = np.concatenate(([0], np.cumsum(lens[order])))
    n_vals = int(row_offsets[-1])
    src = np.repeat(
        (np.cumsum(lens) - lens)[order] - row_offsets[:-1], lens[order]
    ) + np.arange(n_vals)
    d, t = (v[src] for v in decode_postings(group))
    # term segment boundaries in value space
    term_val_starts = row_offsets[term_row_starts]
    term_val_ends = np.append(term_val_starts[1:], n_vals)
    sorted_terms = terms[term_row_starts]

    # order audit: doc-disjoint rows in first-doc order are already
    # ascending; sort (and dup-check) only the terms that aren't
    interior = np.ones(n_vals, dtype=bool)
    interior[term_val_starts] = False
    bad = np.flatnonzero(interior & (np.diff(np.concatenate(([d[0] - 1], d))) <= 0))
    if len(bad):
        term_of_val = np.repeat(
            np.arange(len(term_val_starts)),
            term_val_ends - term_val_starts,
        )
        for ti in np.unique(term_of_val[bad]):
            s, e = term_val_starts[ti], term_val_ends[ti]
            o = np.argsort(d[s:e], kind="stable")
            d[s:e], t[s:e] = d[s:e][o], t[s:e][o]
            if np.any(np.diff(d[s:e]) == 0):
                raise ValueError(
                    f"duplicate doc_id in postings of {sorted_terms[ti]!r}"
                )
    rows = pa.Table.from_arrays(
        [pa.array(terms, pa.string())] + [_lists(row_offsets, v) for v in (d, t)],
        schema=MERGED_POSTINGS_SCHEMA,
    )

    # term-aligned row groups: cut where a term starts in a new budget
    # block and before every term longer than the budget (the term
    # after one always starts in a new block)
    blk = term_val_starts // POSTING_RG_VALUES
    cut = term_val_ends - term_val_starts > POSTING_RG_VALUES
    cut[0] = True
    cut[1:] |= blk[1:] != blk[:-1]
    rg = np.cumsum(cut) - 1
    rg_row = term_row_starts[cut][rg]  # first row of each term's row group
    term_row_ends = np.append(term_row_starts[1:], rows.num_rows)
    cols = (
        sorted_terms,
        term_val_ends - term_val_starts,
        np.add.reduceat(t, term_val_starts),
        rg,
        term_row_starts - rg_row,
        term_row_ends - rg_row,
    )
    locators = pa.Table.from_arrays(
        [pa.array(c, f.type) for c, f in zip(cols, _LOCATOR_SCHEMA)],
        schema=_LOCATOR_SCHEMA,
    )
    return rows, locators


def _write_merged(rows: pa.Table, locators: pa.Table, path: str) -> None:
    """Write :func:`merge_bucket`'s rows in its term-aligned row groups
    (a row group ends at its last term's ``row_hi``)."""
    rg, row_hi = locators["rg"].to_numpy(), locators["row_hi"].to_numpy()
    last = np.append(rg[1:] != rg[:-1], True)
    _write_postings(
        rows, path, cuts=np.concatenate(([0], np.cumsum(row_hi[last])))
    )


def _merge_bucket_task(
    buckets: list[int], seg_files: list[str], out_dir: str, lex_dir: str
) -> int:
    """Merge a run of buckets, one at a time, from every segment file.
    Each file is opened once; a bucket's rows in it are one row group,
    found by the ``bucket`` statistics.  Returns the rows written."""
    _pin_arrow_threads()
    segs = []
    for path in seg_files:
        pf = pq.ParquetFile(path)
        md = pf.metadata
        col = md.schema.names.index("bucket")
        rg_of = {}
        for i in range(md.num_row_groups):
            st = md.row_group(i).column(col).statistics
            if st.min != st.max:  # its other buckets' rows would be lost
                raise ValueError(f"{path}: row group {i} spans several buckets")
            rg_of[st.min] = i
        segs.append((pf, rg_of))
    n = 0
    for b in buckets:
        parts = [
            pf.read_row_group(rg_of[b], columns=MERGED_POSTINGS_SCHEMA.names)
            for pf, rg_of in segs
            if b in rg_of
        ]
        if not parts:
            continue
        rows, locators = merge_bucket(pa.concat_tables(parts))
        if rows.num_rows:
            # buckets partition the term space, so the lexicon is the
            # concatenation of the slices: no scan of the merged files
            _write_merged(rows, locators, os.path.join(out_dir, f"bucket-{b:04d}.parquet"))
            _write_arrow(
                _lexicon_rows(locators, b), os.path.join(lex_dir, _lexpart(b))
            )
        n += rows.num_rows
    return n


def _lexicon_rows(locators: pa.Table, bucket: int) -> pa.Table:
    """A base bucket's lexicon slice: its merge locators, its bucket and
    an empty delta locator."""
    n = locators.num_rows
    cols = {c: locators[c] for c in locators.column_names}
    cols["bucket"] = pa.array(np.full(n, bucket), pa.int64())
    for c in _DELTA_LOCATOR:
        cols[c] = pa.array(np.zeros(n, np.int64))
    return pa.table([cols[f.name] for f in _LEXICON_SCHEMA], schema=_LEXICON_SCHEMA)


def run_merge(
    seg_files: list[str], out_dir: str, buckets: int, lex_dir: str | None = None
) -> None:
    """LSM merge: Ray tasks, each over a run of buckets, read each
    bucket's rows from every segment file and write them, term-sorted
    and each at its segment length, as the bucket's posting file and
    lexicon slice (:func:`merge_bucket`).

    Ray Data's ``groupby("bucket").map_groups`` key-SORTS the blocks;
    sorting rows whose payload is KB-sized posting lists measured 24s
    for 150 MB of segments at 32 CPUs (hash shuffle: 83-120s).  The
    semantics only need partitioning, not order, and the partition
    tasks already wrote their segments bucket-sorted with no row group
    spanning two buckets, so the exchange is a read: a merge task takes
    each of its buckets' row groups by their statistics.  No rows travel
    through the object store: Ray keeps task results under 100 KB in
    the memory of their owner, so per-bucket tables handed from task
    to task would all sit in the driver.  This is the one deliberate
    raw ``@ray.remote`` stage in the engine (SURVEY §2 guidance: drop
    below the Dataset API only where it can't express the semantics)."""
    import ray

    lex_dir = lex_dir or out_dir
    todo = [
        b
        for b in range(buckets)
        if not (
            os.path.exists(os.path.join(out_dir, f"bucket-{b:04d}.parquet"))
            and os.path.exists(os.path.join(lex_dir, _lexpart(b)))
        )
    ]
    if not (todo and seg_files):
        return
    merge_remote = ray.remote(num_cpus=1)(_merge_bucket_task)
    # one task per CPU, each over a run of buckets: a task opens every
    # segment file once, so fewer tasks parse fewer footers
    n_tasks = min(len(todo), int(ray.cluster_resources().get("CPU", 1)))
    futs = [
        merge_remote.remote([int(b) for b in run], seg_files, out_dir, lex_dir)
        for run in np.array_split(todo, n_tasks)
    ]
    ray.get(futs)


def _merge_delta_task(seg_files: list[str], path: str) -> pa.Table:
    """The delta tier's merge: every row of the given segments (the
    waves changed since the base was merged), all buckets at once, into
    one term-sorted posting file at ``path`` (:func:`merge_bucket`).
    Returns each term's delta locator (``term`` + ``_DELTA_LOCATOR``)."""
    rows, locators = merge_bucket(
        pa.concat_tables(
            [pq.read_table(p, columns=MERGED_POSTINGS_SCHEMA.names) for p in seg_files]
        )
        if seg_files
        else MERGED_POSTINGS_SCHEMA.empty_table()
    )
    if rows.num_rows:
        _write_merged(rows, locators, path)
    return locators.select(["term", "rg", "row_lo", "row_hi"]).rename_columns(
        ["term"] + _DELTA_LOCATOR
    )


# ---------------------------------------------------------------------------
# Driver orchestration: resume, eviction, merge, meta
# ---------------------------------------------------------------------------


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, default=str)
    os.replace(tmp, path)


def _waves_digest(waves: dict[str, str | None]) -> str:
    """sha256 of the wave name → commit id map: what ``meta.json``
    keeps of the merge's inputs, so its size does not grow with the
    partition count (the merge checkpoint keeps the full map)."""
    return hashlib.sha256(json.dumps(sorted(waves.items())).encode()).hexdigest()


def _committed_partitions(
    out_dir: str,
) -> tuple[dict[int, str], dict[str, str | None]]:
    """(partition id → its wave name, wave name → commit id).  A wave
    is committed when its name lacks the ``_tmp_`` prefix (the task
    that built it renamed it into place) and its manifest names the
    current ``INDEX_FORMAT`` and exactly one partition.  Anything else
    in ``waves/`` — a crashed or evicted tmp dir, a wave of another
    posting layout, a wave of several partitions from a batch-committing
    build — is deleted, so its partitions are rebuilt rather than
    merged.  The commit id is fresh whenever a wave dir is (re)written,
    so it identifies the wave's content where the name does not: a
    partition rebuild recreates a wave under its old name."""
    pids: dict[int, str] = {}
    waves: dict[str, str | None] = {}
    wave_root = os.path.join(out_dir, "waves")
    if not os.path.isdir(wave_root):
        return pids, waves
    for d in sorted(os.listdir(wave_root)):
        wdir = os.path.join(wave_root, d)
        mpath = os.path.join(wdir, "manifest.json")
        manifest = None
        if not d.startswith("_tmp_") and os.path.isfile(mpath):
            with open(mpath) as f:
                manifest = json.load(f)
        if (
            manifest is None
            or manifest.get("format") != INDEX_FORMAT
            or len(manifest["partitions"]) != 1
        ):
            shutil.rmtree(wdir, ignore_errors=True)
            continue
        pids[int(manifest["partitions"][0])] = d
        waves[d] = manifest.get("commit")
    return pids, waves


def partitions_of(out_dir: str, conv_id: str) -> list[int]:
    """ALL input partitions whose file conv ranges cover conv_id (the
    §3.3 'which partition owns this page' lookup;
    IndexingServiceImpl.java:173-183 analog).  A conversation's rows may
    legally straddle file (and thus partition) boundaries — only gen.py
    happens to keep conversations file-contiguous — so rebuild-by-conv
    must evict EVERY covering partition, not just the first match."""
    with open(os.path.join(out_dir, "input_meta.json")) as f:
        input_meta = json.load(f)
    files = input_meta["files"]
    n_partitions = input_meta["n_partitions"]
    bounds = np.linspace(0, len(files), n_partitions + 1).astype(int)
    pids: list[int] = []
    for fi, fr in enumerate(input_meta["file_ranges"]):
        if (fr["conv_min"] is None or fr["conv_min"] <= conv_id) and (
            fr["conv_max"] is None or conv_id <= fr["conv_max"]
        ):
            # file index → partition index (bounds are file offsets)
            pid = int(np.searchsorted(bounds, fi, side="right") - 1)
            if pid not in pids:
                pids.append(pid)
    if not pids:
        raise KeyError(f"no input fragment covers conv_id {conv_id!r}")
    return pids


def evict_partition(out_dir: str, partition_id: int) -> str | None:
    """Uncommit one partition: rename its wave to a ``_tmp_`` name,
    which resume treats like a crashed build, then delete it.  A crash
    between the two steps leaves a tmp dir that the next resume
    deletes.  No other wave is read or written.  Returns the evicted
    wave's name (None when the partition was not committed)."""
    wave_root = os.path.join(out_dir, "waves")
    committed, _ = _committed_partitions(out_dir)
    wname = committed.get(partition_id)
    if wname is None:
        return None
    tmp = os.path.join(wave_root, "_tmp_" + wname)
    os.replace(os.path.join(wave_root, wname), tmp)
    shutil.rmtree(tmp)
    return wname


def rebuild_partition(
    transcripts_dir: str,
    out_dir: str,
    partition_id: int | None = None,
    conv_id: str | None = None,
) -> dict:
    """Partition-scoped rebuild (§3.3 restated: the reference's
    single-page reindex deletes the page's postings, decrements dfs and
    re-crawls one URL, IndexingServiceImpl.java:173-198; here the unit
    of incremental recompute is an input partition — its wave is
    evicted and rebuilt, then :func:`build_index` publishes a
    generation whose delta tier holds the changed waves, with df/cf
    summed from the waves' statistics; see there)."""
    if partition_id is not None:
        pids = [partition_id]
    elif conv_id is not None:
        pids = partitions_of(out_dir, conv_id)
    else:
        raise ValueError("need partition_id or conv_id")
    for pid in pids:
        evict_partition(out_dir, pid)
    return build_index(transcripts_dir, out_dir, resume=True)


def build_index(
    transcripts_dir: str,
    out_dir: str,
    mode: str = "latin",
    n_partitions: int | None = None,
    resume: bool = True,
    validate: bool = False,
    strip_html: bool = False,
    spill_rows: int = DEFAULT_SPILL_ROWS,
    read_batch_rows: int = 32768,
) -> dict:
    """Build (or resume) the inverted index; returns the final meta dict.

    One ``map_batches`` runs a task per remaining partition; each task
    commits its partition as its own wave, so a stopped build resumes
    from every partition it finished.  ``spill_rows`` bounds a
    partition task's posting buffer (and so the longest posting row:
    the merge writes the segment rows as they are) and
    ``read_batch_rows`` its parquet read batches.  The first build
    fixes the merge's bucket count (:data:`BUCKET_INPUT_BYTES`); a
    resume keeps the one in ``input_meta.json``.  Each generation is
    written to ``generations/<name>/`` and published as ``merged``
    (:func:`_publish`): postings, lexicon (+ its per-bucket
    ``lexparts/``), doc lengths, ``convlex.parquet`` and ``docs/``
    (hard links to the waves' doc stores).  ``meta.json`` keeps a
    digest of the wave → commit map it was built from (``waves_digest``,
    with ``n_waves``), and a build whose waves match it returns at once.

    Two tiers (an LSM tree of two levels, O'Neil et al. 1996): the full
    merge writes the base — one posting file per bucket — and records
    its wave commits in ``merge_inputs.json``.  A resume that finds a
    base (a refresh) merges only the waves whose commit differs from it
    into one term-sorted ``delta/postings.parquet`` (one Ray task) and
    lists those waves' docs in ``delta/masked.parquet``; the base files
    are hard links to the previous generation's.  The lexicon's df/cf
    are then the sums of every wave's ``termstats``, and each lexicon
    row locates the term's base and delta rows.  Once the changed
    waves' posting values exceed ``DELTA_COMPACT_FRACTION`` of the
    base's, the refresh runs the full merge instead (compaction).
    """
    import ray
    import ray.data as rd

    t_start = time.monotonic()
    files = sorted(glob.glob(os.path.join(transcripts_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet files under {transcripts_dir}")
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    if n_partitions is None:
        n_partitions = max(1, min(len(files), 2 * ncpu))
    n_partitions = min(n_partitions, len(files))
    if not resume:  # every wave goes, whatever its name or layout
        shutil.rmtree(os.path.join(out_dir, "waves"), ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "waves"), exist_ok=True)

    # ---- stage 0: conv offsets + input meta (resume-aware) ----
    offsets_path = os.path.join(out_dir, "conv_offsets.parquet")
    input_meta_path = os.path.join(out_dir, "input_meta.json")
    if resume and os.path.exists(offsets_path) and os.path.exists(input_meta_path):
        offsets = pq.read_table(offsets_path)
        with open(input_meta_path) as f:
            input_meta = json.load(f)
        if input_meta["files"] != files:
            raise ValueError("input file list changed; use a fresh out_dir")
        n_partitions = input_meta["n_partitions"]
        buckets = input_meta["buckets"]
        mode = input_meta["mode"]
        strip_html = input_meta.get("strip_html", False)
    else:
        input_bytes = sum(os.path.getsize(p) for p in files)
        buckets = max(n_partitions, -(-input_bytes // BUCKET_INPUT_BYTES))
        offsets = compute_conv_offsets(files, validate=validate)
        tmp = offsets_path + ".tmp"
        pq.write_table(offsets, tmp)
        os.replace(tmp, offsets_path)
        input_meta = {
            "files": files,
            "file_ranges": file_conv_ranges(files),
            "n_partitions": n_partitions,
            "buckets": buckets,
            "mode": mode,
            "strip_html": strip_html,
            "n_docs": int(pc.sum(offsets["n_turns"]).as_py()),
        }
        _atomic_write_json(input_meta_path, input_meta)

    n_docs = input_meta["n_docs"]
    bounds = np.linspace(0, len(files), n_partitions + 1).astype(int)
    part_files = {
        pid: files[bounds[pid] : bounds[pid + 1]] for pid in range(n_partitions)
    }

    committed, _ = _committed_partitions(out_dir) if resume else ({}, {})
    remaining = [p for p in range(n_partitions) if p not in committed]
    stage_times: dict[str, float] = {"setup": round(time.monotonic() - t_start, 3)}

    if remaining:
        # one task per partition streams its fragments, tokenizes,
        # writes sorted sub-segments with bounded-memory spill and
        # commits its wave — no posting-row shuffle (the only
        # all-to-all left is the merge over segment rows)
        t0 = time.monotonic()
        descs = pa.table(
            {
                "pid": pa.array(remaining, pa.int64()),
                "files": pa.array(
                    [part_files[p] for p in remaining], pa.list_(pa.string())
                ),
            }
        )
        rd.from_arrow(descs).repartition(len(remaining)).map_batches(
            build_partition_task,
            fn_kwargs={
                "offsets_ref": ray.put(offsets),
                "mode": mode,
                "buckets": buckets,
                "strip_html": strip_html,
                "out_dir": out_dir,
                "spill_rows": spill_rows,
                "read_batch_rows": read_batch_rows,
            },
            batch_format="pyarrow",
            batch_size=None,
            num_cpus=1,
        ).materialize()
        stage_times["partition_build"] = round(time.monotonic() - t0, 3)

    # ---- merge (idempotent; skipped when no wave changed) ----
    committed, waves = _committed_partitions(out_dir)
    if len(committed) != n_partitions:
        raise RuntimeError(
            f"{n_partitions - len(committed)} partitions failed to commit"
        )
    prev_dir = published_generation(out_dir)
    meta_path = os.path.join(prev_dir, "meta.json")
    prev = None
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            prev = json.load(f)
        if prev.get("format") != INDEX_FORMAT:
            prev = None
        elif prev.get("waves_digest") == _waves_digest(waves):
            return prev
    # a generation is named by the wave commits it merges: a full merge
    # that crashed is resumed from its atomic bucket files (run_merge
    # skips finished ones); a delta generation writes its (base) merge
    # inputs last, so a crashed one is never kept.
    gen = os.path.join(out_dir, GENERATIONS, _waves_digest(waves)[:16])
    merge_ckpt = os.path.join(gen, "merge_inputs.json")
    merge_inputs = {"waves": waves, "format": INDEX_FORMAT}
    keep = False
    if os.path.exists(merge_ckpt):
        with open(merge_ckpt) as f:
            keep = json.load(f) == merge_inputs
    plan = None if keep else _delta_plan(out_dir, prev_dir, prev, waves)
    if not keep:
        shutil.rmtree(gen, ignore_errors=True)
        for sub in ("postings", "lexparts", "docs", "delta"):
            os.makedirs(os.path.join(gen, sub))
        if plan is None:
            _atomic_write_json(merge_ckpt, merge_inputs)

    t_m0 = time.monotonic()
    if plan is None:
        run_merge(
            _segment_files(out_dir, waves),
            os.path.join(gen, "postings"),
            buckets,
            lex_dir=os.path.join(gen, "lexparts"),
        )
        stage_times["merge"] = round(time.monotonic() - t_m0, 3)
        # global lexicon = sorted concat of the per-bucket slices the
        # merge tasks already aggregated (buckets partition the term
        # space; no scan over the merged postings is needed)
        lex = pa.concat_tables(
            [
                pa.ipc.open_file(p).read_all()
                for p in glob.glob(os.path.join(gen, "lexparts", "*.arrow"))
            ]
            or [_LEXICON_SCHEMA.empty_table()]
        ).sort_by("term")
        base_values, delta, delta_values = int(pc.sum(lex["df"]).as_py() or 0), [], 0
    else:
        delta, base_inputs, delta_values = plan
        # the base's files are the published generation's, hard-linked
        base_dir = os.path.join(prev_dir, "postings")
        for name in os.listdir(base_dir):
            os.link(os.path.join(base_dir, name), os.path.join(gen, "postings", name))
        delta_loc = ray.get(
            ray.remote(num_cpus=1)(_merge_delta_task).remote(
                _segment_files(out_dir, delta),
                os.path.join(gen, "delta", "postings.parquet"),
            )
        )
        stage_times["merge"] = round(time.monotonic() - t_m0, 3)
        lex = _refresh_lexicon(out_dir, prev_dir, waves, delta_loc, buckets)
        _write_lexparts(lex, os.path.join(gen, "lexparts"))
        base_values = prev["base_values"]
    _atomic_write_table(lex, os.path.join(gen, "lexicon.parquet"))
    masked = _write_doclens(out_dir, waves, delta, n_docs, gen)
    _atomic_write_table(
        conv_lemma_counts(
            _wave_table(out_dir, waves, "convlex.arrow"),
            _wave_table(out_dir, waves, "convterms.arrow"),
            offsets.num_rows,
        ),
        os.path.join(gen, "convlex.parquet"),
    )
    # doc store: each wave's file, hard-linked (no text is copied, and
    # the text stays with the scores it was committed with when the
    # wave is later evicted); a kept checkpoint already holds some links
    for wname in waves:
        dst = os.path.join(gen, "docs", wname + ".arrow")
        if not os.path.exists(dst):
            os.link(os.path.join(out_dir, "waves", wname, "docs.arrow"), dst)
    if plan is not None:
        _atomic_write_json(merge_ckpt, base_inputs)
    stage_times["lexicon"] = round(time.monotonic() - t_m0 - stage_times["merge"], 3)
    total_tokens = int(pc.sum(lex["cf"]).as_py() or 0)
    meta = {
        "format": INDEX_FORMAT,
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "n_terms": lex.num_rows,
        "avg_doc_len": total_tokens / n_docs if n_docs else 0.0,
        "mode": mode,
        "buckets": buckets,
        "n_partitions": n_partitions,
        "n_waves": len(waves),
        "waves_digest": _waves_digest(waves),
        "base_values": base_values,
        "delta_values": delta_values,
        "delta_docs": masked,
        "build_wall_s": round(time.monotonic() - t_start, 3),
        "stage_times": stage_times,
    }
    _atomic_write_json(os.path.join(gen, "meta.json"), meta)
    _publish(out_dir, gen)
    return meta


# ---------------------------------------------------------------------------
# Merged-generation helpers: the delta tier and the wave statistics
# ---------------------------------------------------------------------------


def published_generation(index_dir: str) -> str:
    """The directory ``index_dir``'s ``merged`` link names now (a
    format-7 index's real ``merged/`` is its own generation)."""
    return os.path.realpath(os.path.join(index_dir, "merged"))


def _publish(out_dir: str, gen: str) -> None:
    """Point the relative symlink ``merged`` at ``gen`` with one
    ``os.replace``, so a reader finds the old or the new generation.
    The replaced one stays for searchers open on it; every other one
    goes, crash leftovers included.  A real ``merged/`` (format 7, or a
    copy that dereferenced the link) is first moved under
    ``generations/``, leaving ``merged`` briefly absent that once."""
    link = os.path.join(out_dir, "merged")
    gen_root = os.path.dirname(gen)
    prev = published_generation(out_dir)
    if not os.path.islink(link) and os.path.isdir(link):
        prev = os.path.join(gen_root, uuid.uuid4().hex)
        os.rename(link, prev)
    tmp = link + ".tmp"
    if os.path.lexists(tmp):
        os.remove(tmp)
    os.symlink(os.path.relpath(gen, out_dir), tmp)
    os.replace(tmp, link)
    keep = {os.path.basename(gen), os.path.basename(prev)}
    for name in os.listdir(gen_root):
        if name not in keep:
            shutil.rmtree(os.path.join(gen_root, name), ignore_errors=True)


def _segment_files(out_dir: str, waves) -> list[str]:
    return sorted(
        p
        for w in waves
        for p in glob.glob(os.path.join(out_dir, "waves", w, "segments", "*.parquet"))
    )


def _delta_plan(
    out_dir: str, prev_dir: str, prev: dict | None, waves: dict[str, str | None]
) -> tuple[list[str], dict, int] | None:
    """How a refresh publishes: (the waves whose commit differs from the
    base's merge inputs, those inputs, the changed waves' posting
    values) when the published generation (``prev_dir``, its meta
    ``prev``) can serve as the base and the
    delta tier stays within ``DELTA_COMPACT_FRACTION`` of it; None when
    the full merge must run (no base, another partitioning, or a delta
    that has outgrown the base: compaction)."""
    if prev is None:
        return None
    path = os.path.join(prev_dir, "merge_inputs.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        base = json.load(f)
    if base.get("format") != INDEX_FORMAT or set(base["waves"]) != set(waves):
        return None
    changed = sorted(w for w, c in waves.items() if base["waves"][w] != c)
    values = 0
    for w in changed:
        with open(os.path.join(out_dir, "waves", w, "manifest.json")) as f:
            values += sum(
                p["n_postings"] for p in json.load(f)["per_partition"].values()
            )
    if values > DELTA_COMPACT_FRACTION * prev["base_values"]:
        return None
    return changed, base, values


def _wave_table(out_dir: str, waves, name: str) -> pa.Table:
    """One of a wave's Arrow IPC files, concatenated over ``waves``."""
    return pa.concat_tables(
        [
            pa.ipc.open_file(os.path.join(out_dir, "waves", w, name)).read_all()
            for w in sorted(waves)
        ]
    )


def _refresh_lexicon(
    out_dir: str, base_gen: str, waves, delta_loc: pa.Table, buckets: int
) -> pa.Table:
    """The lexicon of a delta generation: each term's df and cf summed
    over every wave's ``termstats`` (exact: a term whose last occurrence
    went drops out), its base locator from the previous generation's
    lexicon (the base files are unchanged) and its delta locator from
    the delta merge.  A term new in the delta has an empty base locator
    and is filed under its hash bucket."""
    stats = (
        _wave_table(out_dir, waves, "termstats.arrow")
        .group_by("term")
        .aggregate([("df", "sum"), ("cf", "sum")])
        .rename_columns(["term", "df", "cf"])
    )
    base = pq.read_table(
        os.path.join(base_gen, "lexicon.parquet"),
        columns=["term", "bucket", "rg", "row_lo", "row_hi"],
    )
    lex = stats.join(base, "term", join_type="left outer").join(
        delta_loc, "term", join_type="left outer"
    )
    new = pc.is_null(lex["bucket"]).to_numpy(zero_copy_only=False)
    bucket = pc.fill_null(lex["bucket"], 0).to_numpy().copy()
    bucket[new] = [term_bucket(t, buckets) for t in lex["term"].filter(new).to_pylist()]
    lex = lex.set_column(
        lex.schema.get_field_index("bucket"), "bucket", pa.array(bucket)
    )
    return pa.table(
        [
            pc.fill_null(lex[f.name], 0) if f.name != "term" else lex["term"]
            for f in _LEXICON_SCHEMA
        ],
        schema=_LEXICON_SCHEMA,
    ).sort_by("term")


def _lexpart(bucket: int) -> str:
    """A bucket's lexicon slice (``lexparts/``): the lexicon rows of its
    terms, as uncompressed Arrow IPC — a lazy searcher point-reads one,
    and a refresh rewrites them all."""
    return f"lexicon-{int(bucket):04d}.arrow"


def _write_lexparts(lex: pa.Table, lex_dir: str) -> None:
    """Split a lexicon into the per-bucket slices a lazy searcher reads."""
    b = lex["bucket"].to_numpy()
    order = np.argsort(b, kind="stable")
    sb = b[order]
    cuts = np.concatenate(([0], np.flatnonzero(sb[1:] != sb[:-1]) + 1, [len(sb)]))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        _write_arrow(lex.take(order[lo:hi]), os.path.join(lex_dir, _lexpart(sb[lo])))


def _write_doclens(
    out_dir: str, waves, delta: list[str], n_docs: int, gen: str
) -> int:
    """Write the generation's doc lengths (the waves' per-partition
    files, once, in doc_id order) and, for a delta generation, the doc
    ids the base must not answer for (every doc of a delta wave: a
    conversation may straddle partitions, so it is a set, not a range).
    Returns the number of masked docs."""
    doclens = _wave_table(out_dir, waves, "doclens.arrow").sort_by("doc_id")
    if not np.array_equal(doclens["doc_id"].to_numpy(), np.arange(n_docs)):
        raise RuntimeError(
            f"wave doc lengths do not cover doc_ids 0..{n_docs - 1} exactly once"
        )
    _atomic_write_table(  # doc_id is 0..n-1: delta-encoded it costs ~nothing
        doclens,
        os.path.join(gen, "doclens.parquet"),
        use_dictionary=["doc_len"],
        column_encoding={"doc_id": "DELTA_BINARY_PACKED"},
    )
    if not delta:
        return 0
    masked = np.sort(_wave_table(out_dir, delta, "doclens.arrow")["doc_id"].to_numpy())
    _atomic_write_table(
        pa.table({"doc_id": pa.array(masked, pa.int64())}),
        os.path.join(gen, "delta", "masked.parquet"),
        use_dictionary=False,
        column_encoding={"doc_id": "DELTA_BINARY_PACKED"},
    )
    return len(masked)


def conv_lemma_counts(whole: pa.Table, split: pa.Table, n_convs: int) -> pa.Table:
    """Distinct-lemma count per conversation (sparse: conv_idx, lemmas)
    from the waves' ``convlex`` rows (``whole``: a conversation inside
    one partition has its count in that wave's) and ``convterms`` rows
    (``split``: a straddling one counts the union of its partitions'
    (conversation, term) pairs)."""
    counts = np.zeros(n_convs, np.int64)
    counts[whole["conv_idx"].to_numpy()] = whole["lemmas"].to_numpy()
    pairs = split.group_by(["conv_idx", "term"]).aggregate([])
    counts += np.bincount(pairs["conv_idx"].to_numpy(), minlength=n_convs)
    nz = np.flatnonzero(counts)
    return pa.table(
        {"conv_idx": pa.array(nz, pa.int64()), "lemmas": pa.array(counts[nz], pa.int64())}
    )


_EXPLODED_SCHEMA = pa.schema(
    [("term", pa.string()), ("doc_id", pa.int64()), ("tf", pa.int64())]
)


def decoded_postings(index_dir: str) -> pa.Table:
    """An index's logical postings as exploded (term, doc_id, tf) rows
    in (term, doc_id) order: the base bucket files' rows without the
    docs the delta tier masks, plus the delta file's rows — what every
    searcher reads, whatever the tiers hold."""
    merged = published_generation(index_dir)

    def exploded(paths: list[str]) -> pa.Table:
        parts = []
        for path in paths:
            t = pq.read_table(path, columns=MERGED_POSTINGS_SCHEMA.names)
            doc_ids, tfs = decode_postings(t)
            parts.append(
                pa.table(
                    [
                        t["term"].take(pc.list_parent_indices(t["doc_ids"])),
                        pa.array(doc_ids, pa.int64()),
                        pa.array(tfs, pa.int64()),
                    ],
                    schema=_EXPLODED_SCHEMA,
                )
            )
        return pa.concat_tables(parts or [_EXPLODED_SCHEMA.empty_table()])

    base = exploded(sorted(glob.glob(os.path.join(merged, "postings", "*.parquet"))))
    masked = os.path.join(merged, "delta", "masked.parquet")
    if os.path.exists(masked):
        base = base.filter(
            pc.invert(
                pc.is_in(
                    base["doc_id"],
                    value_set=pq.read_table(masked)["doc_id"].combine_chunks(),
                )
            )
        )
    delta = glob.glob(os.path.join(merged, "delta", "postings.parquet"))
    return pa.concat_tables([base, exploded(delta)]).sort_by(
        [("term", "ascending"), ("doc_id", "ascending")]
    )
