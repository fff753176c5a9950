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
place that sets it.  Wave segments and merged bucket files share that
schema (``POSTINGS_SCHEMA``).  Doc lengths and lineage stats are
computed in the same task.  A partition is fully determined by its
input files, so posting rows never cross workers: df comes from the
merge, not a shared counter (contrast RecursiveSearch.java:150-162).  The only all-to-all
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
from the same ``merged/`` swap as its scores.

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

Checkpoint/resume: the unit of commit is the partition.  Each
partition task writes its segments, doc lengths, doc store and a
manifest (lineage: input files, row counts, wall time, a unique commit
id) into ``waves/_tmp_p-NNNNN`` and, as its last act, atomically
renames it to ``waves/p-NNNNN``.  A wave dir without the ``_tmp_``
prefix is complete by invariant; resume skips partitions that have
one, so a stopped build keeps every partition it finished, and
evicting a partition is a rename plus a directory delete.  The merge is keyed on the commit ids
of the waves it read, so it reruns whenever any wave was rewritten —
even under the same wave name — and is idempotent (tmp + rename); this
mirrors & replaces the reference's destructive re-init
(IndexingServiceImpl.java:154-163, S8).
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
#: posting layout version in ``merged/meta.json`` and every wave
#: manifest; searchers refuse other indexes, the build recomputes other waves
INDEX_FORMAT = 6
#: one posting row: a term's doc ids (ascending) and tfs within one
#: partition flush; wave segments and merged bucket files alike
POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()), ("bucket", pa.int32()),
        ("doc_ids", pa.list_(pa.int64())), ("tfs", pa.list_(pa.int64())),
    ]
)
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
    (lex.Lexer.token_parent_pairs), per-doc tf aggregation
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
        """Vectorized core: batch → (doc_ids per row, doc_len per row,
        p_row posting→row index, term code per posting, p_tf, the batch
        vocabulary the codes index)."""
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
        return doc_ids, doc_len, p_row, ucodes, p_tf, uniq


# ---------------------------------------------------------------------------
# Stage 2 — partition-local segment build (A2 analog)
# ---------------------------------------------------------------------------

#: exploded-posting buffer budget per partition before an early flush
#: writes a partial (doc-disjoint) sub-segment — the "per-partition
#: spill" of the north star.  ~24 bytes/posting + term strings.
DEFAULT_SPILL_ROWS = 8_000_000


def _encode_partition_segment(
    codes: np.ndarray, uniq_terms: np.ndarray, docs: np.ndarray,
    tfs: np.ndarray, buckets: int, bucket_memo: dict,
) -> pa.Table:
    """Sort one partition's exploded (term-code, doc, tf) rows into
    per-term posting rows, bucket-major (bucket assigned per term by
    hash), so that each merge task reads its own bucket's row groups.
    Terms arrive as integer codes into ``uniq_terms`` — the Python-level
    work is bounded by the partition VOCABULARY, not its postings.

    One Arrow row per term per partition replaces the reference's one
    SQL row per (lemma, page) (model/SearchIndex.java:12-27); its
    ``doc_ids``/``tfs`` lists are slices of the sorted flat arrays."""
    if len(codes) == 0:
        return POSTINGS_SCHEMA.empty_table()
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
    starts = np.flatnonzero(np.concatenate(([True], s_codes[1:] != s_codes[:-1])))
    offsets = np.append(starts, len(s_codes))
    row_codes = s_codes[starts]
    return pa.Table.from_arrays(
        [
            pa.array(uniq_terms[row_codes], pa.string()),
            pa.array(bucket_of[row_codes], pa.int32()),
            _lists(offsets, docs[order]), _lists(offsets, tfs[order]),
        ],
        schema=POSTINGS_SCHEMA,
    )


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
    """Write bucket-sorted posting rows (a wave segment or a merged
    bucket): doc ids — ascending within a row — delta-packed; terms,
    buckets and tfs dictionary-encoded.  Parquet names a list
    column's values ``<col>.list.element``; it ignores an encoding set
    under any other name and writes that column PLAIN.  Row group ``i``
    holds rows ``cuts[i]:cuts[i + 1]`` (a merged bucket's term-aligned
    groups, see :func:`merge_bucket`); without ``cuts`` a segment gets
    one row group per bucket.  No row group spans two buckets and only
    ``bucket`` carries statistics, so a reader finds one bucket's row
    groups from the footer alone.  The footer keeps no copy of the
    Arrow schema: these four columns read back as ``POSTINGS_SCHEMA``
    from the Parquet schema alone, and the copy cost ~0.5 kB per file
    (2% of corpus C's merged postings)."""
    if cuts is None:
        b = table["bucket"].to_numpy()
        cuts = np.concatenate(
            ([0], np.flatnonzero(b[1:] != b[:-1]) + 1, [len(b)])
        )
    tmp = path + ".tmp"
    with pq.ParquetWriter(
        tmp,
        table.schema,
        use_dictionary=["term", "bucket", "tfs.list.element"],
        column_encoding={"doc_ids.list.element": "DELTA_BINARY_PACKED"},
        write_statistics=["bucket"],
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
    never rewritten once committed) and its manifest (lineage and
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
        os.makedirs(os.path.join(tmp, "doclens"))
        # partition-level vocabulary: batch-local codes are remapped to
        # stable partition codes (Python work ∝ per-batch vocab, not
        # postings); posting buffers are pure int64 arrays
        part_vocab: dict[str, int] = {}
        part_terms: list[str] = []
        code_buf: list[np.ndarray] = []
        doc_buf: list[np.ndarray] = []
        tf_buf: list[np.ndarray] = []
        dl_doc: list[np.ndarray] = []
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
            seg = _encode_partition_segment(
                np.concatenate(code_buf),
                np.array(part_terms, dtype=object),
                np.concatenate(doc_buf),
                np.concatenate(tf_buf),
                buckets,
                tok._bucket_memo,
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
                doc_ids, doc_len, p_row, ucodes, p_tf, uniq = tok.explode_arrays(
                    tbl
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
                dl_doc.append(doc_ids)
                dl_len.append(doc_len)
                n_buf += len(ucodes)
                n_postings += len(ucodes)
                if n_buf >= spill_rows:
                    flush()
        flush()
        docs = np.concatenate(dl_doc) if dl_doc else np.empty(0, np.int64)
        lens = np.concatenate(dl_len) if dl_len else np.empty(0, np.int64)
        _atomic_write_table(
            pa.table(
                {
                    "doc_id": pa.array(docs, pa.int64()),
                    "doc_len": pa.array(lens, pa.int64()),
                }
            ),
            os.path.join(tmp, "doclens", f"pid-{pid:05d}.parquet"),
        )
        _write_doc_store(
            os.path.join(tmp, "docs.arrow"), docs, doc_role, doc_text
        )
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


#: a term's merged lexicon row; its posting rows are rows
#: ``row_lo:row_hi`` of row group ``rg`` of its bucket file
_LEXICON_SCHEMA = pa.schema(
    [("term", pa.string())]
    + [(c, pa.int64()) for c in ("df", "cf", "bucket", "rg", "row_lo", "row_hi")]
)


def merge_bucket(
    group: pa.Table, conv_starts: np.ndarray | None = None
) -> tuple[pa.Table, pa.Table, np.ndarray | None]:
    """Merge one bucket's segment rows into its posting rows and its
    lexicon slice.  Segment rows are doc-disjoint (a doc lives in
    exactly one partition flush), so once the rows are in (term, first
    doc id) order — one ``take`` — each term's doc ids are its rows'
    ``doc_ids`` lists as they stand, and every row is written with its
    segment length: no decode, no re-encode, no re-chunk.  A
    value-level order audit sorts a term whose partitions' doc ranges
    interleave (its values move between its rows; the row lengths
    stay) and rejects a repeated doc id.

    The lexicon slice comes from the same term boundaries: a term's df
    and cf, and its row group ``rg`` of the bucket file with its rows
    ``row_lo:row_hi`` there, so a searcher locates a term's postings
    from its lexicon row alone.  Row groups hold whole terms: one starts
    at each term whose first value crosses into a new multiple of
    ``POSTING_RG_VALUES``, and a term longer than that gets one of its
    own, so a row group holds at most ``POSTING_RG_VALUES`` values
    besides its last term's.  (:func:`_merge_one_bucket` reads the
    row-group cuts back off the lexicon slice.)

    When ``conv_starts`` (the conv→first-doc offset array) is given,
    also returns this bucket's distinct-lemma count per conversation
    (DetailedStatisticsItem lemma-count analog,
    StatisticsServiceImpl.java:34-70): buckets partition the term
    space, so per-conv distinct (term, conv) pairs are disjoint across
    buckets and the global count is the sum of the per-bucket sidecars.
    Because posting doc_ids are ascending within each term segment,
    conv indices are non-decreasing there too — distinct pairs are just
    segment starts plus conv-change boundaries: one ``searchsorted``
    plus O(n) compares over the flattened values, no shuffle."""
    _pin_arrow_threads()
    if group.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table(), _LEXICON_SCHEMA.empty_table(), None
    keys = pa.table(
        {"term": group["term"], "first": pc.list_element(group["doc_ids"], 0)}
    )
    rows = group.take(
        pc.sort_indices(keys, [("term", "ascending"), ("first", "ascending")])
    )
    terms = rows["term"].to_numpy(zero_copy_only=False)
    term_row_starts = np.flatnonzero(
        np.concatenate(([True], terms[1:] != terms[:-1]))
    )
    row_offsets = np.concatenate(
        ([0], np.cumsum(pc.list_value_length(rows["doc_ids"]).to_numpy()))
    )
    d, t = decode_postings(rows)
    n_vals = len(d)
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
        d, t = d.copy(), t.copy()  # the flattened lists are read-only
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
            [rows["term"], rows["bucket"]]
            + [_lists(row_offsets, v) for v in (d, t)],
            schema=POSTINGS_SCHEMA,
        )

    # per-conv distinct-lemma partials (see docstring) — after the
    # audit, so doc_ids (hence conv indices) ascend within each segment
    conv_counts = None
    if conv_starts is not None:
        conv_of_val = (
            np.searchsorted(conv_starts, d, side="right") - 1
        ).astype(np.int64)
        keep = np.empty(n_vals, dtype=bool)
        keep[0] = True
        keep[1:] = conv_of_val[1:] != conv_of_val[:-1]
        keep[term_val_starts] = True
        conv_counts = np.bincount(
            conv_of_val[keep], minlength=len(conv_starts)
        ).astype(np.int64)

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
        np.full(len(sorted_terms), rows["bucket"][0].as_py()),
        rg,
        term_row_starts - rg_row,
        term_row_ends - rg_row,
    )
    lexicon = pa.Table.from_arrays(
        [pa.array(c, f.type) for c, f in zip(cols, _LEXICON_SCHEMA)],
        schema=_LEXICON_SCHEMA,
    )
    return rows, lexicon, conv_counts


def _merge_bucket_task(
    buckets: list[int],
    seg_files: list[str],
    out_dir: str,
    lex_dir: str,
    convlex_dir: str | None,
    conv_starts: np.ndarray | None,
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
        parts = [pf.read_row_group(rg_of[b]) for pf, rg_of in segs if b in rg_of]
        if parts:
            n += _merge_one_bucket(
                pa.concat_tables(parts),
                os.path.join(out_dir, f"bucket-{b:04d}.parquet"),
                os.path.join(lex_dir, f"lexicon-{b:04d}.parquet"),
                None
                if convlex_dir is None
                else os.path.join(convlex_dir, f"convlex-{b:04d}.parquet"),
                conv_starts,
            )
    return n


def _merge_one_bucket(
    group: pa.Table,
    out_path: str,
    lex_path: str,
    convlex_path: str | None,
    conv_starts: np.ndarray | None,
) -> int:
    """Merge one bucket's segment rows and write its posting rows
    (term-aligned row groups of about ``POSTING_RG_VALUES`` values), its
    lexicon slice and its convlex sidecar.  Buckets partition the term
    space, so the global lexicon is just the concatenation of the
    slices — no driver-side scan over the merged index.  Atomic
    renames; idempotent."""
    postings, lexicon, conv_counts = merge_bucket(group, conv_starts=conv_starts)
    if convlex_path is not None and conv_counts is not None:
        # sparse sidecar: only convs this bucket's terms touch
        nz = np.flatnonzero(conv_counts)
        _atomic_write_table(
            pa.table(
                {
                    "conv_idx": pa.array(nz, pa.int64()),
                    "lemmas": pa.array(conv_counts[nz], pa.int64()),
                }
            ),
            convlex_path,
        )
    if postings.num_rows:
        # a row group ends at its last term's row_hi
        rg, row_hi = lexicon["rg"].to_numpy(), lexicon["row_hi"].to_numpy()
        last = np.append(rg[1:] != rg[:-1], True)
        _write_postings(
            postings, out_path, cuts=np.concatenate(([0], np.cumsum(row_hi[last])))
        )
        _atomic_write_table(lexicon, lex_path)
    return postings.num_rows


def run_merge(
    seg_files: list[str],
    out_dir: str,
    buckets: int,
    lex_dir: str | None = None,
    convlex_dir: str | None = None,
    conv_starts: np.ndarray | None = None,
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
    use_conv = convlex_dir is not None and conv_starts is not None
    todo = [
        b
        for b in range(buckets)
        if not (
            os.path.exists(os.path.join(out_dir, f"bucket-{b:04d}.parquet"))
            and os.path.exists(os.path.join(lex_dir, f"lexicon-{b:04d}.parquet"))
            and (
                not use_conv
                or os.path.exists(
                    os.path.join(convlex_dir, f"convlex-{b:04d}.parquet")
                )
            )
        )
    ]
    if not (todo and seg_files):
        return
    merge_remote = ray.remote(num_cpus=1)(_merge_bucket_task)
    conv_ref = ray.put(conv_starts) if use_conv else None
    # one task per CPU, each over a run of buckets: a task opens every
    # segment file once, so fewer tasks parse fewer footers
    n_tasks = min(len(todo), int(ray.cluster_resources().get("CPU", 1)))
    futs = [
        merge_remote.remote(
            [int(b) for b in run],
            seg_files,
            out_dir,
            lex_dir,
            convlex_dir if use_conv else None,
            conv_ref,
        )
        for run in np.array_split(todo, n_tasks)
    ]
    ray.get(futs)


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


def partition_of(out_dir: str, conv_id: str) -> int:
    """First covering partition (see :func:`partitions_of`)."""
    return partitions_of(out_dir, conv_id)[0]


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
    """Partition-scoped rebuild + re-merge (§3.3 restated: the
    reference's single-page reindex deletes the page's postings,
    decrements dfs and re-crawls one URL,
    IndexingServiceImpl.java:173-198; here the unit of incremental
    recompute is an input partition — its wave is evicted and
    rebuilt, then the idempotent LSM merge reruns over the new wave
    set, which also restores df/cf in lexicon + meta)."""
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
    resume keeps the one in ``input_meta.json``.  The merge publishes
    ``merged/`` in one rename: postings, lexicon, doc lengths and
    ``docs/`` (hard links to the waves' doc stores).
    ``meta.json`` keeps a digest of the wave → commit map it was merged
    from (``waves_digest``, with ``n_waves``), and a build whose waves
    match it skips the merge.
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
    merged_dir = os.path.join(out_dir, "merged")
    meta_path = os.path.join(merged_dir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        if (
            meta.get("waves_digest") == _waves_digest(waves)
            and meta.get("format") == INDEX_FORMAT
        ):
            return meta
    # merge checkpoint: keep a partially-completed _tmp_merged (its
    # bucket files are atomic) when it was built from the SAME wave
    # commits in the same layout; run_merge then skips finished buckets
    merged_tmp = os.path.join(out_dir, "_tmp_merged")
    merge_ckpt = os.path.join(merged_tmp, "merge_inputs.json")
    merge_inputs = {"waves": waves, "format": INDEX_FORMAT}
    keep = False
    if os.path.exists(merge_ckpt):
        with open(merge_ckpt) as f:
            keep = json.load(f) == merge_inputs
    if not keep:
        shutil.rmtree(merged_tmp, ignore_errors=True)
        for sub in ("postings", "lexparts", "convlex", "docs"):
            os.makedirs(os.path.join(merged_tmp, sub))
        _atomic_write_json(merge_ckpt, merge_inputs)

    seg_files = sorted(
        glob.glob(os.path.join(out_dir, "waves", "*", "segments", "*.parquet"))
    )
    t_m0 = time.monotonic()
    run_merge(
        seg_files,
        os.path.join(merged_tmp, "postings"),
        buckets,
        lex_dir=os.path.join(merged_tmp, "lexparts"),
        convlex_dir=os.path.join(merged_tmp, "convlex"),
        conv_starts=offsets["offset"].to_numpy(),
    )
    stage_times["merge"] = round(time.monotonic() - t_m0, 3)

    # global lexicon = sorted concat of the per-bucket slices the merge
    # tasks already aggregated (buckets partition the term space; no
    # scan over the merged postings is needed)
    lex_parts = sorted(glob.glob(os.path.join(merged_tmp, "lexparts", "*.parquet")))
    lex = pa.concat_tables(
        [pq.read_table(p) for p in lex_parts] or [_LEXICON_SCHEMA.empty_table()]
    ).sort_by("term")
    _atomic_write_table(lex, os.path.join(merged_tmp, "lexicon.parquet"))
    totals = (
        int(pc.sum(lex["cf"]).as_py() or 0),
        lex.num_rows,
    )
    # doc lengths: the waves' per-partition files, once, in doc_id order
    doclens = pa.concat_tables(
        pq.read_table(p, columns=["doc_id", "doc_len"])
        for p in sorted(
            glob.glob(os.path.join(out_dir, "waves", "*", "doclens", "*.parquet"))
        )
    ).sort_by("doc_id")
    if not np.array_equal(doclens["doc_id"].to_numpy(), np.arange(n_docs)):
        raise RuntimeError(
            f"wave doc lengths do not cover doc_ids 0..{n_docs - 1} exactly once"
        )
    _atomic_write_table(  # doc_id is 0..n-1: delta-encoded it costs ~nothing
        doclens,
        os.path.join(merged_tmp, "doclens.parquet"),
        use_dictionary=["doc_len"],
        column_encoding={"doc_id": "DELTA_BINARY_PACKED"},
    )
    # doc store: each wave's file, hard-linked (no text is copied, and
    # the text stays with the scores it was committed with when the
    # wave is later evicted); a kept checkpoint already holds some links
    for wname in waves:
        dst = os.path.join(merged_tmp, "docs", wname + ".arrow")
        if not os.path.exists(dst):
            os.link(os.path.join(out_dir, "waves", wname, "docs.arrow"), dst)
    stage_times["lexicon"] = round(time.monotonic() - t_m0 - stage_times["merge"], 3)
    meta = {
        "format": INDEX_FORMAT,
        "n_docs": n_docs,
        "total_tokens": int(totals[0]),
        "n_terms": int(totals[1]),
        "avg_doc_len": (int(totals[0]) / n_docs) if n_docs else 0.0,
        "mode": mode,
        "buckets": buckets,
        "n_partitions": n_partitions,
        "n_waves": len(waves),
        "waves_digest": _waves_digest(waves),
        "build_wall_s": round(time.monotonic() - t_start, 3),
        "stage_times": stage_times,
    }
    _atomic_write_json(os.path.join(merged_tmp, "meta.json"), meta)
    shutil.rmtree(merged_dir, ignore_errors=True)
    os.replace(merged_tmp, merged_dir)
    return meta
