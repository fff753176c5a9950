"""Resumable partitioned Parquet sink — the brief's "resumable
output" requirement as a reusable pipeline stage: write a Dataset to
``out_dir/bucket=%05d/part-0.parquet`` partitioned by a deterministic
function of a key column, with an atomic ``_DONE`` marker per bucket,
so a failed run re-executes ONLY the buckets that never finished
(the wave-manifest discipline of ``build.py`` generalized to any
operator's output; reference analog: none — brief requirement).

Determinism: bucket = ``key % n_buckets`` (exact in SQL, uniform for
the synthetic sequential ids; pass a pre-hashed key column for
adversarial key distributions), rows within a bucket sorted by key,
one file per bucket with a fixed name — so a completed tree is
byte-stable under re-runs and a resumed run cannot duplicate rows.

Scale notes: one ``groupby(bucket)`` shuffle is the partitioning the
output layout demands anyway; a bucket's rows gather in ONE task, so
size ``n_buckets`` ≈ data_bytes / target_file_bytes (docstring of
:func:`write_resumable`).  Marker writes are driver-side renames —
O(n_buckets) tiny files, after the distributed write completes.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _bucket_dir(out_dir: str, b: int) -> str:
    return os.path.join(out_dir, f"bucket={b:05d}")


def _marker(out_dir: str, b: int) -> str:
    return os.path.join(_bucket_dir(out_dir, b), "_DONE")


def write_resumable(ds, out_dir: str, key_col: str, n_buckets: int = 64):
    """Write ``ds`` to a per-bucket-resumable partitioned Parquet
    tree; returns the per-bucket row counts ``(bucket, n_rows)``
    (only buckets with rows; ≤ ``n_buckets`` driver-resident rows)
    as a pandas DataFrame sorted by bucket.

    Size ``n_buckets`` so one bucket fits a worker's heap: a bucket's
    rows gather in one task (that is what makes the single fixed-name
    file per bucket — and hence idempotent resume — possible)."""
    os.makedirs(out_dir, exist_ok=True)
    done = {
        b: json.load(open(_marker(out_dir, b)))
        for b in range(n_buckets)
        if os.path.exists(_marker(out_dir, b))
    }
    pending = sorted(set(range(n_buckets)) - set(done))

    def _stats_frame(counts: dict[int, int]) -> pd.DataFrame:
        items = sorted((b, n) for b, n in counts.items() if n > 0)
        return pd.DataFrame(
            {
                "bucket": np.array([b for b, _ in items], np.int64),
                "n_rows": np.array([n for _, n in items], np.int64),
            }
        )

    if not pending:
        return _stats_frame({b: m["n_rows"] for b, m in done.items()})

    # clean partial output from a crashed previous attempt: no marker
    # means the bucket never completed, whatever files it holds
    for b in pending:
        d = _bucket_dir(out_dir, b)
        if os.path.exists(d):
            shutil.rmtree(d)

    pend_mask = np.zeros(n_buckets, bool)
    pend_mask[pending] = True

    def add_bucket(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (keys % n_buckets).astype(np.int64)
        keep = pend_mask[b]
        t = t.filter(pa.array(keep))
        return t.append_column("bucket", pa.array(b[keep], pa.int64()))

    def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["bucket"].iloc[0])
        g = g.drop(columns=["bucket"]).sort_values(key_col, kind="mergesort")
        d = _bucket_dir(out_dir, b)
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, "part-0.parquet.tmp")
        pq.write_table(
            pa.Table.from_pandas(g, preserve_index=False), tmp
        )
        os.replace(tmp, os.path.join(d, "part-0.parquet"))
        return pd.DataFrame(
            {"bucket": [np.int64(b)], "n_rows": [np.int64(len(g))]}
        )

    written = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(write_bucket, batch_format="pandas")
        .to_pandas()  # ≤ n_buckets rows
    )
    counts = dict(
        zip(
            written["bucket"].astype(int),
            written["n_rows"].astype(int),
        )
    )
    # markers LAST, one atomic rename per bucket — a crash anywhere
    # above re-runs only unmarked buckets; zero-row pending buckets
    # get a marker too so resume stops re-probing them
    for b in pending:
        n = counts.get(b, 0)
        if n == 0:
            os.makedirs(_bucket_dir(out_dir, b), exist_ok=True)
        tmp = _marker(out_dir, b) + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"n_rows": int(n)}, f)
        os.replace(tmp, _marker(out_dir, b))
    for b, m in done.items():
        counts[b] = m["n_rows"]
    return _stats_frame(counts)


def resumable_sink_sql(n_buckets: int = 64, table: str = "documents",
                       key: str = "doc_id") -> str:
    """DuckDB twin of the (bucket, n_rows) stats
    :func:`write_resumable` returns.  DuckDB's ``%`` keeps the sign of
    the key, numpy's that of the divisor, so the twin folds negatives
    the way numpy does."""
    return (
        f"SELECT CAST((({key} % {n_buckets}) + {n_buckets}) % {n_buckets} "
        "AS BIGINT) AS bucket, "
        f"CAST(count(*) AS BIGINT) AS n_rows FROM {table} "
        "GROUP BY 1 ORDER BY 1"
    )
