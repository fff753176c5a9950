"""Simulate the driver's correctness gate: run every queries() entry
and its oracle_sql() twin via duckdb at a given sf dir; compare row
count, schema (sorted column names), and a value hash (columns sorted
by name, rows sorted, values stringified).

Usage: python scripts/driver_sim.py [sf_dir] [query ...]
"""

import hashlib
import json
import os
import sys

# the checkout this script lives in: Ray workers import raysearch
# from the working directory
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.chdir(ROOT)

import duckdb
import pandas as pd
import ray

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def to_pandas(res):
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def value_hash(df: pd.DataFrame) -> str:
    df = df.reindex(sorted(df.columns), axis=1)
    # normalize dtypes: everything to string with fixed float formatting
    def norm(v):
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    rows = sorted(
        tuple(norm(v) for v in row) for row in df.itertuples(index=False, name=None)
    )
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def dtype_mismatches(mine: pd.DataFrame, orc: pd.DataFrame) -> list[str]:
    """Columns whose dtype kind (int, float, datetime, ...) differs
    between engine and oracle output.  The value hash stringifies, so
    an int64 column against a float64 twin matches on small values and
    fails once ``%.6g`` rounds; widths (int32 vs int64, datetime64[s]
    vs [us]) stringify alike and are not reported."""
    return [
        f"{c}: {mine[c].dtype} vs {orc[c].dtype}"
        for c in sorted(map(str, mine.columns))
        if c in orc.columns and mine[c].dtype.kind != orc[c].dtype.kind
    ]


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    ray.init(address="local", num_cpus=8, include_dashboard=False)
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs = E.queries()
    oracles = E.oracle_sql()
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            results[name] = {"status": "RAY_ERROR", "err": repr(e)[:200]}
            print(f"{name:24s} RAY_ERROR {e!r}", flush=True)
            continue
        if name not in oracles:
            results[name] = {"status": "rows_only", "rows": len(mine)}
            print(f"{name:24s} rows_only rows={len(mine)}", flush=True)
            continue
        try:
            orc = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            results[name] = {"status": "SQL_ERROR", "err": repr(e)[:200]}
            print(f"{name:24s} SQL_ERROR {e!r}", flush=True)
            continue
        rc = len(mine) == len(orc)
        sc = sorted(map(str, mine.columns)) == sorted(map(str, orc.columns))
        vh = value_hash(mine) == value_hash(orc) if rc and sc else False
        dt = dtype_mismatches(mine, orc)
        status = "OK" if (rc and sc and vh and not dt) else "MISMATCH"
        results[name] = {
            "status": status,
            "rows": (len(mine), len(orc)),
            "cols_match": sc,
            "hash_match": vh,
            "dtype_mismatches": dt,
        }
        print(
            f"{name:24s} {status} rows={len(mine)}/{len(orc)} cols={sc} hash={vh}"
            + (f" dtypes={dt}" if dt else ""),
            flush=True,
        )
        if status == "MISMATCH" and sc and rc:
            m = mine.reindex(sorted(mine.columns), axis=1).sort_values(
                list(sorted(mine.columns))
            )
            o = orc.reindex(sorted(orc.columns), axis=1).sort_values(
                list(sorted(orc.columns))
            )
            print("  mine:", m.head(3).to_dict("records"))
            print("  orcl:", o.head(3).to_dict("records"))
    bad = {k: v for k, v in results.items() if v["status"] not in ("OK", "rows_only")}
    print(json.dumps({"n": len(results), "bad": list(bad)}))
    ray.shutdown()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
