"""Local mirror of the driver's correctness gate: run each
queries()[name](sf_dir) against oracle_sql()[name] via DuckDB and
compare row count, column names, and order-insensitive value hash.

Usage: python scripts/check_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    argv = list(sys.argv[1:])
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        del argv[i:i + 2]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    failures = []
    report: dict = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            mine = fn(sf_dir)
            if not isinstance(mine, pd.DataFrame):
                try:
                    mine = mine.to_pandas()
                except AttributeError:
                    import pyarrow as pa

                    if isinstance(mine, pa.Table):
                        mine = mine.to_pandas()
            if name not in oracles:
                print(f"  {name:20s} rows-only: {len(mine)} rows ✓")
                report[name] = {"rows_match": None, "schema_match": None,
                                "hash_match": None, "spark_rows": len(mine),
                                "oracle_rows": None, "err": "no_oracle"}
                continue
            want = con.execute(oracles[name]).fetchdf()
            a, b = canon(mine), canon(want)
            ok_cols = list(a.columns) == list(b.columns)
            ok_rows = len(a) == len(b)
            ok_vals = ok_cols and ok_rows and a.equals(b)
            status = "OK " if ok_vals else "FAIL"
            print(f"  {name:20s} {status} rows={len(a)}/{len(b)} cols={ok_cols}")
            report[name] = {"rows_match": ok_rows, "schema_match": ok_cols,
                            "hash_match": ok_vals, "spark_rows": len(a),
                            "oracle_rows": len(b), "err": None}
            if not ok_vals:
                failures.append(name)
                if ok_cols and ok_rows:
                    neq = (a != b).any(axis=1)
                    print(a[neq].head(3))
                    print(b[neq].head(3))
                else:
                    print("  mine cols:", list(a.columns), "oracle:", list(b.columns))
                    print(a.head(3))
                    print(b.head(3))
        except Exception as e:
            failures.append(name)
            import traceback

            print(f"  {name:20s} ERROR {type(e).__name__}: {e}")
            traceback.print_exc(limit=3)
            report[name] = {"rows_match": False, "schema_match": False,
                            "hash_match": False, "spark_rows": None,
                            "oracle_rows": None,
                            "err": f"{type(e).__name__}: {e}"}
    ran = [n for n in report if n in oracles]
    ok = sum(report[n]["hash_match"] is True for n in ran)
    errs = [r["err"] for r in report.values()]
    print(f"SUMMARY: full-oracle OK {ok}/{len(ran)}, "
          f"rows-only {errs.count('no_oracle')}, "
          f"errors {len(errs) - errs.count(None) - errs.count('no_oracle')}")
    print("FAILURES:", failures or "none")
    if json_out:
        import json as _json

        with open(json_out, "w") as f:
            _json.dump(report, f, indent=2)
        print(f"wrote {json_out} ({len(report)} entries)")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
