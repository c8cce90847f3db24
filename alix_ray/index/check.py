"""Index integrity verification — the Lucene ``CheckIndex`` analog.

Walks every artifact of every live generation and cross-checks the
invariants the serving engine relies on:

- **postings** — every (term, shard) row's varbyte blobs decode to
  exactly ``df`` strictly-increasing doc ids inside the shard's doc
  range; ``cf == Σ tf``; per-block metadata agrees with the decoded
  stream (``block_last`` = true last doc per block, byte offsets land
  on block starts — implied by a clean decode) and ``block_max`` is a
  SAFE upper bound of ``tf/(tf+norm)`` under the generation's own
  avgdl (the block-max pruning contract: an under-bound silently skips
  true top-k docs, the worst silent corruption this index can have);
- **term_stats** — per-term df/cf summed over postings shards equal
  the lexicon row, term_ids are dense ranks in sorted term order;
- **doc_stats / config** — recomputed n_docs / total_tokens /
  max_doc_id equal config.json; every posting doc id has a doc_stats
  row (norms exist);
- **tombstones** — sorted-unique and inside the id range.

The postings scan is the heavy part and runs as a streaming Ray Data
pass (``map_batches`` over the postings rows, zero-copy blob access,
per-worker-cached doc_stats slices, per-batch partial (term, df, cf)
summaries) — at 10^12 docs this is a read-everything job by definition
(so is Lucene's CheckIndex).  Driver memory is O(vocab + one shard):
the doc_stats recount streams shard-by-shard (ids can only collide
within a shard, so per-shard uniqueness is complete), and the per-term
cross-check holds one (df, cf) pair per term — the same O(lexicon)
class as opening the index.

Returns a report dict; ``errors`` is empty for a healthy index.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..codec import decode_posting
from ..stages.store import resolve_stage
from .engine import _generation_dirs, _load_tombstones

_POST_COLS = ["term", "shard", "df", "cf", "docs", "tfs",
              "block_last", "block_max"]

# per-WORKER-process DocStatsStore cache (the _DECON_CACHE pattern):
# rebuilding the store per 256-row batch would re-read the same
# doc_stats shard slices thousands of times across the vocabulary scan
_STORE_CACHE: dict = {}


def _verify_postings_batch(batch: pa.Table, *, shard_range: int,
                           avgdl: float, k1: float, b: float,
                           stats_dir: str, block: int) -> pa.Table:
    """Decode + verify one batch of postings rows; emit per-row
    (term, df, cf, n_errors, first_error)."""
    from ..index.engine import DocStatsStore

    key = (stats_dir, shard_range, k1, b, avgdl)
    store = _STORE_CACHE.get(key)
    if store is None:
        _STORE_CACHE.clear()  # one index checked at a time per worker
        store = _STORE_CACHE[key] = DocStatsStore(
            stats_dir, shard_range, k1, b, avgdl)
    terms = batch["term"].to_pylist()
    shards = batch["shard"].to_numpy(zero_copy_only=False)
    dfs = batch["df"].to_numpy(zero_copy_only=False)
    cfs = batch["cf"].to_numpy(zero_copy_only=False)
    errs, first = [], []
    for i in range(batch.num_rows):
        try:
            e = _verify_row(batch, i, shard_range, dfs, cfs, shards,
                            store, block)
        except Exception as ex:  # corrupt blob: decode itself blew up
            e = [f"decode raised {type(ex).__name__}: {ex}"]
        errs.append(len(e))
        first.append(e[0] if e else None)
    return pa.table({
        "term": pa.array(terms, pa.large_string()),
        "df": pa.array(dfs.astype(np.int64)),
        "cf": pa.array(cfs.astype(np.int64)),
        "n_errors": pa.array(errs, pa.int64()),
        "first_error": pa.array(first, pa.string()),
    })


def _verify_row(batch, i, shard_range, dfs, cfs, shards, store, block):
        e = []
        docs_buf = batch["docs"][i].as_py()
        tfs_buf = batch["tfs"][i].as_py()
        d, t = decode_posting(docs_buf, tfs_buf)
        lo = int(shards[i]) * shard_range
        hi = lo + shard_range
        if len(d) != dfs[i] or len(t) != dfs[i]:
            # a decode-length mismatch poisons every later check —
            # report it alone
            return [f"df {dfs[i]} != decoded docs {len(d)} / tfs {len(t)}"]
        if len(d) and (np.diff(d) <= 0).any():
            e.append("doc ids not strictly increasing")
        if len(d) and (int(d[0]) < lo or int(d[-1]) >= hi):
            e.append(f"doc ids escape shard range [{lo},{hi})")
        if int(t.sum()) != int(cfs[i]):
            e.append(f"cf {cfs[i]} != sum tf {int(t.sum())}")
        if (t <= 0).any():
            e.append("non-positive tf")
        bl = np.asarray(batch["block_last"][i].as_py(), np.int64)
        bm = np.asarray(batch["block_max"][i].as_py(), np.float64)
        n_blocks = (len(d) + block - 1) // block
        if len(bl) != n_blocks or len(bm) != n_blocks:
            e.append(f"block count {len(bl)}/{len(bm)} != {n_blocks}")
        else:
            ends = np.minimum(np.arange(1, n_blocks + 1) * block,
                              len(d)) - 1
            if (d[ends] != bl).any():
                e.append("block_last mismatch with decoded stream")
            if len(d):
                norms = store.gather(d, 1)
                tfn = t / (t + norms)
                true_max = np.maximum.reduceat(
                    tfn, np.arange(0, len(d), block))
                # the serving contract: stored bound must NEVER be
                # below the true block max (strict skips)
                if (bm < true_max - 1e-12).any():
                    e.append("block_max UNDER-bounds true tf/(tf+norm)")
        return e


def check_generation(gen_dir: str) -> dict:
    """Verify one generation's artifacts; returns {errors, counts}."""
    import functools

    errors: list[str] = []
    with open(os.path.join(gen_dir, "config.json")) as f:
        cfg = json.load(f)
    shard_range = int(cfg["shard_range"])
    stats_dir = resolve_stage(gen_dir, "doc_stats")
    # -- doc_stats vs config ------------------------------------------
    # one shard at a time: doc id → shard is a function, so duplicate
    # ids can only collide WITHIN a shard — per-shard uniqueness is a
    # complete check with memory ∝ shard_range, never the corpus
    n_docs = 0
    total_tokens = 0
    max_doc = -1
    for name in sorted(os.listdir(stats_dir)):
        if not name.startswith("shard="):
            continue
        t = pq.read_table(os.path.join(stats_dir, name),
                          columns=["doc_id", "tokens"])
        ids = t["doc_id"].to_numpy()
        if len(ids) != len(np.unique(ids)):
            errors.append(f"doc_stats {name}: duplicate doc ids")
        s = int(name.split("=", 1)[1])
        if len(ids) and (ids // shard_range != s).any():
            errors.append(f"doc_stats {name}: ids outside the shard")
        n_docs += t.num_rows
        total_tokens += int(pa.compute.sum(t["tokens"]).as_py() or 0)
        if len(ids):
            max_doc = max(max_doc, int(ids.max()))
    for key, got in (("n_docs", n_docs), ("total_tokens", total_tokens),
                     ("max_doc_id", max_doc)):
        if int(cfg[key]) != int(got):
            errors.append(f"config.{key} {cfg[key]} != doc_stats {got}")
    # -- postings scan (distributed) ----------------------------------
    post_dir = resolve_stage(gen_dir, "postings")
    rows = ray.data.read_parquet(post_dir, columns=_POST_COLS) \
        .map_batches(functools.partial(
            _verify_postings_batch, shard_range=shard_range,
            avgdl=float(cfg["avgdl"]), k1=float(cfg["k1"]),
            b=float(cfg["b"]), stats_dir=stats_dir,
            block=int(cfg.get("block", 128))),
            batch_format="pyarrow", batch_size=256)
    agg = {}
    n_rows = 0
    for b in rows.iter_batches(batch_format="pyarrow"):
        n_rows += b.num_rows
        bad = b.filter(pa.compute.greater(b["n_errors"], 0))
        for trm, err in zip(bad["term"].to_pylist(),
                            bad["first_error"].to_pylist()):
            if len(errors) < 50:
                errors.append(f"postings[{trm}]: {err}")
        for trm, df, cf in zip(b["term"].to_pylist(),
                               b["df"].to_numpy(zero_copy_only=False),
                               b["cf"].to_numpy(zero_copy_only=False)):
            cur = agg.get(trm, (0, 0))
            agg[trm] = (cur[0] + int(df), cur[1] + int(cf))
    # -- term_stats cross-check ---------------------------------------
    ts = pq.read_table(resolve_stage(gen_dir, "term_stats"))
    terms = ts["term"].to_pylist()
    if terms != sorted(terms):
        errors.append("term_stats: terms not sorted")
    tid = ts["term_id"].to_numpy(zero_copy_only=False)
    if len(tid) and not (np.sort(tid) == np.arange(1, len(tid) + 1)).all():
        errors.append("term_stats: term_ids not dense 1..V")
    for trm, df, cf in zip(terms,
                           ts["df"].to_numpy(zero_copy_only=False),
                           ts["cf"].to_numpy(zero_copy_only=False)):
        got = agg.pop(trm, None)
        if got is None:
            errors.append(f"term_stats[{trm}]: no postings")
        elif got != (int(df), int(cf)):
            errors.append(
                f"term_stats[{trm}]: (df,cf) {(int(df), int(cf))} "
                f"!= postings {got}")
    for trm in list(agg)[:10]:
        errors.append(f"postings[{trm}]: missing from term_stats")
    return {
        "generation": gen_dir,
        "n_docs": n_docs,
        "postings_rows": n_rows,
        "vocab": len(terms),
        "errors": errors,
    }


def check_index(out_dir: str) -> dict:
    """Verify every live generation + tombstones of an index root."""
    gens = _generation_dirs(out_dir)
    reports = [check_generation(g) for g in gens]
    errors = [e for r in reports for e in r["errors"]]
    deleted = _load_tombstones(out_dir)
    if len(deleted):
        # verify the RAW per-file arrays (the loader normalizes via
        # np.unique, which would mask on-disk corruption)
        tdir = os.path.join(out_dir, "tombstones")
        if os.path.isdir(tdir):
            for f in sorted(os.listdir(tdir)):
                if not f.endswith(".parquet"):
                    continue
                raw = pq.read_table(
                    os.path.join(tdir, f), columns=["doc_id"]
                )["doc_id"].to_numpy(zero_copy_only=False)
                if len(raw) and (np.diff(raw) <= 0).any():
                    errors.append(f"tombstones/{f}: not sorted-unique")
        max_id = max(
            json.load(open(os.path.join(g, "config.json")))["max_doc_id"]
            for g in gens)
        if int(deleted[-1]) > max_id or int(deleted[0]) < 0:
            errors.append("tombstones: ids outside index range")
    return {
        "index": out_dir,
        "generations": len(gens),
        "n_docs": sum(r["n_docs"] for r in reports),
        "postings_rows": sum(r["postings_rows"] for r in reports),
        "vocab": sum(r["vocab"] for r in reports),
        "n_deleted": int(len(deleted)),
        "errors": errors,
        "ok": not errors,
    }
