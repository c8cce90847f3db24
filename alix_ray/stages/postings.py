"""Posting-list construction: segment encode → compressed merge shuffle.

Ray-Data-first design (SURVEY.md §7.2 stages 5-6, §7.4.5):

- **Segment stage** (stateless ``map_batches``): each batch of analyzed
  docs becomes a *local inverted segment* — rows ``(term, shard, docs
  varbyte, tfs varbyte, df, cf)``.  Raw ``(term, doc, tf)`` tokens never
  cross the wire: the shuffle moves delta+varbyte-compressed blobs
  (combine-before-shuffle, SURVEY.md §7.3).
- **Skew strategy — static doc-range sharding**: ``shard = doc_id //
  shard_range``.  Every term's postings are partitioned by doc range,
  so no single merge reducer ever sees more than one range of any term
  — a Zipf-head stop-term at 10^12 docs becomes ~10^5 bounded shards
  instead of one multi-TB reducer row.  Rare terms stay single-shard
  when ``shard_range`` exceeds the corpus (the common case at test
  scale).  Deterministic, no hot-term detection pass needed.
- **Merge stage** (``groupby((bucket, shard)).map_groups``): bucket =
  ``hash64(term) % num_buckets``.  Each group re-groups by term,
  concatenates + sorts decoded doc lists, and emits final posting rows
  with 128-entry blocks and block-max BM25 tf-norm metadata.  The
  per-doc length norms come from the shard-partitioned ``doc_stats``
  artifact: each merge task reads ONLY its own shard's slice
  (partition-pruned Parquet read, cached per worker) — there is no
  O(max_doc_id) dense array anywhere, so the stage works unchanged at
  10^12 docs where a global norms vector would be ~8 TB.

Determinism: shard/bucket keys are pure functions of (term, doc_id);
per-term output bytes are independent of batch boundaries and
parallelism (doc lists are re-sorted at merge).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import BLOCK, B, K1
from ..codec import vb_byte_lengths, vb_decode, vb_encode

DEFAULT_SHARD_RANGE = 8_000_000  # docs per posting shard (skew bound)
DEFAULT_NUM_BUCKETS = 64
MAX_POSTING_BYTES = 64 * 1024 * 1024  # cap per final posting row
# encoded-payload cap per vectorized merge kernel call (decode blow-up
# is ~35×, so this bounds transient task memory near ~4.5 GB worst
# case; a single term larger than the cap still merges alone)
MERGE_CHUNK_BYTES = 128 * 1024 * 1024


def term_bucket(terms, num_buckets: int) -> np.ndarray:
    """Stable hash bucket per term (process-independent).  Vectorized
    FNV-1a + splitmix64 (the dedup module's columnar recipe) — the
    bucket is only a shuffle key, any stable hash works."""
    from ..ops.dedup import _token_hashes

    return (_token_hashes(list(terms)) % np.uint64(num_buckets)).astype(
        np.int32
    )


class SegmentEncode:
    """Batch of analyzed docs → local inverted segment rows."""

    def __init__(self, shard_range: int = DEFAULT_SHARD_RANGE,
                 num_buckets: int = DEFAULT_NUM_BUCKETS):
        self.shard_range = shard_range
        self.num_buckets = num_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        lengths = pc.list_value_length(batch["terms"]).to_numpy(zero_copy_only=False)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        flat_terms = batch["terms"].combine_chunks().flatten()
        flat_tfs = (
            batch["tfs"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        )
        flat_docs = np.repeat(doc_ids, lengths)
        if len(flat_docs) == 0:
            return _empty_segment_table()
        shards = (flat_docs // self.shard_range).astype(np.int32)
        t = pa.table(
            {
                "term": flat_terms,
                "shard": pa.array(shards),
                "doc": pa.array(flat_docs),
                "tf": pa.array(flat_tfs.astype(np.int64)),
            }
        )
        idx = pc.sort_indices(
            t, sort_keys=[("term", "ascending"), ("shard", "ascending"),
                          ("doc", "ascending")]
        )
        t = t.take(idx)
        n = t.num_rows
        term_col = t["term"].combine_chunks()
        shards = t["shard"].to_numpy(zero_copy_only=False)
        docs = t["doc"].to_numpy(zero_copy_only=False)
        tfs = t["tf"].to_numpy(zero_copy_only=False)
        # group boundaries on (term, shard) — Arrow compare, no Python
        # string comparisons
        change = np.empty(n, bool)
        change[0] = True
        neq_term = pc.not_equal(
            term_col.slice(1), term_col.slice(0, n - 1)
        ).to_numpy(zero_copy_only=False)
        change[1:] = neq_term | (shards[1:] != shards[:-1])
        starts = np.nonzero(change)[0]
        sizes = np.diff(np.append(starts, n))
        # ONE vectorized varbyte pass for the whole batch: deltas with
        # absolute restarts at every group start and BLOCK boundary —
        # byte-identical to per-group encode_doc_deltas/vb_encode, then
        # zero-copy-sliced into per-group binary cells via Arrow offsets
        within = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
        deltas = docs.astype(np.int64, copy=True)
        deltas[1:] -= docs[:-1]
        restart = (within % BLOCK) == 0
        deltas[restart] = docs[restart]
        doc_lens = vb_byte_lengths(deltas)
        tf_lens = vb_byte_lengths(tfs)
        docs_buf = vb_encode(deltas)
        tfs_buf = vb_encode(tfs)
        dcs = np.concatenate(([0], np.cumsum(doc_lens)))
        tcs = np.concatenate(([0], np.cumsum(tf_lens)))
        n_groups = len(starts)

        def _bin(buf: bytes, csum: np.ndarray) -> pa.Array:
            offs = np.empty(n_groups + 1, np.int64)
            offs[:-1] = csum[starts]
            offs[-1] = csum[-1]
            return pa.Array.from_buffers(
                pa.large_binary(), n_groups,
                [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(buf)],
            )

        out_terms = pc.cast(term_col.take(pa.array(starts)), pa.large_string())
        buckets = term_bucket(out_terms.to_pylist(), self.num_buckets)
        return pa.table(
            {
                "term": out_terms,
                "bucket": pa.array(buckets, pa.int32()),
                "shard": pa.array(shards[starts].astype(np.int32)),
                "docs": _bin(docs_buf, dcs),
                "tfs": _bin(tfs_buf, tcs),
                "df": pa.array(sizes.astype(np.int32)),
                "cf": pa.array(np.add.reduceat(tfs, starts).astype(np.int64)),
            }
        )


def _empty_segment_table() -> pa.Table:
    return pa.table(
        {
            "term": pa.array([], pa.large_string()),
            "bucket": pa.array([], pa.int32()),
            "shard": pa.array([], pa.int32()),
            "docs": pa.array([], pa.large_binary()),
            "tfs": pa.array([], pa.large_binary()),
            "df": pa.array([], pa.int32()),
            "cf": pa.array([], pa.int64()),
        }
    )


def _empty_postings_table() -> pa.Table:
    return pa.table(
        {
            "term": pa.array([], pa.large_string()),
            "shard": pa.array([], pa.int32()),
            "df": pa.array([], pa.int32()),
            "cf": pa.array([], pa.int64()),
            "docs": pa.array([], pa.large_binary()),
            "tfs": pa.array([], pa.large_binary()),
            "block_last": pa.array([], pa.list_(pa.int64())),
            "block_off_docs": pa.array([], pa.list_(pa.int64())),
            "block_off_tfs": pa.array([], pa.list_(pa.int64())),
            "block_max": pa.array([], pa.list_(pa.float32())),
        }
    )


# Per-worker cache of per-shard norm slices (shard files are read once
# per worker, not once per merge group).  Bounded: a worker only ever
# caches shards of the groups it merges; cap guards pathological reuse.
# The cache key includes the doc_stats publish mtime: rebuilding into
# the same out_dir within one Ray session republishes doc_stats at the
# same path, and reused worker processes must not serve the previous
# build's norm slices (stale block_max would under-bound block-max skips).
_NORM_CACHE: dict = {}
_NORM_CACHE_MAX = 64


def _shard_norms(stats_dir: str, shard: int, shard_range: int,
                 avgdl: float) -> tuple[int, np.ndarray]:
    """(base_doc_id, dense norm slice) for one shard, from the
    shard-partitioned doc_stats artifact (partition-pruned read)."""
    import os

    import pyarrow.parquet as pq

    key = (stats_dir, os.path.getmtime(stats_dir), shard)
    hit = _NORM_CACHE.get(key)
    if hit is not None:
        return hit
    t = pq.read_table(
        stats_dir, columns=["doc_id", "tokens"],
        filters=[("shard", "=", int(shard))],
    )
    base = shard * shard_range
    local = t["doc_id"].to_numpy() - base
    dense = np.zeros(int(local.max()) + 1 if len(local) else 0, np.float64)
    dense[local] = doc_norms(t["tokens"].to_numpy(), avgdl)
    if len(_NORM_CACHE) >= _NORM_CACHE_MAX:
        _NORM_CACHE.pop(next(iter(_NORM_CACHE)))
    _NORM_CACHE[key] = (base, dense)
    return base, dense


def make_merge_fn(stats_dir: str, avgdl: float, shard_range: int):
    """Merge-group function.  Per-doc BM25 length norms
    ``k1*(1-b+b*dl/avgdl)`` are looked up from the merge group's OWN
    shard slice of doc_stats — never a global dense array.

    Fully vectorized (no per-term Python loop): all segment blobs of
    the group decode in ONE varbyte pass (streams concatenate cleanly —
    terminator bytes delimit values), merge-sort is one lexsort over
    (term_id, doc), re-encode is one varbyte pass with restarts at
    every term start and BLOCK boundary (byte-identical to per-term
    ``encode_posting``), and all block metadata (skip list, byte
    offsets, block-max) falls out of ``reduceat`` over the restart
    positions."""

    def merge_group(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _empty_postings_table()
        shard0 = int(group["shard"][0].as_py())
        base, norms = _shard_norms(stats_dir, shard0, shard_range, avgdl)
        idx = pc.sort_indices(group, sort_keys=[("term", "ascending")])
        group = group.take(idx)
        # transient decode memory is ~56 B/posting entry vs ~1.5 B
        # encoded — bound it by chunking the group at TERM boundaries
        # (terms never split, so per-chunk output is identical) when the
        # encoded payload exceeds the cap
        enc_bytes = int(
            pc.sum(pc.binary_length(group["docs"])).as_py() or 0
        ) + int(pc.sum(pc.binary_length(group["tfs"])).as_py() or 0)
        if enc_bytes > MERGE_CHUNK_BYTES:
            term_col = group["term"].combine_chunks()
            n = group.num_rows
            neq = pc.not_equal(
                term_col.slice(1), term_col.slice(0, n - 1)
            ).to_numpy(zero_copy_only=False)
            bounds = np.concatenate(([0], np.flatnonzero(neq) + 1, [n]))
            row_bytes = (
                pc.binary_length(group["docs"]).to_numpy(zero_copy_only=False)
                .astype(np.int64)
                + pc.binary_length(group["tfs"]).to_numpy(
                    zero_copy_only=False)
            )
            cum = np.concatenate(([0], np.cumsum(row_bytes)))
            out, start = [], 0
            for b in bounds[1:]:
                if cum[b] - cum[start] >= MERGE_CHUNK_BYTES or b == n:
                    out.append(
                        _merge_sorted_rows(group.slice(start, b - start),
                                           shard0, base, norms))
                    start = b
            return pa.concat_tables(out)
        return _merge_sorted_rows(group, shard0, base, norms)

    def _merge_sorted_rows(group: pa.Table, shard0: int, base: int,
                           norms: np.ndarray) -> pa.Table:
        nrows = group.num_rows
        term_col = group["term"].combine_chunks()
        dfs = group["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        docs_bufs = group["docs"].to_pylist()
        tfs_bufs = group["tfs"].to_pylist()
        # ---- decode every row at once -------------------------------
        deltas_in = vb_decode(b"".join(docs_bufs)).astype(np.int64)
        tf_flat = vb_decode(b"".join(tfs_bufs)).astype(np.int64)
        n_total = int(dfs.sum())
        row_offs = np.concatenate(([0], np.cumsum(dfs)))[:-1]
        within_row = np.arange(n_total, dtype=np.int64) - np.repeat(
            row_offs, dfs)
        # reconstruct absolute doc ids (restarts every BLOCK per row)
        rr = np.flatnonzero((within_row % BLOCK) == 0)
        csum = np.cumsum(deltas_in)
        corr = deltas_in[rr] - csum[rr]
        reps = np.diff(np.append(rr, n_total))
        docs_flat = csum + np.repeat(corr, reps)
        # ---- merge-sort by (term, doc) ------------------------------
        tchange = np.empty(nrows, bool)
        tchange[0] = True
        tchange[1:] = ~pc.equal(
            term_col.slice(1), term_col.slice(0, nrows - 1)
        ).to_numpy(zero_copy_only=False)
        trow_starts = np.flatnonzero(tchange)
        gid_rows = np.cumsum(tchange) - 1  # term id per input row
        order = np.lexsort((docs_flat, np.repeat(gid_rows, dfs)))
        d = docs_flat[order]
        t = tf_flat[order]
        # ---- re-encode with per-term BLOCK restarts -----------------
        out_df = np.add.reduceat(dfs, trow_starts)
        n_terms = len(trow_starts)
        tstarts = np.concatenate(([0], np.cumsum(out_df)))[:-1]
        within = np.arange(n_total, dtype=np.int64) - np.repeat(
            tstarts, out_df)
        restart = (within % BLOCK) == 0
        deltas = d.copy()
        deltas[1:] -= d[:-1]
        deltas[restart] = d[restart]
        doc_lens = vb_byte_lengths(deltas)
        tf_lens = vb_byte_lengths(t)
        docs_buf = vb_encode(deltas)
        tfs_buf = vb_encode(t)
        dcs = np.concatenate(([0], np.cumsum(doc_lens)))
        tcs = np.concatenate(([0], np.cumsum(tf_lens)))

        def _bin(buf: bytes, csum_b: np.ndarray) -> pa.Array:
            offs = np.empty(n_terms + 1, np.int64)
            offs[:-1] = csum_b[tstarts]
            offs[-1] = csum_b[-1]
            return pa.Array.from_buffers(
                pa.large_binary(), n_terms,
                [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(buf)],
            )

        # ---- block metadata (blocks never span terms) ---------------
        R = np.flatnonzero(restart)
        blk_end = np.append(R[1:], n_total) - 1
        gid_vals = np.repeat(np.arange(n_terms, dtype=np.int64), out_df)
        term_of_block = gid_vals[R]
        blocks_per_term = np.bincount(term_of_block, minlength=n_terms)
        blk_term_start = tstarts[term_of_block]
        # block-max BM25 tf-norm: max over block of tf/(tf+norm[doc])
        tfn = t / (t + norms[d - base])
        bmax64 = np.maximum.reduceat(tfn, R)
        bmax = bmax64.astype(np.float32)
        # the engine treats block_max as a SAFE upper bound with strict
        # skips — round the float32 cast upward where round-to-nearest
        # landed below the float64 max, or a 1-ulp underestimate could
        # skip a block holding a tied doc
        under = bmax.astype(np.float64) < bmax64
        if under.any():
            bmax[under] = np.nextafter(bmax[under], np.float32(np.inf))
        blk_offs = pa.array(
            np.concatenate(([0], np.cumsum(blocks_per_term))), pa.int32())

        def _lst(vals: np.ndarray, typ) -> pa.Array:
            return pa.ListArray.from_arrays(blk_offs, pa.array(vals, typ))

        return pa.table(
            {
                "term": pc.cast(term_col.take(pa.array(trow_starts)),
                                pa.large_string()),
                "shard": pa.array(
                    np.full(n_terms, shard0, np.int32)),
                "df": pa.array(out_df.astype(np.int32)),
                "cf": pa.array(np.add.reduceat(t, tstarts).astype(np.int64)),
                "docs": _bin(docs_buf, dcs),
                "tfs": _bin(tfs_buf, tcs),
                "block_last": _lst(d[blk_end], pa.int64()),
                "block_off_docs": _lst(dcs[R] - dcs[blk_term_start],
                                       pa.int64()),
                "block_off_tfs": _lst(tcs[R] - tcs[blk_term_start],
                                      pa.int64()),
                "block_max": _lst(bmax, pa.float32()),
            }
        )

    return merge_group


def doc_norms(doc_tokens: np.ndarray, avgdl: float) -> np.ndarray:
    """Per-doc BM25 length norm ``k1*(1-b+b*dl/avgdl)`` (IdfTermScorer.java:266)."""
    return K1 * (1.0 - B + B * doc_tokens.astype(np.float64) / avgdl)
