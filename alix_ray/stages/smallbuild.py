"""Single-pass flush plan for SMALL inputs: base builds, incremental
deltas and compactions.

The staged builder (``stages/build.py``) runs five checkpointed Ray
Data pipelines — right for the 10^12-doc base build, but a small input
pays ~4 s of fixed stage overhead (pipeline launches, a groupby
shuffle, per-stage disk round-trips) for <1 s of real work (round-3
verdict: ``incr_add_delta10pct`` 5.5 s for 24k docs, cost ∝ delta +
~4 s fixed).  Lucene has the same asymmetry and answers it with
in-memory flushes: a small ``addDocuments`` batch builds its segment in
one pass without the merge machinery (reference: ``IndexWriter`` flush
vs merge paths, SURVEY.md §1.3).

This module is that flush plan.  ``IndexBuilder.build`` and
``IndexBuilder.compact`` pick it by the row gates below (the builder
counts the input once; nothing here runs above a gate), so a base
build, an ``IndexWriter.add_documents`` and a compaction of the same
size take the same plan.  For a pages input (``build_small``):

1. one Ray Data job extracts + analyzes every block and is
   materialized (html is dropped by the extract, so only text and
   analysis rows stay in the object store);
2. a raw task wave reduces each block to its (url, min ts) partial and
   the driver merges them into the url→id dictionary
   (``docids.merge_url_ts_tables``, shared with the staged builder);
3. a second wave dedups/stamps ids per block against the broadcast
   dictionary, writes its docs / analyzed files, and returns only its
   ``SegmentEncode`` inverted segment (combine-before-anything: a few
   bytes per posting leave the task) and its (doc_id, width, tokens)
   stats projection, written as ONE doc_stats file per shard;
4. a final wave merges segments per (bucket, shard) — the exact group
   shape and kernel of the staged ``groupby`` merge — and the driver
   writes config.json and the term_stats lexicon through the staged
   builder's own writers.

Raw tasks replace Dataset jobs ONLY because every inter-stage payload
here is driver-sized by the row gates; the staged plan remains the
scale path and is byte-compatible: every artifact is published through
the same ``ArtifactStore`` stage begin/commit protocol under the SAME
chained fingerprints (``IndexBuilder.fingerprints``), so resume
(``stage_done``), compaction and serving read the two plans
interchangeably.  Artifact CONTENT is identical by construction — same
id assignment (url rank + id_base), same analyze kernels, same
segment/merge kernels (asserted by
``tests/test_incremental.py::test_small_path_matches_staged``).

Crash semantics: the flush plan has no intra-stage checkpoints — a
crashed small build simply re-runs (it is seconds of work); any stage
already committed under the expected fingerprint (a retried crash of
the STAGED plan) routes the whole build back to the staged plan, whose
per-stage resume then fires.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .analyze import analyze_batch_fn, extract_batch
from .build import _fingerprint, drop_deleted, write_stats_shards
from .docids import merge_url_ts_tables, stamp_ids_batch
from .postings import (
    SegmentEncode,
    _empty_postings_table,
    _empty_segment_table,
    make_merge_fn,
)

# Above this input row count a pages input is no longer "small":
# segment / stats payloads stop being driver-sized and the staged
# distributed plan takes over.  ~200k docs ≈ a few hundred MB of
# analyzed payload in the object store and <100 MB of driver-held
# segments.
SMALL_BUILD_MAX_ROWS = 200_000

# The flush COMPACT plan holds strictly less driver state than the
# flush build plan (no url→id dictionary — ids are preserved; the
# driver holds only the concatenated segment partials, ~400 B/doc), so
# its row gate is looser.  ~400k docs ≈ <200 MB of driver-held segments.
SMALL_COMPACT_MAX_ROWS = 2 * SMALL_BUILD_MAX_ROWS

_ANALYZED_COLS = ("terms", "tfs", "width", "tokens", "pos_terms",
                  "positions")


# ---------------------------------------------------------------------
# extract + analyze job, url dictionary partials
# ---------------------------------------------------------------------


def _fused_extract_analyze(profile: str, keep_positions: bool):
    """Pipeline UDF: extract + analyze one block; ids are stamped in a
    later task wave once the dictionary exists (it comes from THIS
    job's output)."""

    def fused(batch: pa.Table) -> pa.Table:
        ext = extract_batch(batch)
        tmp = ext.append_column(
            "doc_id", pa.array(np.zeros(ext.num_rows, np.int64)))
        an = analyze_batch_fn(tmp, profile=profile,
                              keep_positions=keep_positions)
        out = ext
        for name in an.schema.names:
            if name != "doc_id":
                out = out.append_column(name, an[name])
        return out

    return fused


@ray.remote
def _url_ts_partial(t: pa.Table):
    """Per-block (url, min ts) partial of the url dictionary (doc id =
    rank in the url sort, the docids contract)."""
    if "url" not in t.schema.names or t.num_rows == 0:
        return None
    g = t.group_by("url").aggregate([("warc_ts", "min")])
    return g.rename_columns(["url", "warc_ts"])


# ---------------------------------------------------------------------
# per-block writers: docs files, analyzed file + stats + segment
# ---------------------------------------------------------------------


def _block_key(t: pa.Table) -> str:
    """File-name key of a block: its min doc id — unique across blocks
    (each doc id lands in exactly one block, and in exactly one source
    file across generations) and stable."""
    return f"d{int(pc.min(t['doc_id']).as_py()):012d}"


def _write_docs_files(t: pa.Table, docs_tmp: str, key: str,
                      rows_per_file: int) -> None:
    """docs files row-bounded exactly like the staged write (balanced
    reads for compaction / doc lookups)."""
    for j, s in enumerate(range(0, t.num_rows, rows_per_file)):
        pq.write_table(t.slice(s, rows_per_file),
                       os.path.join(docs_tmp, f"{key}-{j:04d}.parquet"))


_STATS_COLS = ["doc_id", "width", "tokens"]
_NO_BLOCK = (None, None)  # a block with no rows: no segment, no stats


def _write_analyzed_encode(an_t: pa.Table, key: str, an_gtmp: str,
                           shard_range: int, num_buckets: int) -> tuple:
    """Write one analyzed block; return the block's local inverted
    segment and its doc_stats projection (the only bytes that travel
    onward)."""
    pq.write_table(an_t, os.path.join(an_gtmp, f"{key}.parquet"))
    return (SegmentEncode(shard_range, num_buckets)(an_t),
            an_t.select(_STATS_COLS))


@ray.remote
def _block_build(t: pa.Table, urls_ts, id_base: int, docs_tmp: str,
                 an_gtmp: str, rows_per_file: int, shard_range: int,
                 num_buckets: int) -> tuple:
    """Dedup + id-stamp one analyzed block against the dictionary
    (``docids.stamp_ids_batch`` — the staged builder's exact kernel,
    so keep-first/rank semantics are shared, not copied), write its
    docs / analyzed files, return its inverted segment and stats
    projection."""
    if t.num_rows == 0 or "url" not in t.schema.names:
        return _NO_BLOCK
    t = stamp_ids_batch(t, urls_ts, id_base=id_base)
    if t.num_rows == 0:
        return _NO_BLOCK
    key = _block_key(t)
    _write_docs_files(t.select([c for c in t.schema.names
                                if c not in _ANALYZED_COLS]),
                      docs_tmp, key, rows_per_file)
    an_t = t.select(["doc_id"] + [c for c in _ANALYZED_COLS
                                  if c in t.schema.names])
    return _write_analyzed_encode(an_t, key, an_gtmp, shard_range,
                                  num_buckets)


# ---------------------------------------------------------------------
# merge wave
# ---------------------------------------------------------------------


def _group_starts(segments: pa.Table) -> np.ndarray:
    """Row offsets where each (bucket, shard) run starts in a
    non-empty segment table sorted by (bucket, shard)."""
    bks = segments["bucket"].to_numpy(zero_copy_only=False)
    shs = segments["shard"].to_numpy(zero_copy_only=False)
    change = np.empty(len(bks), bool)
    change[0] = True
    change[1:] = (bks[1:] != bks[:-1]) | (shs[1:] != shs[:-1])
    return np.flatnonzero(change)


@ray.remote
def _merge_chunk(segments: pa.Table, offset: int, length: int,
                 stats_dir: str, avgdl: float, shard_range: int,
                 post_tmp: str, cidx: int) -> pa.Table:
    """Merge-wave worker: the staged merge kernel over a CHUNK of
    (bucket, shard) groups — group shape identical to the staged
    ``groupby`` merge, so per-term output rows are identical;
    chunking just amortizes task dispatch.  ``segments`` arrives
    PRE-SORTED by (bucket, shard) as ONE shared ``ray.put`` object and
    the chunk is a zero-copy row-range slice of it.  The posting rows
    are written HERE (parallel I/O, payload never returns to the
    driver); only the (term, df, cf) lexicon projection comes back."""
    sub = segments.slice(offset, length)
    merge = make_merge_fn(stats_dir, avgdl, shard_range)
    bounds = np.append(_group_starts(sub), sub.num_rows)
    out = pa.concat_tables(
        [merge(sub.slice(int(s), int(e - s)))
         for s, e in zip(bounds[:-1], bounds[1:])])
    # small row groups: the serving engine reads postings per term via
    # row-group-pruned reads (the staged write uses the same bound)
    pq.write_table(out, os.path.join(post_tmp, f"part-{cidx:05d}.parquet"),
                   row_group_size=256)
    return out.select(["term", "df", "cf"])


# ---------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------


def _flush_begin(b, fps: dict) -> dict:
    """Prologue shared by the flush build and compact plans: begin the
    docs / analyzed (one group) / doc_stats stages under ``fps`` and
    return their staging dirs."""
    an_tmp = b.store.stage_begin("analyzed", fps["analyzed"], clear=True)
    return dict(
        docs_tmp=b.store.stage_begin("docs", fps["docs"], clear=True),
        an_tmp=an_tmp,
        an_gtmp=b.store.part_begin(an_tmp, "g00000"),
        stats_tmp=b.store.stage_begin("doc_stats", fps["doc_stats"],
                                      clear=True))


def _ms_since(t0: float) -> int:
    return int((time.time() - t0) * 1000)


def build_small(b, pages, fps: dict) -> dict:
    """Build pages-kind ``pages`` as one flush generation of builder
    ``b`` under the stage fingerprints ``fps``; return the wall of each
    step in ms (``extract_analyze`` job, ``url_dictionary``,
    ``block_wave``, ``merge_assemble``)."""
    t_docs = time.time()
    dirs = _flush_begin(b, fps)
    refs = pages.map_batches(
        _fused_extract_analyze(b.analyzer, b.keep_positions),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize().to_arrow_refs()
    steps = {"extract_analyze": _ms_since(t_docs)}
    t0 = time.time()
    parts = [p for p in ray.get([_url_ts_partial.remote(r) for r in refs])
             if p is not None]
    dict_ref = ray.put(merge_url_ts_tables(parts))
    steps["url_dictionary"] = _ms_since(t0)
    t0 = time.time()
    blocks = ray.get([
        _block_build.remote(
            r, dict_ref, id_base=b.id_base, docs_tmp=dirs["docs_tmp"],
            an_gtmp=dirs["an_gtmp"], rows_per_file=b.DOCS_ROWS_PER_FILE,
            shard_range=b.shard_range, num_buckets=b.num_buckets)
        for r in refs])
    steps["block_wave"] = _ms_since(t0)
    t0 = time.time()
    _assemble(b, blocks, fps, dirs, t_docs)
    steps["merge_assemble"] = _ms_since(t0)
    return steps


def _assemble(b, blocks: list, fps: dict, dirs: dict,
              t_docs: float) -> None:
    """Driver-side tail shared by the flush build and compact plans:
    doc_stats commit + config (the staged builder's writer), the
    (bucket, shard) merge wave, the docs / analyzed commits + lineage,
    and the term_stats lexicon.  ``blocks`` are the workers'
    (segment, stats projection) pairs."""
    seg_tables = [seg for seg, _ in blocks
                  if seg is not None and "term" in seg.schema.names]
    segments = (pa.concat_tables(seg_tables) if seg_tables
                else _empty_segment_table())

    # ---- doc_stats commit + config, then LAUNCH the merge wave
    # asynchronously; the remaining commits / lineage run under it ----
    t0 = time.time()
    stats = [st for _, st in blocks if st is not None]
    if stats:
        # doc order: the file bytes do not depend on the block order
        stats = pa.concat_tables(stats)
        stats = stats.take(pc.sort_indices(stats, sort_keys=[
            ("doc_id", "ascending")]))
        write_stats_shards(stats, dirs["stats_tmp"], _block_key(stats),
                           b.shard_range)
    stats_final = b.store.stage_commit("doc_stats", fps["doc_stats"])
    avgdl = b.write_config(stats_final, fps["doc_stats"],
                           int((time.time() - t0) * 1000))["avgdl"]
    t_post = time.time()
    post_tmp = b.store.stage_begin("postings", fps["postings"], clear=True)
    merge_refs = []
    if segments.num_rows:
        segments = segments.take(pc.sort_indices(
            segments, sort_keys=[("bucket", "ascending"),
                                 ("shard", "ascending")]))
        gstarts = _group_starts(segments)
        cpus = int(ray.cluster_resources().get("CPU", 8))
        bounds = np.unique(np.linspace(
            0, len(gstarts), min(len(gstarts), cpus) + 1).astype(int))
        row_bounds = np.append(gstarts[bounds[:-1]], segments.num_rows)
        seg_ref = ray.put(segments)
        merge_refs = [
            _merge_chunk.remote(seg_ref, int(row_bounds[i]),
                                int(row_bounds[i + 1] - row_bounds[i]),
                                stats_final, avgdl, b.shard_range,
                                post_tmp, i)
            for i in range(len(row_bounds) - 1)
            if row_bounds[i + 1] > row_bounds[i]
        ]

    # manifest appends are single-threaded on purpose: Manifest does
    # buffered multi-row writes with no lock, so a concurrent lineage
    # thread could interleave mid-line and corrupt the JSONL.  The
    # merge WAVE still overlaps this work (refs collected below).
    docs_final = b.store.stage_commit("docs", fps["docs"])
    b.manifest.record_partitions("docs", docs_final, fps["docs"],
                                 int((time.time() - t_docs) * 1000))
    t0 = time.time()
    b.store.part_commit(dirs["an_tmp"], "g00000")
    b.store.stage_commit("analyzed", fps["analyzed"])
    b.manifest.append(stage="analyzed", partition="g00000",
                      fingerprint=_fingerprint(fps["analyzed"], "g00000"),
                      status="part-done")
    b.manifest.append(stage="analyzed", fingerprint=fps["analyzed"],
                      status="done",
                      wall_ms=int((time.time() - t0) * 1000))

    # ---- collect the merge wave → postings commit, term_stats --------
    if merge_refs:
        lexicon_rows = pa.concat_tables(ray.get(merge_refs))
    else:
        empty = _empty_postings_table()
        pq.write_table(empty, os.path.join(post_tmp, "part-00000.parquet"))
        lexicon_rows = empty.select(["term", "df", "cf"])
    post_final = b.store.stage_commit("postings", fps["postings"])
    b.manifest.record_partitions("postings", post_final, fps["postings"],
                                 int((time.time() - t_post) * 1000))
    b.write_lexicon(lexicon_rows, fps["term_stats"], time.time())


# ---------------------------------------------------------------------
# flush compact / merge (small LIVE sets)
# ---------------------------------------------------------------------


@ray.remote
def _compact_an_block(an_file: str, deleted: np.ndarray, an_gtmp: str,
                      shard_range: int, num_buckets: int) -> tuple:
    """Compact-wave worker: filter tombstones out of ONE existing
    analyzed file, write it into the new generation, and return its
    inverted segment and stats projection.  Analysis never re-runs and
    doc ids are preserved — the ``IndexBuilder.compact`` contract."""
    t = drop_deleted(pq.read_table(an_file), deleted)
    if t.num_rows == 0:
        return _NO_BLOCK
    return _write_analyzed_encode(t, _block_key(t), an_gtmp, shard_range,
                                  num_buckets)


@ray.remote
def _compact_docs_block(docs_file: str, deleted: np.ndarray,
                        docs_tmp: str, rows_per_file: int) -> None:
    t = drop_deleted(pq.read_table(docs_file), deleted)
    if t.num_rows:
        _write_docs_files(t, docs_tmp, _block_key(t), rows_per_file)


def compact_small(b, docs_files: list[str], an_files: list[str],
                  deleted: np.ndarray, fps: dict) -> dict:
    """Flush compact/merge of a small LIVE doc set: the staged rebuild
    pays the same ~4 s of fixed overhead the flush build removes, so
    run it as two raw task waves (tombstone-filter + write + encode
    per source file, then the shared merge wave / driver assembly).
    ``IndexBuilder.compact`` gates it on live rows ≤
    ``SMALL_COMPACT_MAX_ROWS`` (2× the build gate — a compact has no
    analysis stage, so twice the rows fit the same driver budget).
    Returns the wall of each step in ms (``block_wave``,
    ``merge_assemble``)."""
    t_docs = time.time()
    dirs = _flush_begin(b, fps)
    del_ref = ray.put(np.asarray(deleted, np.int64))
    seg_refs = [_compact_an_block.remote(f, del_ref, dirs["an_gtmp"],
                                         b.shard_range, b.num_buckets)
                for f in an_files]
    docs_refs = [_compact_docs_block.remote(f, del_ref, dirs["docs_tmp"],
                                            b.DOCS_ROWS_PER_FILE)
                 for f in docs_files]
    blocks = ray.get(seg_refs)
    ray.get(docs_refs)
    steps = {"block_wave": _ms_since(t_docs)}
    t0 = time.time()
    _assemble(b, blocks, fps, dirs, t_docs)
    steps["merge_assemble"] = _ms_since(t0)
    return steps
