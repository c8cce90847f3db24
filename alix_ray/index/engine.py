"""BM25 top-k query engine over the built index artifacts.

Scoring is pinned to the reference formula
(``common/.../terms/IdfTermScorer.java:208-267``)::

    idf     = ln(1 + (N - df + 0.5) / (df + 0.5)) ** idf_exp
    tf_part = tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
    score   = Σ_terms idf * tf_part        (k1=1.2, b=0.75, dl exact)

with exact ``dl = doc_stats.tokens`` (NOT Lucene's lossy byte norms —
SURVEY.md §7.4.1), fixed float64 summation in sorted-term order, and
the ``TopArray`` tie rule (score desc, doc_id asc; TopArray.java:12-14)
— so scores and ranks are bit-stable across runs and parallelism
levels.

Scorers that must agree exactly (tests enforce it):

- :meth:`BM25Index.search_exact` — term-at-a-time dense accumulator
  (the oracle);
- :meth:`BM25Index.search_block_window` — block-max pruning over
  doc-range windows for multi-term queries; a window is skipped only
  when its summed block upper bound is *strictly* below the top-k
  threshold, so tie-breaks stay rank-identical to the exact scorer.
  A scored window is one ``bincount`` of its postings' contributions
  (in sorted-term order, so the float sums are the exact scorer's) and
  one bool-mask scan for candidates: O(P + S) in the P postings it
  holds and the span S of doc ids they touch — never the window's
  width;
- :meth:`BM25Index.search_wand` — memoized O(df) posting scan for a
  single-term query.

:meth:`BM25Index.search_terms` is the serving path and the one
dispatcher: it routes one distinct known term to ``search_wand`` and
more to ``search_block_window``.  Lexicon lookups (``idf``, ``df``,
range expansion) binary-search the UTF-8 bytes of the Arrow term
column in place, and a bounded memo keeps each looked-up term's
position, so a cold query pays one search per term.
:meth:`BM25Index.parse` is the one query-string entry: it runs
``query.parser.parse_query`` with the handle's analyzer behind a
bounded per-handle word memo, so each query word is analyzed once.

The index handle is immutable after load — share freely across query
actors (reference: frozen ``LuceneIndex`` handle, SURVEY.md §3.2).

Postings are LAZY: open reads only the ``term`` column of each posting
file (blobs stay on disk) into a columnar directory — int32
(file, row-group, row) arrays sorted by term plus int64 run starts
keyed by lexicon position, 12 bytes per posting row and 8 per term,
with no per-term or per-row Python objects.  A term's posting rows
(one per doc-range shard per generation) are read on first use via
row-group-pruned Parquet reads, cut out of the columnar row groups by
offsets, and joined into ONE memoized :class:`PostingShard` per term
in doc order, so a cold term costs one ``vb_decode`` per stream, one
tombstone mask, one contribution pass and one norms gather however
many shards and generations hold it (Lucene decodes a term through one
codec pass per segment, SURVEY.md §1.3).
The rail (positions forward index) is likewise lazy: per-row-group
doc_id min/max statistics prune the read, so a span query touches only
the row groups holding its candidate docs.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codec import (
    decode_block,
    decode_doc_deltas,
    decode_posting,
    deleted_mask,
    vb_decode,
)
from ..query import parser
from ..stages.store import resolve_stage, stage_files, walk_parquet

BLOCK = 128


class PostingShard:
    """One term's posting list: every stored row of the term (one per
    doc-range shard per generation) joined into one list in doc order.

    ``docs_buf``/``tfs_buf`` hold the rows' byte streams end to end.
    ``block_last``, the generation-scaled ``block_max`` and the block
    byte offsets ``off_docs``/``off_tfs`` (shifted into the joined
    streams) run over every block of every row, and ``block_start`` is
    each block's first entry: a row's last block may be short, so a
    block may hold fewer than ``BLOCK`` entries.  ``n`` is the entry
    count.  :meth:`decode` is one ``vb_decode`` of each stream,
    memoized."""

    __slots__ = ("docs_buf", "tfs_buf", "block_last", "off_docs", "off_tfs",
                 "block_max", "block_start", "n", "_decoded")

    def __init__(self, docs_buf: bytes, tfs_buf: bytes,
                 block_last: np.ndarray, off_docs: np.ndarray,
                 off_tfs: np.ndarray, block_max: np.ndarray,
                 block_start: np.ndarray, n: int):
        self.docs_buf = docs_buf
        self.tfs_buf = tfs_buf
        self.block_last = block_last
        self.off_docs = off_docs
        self.off_tfs = off_tfs
        self.block_max = block_max
        self.block_start = block_start
        self.n = n
        self._decoded = None

    def decode(self):
        if self._decoded is None:
            self._decoded = (
                decode_doc_deltas(self.docs_buf, self.block_start),
                vb_decode(self.tfs_buf).astype(np.int64))
        return self._decoded

    def _block(self, b) -> tuple[np.ndarray, np.ndarray]:
        return decode_block(self.docs_buf, self.tfs_buf, int(b), self.n,
                            self.off_docs, self.off_tfs, self.block_start)

    @staticmethod
    def _probe(d: np.ndarray, cand: np.ndarray):
        """(hit mask, insertion index) of sorted ``cand`` in sorted
        ``d``."""
        idx = np.searchsorted(d, cand)
        ok = idx < len(d)
        hit = np.zeros(len(cand), bool)
        hit[ok] = d[idx[ok]] == cand[ok]
        return hit, idx

    def contains(self, cand: np.ndarray) -> np.ndarray:
        """Membership mask for sorted candidate doc ids, decoding ONLY
        the blocks the candidates land in (block_last skip list) — the
        skip-list intersection path; never the full posting list."""
        if self._decoded is not None:  # already paid for — use it
            return self._probe(self._decoded[0], cand)[0]
        out = np.zeros(len(cand), bool)
        bi = np.searchsorted(self.block_last, cand, side="left")
        valid = bi < len(self.block_last)
        for b in np.unique(bi[valid]):
            sel = valid & (bi == b)
            out[sel] = self._probe(self._block(b)[0], cand[sel])[0]
        return out

    def tf_of(self, cand: np.ndarray) -> np.ndarray:
        """Term frequencies for sorted candidate doc ids (0 where the
        term does not occur), decoding ONLY the blocks the candidates
        land in — the scoring twin of :meth:`contains`, so ranking a
        candidate set against a Zipf-head term costs O(touched blocks),
        never a full postings decode."""
        out = np.zeros(len(cand), np.int64)
        bi = np.searchsorted(self.block_last, cand, side="left")
        valid = bi < len(self.block_last)
        touched = np.unique(bi[valid])
        # dense candidates (a hot∧hot conjunction) touch nearly every
        # block — the per-block loop would re-implement a full decode
        # slower than the vectorized one; cut over and memoize it
        if self._decoded is not None or (
                len(touched) * 2 > len(self.block_last)):
            d, t = self.decode()
            hit, idx = self._probe(d, cand)
            out[hit] = t[idx[hit]]
            return out
        for b in touched:
            bdocs, btfs = self._block(b)
            pos = np.flatnonzero(valid & (bi == b))
            hit, idx = self._probe(bdocs, cand[pos])
            out[pos[hit]] = btfs[idx[hit]]
        return out

    def n_blocks(self) -> int:
        return len(self.block_last)


def _binary_buffers(arr) -> tuple[np.ndarray, object]:
    """(offsets, data buffer) of a binary/string Arrow array, zero-copy:
    value ``i`` is ``data[offsets[i]:offsets[i + 1]]``."""
    _, offs, data = arr.buffers()
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(
        arr.type)
    width = np.int64 if large else np.int32
    if len(arr):
        offs = np.frombuffer(offs, width, len(arr) + 1,
                             arr.offset * np.dtype(width).itemsize)
    else:
        offs = np.zeros(1, width)
    return offs, data if data is not None else b""


def _var_column(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) numpy views of a one-chunk binary or list Arrow
    column: row ``i`` is ``values[offsets[i]:offsets[i + 1]]`` (bytes
    as uint8 for binary)."""
    # a row-group read is one chunk; combine_chunks would copy it
    arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    if pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type):
        offs, data = _binary_buffers(arr)
        return offs, np.frombuffer(data, np.uint8)
    return arr.offsets.to_numpy(), arr.values.to_numpy()


class PostingStore:
    """Lazy term → :class:`PostingShard` mapping over the postings
    Parquet: ONE posting object per term, joining the term's rows of
    every doc-range shard of every generation.

    Open reads only the ``term`` column, once per file, into a columnar
    directory: every posting row's int32 ``(file, row_group, row)``,
    sorted by term, and an int64 run start per lexicon position — 12
    bytes per posting row and 8 per term, no per-term or per-row Python
    objects.  A term's run is found by the UTF-8 binary search of the
    handle's :class:`TermLexicon` (term_stats and postings carry one
    vocabulary); a term already fetched is a hash probe in the term
    memo.  Row groups are read on first access and kept columnar
    (offsets + value buffers, true-LRU-cached); a term's rows are cut
    out by offsets and joined into fresh buffers in doc order (rows
    sort by their last ``block_last``: shard doc ranges are disjoint,
    so no row is decoded to be placed), so a memoized term never pins
    a row group.  Resident memory grows with the TOUCHED vocabulary,
    not the index size.  (Reference keeps postings on disk behind
    Lucene's codec, one codec pass per term and segment — ``SURVEY.md
    §1.3``; this is the Parquet equivalent.)"""

    _RG_CACHE_MAX = 32
    # term memo cap (terms).  Without it a full-vocabulary
    # sweep (theme_terms) left every term's decoded postings resident —
    # the replica ended up holding the whole decoded index, defeating
    # the "resident memory ∝ touched vocabulary" property.  True LRU:
    # hits re-insert at the tail.
    _SHARDS_CACHE_MAX = 4096
    _VAR_COLS = ["docs", "tfs", "block_last", "block_off_docs",
                 "block_off_tfs", "block_max"]

    def __init__(self, postings_dir, lexicon: TermLexicon):
        # one dir, or [(dir, block_max_scale), ...] for a generational
        # index: each generation's block_max was built against ITS OWN
        # avgdl; under the merged global avgdl a norm can shrink (avgdl
        # grew), raising true tf/(tf+norm) above the stored bound.
        # scale = max(1, avgdl_global/avgdl_gen) restores safety:
        # norm' ≥ (avgdl_gen/avgdl_global)·norm  ⇒  tf/(tf+norm') ≤
        # scale·tf/(tf+norm).  Scaling up only weakens pruning, never
        # correctness (bounds are used with strict skips).
        if isinstance(postings_dir, str):
            postings_dir = [(postings_dir, 1.0)]
        self.files = []
        scales = []
        for d, scale in postings_dir:
            for f in sorted(os.listdir(d)):
                if f.endswith(".parquet"):
                    self.files.append(os.path.join(d, f))
                    scales.append(float(scale))
        self._file_scale = scales
        self.total_bytes = sum(os.path.getsize(f) for f in self.files)
        self._pf = [pq.ParquetFile(f) for f in self.files]
        # every posting row's (file, row group, row) in storage order,
        # from one term-column read per file
        typ = lexicon.terms.type
        terms = [pa.array([], typ)]
        fis, rgs, rows = ([np.empty(0, np.int32)] for _ in range(3))
        for fi, pf in enumerate(self._pf):
            md = pf.metadata
            n = np.array([md.row_group(rg).num_rows
                          for rg in range(md.num_row_groups)], np.int64)
            terms += [c.cast(typ)
                      for c in pf.read(columns=["term"])["term"].chunks]
            fis.append(np.full(n.sum(), fi, np.int32))
            rgs.append(np.repeat(np.arange(len(n), dtype=np.int32), n))
            rows.append((np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n))
                        .astype(np.int32))
        pos = pc.index_in(pa.chunked_array(terms, typ),
                          value_set=lexicon.terms)
        if pos.null_count:
            raise ValueError("postings hold a term that term_stats lacks")
        self.lexicon = lexicon
        pos = pos.to_numpy()
        # rows sorted by lexicon position; stable, so a term's rows keep
        # storage order
        order = np.argsort(pos, kind="stable")
        self._fi = np.concatenate(fis)[order]
        self._rg = np.concatenate(rgs)[order]
        self._row = np.concatenate(rows)[order]
        runs = np.bincount(pos, minlength=len(lexicon))
        self._starts = np.zeros(len(lexicon) + 1, np.int64)
        np.cumsum(runs, out=self._starts[1:])
        self._n_terms = int(np.count_nonzero(runs))
        self._rg_cache: dict[tuple[int, int], dict] = {}
        self._shards: dict[str, PostingShard] = {}

    def _run(self, i: int) -> tuple[int, int] | None:
        """[start, end) of the directory rows of lexicon position ``i``
        (-1: not in the lexicon), or None when it has none."""
        if i < 0:
            return None
        lo, hi = int(self._starts[i]), int(self._starts[i + 1])
        return (lo, hi) if lo < hi else None

    def __contains__(self, term: str) -> bool:
        # a touched term is a hash probe; the binary search runs only
        # for terms not fetched yet
        return (term in self._shards
                or self._run(self.lexicon.index(term)) is not None)

    def __iter__(self):
        lex = self.lexicon
        return (lex[int(i)] for i in np.flatnonzero(np.diff(self._starts)))

    def __len__(self) -> int:
        return self._n_terms

    def _row_group(self, fi: int, rg: int) -> dict:
        """Row group ``rg`` of file ``fi``, columnar: ``df`` and each
        row's byte offsets into the ``docs``/``tfs`` value buffers (as
        lists) and its block range in ``blocks`` — the block_last,
        block_off_docs and block_off_tfs values stacked as one int64
        (3, n_blocks) array — and ``block_max`` (float64, scaled for
        this file's generation; see ``__init__``)."""
        key = (fi, rg)
        hit = self._rg_cache.pop(key, None)
        if hit is None:
            t = self._pf[fi].read_row_group(rg, columns=["df"] + self._VAR_COLS)
            hit = {"df": t["df"].to_pylist()}
            for k in ("docs", "tfs"):
                offs, vals = _var_column(t[k])
                hit[k] = (offs.tolist(), vals)
            # one value per block in each list column: a row's blocks
            # are the same range of every column
            per_block = {}
            for k in self._VAR_COLS[2:]:
                offs, vals = _var_column(t[k])
                per_block[k] = vals[offs[0]:offs[-1]]
            hit["blocks"] = ((offs - offs[0]).tolist(), np.stack(
                [per_block[k] for k in self._VAR_COLS[2:5]]).astype(np.int64))
            bmax = per_block["block_max"].astype(np.float64)
            scale = self._file_scale[fi]
            if scale != 1.0:
                # the true bound is < 1 (tf/(tf+norm)), so capping the
                # scaled value at 1.0 stays a safe upper bound
                bmax = np.minimum(bmax * scale, 1.0)
            hit["block_max"] = bmax
            if len(self._rg_cache) >= self._RG_CACHE_MAX:
                self._rg_cache.pop(next(iter(self._rg_cache)))
        self._rg_cache[key] = hit  # (re)insert at tail: true LRU
        return hit

    def _join(self, lo: int, hi: int) -> PostingShard:
        """Directory rows ``[lo, hi)`` (one term's) as one posting list:
        each row cut out of its cached row group, the rows ordered by
        their last ``block_last`` (doc order, as row doc ranges are
        disjoint: one shard of a generation each, and generations are
        checked at open), then joined into fresh buffers (the list
        holds no view of a row group)."""
        rows = []  # (last doc, docs, tfs, blocks, block_max, entries)
        for fi, rg, i in zip(self._fi[lo:hi].tolist(),
                             self._rg[lo:hi].tolist(),
                             self._row[lo:hi].tolist()):
            g = self._row_group(fi, rg)
            (doffs, docs), (toffs, tfs) = g["docs"], g["tfs"]
            boffs, blocks = g["blocks"]
            a, b = boffs[i], boffs[i + 1]
            rows.append((blocks[0, b - 1] if b > a else -1,
                         docs[doffs[i]:doffs[i + 1]],
                         tfs[toffs[i]:toffs[i + 1]],
                         blocks[:, a:b], g["block_max"][a:b], g["df"][i]))
        if len(rows) > 1:
            rows.sort(key=lambda row: row[0])
        nb = [row[3].shape[1] for row in rows]
        # block_last, off_docs, off_tfs, then each block's first entry
        out = np.empty((4, sum(nb)), np.int64)
        np.concatenate([row[3] for row in rows], axis=1, out=out[:3])
        out[3] = np.arange(0, out.shape[1] * BLOCK, BLOCK)
        if len(rows) > 1:
            # shift each row's byte offsets past the bytes of the rows
            # before it, and its block starts past their entries
            base = []
            docs_at = tfs_at = entry_at = block_at = 0
            for row, m in zip(rows, nb):
                base.append((docs_at, tfs_at, entry_at - block_at * BLOCK))
                docs_at += len(row[1])
                tfs_at += len(row[2])
                entry_at += row[5]
                block_at += m
            out[1:] += np.repeat(np.array(base, np.int64).T, nb, axis=1)
        return PostingShard(
            b"".join([row[1] for row in rows]),
            b"".join([row[2] for row in rows]),
            out[0], out[1], out[2],
            np.concatenate([row[4] for row in rows]), out[3],
            sum(row[5] for row in rows))

    def __getitem__(self, term: str) -> PostingShard:
        return self._get(term, None)

    def _get(self, term: str, i: int | None) -> PostingShard:
        """``term``'s posting list through the memo; ``i`` is its
        lexicon position when the caller knows it (None: binary search
        on a memo miss)."""
        post = self._shards.pop(term, None)
        if post is None:
            run = self._run(self.lexicon.index(term) if i is None else i)
            if run is None:
                raise KeyError(term)
            post = self._join(*run)
            if len(self._shards) >= self._SHARDS_CACHE_MAX:
                self._shards.pop(next(iter(self._shards)))
        self._shards[term] = post  # (re)insert at tail: true LRU
        return post

    def items(self):
        """Stream (term, posting list) over the whole vocabulary in
        storage order (row-group-sequential, so the LRU cache hits)."""
        ids = np.flatnonzero(np.diff(self._starts))
        first = self._starts[ids]
        order = np.lexsort((self._row[first], self._rg[first],
                            self._fi[first]))
        for i in ids[order]:
            t = self.lexicon[int(i)]
            yield t, self._get(t, int(i))


class Rail:
    """Lazy doc → (terms, positions) forward index over ``analyzed``.

    Row groups are pruned with the Parquet doc_id min/max statistics;
    only groups containing requested docs are read (and LRU-cached), so
    a span query touches a handful of row groups, not the corpus."""

    _RG_CACHE_MAX = 64

    def __init__(self, analyzed_dir):
        # walk_parquet already yields full paths — joining again would
        # double the prefix for relative index dirs.  Accepts one dir or
        # a list of generation dirs (incremental index) — doc ranges
        # across generations are disjoint, so the concatenated span list
        # prunes exactly as in the single-dir case.
        dirs = [analyzed_dir] if isinstance(analyzed_dir, str) else analyzed_dir
        self.files = sorted(f for d in dirs for f in walk_parquet(d))
        self._pf = [pq.ParquetFile(f) for f in self.files]
        self._spans: list[tuple[int, int, int, int]] = []  # (min,max,fi,rg)
        for fi, pf in enumerate(self._pf):
            md = pf.metadata
            ci = md.schema.to_arrow_schema().get_field_index("doc_id")
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                if st is not None and st.has_min_max:
                    self._spans.append((int(st.min), int(st.max), fi, rg))
                else:  # no stats → cannot prune, always a candidate
                    self._spans.append((-1, 1 << 62, fi, rg))
        self._spans.sort()
        self._rg_cache: dict[tuple[int, int], tuple] = {}
        self._docs_cache: dict[tuple[int, int], np.ndarray] = {}

    def _load(self, fi: int, rg: int):
        """Row group as (sorted doc ids, argsort, arrow list columns)
        — loading stays COLUMNAR (one read, one int argsort); rows are
        materialized lazily in :meth:`get`, one doc at a time.  The
        old eager dict build (``to_pylist`` of every row's positions)
        made each load ~100× the IO cost, which dominated hot-term
        span queries whose rank-ordered verification touches row
        groups in near-random order."""
        key = (fi, rg)
        hit = self._rg_cache.pop(key, None)
        if hit is None:
            t = self._pf[fi].read_row_group(
                rg, columns=["doc_id", "pos_terms", "positions"]
            )
            docs = t["doc_id"].to_numpy(zero_copy_only=False)
            order = np.argsort(docs, kind="stable")
            hit = (docs[order], order,
                   t["pos_terms"].combine_chunks(),
                   t["positions"].combine_chunks())
            if len(self._rg_cache) >= self._RG_CACHE_MAX:
                self._rg_cache.pop(next(iter(self._rg_cache)))
        self._rg_cache[key] = hit  # (re)insert at tail: true LRU
        return hit

    @staticmethod
    def _row(list_arr, i: int):
        """One row of an arrow list column as its values slice."""
        off = list_arr.offsets
        s, e = off[i].as_py(), off[i + 1].as_py()
        return list_arr.values.slice(s, e - s)

    def _docs_of(self, fi: int, rg: int) -> np.ndarray:
        """Sorted doc ids of one row group — the cheap membership
        probe.  A distributed build writes row groups whose doc RANGES
        interleave heavily, so min/max pruning alone still admits
        O(row groups) candidates per doc; probing the 8 B/row doc_id
        column (own wide LRU) avoids paying the positions read for
        every false candidate."""
        key = (fi, rg)
        hit = self._docs_cache.pop(key, None)
        if hit is None:
            t = self._pf[fi].read_row_group(rg, columns=["doc_id"])
            hit = np.sort(t["doc_id"].to_numpy(zero_copy_only=False))
            if len(self._docs_cache) >= 8 * self._RG_CACHE_MAX:
                self._docs_cache.pop(next(iter(self._docs_cache)))
        self._docs_cache[key] = hit  # (re)insert at tail: true LRU
        return hit

    def get(self, doc: int):
        for mn, mx, fi, rg in self._spans:
            if mn > doc:
                break
            if doc <= mx:
                d = self._docs_of(fi, rg)
                j = int(np.searchsorted(d, doc))
                if j >= len(d) or d[j] != doc:
                    continue
                docs, order, terms_col, pos_col = self._load(fi, rg)
                j = int(np.searchsorted(docs, doc))
                row = int(order[j])
                return (
                    np.asarray(self._row(terms_col, row).to_pylist(),
                               dtype=object),
                    self._row(pos_col, row).to_numpy(
                        zero_copy_only=False).astype(np.int64),
                )
        raise KeyError(doc)


class _DocStore:
    """Row-group-pruned single-document reads over the docs artifact."""

    _RG_CACHE_MAX = 16

    def __init__(self, docs_dir):
        dirs = [docs_dir] if isinstance(docs_dir, str) else docs_dir
        self._pf = [
            pq.ParquetFile(f)
            for f in sorted(f for d in dirs for f in walk_parquet(d))
        ]
        self._spans: list[tuple[int, int, int, int]] = []
        for fi, pf in enumerate(self._pf):
            md = pf.metadata
            ci = md.schema.to_arrow_schema().get_field_index("doc_id")
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                if st is not None and st.has_min_max:
                    self._spans.append((int(st.min), int(st.max), fi, rg))
                else:
                    self._spans.append((-1, 1 << 62, fi, rg))
        self._spans.sort()
        self._cache: dict[tuple[int, int], dict] = {}

    def get(self, doc_id: int) -> dict:
        for mn, mx, fi, rg in self._spans:
            if mn > doc_id:
                break
            if doc_id <= mx:
                key = (fi, rg)
                rows = self._cache.get(key)
                if rows is None:
                    t = self._pf[fi].read_row_group(rg)
                    ids = t["doc_id"].to_numpy(zero_copy_only=False)
                    rows = {int(d): i for i, d in enumerate(ids)}
                    rows["_table"] = t
                    if len(self._cache) >= self._RG_CACHE_MAX:
                        self._cache.pop(next(iter(self._cache)))
                    self._cache[key] = rows
                if doc_id in rows:
                    t = rows["_table"]
                    i = rows[doc_id]
                    return {c: t[c][i].as_py() for c in t.column_names}
        raise KeyError(doc_id)


def _generation_dirs(out_dir: str) -> list[str]:
    """Live generation dirs of an index root — the ``generations.json``
    entries for an incremental index (ordered, doc-id ranges ascending),
    else the root itself (plain single-generation build)."""
    gj = os.path.join(out_dir, "generations.json")
    if os.path.exists(gj):
        with open(gj) as f:
            state = json.load(f)
        return [os.path.normpath(os.path.join(out_dir, g))
                for g in state["generations"]]
    return [out_dir]


def _min_doc_id(docs_dir: str):
    """Min doc_id across a doc-keyed stage dir (``docs``,
    ``doc_stats``) via Parquet row-group statistics — a metadata scan,
    no data read."""
    lo = None
    for f in walk_parquet(docs_dir):
        md = pq.read_metadata(f)
        ci = md.schema.to_arrow_schema().get_field_index("doc_id")
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(ci).statistics
            if st is not None and st.has_min_max:
                lo = int(st.min) if lo is None else min(lo, int(st.min))
    return lo


def _check_generation_ranges(gen_dirs: list[str], cfgs: list[dict]) -> None:
    """Raise ``ValueError`` unless the generations' doc-id ranges are
    disjoint and ascending in list order.  :class:`PostingStore` joins
    a term's rows by their last doc id, which gives doc order only over
    disjoint ranges.  An index whose merge took two generations with
    another between them (merges took any subset before they took
    adjacent runs only) holds one posting row with doc ids on both
    sides of that generation's; ``IndexWriter.compact`` rewrites it as
    one generation.  The lows come from ``doc_stats`` (one small file
    per shard), a cheaper metadata scan than ``docs``."""
    prev_hi, prev = -1, None
    for g, c in zip(gen_dirs, cfgs):
        lo = _min_doc_id(resolve_stage(g, "doc_stats"))
        if lo is None:  # a generation without docs holds no postings
            continue
        if lo <= prev_hi:
            raise ValueError(
                f"generation {os.path.basename(g)} starts at doc id {lo}, "
                f"inside or below {os.path.basename(prev)} (up to doc id "
                f"{prev_hi}): generation doc-id ranges must be disjoint "
                "and ascending; IndexWriter(root).compact() rewrites the "
                "index as one generation")
        prev_hi, prev = c["max_doc_id"], g


def _load_tombstones(out_dir: str) -> np.ndarray:
    """Sorted unique deleted doc ids (empty array when none).

    When ``generations.json`` carries a ``tombstones`` file list (the
    IndexWriter's format), ONLY those files are live — the list swaps
    atomically with the generation list, so a reader never sees a
    half-retired tombstone set around a merge.  Plain indexes (or
    legacy state without the key) scan ``tombstones/del-*.parquet``."""
    tdir = os.path.join(out_dir, "tombstones")
    gj = os.path.join(out_dir, "generations.json")
    names = None
    if os.path.exists(gj):
        with open(gj) as f:
            state = json.load(f)
        if "tombstones" in state:
            names = state["tombstones"]
    if names is None:
        names = (sorted(f for f in os.listdir(tdir)
                        if f.endswith(".parquet"))
                 if os.path.isdir(tdir) else [])
    parts = [
        pq.ParquetFile(os.path.join(tdir, f)).read(columns=["doc_id"])
        for f in names
    ]
    if not parts:
        return np.empty(0, np.int64)
    ids = pa.concat_tables(parts)["doc_id"].to_numpy(zero_copy_only=False)
    return np.unique(ids.astype(np.int64))


class DocStatsStore:
    """Lazy shard-sliced per-doc stats: exact dl (``tokens``) and the
    BM25 length norm ``k1*(1-b+b*dl/avgdl)``.

    Slices load on first touch from the shard-partitioned ``doc_stats``
    artifact (partition-pruned Parquet read) and are LRU-capped, so a
    serving replica's resident per-doc state is ∝ touched shards
    (``shard_range`` docs each), never O(max_doc_id) — a dense global
    array would be ~8 TB at 10^12 docs.  (Reference: Lucene reads
    norms per segment, ``SURVEY.md §1.3``; this is the doc-range-shard
    equivalent.)"""

    _MAX_SLICES = 8

    def __init__(self, stats_dir, shard_range: int, k1: float,
                 b: float, avgdl: float):
        # one dir, or a list of generation dirs (incremental index).
        # A shard may span generations (delta ids continue the base id
        # space mid-shard) — the slice concatenates every generation's
        # partition for that shard; doc ids are globally unique so the
        # scatter into the dense local array never collides.
        dirs = [stats_dir] if isinstance(stats_dir, str) else list(stats_dir)
        self.shard_range = int(shard_range)
        self._shard_dirs: dict[int, list[str]] = {}
        for d in dirs:
            for name in os.listdir(d):
                if name.startswith("shard="):
                    s = int(name.split("=", 1)[1])
                    self._shard_dirs.setdefault(s, []).append(
                        os.path.join(d, name))
        self.k1 = k1
        self.b = b
        self.avgdl = avgdl
        self._slices: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _slice(self, shard: int) -> tuple[np.ndarray, np.ndarray]:
        hit = self._slices.get(shard)
        if hit is not None:
            return hit
        parts = [
            pq.ParquetFile(f).read(columns=["doc_id", "tokens"])
            for p in self._shard_dirs.get(int(shard), [])
            for f in sorted(walk_parquet(p))
        ]
        t = (pa.concat_tables(parts) if parts
             else pa.table({"doc_id": pa.array([], pa.int64()),
                            "tokens": pa.array([], pa.int64())}))
        base = shard * self.shard_range
        local = t["doc_id"].to_numpy() - base
        size = int(local.max()) + 1 if len(local) else 1
        toks = np.zeros(size, np.int64)
        toks[local] = t["tokens"].to_numpy()
        norms = self.k1 * (
            1.0 - self.b + self.b * toks.astype(np.float64) / self.avgdl
        )
        if len(self._slices) >= self._MAX_SLICES:
            self._slices.pop(next(iter(self._slices)))
        self._slices[shard] = (toks, norms)
        return toks, norms

    def gather(self, idx, kind: int):
        """kind 0 → tokens (int64), kind 1 → norms (float64).  Accepts
        a scalar doc id, an int array, or a boolean corpus mask."""
        if isinstance(idx, (int, np.integer)):
            sh, off = divmod(int(idx), self.shard_range)
            arr = self._slice(sh)[kind]
            return arr[off]
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        sh = idx // self.shard_range
        first = int(sh[0]) if len(sh) else 0
        if len(sh) == 0 or int(sh[-1]) == first and (sh == first).all():
            # single-shard fast path (also the whole-corpus case when
            # max_doc_id < shard_range)
            arr = self._slice(first)[kind] if len(sh) else \
                np.empty(0, np.int64 if kind == 0 else np.float64)
            return arr[idx - first * self.shard_range]
        out = np.empty(len(idx), np.int64 if kind == 0 else np.float64)
        for s in np.unique(sh):
            arr = self._slice(int(s))[kind]
            m = sh == s
            out[m] = arr[idx[m] - int(s) * self.shard_range]
        return out


class _DocField:
    """Array-like view over one DocStatsStore field (``doc[ids]``)."""

    __slots__ = ("store", "kind")

    def __init__(self, store: DocStatsStore, kind: int):
        self.store = store
        self.kind = kind

    def __getitem__(self, idx):
        return self.store.gather(idx, self.kind)


_THEME_AGG_COLS = ("df", "fdf", "acc", "oacc", "ftf", "otf",
                   "f_tlogt", "f_tlogdl", "o_tlogt", "o_tlogdl")


class _ThemePartial:
    """Actor-pool stage for the distributed theme-terms sweep: per
    postings row (one term × doc-range shard) decode the (doc, tf)
    blobs and emit the 10 per-term part aggregates every contrastive
    mode needs.  The lazy shard-sliced :class:`DocStatsStore` opens
    ONCE per actor (norms/dl load per touched doc shard); the packed
    focus mask is fetched from the object store once per actor."""

    def __init__(self, doc_stats_dirs, shard_range, k1, b, avgdl,
                 mask_ref, n_docs):
        import ray

        store = DocStatsStore(doc_stats_dirs, shard_range, k1, b, avgdl)
        self.doc_tokens = _DocField(store, 0)
        self.norms = _DocField(store, 1)
        self.k1 = k1
        self.mask = np.unpackbits(ray.get(mask_ref))[:n_docs].astype(bool)

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        n = len(batch)
        out = {c: np.empty(n, np.float64) for c in _THEME_AGG_COLS}
        docs_col, tfs_col = batch["docs"], batch["tfs"]
        for i in range(n):
            d, tf = decode_posting(docs_col[i].as_py(), tfs_col[i].as_py())
            tf = tf.astype(np.float64)
            tfpart = tf * (self.k1 + 1.0) / (tf + self.norms[d])
            m = self.mask[d]
            logtf = np.log(tf)
            logdl = np.log(self.doc_tokens[d].astype(np.float64))
            out["df"][i] = len(d)
            out["fdf"][i] = m.sum()
            out["acc"][i] = tfpart[m].sum()
            out["oacc"][i] = tfpart[~m].sum()
            out["ftf"][i] = tf[m].sum()
            out["otf"][i] = tf[~m].sum()
            out["f_tlogt"][i] = (tf[m] * logtf[m]).sum()
            out["f_tlogdl"][i] = (tf[m] * logdl[m]).sum()
            out["o_tlogt"][i] = (tf[~m] * logtf[~m]).sum()
            out["o_tlogdl"][i] = (tf[~m] * logdl[~m]).sum()
        cols = {"term": batch["term"]}
        cols.update({c: pa.array(v) for c, v in out.items()})
        return pa.table(cols)


def _lev_leq(a: str, b: str, k: int) -> bool:
    """Unit-cost Levenshtein distance(a, b) <= k, with a banded
    early-exit: any full DP row whose minimum exceeds ``k`` can never
    recover (costs only grow), so the scan aborts there.  Semantics
    match DuckDB ``levenshtein`` exactly (oracle parity for
    ``search_fuzzy``)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        ca = a[i - 1]
        cur = [i] + [0] * lb
        best = i
        for j in range(1, lb + 1):
            c = 0 if ca == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + c)
            cur[j] = v
            if v < best:
                best = v
        if best > k:
            return False
        prev = cur
    return prev[lb] <= k


class TermLexicon:
    """Sorted term dictionary over an Arrow ``string``/``large_string``
    column — binary-search lookups against the Arrow buffers, no
    per-term Python string objects (``TermLexicon.java:98`` layout:
    sorted blob + offsets).  Memory is the two Arrow buffers, read
    through zero-copy memoryviews: a probe compares one term's UTF-8
    bytes with the encoded key (UTF-8 byte order is code-point order,
    so it agrees with ``str`` ordering and with Arrow's sort), and
    strings materialize one at a time only when yielded.

    :meth:`index` keeps a bounded memo term → position (at most
    ``_INDEX_MEMO_MAX`` terms, the oldest dropped first), so each term a
    handle looks up (postings, df, cf, idf) costs one binary search."""

    __slots__ = ("terms", "_n", "_offs", "_data", "_memo")

    _INDEX_MEMO_MAX = 8192

    def __init__(self, terms):
        self.terms = terms
        self._memo: dict[str, int] = {}
        self._n = len(terms)
        offs, data = _binary_buffers(terms)
        self._offs = memoryview(offs)  # indexing yields a plain int
        # unsigned bytes: a signed view would not compare equal to
        # ``bytes`` past ASCII
        self._data = memoryview(data).cast("B")

    def __reduce__(self):  # memoryviews do not pickle; the array does
        return TermLexicon, (self.terms,)

    def _bytes(self, i: int) -> memoryview:
        return self._data[self._offs[i]:self._offs[i + 1]]

    def lower_bound(self, term: str) -> int:
        """First position whose term is >= ``term`` (binary search
        over the Arrow buffers — the single comparison kernel shared
        by exact lookup and range expansion)."""
        key = term.encode("utf-8", "surrogatepass")
        offs, data = self._offs, self._data
        lo, hi = 0, self._n
        while lo < hi:
            mid = (lo + hi) >> 1
            if data[offs[mid]:offs[mid + 1]].tobytes() < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def index(self, term: str) -> int:
        """Position of ``term``, or -1 when it is absent."""
        i = self._memo.get(term)
        if i is None:
            i = self.lower_bound(term)
            if i >= self._n or self._bytes(i) != term.encode(
                    "utf-8", "surrogatepass"):
                i = -1
            if len(self._memo) >= self._INDEX_MEMO_MAX:
                self._memo.pop(next(iter(self._memo)))
            self._memo[term] = i
        return i

    def __contains__(self, term) -> bool:
        return self.index(term) >= 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> str:
        if not -self._n <= i < self._n:
            raise IndexError(i)
        return str(self._bytes(i % self._n), "utf-8")

    def __iter__(self):
        for i in range(self._n):
            yield str(self._bytes(i), "utf-8")


class TermStatsMap:
    """Mapping-like term → int stat view (df/cf) over the sorted
    lexicon + a numpy value column.  Lookup is one binary search; no
    per-term dict entries."""

    __slots__ = ("lex", "vals")

    def __init__(self, lex: TermLexicon, vals: np.ndarray):
        self.lex = lex
        self.vals = vals

    def get(self, term, default=0):
        i = self.lex.index(term)
        return default if i < 0 else int(self.vals[i])

    def __getitem__(self, term):
        i = self.lex.index(term)
        if i < 0:
            raise KeyError(term)
        return int(self.vals[i])

    def __contains__(self, term) -> bool:
        return self.lex.index(term) >= 0

    def __iter__(self):
        return iter(self.lex)

    def __len__(self) -> int:
        return len(self.lex)

    def keys(self):
        return iter(self.lex)

    def values(self):
        return (int(v) for v in self.vals)

    def items(self):
        return ((self.lex[i], int(self.vals[i])) for i in range(len(self.lex)))

    def top(self, n: int) -> list[str]:
        """Terms of the ``n`` largest values (vectorized argpartition)."""
        n = min(n, len(self.vals))
        if n == 0:
            return []
        idx = np.argpartition(-self.vals, n - 1)[:n]
        idx = idx[np.argsort(-self.vals[idx], kind="stable")]
        return [self.lex[int(i)] for i in idx]


class BM25Index:
    """In-memory handle over the index artifacts in ``out_dir``."""

    _CONTRIB_CACHE_MAX = 4096  # terms; (d, c) arrays ∝ df each
    _TOPK_CACHE_MAX = 8192     # (term, k) result lists, O(k) each
    _WORD_MEMO_MAX = 8192      # query words → their analyzed terms
    # above this postings size, theme_terms routes through the
    # distributed Ray job instead of streaming the artifact in-process
    THEME_DISTRIBUTED_MIN_BYTES = 256 << 20

    def __init__(self, out_dir: str):
        self.dir = out_dir
        # generational (incremental) index: generations.json lists the
        # live generation dirs (Lucene's segments_N file,
        # SURVEY.md §1.3); a plain index dir is the single-generation
        # case.  The handle is a SNAPSHOT — reopen after writer ops
        # (add/delete/compact), like DirectoryReader.openIfChanged.
        self.gen_dirs = _generation_dirs(out_dir)
        cfgs = []
        for g in self.gen_dirs:
            with open(os.path.join(g, "config.json")) as f:
                cfgs.append(json.load(f))
        c0 = cfgs[0]
        for c in cfgs[1:]:
            for key in ("k1", "b", "idf_exp", "analyzer", "shard_range"):
                if c.get(key) != c0.get(key):
                    raise ValueError(
                        f"generation config mismatch on {key!r}: "
                        f"{c.get(key)!r} != {c0.get(key)!r}")
        if len(cfgs) > 1:
            _check_generation_ranges(self.gen_dirs, cfgs)
        self.k1 = c0["k1"]
        self.b = c0["b"]
        self.idf_exp = c0["idf_exp"]
        n_docs_raw = sum(c["n_docs"] for c in cfgs)
        total_tokens = sum(c["total_tokens"] for c in cfgs)
        self.avgdl = total_tokens / n_docs_raw if n_docs_raw else 1.0
        self.cfg = dict(
            c0,
            n_docs=n_docs_raw,
            total_tokens=total_tokens,
            max_doc_id=max(c["max_doc_id"] for c in cfgs),
            avgdl=self.avgdl,
        )
        self.n_slots = max(self.cfg["max_doc_id"] + 1, 1)
        # tombstones: deleted doc ids (sorted).  Like Lucene, deletes
        # purely MASK results; ALL scoring stats stay stale until merge
        # — n_docs (→ idf) included (CollectionStatistics semantics).
        # Live-N with stale per-term df would drive idf NEGATIVE when
        # df > live N (a hot term after mass deletes), flipping
        # block upper bounds from upper to lower bounds and breaking
        # block-window pruning correctness.
        self.deleted = _load_tombstones(out_dir)
        self.n_docs = n_docs_raw
        self.n_live = n_docs_raw - len(self.deleted)
        # per-doc state is shard-sliced + lazy — replica memory ∝
        # touched shards, never O(max_doc_id) (dense arrays were the
        # r2 scale blocker)
        self.docstats = DocStatsStore(
            [resolve_stage(g, "doc_stats") for g in self.gen_dirs],
            c0.get("shard_range", 8_000_000),
            self.k1, self.b, self.avgdl,
        )
        self.doc_tokens = _DocField(self.docstats, 0)
        self.norms = _DocField(self.docstats, 1)
        # lexicon: sorted Arrow column + binary search, df/cf as numpy
        # value columns — no O(vocab) Python dict/list objects.
        # Multi-generation: per-gen stats concat + group-sum (terms are
        # disjoint-by-doc-range across generations, df never double
        # counts a doc).  The listed files are read directly: a
        # directory read_table pays for dataset discovery.
        ts = pa.concat_tables([
            pq.ParquetFile(f).read(columns=["term", "df", "cf"])
            for f in stage_files(self.gen_dirs, "term_stats")
        ])
        if len(self.gen_dirs) > 1:
            ts = ts.group_by("term").aggregate(
                [("df", "sum"), ("cf", "sum")]
            ).rename_columns(["term", "df", "cf"])
        ts = ts.take(pc.sort_indices(ts["term"]))
        self.lexicon = TermLexicon(ts["term"].combine_chunks())
        self.df = TermStatsMap(self.lexicon, ts["df"].to_numpy())
        self.cf = TermStatsMap(self.lexicon, ts["cf"].to_numpy())
        # lazy: open scans only the term column (O(lexicon)); posting
        # blobs are row-group-read on first use.  block_max bounds are
        # rescaled per generation for the merged avgdl (see
        # PostingStore).
        self.postings = PostingStore([
            (resolve_stage(g, "postings"),
             max(1.0, self.avgdl / c["avgdl"]))
            for g, c in zip(self.gen_dirs, cfgs)
        ], self.lexicon)
        self._analyzer = None
        self._words = None  # WordMemo over the analyzer, at first parse
        # result caches are true-LRU-bounded (hits re-insert at the
        # tail): a long-running replica serving a wide query mix must
        # not accumulate O(touched vocabulary) float arrays forever
        self._contrib_cache: dict = {}
        self._topk_cache: dict = {}
        # captured at open for reopen_if_changed (snapshot identity)
        self._opened_token = self._snapshot_token()

    def _snapshot_token(self) -> tuple:
        """Identity of the on-disk index state this handle captured:
        the generations.json content (or its absence) + the tombstone
        file list.  Cheap to recompute (two small reads)."""
        gj = os.path.join(self.dir, "generations.json")
        state = None
        if os.path.exists(gj):
            with open(gj) as f:
                state = f.read()
        tdir = os.path.join(self.dir, "tombstones")
        tombs = tuple(sorted(os.listdir(tdir))) \
            if os.path.isdir(tdir) else ()
        return (state, tombs)

    def reopen_if_changed(self) -> "BM25Index":
        """Fresh handle if the index state advanced since this handle
        opened, else ``self`` — ``DirectoryReader.openIfChanged``.  A
        serving replica polls this between batches; unchanged state
        keeps every warm cache."""
        if self._snapshot_token() == self._opened_token:
            return self
        return BM25Index(self.dir)

    # -- scoring primitives -------------------------------------------
    def idf(self, term: str) -> float:
        df = int(self.df.get(term, 0))
        if df == 0:
            return 0.0
        return float(
            np.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5)) ** self.idf_exp
        )

    def _query_terms(self, terms) -> list[str]:
        """Dedup + drop unknown terms + sorted order — the fixed
        float64 summation order of SURVEY.md §7.4.1."""
        return sorted({t for t in terms if t in self.postings})

    def _contrib(self, term: str, d: np.ndarray, tf: np.ndarray,
                 scorer: str) -> np.ndarray:
        """Per-(term, doc) score contribution under a pluggable doc-level
        similarity (reference: SimilarityBase subclasses, SURVEY.md §2.6)."""
        if scorer == "bm25":  # IdfTermScorer.java:253,266
            w = self.idf(term) * (self.k1 + 1.0)
            return w * (tf / (tf + self.norms[d]))
        if scorer == "freq":  # SimilarityFreq.java:48-53 — raw tf
            return tf
        cf = float(self.cf.get(term, 0))
        total = float(self.cfg["total_tokens"])
        dl = self.doc_tokens[d].astype(np.float64)
        expected = cf * dl / total
        if scorer == "chi2":  # SimilarityChi2.java:52-68
            with np.errstate(divide="ignore", invalid="ignore"):
                measure = (tf - expected) ** 2 / expected
                out = np.where(measure == 0, 0.0, np.log2(measure))
            return np.where(tf < expected, -out, out)
        if scorer == "chi2inv":  # SimilarityChi2inv.java:53-66 — most
            # REPULSED doc: the X2 cell only when observed < expected
            with np.errstate(divide="ignore", invalid="ignore"):
                measure = (tf - expected) ** 2 / expected
            return np.where(tf > expected, 0.0, measure)
        if scorer == "gtest":  # SimilarityG.java:52-72
            with np.errstate(divide="ignore", invalid="ignore"):
                o1 = total - tf
                s = tf * np.log(tf / expected) + o1 * np.log(
                    o1 / (total - expected)
                )
            return np.where(tf < expected, -s, s)
        if scorer == "gsimple":  # SimilarityGsimple.java:51-70 — the
            # single-cell G measure, sign-flipped when under-expected
            with np.errstate(divide="ignore", invalid="ignore"):
                measure = tf * np.log(tf / expected)
            return np.where(tf < expected, -measure, measure)
        raise ValueError(f"unknown scorer {scorer!r}")

    def _term_contrib(self, term: str, scorer: str):
        """(doc_ids, contributions) for a term — memoized for bm25 (the
        index is immutable; hot Zipf-head terms re-appear constantly)."""
        if scorer == "bm25":
            hit = self._contrib_cache.pop(term, None)
            if hit is not None:
                self._contrib_cache[term] = hit  # refresh LRU position
                return hit
        d, t = self.postings[term].decode()
        if len(self.deleted):
            live = ~deleted_mask(d, self.deleted)
            if not live.all():
                d, t = d[live], t[live]
        c = self._contrib(term, d, t.astype(np.float64), scorer)
        if scorer == "bm25":
            if len(self._contrib_cache) >= self._CONTRIB_CACHE_MAX:
                self._contrib_cache.pop(next(iter(self._contrib_cache)))
            self._contrib_cache[term] = (d, c)
        return d, c

    def _candidate_contrib(self, term: str, cand: np.ndarray) -> np.ndarray:
        """BM25 contributions for a sorted LIVE candidate set, decoding
        only the posting blocks the candidates land in (block_last skip
        list via :meth:`PostingShard.tf_of`).  The per-(term, doc)
        arithmetic is the same elementwise ``_contrib`` expression, so
        scores are bit-identical to the full-decode path — a two-Zipf-
        head-term span query no longer pays two full postings decodes
        just to score O(k) survivors.  Uses the memoized full
        contributions when a previous query already paid for them."""
        hit = self._contrib_cache.pop(term, None)
        if hit is not None:
            self._contrib_cache[term] = hit  # refresh LRU position
            d, c = hit
            return c[np.searchsorted(d, cand)]
        tf = self.postings[term].tf_of(cand)
        return self._contrib(term, cand, tf.astype(np.float64), "bm25")

    # -- exact term-at-a-time (the oracle) ----------------------------
    def search_exact(self, terms, k: int = 10, mode: str = "or",
                     scorer: str = "bm25", filter_mask=None):
        """``filter_mask``: optional boolean doc mask (the filterQuery
        conjunction of Op.java:310-339 — build with
        :mod:`alix_ray.query.filters`); docs outside it never score."""
        qs = self._query_terms(terms)
        if not qs:
            return []
        # corpus-sized accumulator: ORACLE path only — serving uses the
        # window-bounded block-max path
        acc = np.zeros(self.n_slots, np.float64)
        seen = np.zeros(self.n_slots, np.int32) if mode == "and" else None
        for term in qs:
            d, contrib = self._term_contrib(term, scorer)
            acc[d] += contrib
            if seen is not None:
                seen[d] += 1
        if mode == "and":
            acc[seen < len(qs)] = 0.0
        if filter_mask is not None:
            acc[~np.asarray(filter_mask, bool)] = 0.0
        nz = np.nonzero(acc)[0]
        if len(nz) == 0:
            return []
        scores = acc[nz]
        k = min(k, len(nz))
        # top-k without a full sort: partition by score, then keep every
        # candidate ≥ the kth score (tie-safe) and sort just those by
        # the TopArray rule (score desc, doc asc)
        if len(nz) > 4 * k:
            part = np.argpartition(-scores, k - 1)[:k]
            theta = scores[part].min()
            cand = np.nonzero(scores >= theta)[0]
        else:
            cand = np.arange(len(nz))
        order = cand[np.lexsort((nz[cand], -scores[cand]))][:k]
        return [(int(nz[i]), float(scores[i])) for i in order]

    # -- fuzzy term expansion (FuzzyQuery.java) -----------------------
    def fuzzy_terms(self, term: str, max_edits: int = 1,
                    prefix_len: int = 0) -> list[str]:
        """Vocabulary terms within ``max_edits`` Levenshtein edits of
        ``term`` (Lucene ``FuzzyQuery.java`` semantics: ``maxEdits`` ≤
        2, ``prefixLength`` chars must match literally).  Lucene
        intersects a Levenshtein automaton (Schulz & Mihov 2002) with
        the term dictionary; here the Arrow-friendly equivalent: one
        VECTORIZED prune over the lexicon's Arrow buffers (utf8_length
        band ±max_edits, optional starts_with prefix) and a banded
        early-exit DP only on the survivors.  The scan is O(vocab) —
        vocabulary is bounded by distinct terms, independent of corpus
        size, so expansion stays a replica-local lookup at any doc
        count; the automaton is the documented escalation if a vocab
        ever outgrows the vectorized prune.  The edit distance is
        standard unit-cost Levenshtein — identical to DuckDB's
        ``levenshtein``, which is what gives :func:`search_fuzzy` a
        full SQL oracle."""
        if max_edits < 0:
            raise ValueError("max_edits must be >= 0")
        arr = self.lexicon.terms
        lens = pc.utf8_length(arr)
        mask = pc.and_(
            pc.greater_equal(lens, pa.scalar(len(term) - max_edits)),
            pc.less_equal(lens, pa.scalar(len(term) + max_edits)))
        if prefix_len > 0:
            mask = pc.and_(mask, pc.starts_with(
                arr, pattern=term[:prefix_len]))
        cands = pc.filter(arr, mask).to_pylist()
        return [c for c in cands if _lev_leq(term, c, max_edits)]

    def search_after(self, terms, after, k: int = 10,
                     scorer: str = "bm25"):
        """Deep paging (``IndexSearcher.searchAfter``): the next ``k``
        hits strictly after the cursor ``after = (doc_id, score)`` —
        the last hit of the previous page — in the TopArray total
        order (score desc, doc asc).  The cursor is the previous
        page's own float, so the equality compare is exact.  Each page
        rescans the full exact accumulator (``search_exact`` over all
        docs), so a page costs the same at any depth; no pruned path
        exists for paging."""
        a_d, a_s = after
        res = self.search_exact(terms, k=self.n_docs, scorer=scorer)
        out = [(d, s) for d, s in res
               if s < a_s or (s == a_s and d > a_d)]
        return out[:k]

    def search_facet_counts(self, terms, labels):
        """Result-set faceting (the Lucene facets-module shape):
        count the docs matching ANY query term, grouped by a per-doc
        label column (``labels``: array indexed by doc id — the
        broadcast-dictionary side, shipped once via ``ray.put`` in a
        distributed caller).  Pure integer counts — no scoring, no
        rounding — over the same postings the query would touch, so
        the facet panel costs one boolean sweep of the query terms'
        postings.  Returns (label, n_docs) sorted by count desc,
        label asc."""
        qs = self._query_terms(terms)
        hit = np.zeros(self.n_slots, bool)
        for term in qs:
            d, _ = self._term_contrib(term, "bm25")
            hit[d] = True
        ids = np.nonzero(hit)[0]
        if len(ids) == 0:
            return []
        lab = np.asarray(labels, dtype=object)[ids]
        vals, counts = np.unique(lab, return_counts=True)
        order = np.lexsort((vals, -counts))
        return [(str(vals[i]), int(counts[i])) for i in order]

    def more_like_this(self, doc_id: int, k: int = 10,
                       n_terms: int = 25, mode: str = "BM25"):
        """Find documents similar to ``doc_id`` (the
        ``MoreLikeThis.java`` shape): select the doc's ``n_terms``
        most interesting terms via :meth:`theme_terms` with a
        single-doc focus mask (mode BM25 = corpus idf × the doc's
        BM25 tf-part — the same "high tf here, rare elsewhere"
        criterion as Lucene's tf·idf interestingness, expressed with
        the engine's own scorer so the selection shares the
        theme-terms SQL oracle), then run a BM25 OR query over the
        selection and drop the seed doc from the hits.  Cost is one
        theme sweep (auto-routed to the distributed stats job above
        the postings-size threshold) plus one k+1 search."""
        mask = np.zeros(self.n_slots, bool)
        mask[doc_id] = True
        picked = self.theme_terms(mask, k=n_terms, mode=mode)
        terms = [t for t, _ in picked]
        if not terms:
            return []
        res = self.search_exact(terms, k + 1)
        return [(d, s) for d, s in res if d != doc_id][:k]

    def range_terms(self, lo: str | None, hi: str | None) -> list[str]:
        """Vocabulary terms in the lexicographic interval
        ``[lo, hi)`` (Lucene ``TermRangeQuery.java`` with
        includeLower=True / includeUpper=False; ``None`` = open end).
        The lexicon is SORTED, so this is two binary searches and a
        slice — O(log vocab + matches), no scan at all (the only
        MultiTermQuery rewrite that never touches the whole
        dictionary)."""
        lex = self.lexicon
        n = len(lex)
        a = lex.lower_bound(lo) if lo is not None else 0
        b = lex.lower_bound(hi) if hi is not None else n
        return lex.terms.slice(a, max(0, b - a)).to_pylist()

    def search_term_range(self, lo: str | None, hi: str | None,
                          k: int = 10, scorer: str = "bm25"):
        """Term-range search: expand via :meth:`range_terms`, score as
        a BM25 OR query with per-term df (rewrite-to-BooleanQuery)."""
        cands = self.range_terms(lo, hi)
        if not cands:
            return []
        return self.search_exact(cands, k, mode="or", scorer=scorer)

    def regex_terms(self, pattern: str) -> list[str]:
        """Vocabulary terms fully matching an RE2 ``pattern`` (Lucene
        ``RegexpQuery.java`` semantics: the pattern is anchored to the
        WHOLE term).  One vectorized pass over the lexicon's Arrow
        buffers — ``match_substring_regex`` is RE2, the same engine as
        DuckDB's ``regexp_full_match``, so sharing the pattern string
        VERBATIM between both gives oracle parity by construction (the
        ``domain_stats`` argument).  Lucene compiles the regex to an
        automaton intersected with the term dict; the vectorized scan
        is the Arrow equivalent at O(vocab), corpus-size
        independent."""
        arr = self.lexicon.terms
        mask = pc.match_substring_regex(
            arr, pattern=f"^(?:{pattern})$")
        return pc.filter(arr, mask).to_pylist()

    def wildcard_terms(self, pattern: str) -> list[str]:
        """Vocabulary terms matching a Lucene ``WildcardQuery``
        pattern (``*`` = any run, ``?`` = any single char, both
        whole-term anchored).  Compiled to an anchored RE2 via
        :meth:`regex_terms` — and nota bene the SAME pattern maps
        1:1 onto SQL ``LIKE`` (``*``→``%``, ``?``→``_``), which is
        what gives the wildcard query its oracle."""
        import re

        rx = "".join(".*" if c == "*" else "." if c == "?"
                     else re.escape(c) for c in pattern)
        return self.regex_terms(rx)

    def search_wildcard(self, pattern: str, k: int = 10,
                        scorer: str = "bm25"):
        """Wildcard term search: expand via :meth:`wildcard_terms`,
        score as a BM25 OR query (rewrite-to-BooleanQuery)."""
        cands = self.wildcard_terms(pattern)
        if not cands:
            return []
        return self.search_exact(cands, k, mode="or", scorer=scorer)

    def search_regex(self, pattern: str, k: int = 10,
                     scorer: str = "bm25"):
        """Regexp term search: expand via :meth:`regex_terms`, score
        the expansion as a BM25 OR query with per-term df (the
        rewrite-to-BooleanQuery shape of ``MultiTermQuery``)."""
        cands = self.regex_terms(pattern)
        if not cands:
            return []
        return self.search_exact(cands, k, mode="or", scorer=scorer)

    def search_fuzzy(self, term: str, k: int = 10, max_edits: int = 1,
                     prefix_len: int = 0, scorer: str = "bm25"):
        """Fuzzy single-term search: expand via :meth:`fuzzy_terms`,
        then score the expansion as a plain BM25 OR query (each
        matched term contributes with its OWN df — the
        rewrite-to-BooleanQuery shape of Lucene's
        ``FuzzyQuery``/``MultiTermQuery``; Lucene's optional
        ``(1 - d/len)`` boost-by-distance is deliberately not applied
        so the score stays oracle-expressible, documented
        divergence)."""
        cands = self.fuzzy_terms(term, max_edits, prefix_len)
        if not cands:
            return []
        return self.search_exact(cands, k, mode="or", scorer=scorer)

    # -- block-max windowed evaluation (vectorized scale path) --------
    def search_block_window(self, terms, k: int = 10, window: int = 16384):
        """Top-k via doc-range windows with block-max skipping.

        A window is scored only when the sum of the query terms' block
        maxima overlapping it can beat the current threshold — the
        block-max pruning idea of BMW applied window-at-a-time, so
        scoring stays fully vectorized.  Memory is bounded by the window
        (never corpus-sized), and no scratch state lives on the shared
        handle.

        A scored window is one step whose work follows the P postings
        it holds, not its width:

        - each term's (doc, contribution) arrays, whole when they lie
          inside the window (no search), else the ``searchsorted``
          slice;
        - concatenated in sorted-term order, and summed per doc by
          ``np.bincount(docs - first, weights=...)`` into a fresh
          accumulator as wide as the span of doc ids they touch.
          ``bincount`` adds each doc's weights in input order starting
          from 0.0, the same float operations as ``search_exact``'s
          per-term ``acc[d] += c`` (rank- and score-identical, enforced
          by tests);
        - candidates from one bool-mask scan of that accumulator:
          ``!= 0`` while the top-k fills, ``>= theta`` after (untouched
          slots hold 0.0, which neither keeps, since BM25 contributions
          are positive).

        The running top-k is kept with a vectorized merge (a tie-safe
        partition of a large window's candidates to everything ≥ its
        kth score, then concat + lexsort by score desc, doc asc), not a
        per-doc Python heap.  Contributions are the memoized per-term
        ``_term_contrib`` arrays, shared with the rest of the serving
        path.
        """
        qs = self._query_terms(terms)
        # per term with live postings: (first doc, last doc, d, c)
        contribs = [(int(d[0]), int(d[-1]), d, c) for d, c in
                    (self._term_contrib(t, "bm25") for t in qs) if len(d)]
        if not contribs:
            return []
        # windows cover the live docs; those past the last one hold no
        # postings to score
        max_doc = max(dn for _, dn, _, _ in contribs)
        window = min(window, max_doc + 1)
        bounds = None  # per term (w, block_last, block_max), at 1st skip test
        # running top-k, kept sorted by (score desc, doc asc) — the
        # TopArray tie rule; theta = weakest kept score once full
        top_s = np.empty(0, np.float64)
        top_d = np.empty(0, np.int64)
        for lo in range(0, max_doc + 1, window):
            hi = lo + window
            full = len(top_s) >= k
            theta = top_s[-1] if full else -1.0
            if full:
                if bounds is None:  # read off each term's posting list
                    bounds = []
                    for t in qs:
                        post = self.postings[t]
                        bounds.append((self.idf(t) * (self.k1 + 1.0),
                                       post.block_last, post.block_max))
                ub = 0.0
                for w, bl, bm in bounds:
                    a = int(np.searchsorted(bl, lo, side="left"))
                    b = int(np.searchsorted(bl, hi - 1, side="left")) + 1
                    if a < len(bm):
                        seg = bm[a : min(b, len(bm))]
                        if seg.size:
                            ub += w * float(seg.max())
                if ub < theta:
                    continue  # no doc in this window can enter the top-k
            ds, cs = [], []  # each term's postings in [lo, hi)
            first = hi
            for d0, dn, d, c in contribs:
                if d0 >= hi or dn < lo:
                    continue
                if lo <= d0 and dn < hi:  # the whole list: no search
                    first = min(first, d0)
                else:
                    a, b = np.searchsorted(d, (lo, hi)).tolist()
                    if a == b:
                        continue
                    d, c = d[a:b], c[a:b]
                    first = min(first, int(d[0]))
                ds.append(d)
                cs.append(c)
            if not ds:
                continue
            if len(ds) == 1:
                docs, weights = ds[0], cs[0]
            else:
                docs, weights = np.concatenate(ds), np.concatenate(cs)
            # per doc, the weights add in input order (sorted-term
            # order) starting from 0.0: search_exact's float sums
            acc = np.bincount(docs - first, weights=weights)
            # one bool-mask scan; once full, only candidates that can
            # displace the weakest kept entry (ties kept — doc-id rule
            # below)
            nz = (acc >= theta if full else acc != 0.0).nonzero()[0]
            if nz.size == 0:
                continue
            scores = acc[nz]
            nz += first
            if not full and nz.size > 4 * k:
                # bound the merge sort: partition to the window's own
                # top-k first (tie-safe — keep everything ≥ kth score)
                theta0 = np.partition(scores, nz.size - k)[nz.size - k]
                m = (scores >= theta0).nonzero()[0]
                nz, scores = nz[m], scores[m]
            if len(top_s):
                all_s = np.concatenate([top_s, scores])
                all_d = np.concatenate([top_d, nz])
            else:
                all_s, all_d = scores, nz
            order = np.lexsort((all_d, -all_s))[:k]
            top_s = all_s[order]
            top_d = all_d[order]
        return list(zip(top_d.tolist(), top_s.tolist()))

    # -- single-term top-k (memoized posting scan) -------------------
    def search_wand(self, terms, k: int = 10):
        """Top-k for ONE distinct query term: a vectorized O(df) scan
        of its posting list — no accumulator, memory ∝ df, not N,
        rank-identical to :meth:`search_exact`.  Memoized per
        (term, k): the index is immutable and real query mixes repeat
        the Zipf head constantly, so a serving replica caches
        single-term top-k like any result cache.  Several distinct
        terms are :meth:`search_terms`' to route (to
        :meth:`search_block_window`); here they raise."""
        qs = self._query_terms(terms)
        if not qs:
            return []
        if len(qs) > 1:
            raise ValueError(
                f"search_wand scores one distinct term, got {qs!r}")
        term = qs[0]
        ck = (term, k)
        hit = self._topk_cache.pop(ck, None)
        if hit is not None:
            self._topk_cache[ck] = hit  # refresh LRU position
            return list(hit)
        d, c = self._term_contrib(term, "bm25")
        k2 = min(k, len(d))
        if len(d) > 4 * k2:
            part = np.argpartition(-c, k2 - 1)[:k2]
            theta = c[part].min()
            cand = np.nonzero(c >= theta)[0]
        else:
            cand = np.arange(len(d))
        order = cand[np.lexsort((d[cand], -c[cand]))][:k2]
        out = [(int(d[i]), float(c[i])) for i in order]
        if len(self._topk_cache) >= self._TOPK_CACHE_MAX:
            self._topk_cache.pop(next(iter(self._topk_cache)))
        self._topk_cache[ck] = tuple(out)
        return out

    # -- span / proximity search over the rail artifact ---------------
    def rail(self) -> Rail:
        """Forward index doc → (term array, position array) — the
        ``TermRail`` analog (SURVEY.md §1.3), row-group-pruned lazy
        reads from the ``analyzed`` artifact (requires a
        ``keep_positions=True`` build).  Gaps where punctuation/stop
        words sat are preserved (position holes block span matches,
        CleanupFilter semantics)."""
        if getattr(self, "_rail", None) is None:
            self._rail = Rail(
                [resolve_stage(g, "analyzed") for g in self.gen_dirs])
        return self._rail

    @staticmethod
    def _min_window(pos_lists: list[np.ndarray]) -> int:
        """Width of the smallest position window covering one position
        from every list (classic k-pointer sweep)."""
        import heapq as hq

        ptrs = [0] * len(pos_lists)
        heap = [(int(pl[0]), i) for i, pl in enumerate(pos_lists)]
        hq.heapify(heap)
        cur_max = max(int(pl[0]) for pl in pos_lists)
        best = cur_max - heap[0][0] + 1
        while True:
            lo, i = hq.heappop(heap)
            ptrs[i] += 1
            if ptrs[i] >= len(pos_lists[i]):
                return best
            nxt = int(pos_lists[i][ptrs[i]])
            cur_max = max(cur_max, nxt)
            hq.heappush(heap, (nxt, i))
            best = min(best, cur_max - heap[0][0] + 1)

    def search_span(self, terms, k: int = 10, slop: int = 0):
        """Unordered span-near top-k: docs containing ALL terms within a
        window of ``len(terms) + slop`` positions, scored by BM25 and
        ranked with the usual tie rule.

        This is the reference's relevance mode — ``BooleanQuery(filter,
        SpanNearQuery MUST)`` then BM25 scoring (OpResults.java:247-270)
        — re-expressed as: conjunctive candidate set (postings
        intersection) → span verification against the rail → BM25 sum.
        """
        qs = self._query_terms(terms)
        if not qs:
            return []
        # conjunctive candidates: decode ONLY the rarest term's list
        # (doc order), then shrink it through the other terms' block
        # skip lists (PostingShard.contains decodes just the touched
        # blocks)
        by_df = sorted(qs, key=lambda t: int(self.df.get(t, 0)))
        cand = self.postings[by_df[0]].decode()[0]
        for t in by_df[1:]:
            cand = cand[self.postings[t].contains(cand)]
            if cand.size == 0:
                return []
        if len(self.deleted):
            cand = cand[~deleted_mask(cand, self.deleted)]
            if cand.size == 0:
                return []
        # score EVERY candidate first (vectorized per term — candidates
        # are in every term's postings by construction), then verify
        # spans against the rail in RANK order and stop at k matches:
        # any unverified candidate scores ≤ the kth match (equal scores
        # rank by doc asc, which the iteration order preserves), so the
        # rail — the expensive per-doc step — is touched O(k + span
        # misses) times, not O(|candidates|).  Two Zipf-head terms give
        # ~N candidates; the old full-verification loop was the r2
        # hot-term scale risk.
        scores = np.zeros(len(cand), np.float64)
        for t in qs:  # sorted term order = fixed float64 sum order
            # block-pruned: decode only candidate-bearing blocks (the
            # r3 hot-term fix — no full decode of Zipf-head postings)
            scores += self._candidate_contrib(t, cand)
        order = np.lexsort((cand, -scores))
        rail = self.rail()
        width_limit = len(qs) + slop
        out: list[tuple[int, float]] = []
        for i in order:
            doc = int(cand[i])
            rterms, rpos = rail.get(doc)
            pls = []
            ok = True
            for t in qs:
                pl = rpos[rterms == t]
                if pl.size == 0:
                    ok = False
                    break
                pls.append(pl)
            if ok and (len(qs) == 1 or self._min_window(pls) <= width_limit):
                out.append((doc, float(scores[i])))
                if len(out) >= k:
                    break
        return out

    # -- theme terms: rank TERMS for a doc subset (OpTerms main mode) --
    def _theme_stats(self, focus_mask: np.ndarray) -> dict:
        """One streaming pass over the postings artifact computing every
        per-term part aggregate all 7 contrastive modes need (cached by
        mask identity, so a 7-mode sweep decodes postings ONCE).  The
        per-posting arithmetic is numpy over the decoded (doc, tf)
        arrays; at full corpus scale this pass is the term_stats-style
        Ray job (groupby term over the analyzed artifact) — the engine
        version streams row groups through the same formulas."""
        key = (focus_mask.tobytes(), len(focus_mask))
        hit = getattr(self, "_theme_cache", {}).get(key)
        if hit is not None:
            return hit
        terms, dfv, fdfv, accv, oaccv = [], [], [], [], []
        ftfv, otfv, ftlt, ftld, otlt, otld = [], [], [], [], [], []
        for term, post in self.postings.items():
            d, tf = post.decode()
            tf = tf.astype(np.float64)
            tfpart = tf * (self.k1 + 1.0) / (tf + self.norms[d])
            m = focus_mask[d]
            logtf = np.log(tf)
            logdl = np.log(self.doc_tokens[d].astype(np.float64))
            terms.append(term)
            dfv.append(len(d))
            fdfv.append(int(m.sum()))
            accv.append(tfpart[m].sum())
            oaccv.append(tfpart[~m].sum())
            ftfv.append(tf[m].sum())
            otfv.append(tf[~m].sum())
            ftlt.append((tf[m] * logtf[m]).sum())
            ftld.append((tf[m] * logdl[m]).sum())
            otlt.append((tf[~m] * logtf[~m]).sum())
            otld.append((tf[~m] * logdl[~m]).sum())
        stats = {
            "terms": np.array(terms, dtype=object),
            "df": np.array(dfv, np.float64),
            "fdf": np.array(fdfv, np.float64),
            "acc": np.array(accv, np.float64),
            "oacc": np.array(oaccv, np.float64),
            "ftf": np.array(ftfv, np.float64),
            "otf": np.array(otfv, np.float64),
            "f_tlogt": np.array(ftlt, np.float64),
            "f_tlogdl": np.array(ftld, np.float64),
            "o_tlogt": np.array(otlt, np.float64),
            "o_tlogdl": np.array(otld, np.float64),
            "cf": np.array([float(self.cf[t]) for t in terms], np.float64),
            "focus_docs": float(focus_mask.sum()),
            "focus_tokens": float(self.doc_tokens[focus_mask].sum()),
        }
        self._theme_cache_put(key, stats)
        return stats

    def _theme_cache_put(self, key, stats) -> None:
        if not hasattr(self, "_theme_cache"):
            self._theme_cache = {}
        if len(self._theme_cache) >= 4:
            self._theme_cache.pop(next(iter(self._theme_cache)))
        self._theme_cache[key] = stats

    def _theme_stats_ray(self, focus_mask: np.ndarray) -> dict:
        """The distributed form of :meth:`_theme_stats`: a term_stats-
        style Ray job over the postings artifact (map_batches decode →
        ``groupby(term).sum``), so a theme sweep over a corpus whose
        postings don't fit one process never streams the whole artifact
        through the replica.  Each actor opens the lazy shard-sliced
        DocStatsStore once and reads the packed focus mask from the
        object store once; the shuffle moves one 11-column float row
        per (term, shard), never a posting.  Same formulas as the
        in-process pass — per-term sums differ only in float grouping
        (per-shard partials vs one concatenated array), which agrees
        at the oracle's round-6 tolerance."""
        key = (focus_mask.tobytes(), len(focus_mask), "ray")
        hit = getattr(self, "_theme_cache", {}).get(key)
        if hit is not None:
            return hit
        import ray
        import ray.data

        mask_ref = ray.put(np.packbits(focus_mask))
        cols = list(_THEME_AGG_COLS)
        agg = (
            ray.data.read_parquet(self.postings.files,
                                  columns=["term", "docs", "tfs"])
            .map_batches(
                _ThemePartial,
                fn_constructor_args=(
                    [resolve_stage(g, "doc_stats") for g in self.gen_dirs],
                    self.docstats.shard_range, self.k1, self.b,
                    self.avgdl, mask_ref, len(focus_mask)),
                batch_format="pyarrow", concurrency=(1, 8))
            .groupby("term").sum(cols)
            .to_pandas()
        )
        stats = {"terms": agg["term"].to_numpy(object)}
        for c in cols:
            stats[c] = agg[f"sum({c})"].to_numpy(np.float64)
        stats["cf"] = np.array(
            [float(self.cf[t]) for t in stats["terms"]], np.float64)
        stats["focus_docs"] = float(focus_mask.sum())
        stats["focus_tokens"] = float(self.doc_tokens[focus_mask].sum())
        self._theme_cache_put(key, stats)
        return stats

    def theme_terms(self, focus_mask: np.ndarray, k: int = 20,
                    mode: str = "BM25", min_focus_df: int = 1):
        """Rank vocabulary terms against a focus doc set — vectorized.

        Reference: ``IdfTermScorer.BM25.termScore()``
        (IdfTermScorer.java:268-360): per term, ``acc`` = Σ BM25 tf-part
        over focus docs, ``otherAcc`` over the rest; contrastive modes:

        - ``BM25``: corpus idf × acc
        - ``MINUS``: idf × (acc − otherAcc)
        - ``WEIGHTED``: idf × (1·acc − 2·otherAcc)
        - ``IRDF``: ln(1+(restDocs−restDf+0.5)/(restDf+0.5))^e × acc
        - ``RSJ``: sign-preserving ^e of the Robertson–Sparck-Jones log
          odds × acc
        - ``FACTOR``: idf × acc × ln(relFocus/relCorpus) × ln(focusTf)
        - ``DKL``: per-part KL divergence contrast
          (IdfTermScorer.java:385-520)

        Returns top-k ``(term, score)``, score desc / term asc.

        The route is chosen by postings size: above
        ``THEME_DISTRIBUTED_MIN_BYTES`` the per-term stats come from the
        Ray job (:meth:`_theme_stats_ray`) instead of the in-process
        artifact stream — both paths are oracle-green and agree at
        round-6 (asserted by test, which sets the gate to -1 to force
        the Ray job).
        """
        fm = np.asarray(focus_mask, bool)
        st = self._theme_stats_ray(fm) \
            if self.postings.total_bytes > self.THEME_DISTRIBUTED_MIN_BYTES \
            else self._theme_stats(fm)
        keep = st["fdf"] >= min_focus_df
        N = float(self.n_docs)
        df, fdf = st["df"], st["fdf"]
        acc, oacc = st["acc"], st["oacc"]
        idf = np.log(1.0 + (N - df + 0.5) / (df + 0.5)) ** self.idf_exp
        with np.errstate(divide="ignore", invalid="ignore"):
            if mode == "BM25":
                score = idf * acc
            elif mode == "MINUS":
                score = idf * (acc - oacc)
            elif mode == "WEIGHTED":
                score = idf * (acc - 2.0 * oacc)
            elif mode == "IRDF":
                other_docs = N - st["focus_docs"]
                other_df = df - fdf
                score = np.log(
                    1.0 + (other_docs - other_df + 0.5) / (other_df + 0.5)
                ) ** self.idf_exp * acc
            elif mode == "RSJ":
                other_docs = N - st["focus_docs"]
                other_df = df - fdf
                fnon = st["focus_docs"] - fdf
                onon = other_docs - other_df
                rsj = np.log(
                    ((fdf + 0.5) * (onon + 0.5))
                    / ((other_df + 0.5) * (fnon + 0.5))
                )
                score = np.copysign(np.abs(rsj) ** self.idf_exp, rsj) * acc
                score = np.where(
                    np.minimum(np.minimum(other_docs, other_df),
                               np.minimum(fnon, onon)) < 0,
                    0.0, score,
                )
            elif mode == "FACTOR":
                total = float(self.cfg["total_tokens"])
                ftf = st["ftf"]
                rel_focus = ftf / max(st["focus_tokens"], 1e-300)
                rel_corpus = st["cf"] / total
                score = idf * acc * np.log(rel_focus / rel_corpus) * np.log(ftf)
                invalid = (ftf == 0) | (st["focus_tokens"] <= 0) | (
                    rel_corpus <= 0
                )
                score = np.where(invalid, 0.0, score)
            elif mode == "DKL":
                ftf, otf = st["ftf"], st["otf"]
                focus_tokens = st["focus_tokens"]
                rest_tokens = float(self.cfg["total_tokens"]) - focus_tokens
                d_focus = (
                    st["f_tlogt"] - ftf * np.log(ftf) - st["f_tlogdl"]
                    + ftf * np.log(max(focus_tokens, 1e-300))
                ) / ftf
                d_rest = (
                    st["o_tlogt"] - otf * np.log(otf) - st["o_tlogdl"]
                    + otf * np.log(max(rest_tokens, 1e-300))
                ) / otf
                score = d_rest - d_focus
                # the reference SKIPS terms with an undefined part
                keep = keep & (ftf > 0) & (otf > 0) & (
                    focus_tokens > 0
                ) & (rest_tokens > 0)
            else:
                raise ValueError(f"unknown mode {mode!r}")
        terms = st["terms"][keep]
        score = np.asarray(score, np.float64)[keep]
        if len(terms) == 0:
            return []
        # top-k with the (score desc, term asc) tie rule, tie-safe
        kk = min(k, len(terms))
        if len(terms) > 4 * kk:
            part = np.argpartition(-score, kk - 1)[:kk]
            theta = score[part].min()
            cand = np.nonzero(score >= theta)[0]
        else:
            cand = np.arange(len(terms))
        order = sorted(cand.tolist(), key=lambda i: (-score[i], terms[i]))[:kk]
        return [(str(terms[i]), float(score[i])) for i in order]

    # -- convenience ---------------------------------------------------
    def analyzer(self):
        if self._analyzer is None:
            if self.cfg["analyzer"] == "simple":
                from ..analysis import SimpleAnalyzer

                self._analyzer = SimpleAnalyzer()
            else:
                from ..analysis import FrenchAnalyzer

                self._analyzer = FrenchAnalyzer()
        return self._analyzer

    # serving strategy — the ONE place that routes a query by its
    # number of distinct known terms: the block-max WINDOWED scorer
    # serves several (measured better p95 than the dense-accumulator
    # TAAT at both 235k and 940k docs: block-max pruning trims hot-term
    # tails), and its memory is bounded by the window, so the same
    # path serves at any corpus size.  One term uses the memoized
    # posting scan of search_wand (O(df), no windows needed).
    # search_exact remains the oracle; all paths are rank-identical by
    # test.
    def search_terms(self, terms, k: int = 10):
        qs = self._query_terms(terms)
        if len(qs) <= 1:
            return self.search_wand(qs, k)
        return self.search_block_window(qs, k)

    def warm(self, top_n: int = 512,
             span_terms: int | None = None) -> int:
        """Preload the postings of the ``top_n`` highest-cf terms (the
        Zipf head that dominates real query mixes) into the lazy store
        — bounds cold-read tail latency after open for a serving
        replica without materializing the index.  Returns the number
        of terms loaded.

        ``span_terms`` additionally warms the SPAN-serving state for
        that many hottest terms: their postings fully decode (+ BM25
        contributions memoize) and the rail's membership-probe doc_id
        columns prefetch — exactly the state the first hot span-query
        mix would build anyway (a hot∧hot conjunction block-decodes
        both Zipf-head postings on first touch; measured 1.3 s for the
        first query at 240k docs), so warming moves that cost to open
        time without raising steady-state memory.  ``None``
        auto-selects 16 when the index stores positions, 0 otherwise;
        each decoded Zipf-head posting is O(df) ints — at extreme
        corpus sizes set it to what the replica heap affords."""
        hot = self.cf.top(top_n)
        n = 0
        for t in hot:
            if t in self.postings:
                self.postings[t]
                n += 1
        if span_terms is None:
            span_terms = 16 if self._has_positions() else 0
        if span_terms:
            rail = self.rail()
            # prefetch only what the probe LRU can HOLD — warming all
            # row groups of a large artifact would scan the corpus at
            # open and self-evict everything but the tail anyway
            cap = 8 * Rail._RG_CACHE_MAX
            for _mn, _mx, fi, rg in rail._spans[:cap]:
                rail._docs_of(fi, rg)  # 8 B/doc probe columns, own LRU
            for t in hot[:span_terms]:
                if t in self.postings:
                    self.postings[t].decode()
                    self._term_contrib(t, "bm25")
        return n

    def _has_positions(self) -> bool:
        """Whether the analyzed artifact carries the positions rail
        (``keep_positions=True`` build) — probed from the first
        analyzed file's schema, never by reading data."""
        try:
            files = stage_files(self.gen_dirs[:1], "analyzed")
            return "positions" in pq.ParquetFile(
                files[0]).schema_arrow.names
        except Exception:
            return False

    def suggest_frame(self):
        """Folded (term, cf) frame for prefix/infix suggestion — built
        ONCE per handle (the index is immutable) including the ASCII
        fold, so serving replicas never pay the O(vocab) string
        materialization per request."""
        if not hasattr(self, "_suggest_frame"):
            import pandas as pd

            from ..ops.analytics import fold_ascii

            terms = list(self.lexicon)
            self._suggest_frame = pd.DataFrame({
                "term": terms,
                "cf": list(self.cf.values()),
                "folded": [fold_ascii(t) for t in terms],
            })
        return self._suggest_frame

    def document(self, doc_id: int) -> dict:
        """Stored-document fetch (the ``/doc`` op, SURVEY §3.2): the
        docs artifact row for one id, via Parquet row-group doc_id
        statistics — same pruned-read discipline as the rail."""
        if not hasattr(self, "_docs_store"):
            self._docs_store = _DocStore(
                [resolve_stage(g, "docs") for g in self.gen_dirs])
        return self._docs_store.get(doc_id)

    def root_dict(self):
        """Vocabulary-restricted root dictionary from the ``hunspell/``
        sidecar dir (FlucText.hunspell() analog) — None when the index
        was built without one."""
        if not hasattr(self, "_root_dict"):
            from ..analysis.hunspell import load_sidecars

            self._root_dict = None
            # generational index: the sidecar lives inside a generation
            # dir (the root holds only generations.json) — first found
            # wins (generations share one analyzer config)
            for d in [self.dir] + self.gen_dirs:
                rd = load_sidecars(os.path.join(d, "hunspell"))
                if rd is not None:
                    self._root_dict = rd
                    break
        return self._root_dict

    def parse(self, query: str) -> list[str]:
        """Index terms of a query string: ``query.parser.parse_query``
        over this handle's lexicon, root dictionary and df, with its
        analyzer behind the handle's :class:`~alix_ray.query.parser.
        WordMemo` (at most ``_WORD_MEMO_MAX`` texts), so each query word
        is analyzed once per handle."""
        if self._words is None:
            self._words = parser.WordMemo(self.analyzer(),
                                          self._WORD_MEMO_MAX)
        return parser.parse_query(query, self._words, self.lexicon,
                                  root_dict=self.root_dict(), df=self.df)

    def search(self, query: str, k: int = 10, exact: bool = False):
        terms = self.parse(query)
        if exact:
            return self.search_exact(terms, k)
        return self.search_terms(terms, k)
