"""Incremental (generational) index maintenance — add / delete / compact.

Re-expression of Lucene's ``IndexWriter`` segment protocol
(reference: ``lucene`` usage in ``Alix.java`` / SURVEY.md §1.3 —
``addDocuments`` → new segment, ``deleteDocuments`` → liveDocs bitset,
``forceMerge`` → segment rewrite) over the artifact-table layout:

- a **generation** is one complete index build (docs / analyzed /
  doc_stats / postings / term_stats + config.json) rooted in a subdir
  of the index; delta generations stamp doc ids ABOVE every existing
  generation's max id, so doc-id ranges never interleave and per-term
  shard lists across generations stay disjoint + sorted — the serving
  scorers (single-term scan / block-max window) work unchanged;
- ``generations.json`` is the ``segments_N`` analog: ONE atomically
  swapped file holding the live generation list, the live tombstone
  file list, AND the next-generation counter.  Every mutation is a
  single pointer swap — readers see the old or the new index state,
  never a torn one (a new generation and the tombstones it supersedes
  appear together; a merge retires applied tombstones in the same
  swap that publishes the merged generation);
- a crashed delta build is invisible (its dir is not referenced) and
  RESUMES on retry: the generation name comes from the state file's
  ``next`` counter (not a disk scan), so the retry lands in the same
  dir with the same fingerprint and the per-stage manifest resume
  fires;
- ``tombstones/del-*.parquet`` are the liveDocs analog: deletes mask
  search results immediately, while ALL scoring stats stay stale until
  merge (exactly Lucene's CollectionStatistics semantics — see
  ``BM25Index.__init__``);
- :meth:`IndexWriter.compact` is ``forceMerge(1)``: live generations
  merge and tombstoned rows drop WITHOUT re-running the analysis chain
  (the analyzed artifact is the copy source, as a Lucene merge copies
  postings without re-tokenizing), so the compacted index is EXACTLY
  the index a one-shot build over the live documents would produce
  (same doc ids, df, cf, scores); :meth:`IndexWriter.merge` /
  :meth:`IndexWriter.maybe_merge` are the TieredMergePolicy analog
  (bounded generation count at partial-merge cost).

Readers (:class:`~alix_ray.index.engine.BM25Index`) are snapshots:
reopen after writer operations, like ``DirectoryReader.openIfChanged``.

Scale notes: add/compact/merge inherit the build pipeline's
distribution (streaming Ray Data stages, per-partition checkpoints).
The delete-by-url lookup broadcasts the url set and filters the docs
artifact distributed — driver memory ∝ matches, not corpus.  The
``update=True`` replaced-url scan assumes the DELTA is driver-sized
(its url column is collected once); at 10^12-doc scale with huge
deltas, run compaction-time dedup instead.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..stages.build import IndexBuilder
from ..stages.store import resolve_stage, stage_files
from .engine import _load_tombstones, _min_doc_id

_STATE = "generations.json"
_LOCK = "write.lock"


class IndexLockError(RuntimeError):
    """Another live writer holds this index's write.lock."""


class _WriteLock:
    """Lucene ``write.lock`` analog: one writer per index root.

    Acquired for the duration of each mutating operation (add / delete
    / merge / compact) via O_EXCL create of ``write.lock`` holding the
    owner pid.  A lock whose pid is no longer alive is STALE (writer
    crashed after its last atomic state swap — nothing to repair) and
    is broken automatically.  On a multi-node shared FS the pid check
    is per-node, so the file also records the hostname: a foreign-host
    lock is never auto-broken (operator removes it explicitly)."""

    def __init__(self, root: str):
        self.path = os.path.join(root, _LOCK)

    def __enter__(self):
        import socket

        host_me = socket.gethostname()
        me = f"{host_me}:{os.getpid()}"
        # acquire = os.link of a fully-written temp file: the lock can
        # never exist empty (a crash between create and write would
        # otherwise wedge every future writer on an unparseable owner)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as f:
            f.write(me)
        try:
            for _ in range(3):
                try:
                    os.link(tmp, self.path)
                    return self
                except FileExistsError:
                    pass
                try:
                    with open(self.path) as f:
                        owner = f.read().strip()
                except OSError:
                    continue  # lock vanished between link and read
                host, _, pid = owner.rpartition(":")
                stale = False
                if host == host_me and pid.isdigit():
                    try:
                        os.kill(int(pid), 0)
                    except ProcessLookupError:
                        stale = True
                if not stale:
                    raise IndexLockError(
                        f"index is write-locked by {owner!r} "
                        f"({self.path}); remove the file only if that "
                        "writer is known dead")
                # break the stale lock ATOMICALLY: rename wins exactly
                # once — a racing breaker gets FileNotFoundError and
                # loops back to contend for the fresh link, so two
                # writers can never both hold the lock (read-then-
                # remove would delete a racer's freshly acquired lock)
                grave = f"{self.path}.stale.{os.getpid()}"
                try:
                    os.rename(self.path, grave)
                except FileNotFoundError:
                    continue
                try:
                    os.remove(grave)
                except OSError:
                    pass
            raise IndexLockError(f"could not acquire {self.path}")
        finally:
            try:
                os.remove(tmp)
            except OSError:
                pass

    def __exit__(self, *exc):
        try:
            os.remove(self.path)
        except OSError:
            pass


def _locked(fn):
    """Hold the index write.lock for the duration of a mutating op."""
    import functools

    @functools.wraps(fn)
    def wrapper(self, *a, **k):
        with _WriteLock(self.root):
            return fn(self, *a, **k)

    return wrapper


class IndexWriter:
    """Writer handle over a generational index rooted at ``root``.

    ``builder_kwargs`` are forwarded to each generation's
    :class:`IndexBuilder` (analyzer / shard_range / keep_positions /
    store kind …); for delta generations the base generation's config
    pins analyzer + sharding so generations can never diverge."""

    # above this delta size the update=True replaced-url lookup flips
    # from the broadcast url set (driver memory ∝ delta) to the
    # distributed co-group (one projection shuffle) — identical ids
    UPDATE_BROADCAST_MAX_ROWS = 5_000_000

    def __init__(self, root: str, **builder_kwargs):
        self.root = root
        self.builder_kwargs = dict(builder_kwargs)
        os.makedirs(root, exist_ok=True)

    # -- state ---------------------------------------------------------
    def _state(self) -> dict:
        """Current index state, normalized to format 2:
        ``{"generations": [...], "tombstones": [del-files], "next": N}``.
        A plain index dir (config.json, no state file) is adopted as
        the single generation ``"."``; a legacy format-1 state gets its
        tombstone list from a dir scan and ``next`` from a disk scan —
        both one-time migrations, the next write persists format 2."""
        p = os.path.join(self.root, _STATE)
        had_state_file = os.path.exists(p)
        if had_state_file:
            with open(p) as f:
                state = json.load(f)
        elif os.path.exists(os.path.join(self.root, "config.json")):
            state = {"generations": ["."]}
        else:
            state = {"generations": []}
        if "tombstones" not in state:
            tdir = os.path.join(self.root, "tombstones")
            state["tombstones"] = (
                sorted(f for f in os.listdir(tdir) if f.endswith(".parquet"))
                if os.path.isdir(tdir) else [])
        if "next" not in state:
            if had_state_file:
                # legacy format-1 migration: counter from a disk scan
                nums = [-1]
                for d in os.listdir(self.root):
                    tail = d.rpartition("-")[2]
                    if d.startswith("gen-") and tail.isdigit():
                        nums.append(int(tail))
                state["next"] = max(nums) + 1
            else:
                # virgin root / adopted plain index: start at 0 even if
                # a CRASHED gen-00000 dir lingers — the retry must land
                # in that dir and resume its stage checkpoints, not
                # skip past it (the crashed build is unreferenced, so
                # reusing the slot is always safe)
                state["next"] = 0
        state.setdefault("meta", {})
        return state

    def _write_state(self, state: dict) -> None:
        # atomic swap — readers see the old or the new state, never torn
        state = dict(state, format=2)
        tmp = os.path.join(self.root, _STATE + ".tmp")
        with open(tmp, "w") as f:
            json.dump(state, f)
        os.replace(tmp, os.path.join(self.root, _STATE))

    def generations(self) -> list[str]:
        """Live generation names (relative to root)."""
        return self._state()["generations"]

    def meta(self) -> dict:
        """Per-generation opaque meta dicts (see ``add_documents``);
        merges/compactions carry them forward (list values concat)."""
        return dict(self._state()["meta"])

    def _gen_dir(self, name: str) -> str:
        return os.path.normpath(os.path.join(self.root, name))

    def _gen_cfgs(self, gens=None) -> list[dict]:
        out = []
        for g in gens if gens is not None else self.generations():
            with open(os.path.join(self._gen_dir(g), "config.json")) as f:
                out.append(json.load(f))
        return out

    def _keep_positions(self, gen: str) -> bool:
        fs = stage_files([self._gen_dir(gen)], "analyzed")
        return bool(fs) and "positions" in pq.read_schema(fs[0]).names

    def _builder(self, gen_dir: str, id_base: int = 0,
                 like: dict | None = None) -> IndexBuilder:
        kw = dict(self.builder_kwargs)
        if like is not None:
            kw["analyzer"] = like["analyzer"]
            kw["shard_range"] = like["shard_range"]
            kw["num_buckets"] = like["num_buckets"]
            kw["idf_exp"] = like["idf_exp"]
        return IndexBuilder(gen_dir, id_base=id_base, **kw)

    # -- operations ----------------------------------------------------
    @_locked
    def add_documents(self, ds: ray.data.Dataset,
                      input_kind: str = "pages",
                      update: bool = False,
                      fingerprint_extra: str = "",
                      meta: dict | None = None) -> str:
        """Index ``ds`` as a new generation.

        pages-kind inputs get doc ids assigned at ``max_doc_id + 1``
        (url-rank within the delta, offset above every existing id);
        documents-kind inputs must arrive with ids already above the
        existing range (asserted via Parquet stats).  ``update=True``
        (pages only) tombstones older docs whose url reappears in the
        delta — Lucene's ``updateDocument`` delete-then-add; the new
        generation and the tombstones for the docs it supersedes
        publish in ONE state swap.

        ``fingerprint_extra`` folds into the build fingerprint: pass a
        digest of the INPUT (e.g. the backlog file list) whenever two
        retries of the same generation slot could carry different data
        — a changed input then rebuilds every stage instead of
        resuming stale checkpoints.  ``meta`` is an opaque dict stored
        in the SAME state swap that publishes the generation (so e.g.
        an ingestion ledger can never desynchronize from the index);
        merges concatenate list values across source generations.

        The generation is built by ``IndexBuilder.build``, which picks
        the flush or the staged plan exactly as for a base build."""
        state = self._state()
        gens = state["generations"]
        name = f"gen-{state['next']:05d}"
        gdir = self._gen_dir(name)
        fp = f"gen:{name}" + (f":{fingerprint_extra}"
                              if fingerprint_extra else "")
        new_meta = dict(state["meta"])
        if meta is not None:
            new_meta[name] = meta
        if gens:
            cfgs = self._gen_cfgs(gens)
            id_base = max(c["max_doc_id"] for c in cfgs) + 1
            b = self._builder(gdir, id_base=id_base, like=cfgs[0])
            b.keep_positions = self._keep_positions(gens[0])
        else:
            b = self._builder(gdir)
        b.build(ds, input_kind=input_kind, fingerprint=fp)
        tombs = list(state["tombstones"])
        if gens and input_kind == "documents":
            lo = _min_doc_id(resolve_stage(gdir, "docs"))
            if lo is not None and lo < id_base:
                raise ValueError(
                    f"documents-kind delta carries doc_id {lo} below the "
                    f"existing id range (needs ≥ {id_base}) — ids across "
                    "generations must never interleave")
        if gens and update:
            if input_kind != "pages":
                raise ValueError("update=True needs url-keyed (pages) input")
            with open(os.path.join(gdir, "config.json")) as f:
                n_new = json.load(f)["n_docs"]
            if n_new > self.UPDATE_BROADCAST_MAX_ROWS:
                # huge delta: the url set no longer fits the driver —
                # coarse hash-partitioned co-group of (url, doc_id)
                # projections (payload never moves), the docids
                # auto-select precedent
                replaced = self._find_ids_by_url_distributed(gdir, gens)
            else:
                new_urls = _read_column(resolve_stage(gdir, "docs"), "url")
                replaced = self._find_ids_by_url(new_urls, gens)
            if len(replaced):
                tombs.append(self._write_tombstone_file(replaced))
        self._write_state({"generations": gens + [name],
                           "tombstones": tombs,
                           "next": state["next"] + 1,
                           "meta": new_meta})
        return name

    @_locked
    def delete_documents(self, urls=None, doc_ids=None) -> int:
        """Tombstone documents by url (pages-kind builds) or doc id.
        Returns the number of newly tombstoned ids."""
        if (urls is None) == (doc_ids is None):
            raise ValueError("pass exactly one of urls / doc_ids")
        state = self._state()
        gens = state["generations"]
        if doc_ids is not None:
            if isinstance(doc_ids, (str, bytes)):
                raise TypeError("doc_ids must be an iterable of ints")
            ids = np.unique(np.asarray(list(doc_ids), np.int64))
            self._check_ids_in_range(ids, gens)
        else:
            if isinstance(urls, (str, bytes)):
                raise TypeError("urls must be an iterable of strings, "
                                "not one string")
            ids = self._find_ids_by_url(list(urls), gens)
        existing = _load_tombstones(self.root)
        if len(existing):
            ids = ids[~np.isin(ids, existing)]
        if not len(ids):
            return 0
        fname = self._write_tombstone_file(ids)
        self._write_state(dict(state,
                               tombstones=state["tombstones"] + [fname]))
        return len(ids)

    @_locked
    def compact(self) -> str:
        """Merge ALL live generations, dropping tombstoned docs — the
        ``forceMerge(1)`` analog.  Doc ids are preserved; the result
        equals a one-shot build over the live documents (postings and
        stats rebuild from the merged analyzed artifact under the
        merged corpus' own avgdl, so scores are exact, not
        stale-bounded).  The new generation is built by
        ``IndexBuilder.compact``, which picks the flush or the staged
        plan by live rows."""
        state = self._state()
        gens = state["generations"]
        if not gens:
            raise ValueError("empty index — nothing to compact")
        deleted = _load_tombstones(self.root)
        if len(gens) == 1 and not len(deleted):
            return gens[0]  # already compact
        name = self._rebuild_from(gens, deleted, f"gen-{state['next']:05d}")
        # every tombstone is applied in the new generation — the swap
        # publishes it and retires them in one atomic step; the now-
        # unreferenced del-* files are garbage, removed best-effort
        merged_meta = _merge_metas([state["meta"].get(g) for g in gens])
        self._write_state({"generations": [name], "tombstones": [],
                           "next": state["next"] + 1,
                           "meta": {name: merged_meta} if merged_meta
                           else {}})
        shutil.rmtree(os.path.join(self.root, "tombstones"),
                      ignore_errors=True)
        return name

    @_locked
    def merge(self, names: list[str]) -> str:
        """Merge a run of ADJACENT generations into one new generation
        — the unit step of a tiered merge policy (Lucene
        TieredMergePolicy: bounded segment count without paying a full
        forceMerge).  Tombstones falling inside the merged generations'
        doc-id ranges are applied; the rest stay live — the state swap
        that publishes the merged generation also swaps in the
        consolidated remaining tombstone list, so no crash or
        concurrent open can resurrect a deleted doc.  Generations are
        listed in doc-id order and their ranges are disjoint; merging
        generations with another between them would give one posting
        row (one doc-range shard) doc ids on both sides of that
        generation's, and the engine joins a term's rows in doc order,
        so such a subset raises."""
        state = self._state()
        gens = state["generations"]
        names = list(names)
        unknown = [n for n in names if n not in gens]
        if unknown:
            raise ValueError(f"not live generations: {unknown}")
        if len(names) < 2:
            raise ValueError("merge needs ≥ 2 generations (use compact "
                             "for single-generation tombstone purges)")
        at = sorted(gens.index(n) for n in set(names))
        if at[-1] - at[0] + 1 != len(at):
            raise ValueError(
                f"merge needs adjacent generations, got {names} of {gens}")
        deleted = _load_tombstones(self.root)
        in_range = np.zeros(len(deleted), bool)
        for g in names:
            lo = _min_doc_id(resolve_stage(self._gen_dir(g), "docs")) or 0
            with open(os.path.join(self._gen_dir(g), "config.json")) as f:
                hi = json.load(f)["max_doc_id"]
            in_range |= (deleted >= lo) & (deleted <= hi)
        name = self._rebuild_from(names, deleted[in_range],
                                  f"gen-{state['next']:05d}")
        survivors = [g for g in gens if g not in names] + [name]
        # deterministic order: ascending doc-id range
        survivors.sort(key=lambda g: _min_doc_id(
            resolve_stage(self._gen_dir(g), "docs")) or 0)
        remaining = deleted[~in_range]
        tombs = ([self._write_tombstone_file(remaining)]
                 if len(remaining) else [])
        old_tombs = state["tombstones"]
        new_meta = {g: m for g, m in state["meta"].items()
                    if g not in names}
        merged_meta = _merge_metas([state["meta"].get(g) for g in names])
        if merged_meta:
            new_meta[name] = merged_meta
        self._write_state({"generations": survivors, "tombstones": tombs,
                           "next": state["next"] + 1,
                           "meta": new_meta})
        for f in old_tombs:  # unreferenced now — best-effort cleanup
            try:
                os.remove(os.path.join(self.root, "tombstones", f))
            except OSError:
                pass
        return name

    def maybe_merge(self, max_generations: int = 8) -> str | None:
        """Size-tiered policy: when the generation count exceeds the
        cap, merge the adjacent run of generations with the fewest
        docs (n_docs) down to the cap in one step — open cost per
        replica is one O(lexicon) scan per generation, so the cap
        bounds it; :meth:`merge` takes adjacent generations only.
        Returns the new generation name, or None if under the cap."""
        gens = self.generations()
        if len(gens) <= max_generations:
            return None
        sizes = [c["n_docs"] for c in self._gen_cfgs(gens)]
        n_merge = len(gens) - max_generations + 1
        first = min(range(len(gens) - n_merge + 1),
                    key=lambda i: sum(sizes[i:i + n_merge]))
        return self.merge(gens[first:first + n_merge])

    @_locked
    def prune(self) -> list[str]:
        """Remove generation dirs and tombstone files no longer
        referenced by the state file (superseded by a merge/compact).
        Never touches the live set or a plain adopted base's stage
        dirs."""
        state = self._state()
        live = {self._gen_dir(g) for g in state["generations"]}
        removed = []
        for d in sorted(os.listdir(self.root)):
            p = self._gen_dir(d)
            if (d.startswith("gen-") and os.path.isdir(p)
                    and p not in live):
                shutil.rmtree(p, ignore_errors=True)
                removed.append(d)
        tdir = os.path.join(self.root, "tombstones")
        if os.path.isdir(tdir):
            for f in os.listdir(tdir):
                if f.endswith(".parquet") and f not in state["tombstones"]:
                    try:
                        os.remove(os.path.join(tdir, f))
                    except OSError:
                        pass
        return removed

    def snapshot(self, dest: str) -> dict:
        """Consistent point-in-time copy of the index — the
        SnapshotDeletionPolicy analog, trivial here because published
        artifacts are immutable: capture the state file once, then
        hard-link (falling back to copy) exactly the files it
        references.  A concurrent writer can publish new generations
        mid-snapshot without affecting the captured state; prune() of
        a superseded generation during the copy is the one race, so
        the snapshot holds the write lock."""
        with _WriteLock(self.root):
            state = self._state()
            os.makedirs(dest, exist_ok=True)

            def link_tree(src: str, dst: str) -> None:
                for r, _d, ns in os.walk(src):
                    rel = os.path.relpath(r, src)
                    od = os.path.join(dst, rel) if rel != "." else dst
                    os.makedirs(od, exist_ok=True)
                    for n in ns:
                        s, t = os.path.join(r, n), os.path.join(od, n)
                        try:
                            os.link(s, t)
                        except OSError:
                            shutil.copy2(s, t)

            n_files = 0
            for g in state["generations"]:
                src = self._gen_dir(g)
                if g == ".":
                    # adopted plain base: copy its stage dirs + config
                    for item in os.listdir(src):
                        p = os.path.join(src, item)
                        if item in (_STATE, _LOCK, "tombstones") or \
                                item.startswith("gen-"):
                            continue
                        if os.path.isdir(p):
                            link_tree(p, os.path.join(dest, item))
                        else:
                            shutil.copy2(p, os.path.join(dest, item))
                else:
                    link_tree(src, os.path.join(dest, g))
                n_files += 1
            tdir = os.path.join(self.root, "tombstones")
            if state["tombstones"]:
                os.makedirs(os.path.join(dest, "tombstones"),
                            exist_ok=True)
                for f in state["tombstones"]:
                    shutil.copy2(os.path.join(tdir, f),
                                 os.path.join(dest, "tombstones", f))
            tmp = os.path.join(dest, _STATE + ".tmp")
            with open(tmp, "w") as f:
                json.dump(dict(state, format=2), f)
            os.replace(tmp, os.path.join(dest, _STATE))
            return {"dest": dest, "generations": state["generations"],
                    "tombstones": len(state["tombstones"])}

    # -- internals -----------------------------------------------------
    def _rebuild_from(self, gens: list[str], deleted: np.ndarray,
                      name: str) -> str:
        """Build generation ``name`` from the live docs of ``gens`` minus
        ``deleted`` (``IndexBuilder.compact``: doc ids kept, the
        analysis chain never re-runs)."""
        b = self._builder(self._gen_dir(name),
                          like=self._gen_cfgs(gens[:1])[0])
        b.keep_positions = self._keep_positions(gens[0])
        # fingerprint: the source generation list + tombstone count —
        # a crashed merge resumes stage-by-stage under the same fp
        b.compact([self._gen_dir(g) for g in gens], deleted,
                  "merge:" + ",".join(gens) + f":{len(deleted)}")
        return name

    def _check_ids_in_range(self, ids: np.ndarray, gens) -> None:
        """A tombstone for an id no generation holds would silently
        skew the live-doc count forever — reject it."""
        if not len(ids):
            return
        ok = np.zeros(len(ids), bool)
        for g in gens:
            lo = _min_doc_id(resolve_stage(self._gen_dir(g), "docs")) or 0
            with open(os.path.join(self._gen_dir(g), "config.json")) as f:
                hi = json.load(f)["max_doc_id"]
            ok |= (ids >= lo) & (ids <= hi)
        if not ok.all():
            bad = ids[~ok][:10].tolist()
            raise ValueError(
                f"doc ids outside every generation's id range: {bad}")

    def _url_docs_files(self, gens) -> list[str]:
        """Docs files of the generations in ``gens`` that carry a url
        column (pages-kind builds)."""
        files = []
        for g in gens:
            fs = stage_files([self._gen_dir(g)], "docs")
            if fs and "url" in pq.read_schema(fs[0]).names:
                files += fs
        return files

    def _find_ids_by_url(self, urls, gens) -> np.ndarray:
        """Doc ids whose url is in ``urls``, across ``gens`` — a
        distributed filter of the docs artifact against the broadcast
        url set (result ∝ matches).  Generations built from
        documents-kind input carry no url column and are skipped (their
        docs are addressable by id only)."""
        uset = pa.array(sorted({str(u) for u in urls}), pa.large_string())
        if not len(uset):
            return np.empty(0, np.int64)
        files = self._url_docs_files(gens)
        if not files:
            raise ValueError(
                "url-keyed delete/update needs a pages-kind build "
                "(no generation's docs artifact has a url column)")

        def hit(t: pa.Table) -> pa.Table:
            m = pc.is_in(pc.cast(t["url"], pa.large_string()),
                         value_set=uset)
            return t.select(["doc_id"]).filter(m)

        got = ray.data.read_parquet(
            files, columns=["url", "doc_id"]
        ).map_batches(hit, batch_format="pyarrow").take_all()
        return np.unique(np.array(
            [r["doc_id"] for r in got], np.int64))

    def _find_ids_by_url_distributed(self, new_gen_dir: str,
                                     gens) -> np.ndarray:
        """Scale path of the replaced-url lookup: co-group the NEW
        generation's urls with every OLD generation's (url, doc_id)
        projection in one url-hash exchange — a few bytes/row, driver
        memory ∝ matches.  Same result as the broadcast path by
        construction."""
        import pandas as pd

        from ..ops.exchange import exchange, string_key

        new_files = stage_files([new_gen_dir], "docs")
        old_files = self._url_docs_files(gens)
        if not old_files:
            raise ValueError(
                "url-keyed update needs pages-kind generations "
                "(no docs artifact has a url column)")

        def proj(side_new):
            def fn(t: pa.Table) -> pa.Table:
                urls = pc.cast(t["url"], pa.large_string())
                ids = (np.full(t.num_rows, -1, np.int64) if side_new
                       else t["doc_id"].to_numpy(zero_copy_only=False))
                return pa.table({
                    "url": urls,
                    "doc_id": pa.array(ids, pa.int64()),
                    "pkey": pa.array(string_key(urls)),
                })
            return fn

        new = ray.data.read_parquet(new_files, columns=["url"]) \
            .map_batches(proj(True), batch_format="pyarrow")
        old = ray.data.read_parquet(old_files, columns=["url", "doc_id"]) \
            .map_batches(proj(False), batch_format="pyarrow")

        def matches(g: pd.DataFrame) -> pd.DataFrame:
            wanted = g.loc[g["doc_id"] < 0, "url"].unique()
            hit = g[(g["doc_id"] >= 0) & g["url"].isin(wanted)]
            return hit[["doc_id"]]

        got = exchange(new.union(old), matches, "pkey").take_all()
        return np.unique(np.array([r["doc_id"] for r in got], np.int64))

    def _write_tombstone_file(self, ids: np.ndarray) -> str:
        """Write one del-*.parquet; the file is INERT until a state
        swap references it (crash-orphaned files are garbage, not
        resurrections, and get reused/overwritten by name)."""
        ids = np.unique(np.asarray(ids, np.int64))
        tdir = os.path.join(self.root, "tombstones")
        os.makedirs(tdir, exist_ok=True)
        live = set(self._state()["tombstones"])
        n = 0
        while f"del-{n:05d}.parquet" in live:
            n += 1
        fname = f"del-{n:05d}.parquet"
        tmp = os.path.join(tdir, f"del-{n:05d}.tmp")
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64())}), tmp)
        os.replace(tmp, os.path.join(tdir, fname))
        return fname


def _merge_metas(metas: list) -> dict:
    """Combine per-generation meta dicts for a merge/compact: list
    values concatenate (ingestion ledgers survive merges), scalar keys
    take the last non-None value."""
    out: dict = {}
    for m in metas:
        if not m:
            continue
        for k, v in m.items():
            if isinstance(v, list) and isinstance(out.get(k), list):
                out[k] = out[k] + v
            else:
                out[k] = v
    return out


def _read_column(dir_: str, col: str) -> list:
    return pq.read_table(dir_, columns=[col])[col].to_pylist()
