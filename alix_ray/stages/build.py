"""Index build orchestration: staged, checkpointed, resumable.

Pipeline (SURVEY.md §7.2), each stage a Ray Data pipeline whose output
is a partitioned Parquet directory published atomically through an
``ArtifactStore`` (``stages/store.py``): the default ``RenameStore``
stages ``<stage>.tmp`` → rename (the reference's atomic dir swap,
``TeiIngester.java:336-356``; requires a shared POSIX FS), the
``store="pointer"`` mode publishes immutable versioned prefixes with
an atomic pointer PUT (the object-store protocol — no directory
renames anywhere).  Per-partition lineage rows go to the store's
manifest (journal file or PUT-only object journal).  A rerun skips
stages whose manifest entry matches the input fingerprint —
"resumable from checkpoint with per-partition lineage + metrics"
(BASELINE.json north rule).

    docs       pages → extract(+quarantine) → dedup(url) → doc_id
    analyzed   docs → actor-pool analyzer → per-doc (terms, tfs, width, tokens)
    doc_stats  analyzed projection + global sums (N, Σtokens, avgdl)
    postings   analyzed → segment encode → (bucket,shard) merge → blocks
    term_stats postings projection → per-term df/cf + dense lexicon ids
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.aggregate import Sum

from .. import B, IDF_EXP, K1
from ..codec import deleted_mask
from .analyze import extract_batch
from .docids import assign_ranks
from .postings import (
    DEFAULT_NUM_BUCKETS,
    DEFAULT_SHARD_RANGE,
    SegmentEncode,
    make_merge_fn,
)
from .store import Manifest, make_store, stage_files  # noqa: F401 (Manifest re-exported)

STAGES = ("docs", "analyzed", "doc_stats", "postings", "term_stats")


def _patch_ray_http_fs_check() -> None:
    """Ray's path resolution probes ``fsspec.implementations.http`` on
    every dataset/datasink creation and catches only
    ModuleNotFoundError.  With aiohttp absent, two threads creating
    datasets concurrently (the overlapped analyze groups) race the
    retried import and one sees a partially-initialized module — a
    plain ImportError that escapes Ray's guard.  Treat ANY ImportError
    as "not an HTTP filesystem" (it never is, locally).

    Still needed on Ray 2.49.2: ``_is_http_filesystem``
    (``ray/data/datasource/path_util.py``) still catches only
    ``ModuleNotFoundError`` around the import, and aiohttp is not a
    Ray Data dependency."""
    try:
        import ray.data.datasource.path_util as _pu
    except Exception:  # pragma: no cover - future Ray layout change
        return
    orig = _pu._is_http_filesystem
    if getattr(orig, "_alix_safe", False):
        return

    def _safe(fs):
        try:
            return orig(fs)
        except ImportError:
            return False

    _safe._alix_safe = True
    _pu._is_http_filesystem = _safe


_patch_ray_http_fs_check()


def _fingerprint(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


_SHARED_FS_VERIFIED: set[str] = set()


@ray.remote(num_cpus=0)
def _probe_visible(path: str) -> bool:
    return os.path.exists(path)


def verify_shared_fs(out_dir: str) -> None:
    """Guard the manifest/publish protocol's HARD precondition: the
    artifact dir must be one shared POSIX filesystem visible to every
    node (stage publish is a driver-side atomic dir rename;
    ``Manifest.record_partitions`` lists it with ``os.listdir``).

    - URI-style paths (``s3://…``) fail fast: object stores have no
      atomic rename — they need an ArtifactStore port with a
      manifest-pointer publish (documented in SCALING.md §artifacts).
    - On a live Ray session, a probe file written by the driver must be
      visible from a worker task; a node-local path on a real cluster
      fails here instead of silently splitting the build across disks.
    """
    if out_dir in _SHARED_FS_VERIFIED:
        return
    if "://" in out_dir:
        raise ValueError(
            f"artifact dir {out_dir!r} is a URI, not a shared-filesystem "
            "path. The publish protocols (stages/store.py) run against "
            "mounted paths: RenameStore needs a POSIX shared FS "
            "(NFS/Lustre); PointerStore (store=\"pointer\") uses only "
            "object-store primitives but URI plumbing additionally "
            "needs an fsspec filesystem threaded through the parquet "
            "readers/writers (not available in this environment)."
        )
    os.makedirs(out_dir, exist_ok=True)
    probe = os.path.join(out_dir, ".shared_fs_probe")
    with open(probe, "w") as f:
        f.write("probe")
    try:
        if ray.is_initialized():
            # target a NON-driver node when the cluster has one —
            # locality scheduling would otherwise run the probe on this
            # node and prove nothing about remote visibility
            task = _probe_visible
            try:
                my_node = ray.get_runtime_context().get_node_id()
                others = [n for n in ray.nodes()
                          if n.get("Alive") and n.get("NodeID") != my_node]
            except Exception:
                others = []
            if others:
                from ray.util.scheduling_strategies import (
                    NodeAffinitySchedulingStrategy,
                )

                task = _probe_visible.options(
                    scheduling_strategy=NodeAffinitySchedulingStrategy(
                        node_id=others[0]["NodeID"], soft=False))
            if not ray.get(task.remote(probe)):
                raise RuntimeError(
                    f"artifact dir {out_dir!r} written by the driver is "
                    "NOT visible from Ray workers — the index build "
                    "requires a shared filesystem mounted on every node."
                )
        _SHARED_FS_VERIFIED.add(out_dir)
    finally:
        os.remove(probe)


@ray.remote
def _split_file(path: str, n_parts: int) -> None:
    tbl = pq.read_table(path)
    n = tbl.num_rows
    step = (n + n_parts - 1) // n_parts
    for j, s in enumerate(range(0, n, step)):
        pq.write_table(tbl.slice(s, step), f"{path[:-8]}.s{j:03d}.parquet")
    os.remove(path)


def _split_heavy_files(dir_: str, max_bytes: int) -> None:
    """Bound each file's UNCOMPRESSED bytes (task work ∝ decoded chars,
    and repetitive heavy pages compress 10-20×, so on-disk size hides
    them).  Row caps alone miss doc-LENGTH skew: a crawl's giant pages
    cluster under few sites and url-sorted ids make them consecutive —
    one analyze task inherited the whole cluster (measured 13s
    straggler).  Oversized files are re-split by parallel remote tasks."""
    jobs = []
    for name in os.listdir(dir_):
        p = os.path.join(dir_, name)
        if not name.endswith(".parquet"):
            continue
        md = pq.read_metadata(p)
        raw = sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
        if raw > max_bytes:
            jobs.append(_split_file.remote(p, int(np.ceil(raw / max_bytes))))
    if jobs:
        ray.get(jobs)


def _write_stage(ds: ray.data.Dataset, store, stage: str,
                 manifest: Manifest, fingerprint: str, t_start=None,
                 max_file_bytes: int | None = None, **write_kwargs) -> None:
    t0 = t_start if t_start is not None else time.time()
    tmp = store.stage_begin(stage, fingerprint, clear=True)
    ds.write_parquet(tmp, **write_kwargs)
    if max_file_bytes:
        _split_heavy_files(tmp, max_file_bytes)
    final = store.stage_commit(stage, fingerprint)
    manifest.record_partitions(stage, final, fingerprint, int((time.time() - t0) * 1000))


def write_stats_shards(t: pa.Table, root: str, name: str,
                       shard_range: int) -> None:
    """Write the (doc_id, width, tokens) projection of ``t`` as
    ``root/shard=S/<name>.parquet``, hive-partitioned by shard =
    doc_id // shard_range — the key the postings merge groups by, so
    merge tasks partition-prune their norm slice."""
    stats = t.select(["doc_id", "width", "tokens"])
    shards = (stats["doc_id"].to_numpy(zero_copy_only=False)
              // shard_range).astype(np.int32)
    for s in np.unique(shards):
        sdir = os.path.join(root, f"shard={int(s)}")
        os.makedirs(sdir, exist_ok=True)
        pq.write_table(stats.filter(pa.array(shards == s)),
                       os.path.join(sdir, f"{name}.parquet"))


def drop_deleted(t: pa.Table, deleted: np.ndarray) -> pa.Table:
    """``t`` without the rows whose doc_id is in the sorted tombstone
    array ``deleted`` (both compaction plans filter with it)."""
    if not len(deleted) or not t.num_rows:
        return t
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    return t.filter(pa.array(~deleted_mask(ids, deleted)))


class IndexBuilder:
    """Builds the full index under ``out_dir``; resumable per stage.

    :meth:`build` and :meth:`compact` pick the flush plan
    (``stages/smallbuild.py``) under its row gates, else the staged
    plan below; both give the same artifacts and fingerprints."""

    # docs files are row-bounded and their uncompressed bytes bounded,
    # so the analyze stage reads balanced blocks (see _docs_from_pages)
    DOCS_ROWS_PER_FILE = 500
    DOCS_MAX_FILE_BYTES = 1_500_000
    # None → one analyze batch per (byte-bounded) block (see
    # _analyze_pipeline); ANALYZE_OVERLAP analyze groups run at a time
    ANALYZE_BATCH_SIZE = None
    ANALYZE_OVERLAP = 2
    SEGMENT_BATCH_SIZE = 8192  # rows per segment-encode batch

    def __init__(
        self,
        out_dir: str,
        analyzer: str = "french",  # "french" | "simple"
        shard_range: int = DEFAULT_SHARD_RANGE,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        idf_exp: float = IDF_EXP,
        keep_positions: bool = False,
        hunspell_resources: tuple | None = None,
        # "rename" (shared FS) | "pointer" (object store) | an
        # ArtifactStore INSTANCE (e.g. PointerStore(root, fs=<fsspec>)
        # for a real object-store URI — protocol metadata flows
        # through the fs object; bulk parquet I/O uses pyarrow's
        # native URI support in a real deployment)
        store: str = "rename",
        id_base: int = 0,
    ):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.store = make_store(out_dir, store)
        self.analyzer = analyzer
        self.shard_range = shard_range
        self.num_buckets = num_buckets
        self.idf_exp = idf_exp
        # positions (the TermRail artifact, SURVEY.md §1.3) multiply the
        # analyzed artifact size ~3-5x and BM25 needs only tf
        # (SURVEY.md §7.4.6) — off by default, on for span/phrase queries
        self.keep_positions = keep_positions
        # (dic_lines, aff_text) → compile a vocabulary-restricted
        # Hunspell sidecar after term_stats (HunspellCompiler analog)
        self.hunspell_resources = hunspell_resources
        # delta generations of an incremental index stamp doc ids
        # starting at id_base (> every existing generation's max id)
        self.id_base = int(id_base)
        self.manifest = self.store.make_manifest()

    # Above this row count the broadcast url dictionary (driver memory
    # ∝ distinct urls, ~100 B/url) flips to the fully distributed
    # sort-based path — both produce IDENTICAL ids (rank in url order).
    BROADCAST_DICT_MAX_ROWS = 20_000_000

    # -- fingerprints --------------------------------------------------
    def stage_fp(self, stage: str, upstream: str) -> str:
        """Fingerprint of ``stage`` given its upstream stage's
        fingerprint (for ``docs``: the build's input fingerprint).
        Fingerprints CHAIN, so changing any upstream parameter re-runs
        every downstream stage instead of silently mixing artifacts
        from different configurations."""
        params = {
            # id_base folds in only when nonzero so existing
            # base-index manifests stay resumable unchanged
            "docs": (self.id_base,) if self.id_base else (),
            "analyzed": (self.analyzer, self.keep_positions),
            "doc_stats": (self.shard_range,),
            "postings": (self.shard_range, self.num_buckets),
            "term_stats": (),
        }[stage]
        return _fingerprint(stage, upstream, *params)

    def fingerprints(self, fingerprint: str) -> dict[str, str]:
        """The whole five-stage chain for input ``fingerprint``."""
        fps, up = {}, fingerprint
        for stage in STAGES:
            up = fps[stage] = self.stage_fp(stage, up)
        return fps

    # -- stage 1: docs -------------------------------------------------
    def build_docs_from_pages(self, pages: ray.data.Dataset, fingerprint: str):
        """pages(url,warc_ts,html,text,lang) → docs with dense doc_id.

        Dedup/id strategy auto-selects on input size: the broadcast
        url-dictionary (fast: payload never shuffles) up to
        ``BROADCAST_DICT_MAX_ROWS``, the distributed sort-based
        assignment beyond it (``docids.dedup_assign_ids`` — the
        10^12-doc path; ids identical by construction)."""
        fp = self.stage_fp("docs", fingerprint)
        if not self.manifest.stage_done("docs", fp):
            # parquet metadata for a plain read — no scan
            self._docs_from_pages(pages, fp, pages.count())

    def _docs_from_pages(self, pages: ray.data.Dataset, fp: str,
                         n_rows: int) -> None:
        """The docs stage of ``pages`` (``n_rows`` rows) under docs
        fingerprint ``fp``."""
        t0 = time.time()
        import functools

        from .docids import (
            build_url_dictionary,
            dedup_assign_ids,
            stamp_ids_batch,
        )

        if n_rows > self.BROADCAST_DICT_MAX_ROWS:
            # distributed path: sort moves (url, ts, text …) — html is
            # dropped first so the wide exchange never carries it
            extracted = pages.map_batches(
                extract_batch, batch_format="pyarrow", zero_copy_batch=True
            )
            deduped, _n = dedup_assign_ids(extracted, id_base=self.id_base)
        else:
            # the (url, ts) dictionary pass and the html→text extraction
            # are independent — OVERLAP them (thread + materialize).
            # Materializing the extracted text is fine exactly on this
            # path: the broadcast dict is the ≤20M-row regime, where the
            # text fits the object store (beyond it the distributed
            # sort path streams end-to-end).
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=1) as ex:
                dict_fut = ex.submit(build_url_dictionary, pages)
                extracted = pages.map_batches(
                    extract_batch, batch_format="pyarrow",
                    zero_copy_batch=True,
                ).materialize()
                urls, ts = dict_fut.result()
            dict_ref = ray.put((urls, ts))
            # map-side dedup/stamp — payload never shuffles
            deduped = extracted.map_batches(
                functools.partial(stamp_ids_batch, urls_ts_ref=dict_ref,
                                  id_base=self.id_base),
                batch_format="pyarrow",
            )
        # bounded rows per file → the analyze stage reads balanced
        # blocks.  A small bound (DOCS_ROWS_PER_FILE) also disperses
        # doc-LENGTH skew: web corpora cluster giant pages under few
        # sites, and url-sorted ids put them in consecutive rows — with
        # large files one analyze task inherits the whole heavy cluster
        # (measured 14s straggler on the synthetic corpus).  At 10^12
        # scale this becomes a byte-bounded writer.
        _write_stage(deduped, self.store, "docs", self.manifest, fp,
                     t_start=t0, min_rows_per_file=self.DOCS_ROWS_PER_FILE // 2,
                     max_rows_per_file=self.DOCS_ROWS_PER_FILE,
                     max_file_bytes=self.DOCS_MAX_FILE_BYTES)

    def build_docs_from_documents(self, docs: ray.data.Dataset, fingerprint: str):
        """documents(doc_id,text,…) → docs stage (ids already dense)."""
        fp = self.stage_fp("docs", fingerprint)
        if self.manifest.stage_done("docs", fp):
            return
        _write_stage(docs, self.store, "docs", self.manifest, fp,
                     min_rows_per_file=self.DOCS_ROWS_PER_FILE // 2,
                     max_rows_per_file=self.DOCS_ROWS_PER_FILE,
                     max_file_bytes=self.DOCS_MAX_FILE_BYTES)

    # -- stage 2: analyzed --------------------------------------------
    def _analyze_pipeline(self, files: list[str]):
        import functools

        from .analyze import analyze_batch_fn

        # one block per (row-bounded) input file: read coalescing would
        # otherwise merge files into uneven straggler tasks
        docs = ray.data.read_parquet(
            files, columns=["doc_id", "text"], override_num_blocks=len(files)
        )
        # stateless tasks + per-worker cached analyzer (see
        # stages/analyze.py rationale): every warm worker participates,
        # no actor-pool fork/import at stage start
        # batch_size=None → one batch per (byte-bounded) block; an
        # explicit batch_size would re-bundle consecutive small blocks
        # and reassemble the very heavy clusters the writer dispersed
        return docs.map_batches(
            functools.partial(analyze_batch_fn, profile=self.analyzer,
                              keep_positions=self.keep_positions),
            batch_format="pyarrow",
            batch_size=self.ANALYZE_BATCH_SIZE,
        )

    GROUP_TARGET_BYTES = 512 * 1024 * 1024  # input bytes per resume unit

    def build_analyzed(self, fingerprint: str):
        """The heavy stage — split into input-file groups, each written
        atomically with its own lineage row, so an interrupted build
        resumes from the last completed group (per-partition
        checkpointing, the north-rule resume requirement).  Group count
        adapts to input size: one actor-pool spin-up per ~512 MB of
        input, so checkpoint granularity never dominates wall time at
        small scale."""
        fp = self.stage_fp("analyzed", fingerprint)
        if self.manifest.stage_done("analyzed", fp):
            return
        t_stage = time.time()
        docs_dir = self.store.resolve("docs")
        files = sorted(
            os.path.join(docs_dir, f)
            for f in os.listdir(docs_dir)
            if f.endswith(".parquet")
        )
        total = sum(os.path.getsize(f) for f in files)
        n_groups = max(1, min(int(total // self.GROUP_TARGET_BYTES),
                              len(files)))
        bounds = np.linspace(0, len(files), n_groups + 1).astype(int)
        # clear=False: the staging prefix persists across crashed
        # attempts — committed groups inside it are the resume units
        tmp = self.store.stage_begin("analyzed", fp, clear=False)
        # sweep strays: a crashed attempt under a different config can
        # have left group dirs outside this run's key set (fewer
        # groups, different bounds) — anything not expected would be
        # published as phantom documents
        # (.tmp part dirs are never valid publish content either — an
        # aborted rewrite of an expected key must not ride along)
        expected = {f"g{gi:05d}" for gi in range(n_groups)}
        for d in os.listdir(tmp):
            p = os.path.join(tmp, d)
            if os.path.isdir(p) and (
                d not in expected or d.endswith(".tmp")
            ):
                shutil.rmtree(p)
        # groups OVERLAP (bounded thread pool): each group is still an
        # atomic checkpoint, but group N+1's tasks fill the idle cores
        # during group N's straggler tail and write — the per-group
        # barrier otherwise costs ~0.3-0.5 s × groups of lost wall.
        # Ray's scheduler interleaves the two streaming jobs under the
        # global CPU cap, so there is no oversubscription.
        import threading
        from concurrent.futures import ThreadPoolExecutor

        done_parts = {
            (r.get("partition"), r.get("fingerprint"))
            for r in self.manifest.rows()
            if r.get("stage") == "analyzed" and r.get("status") == "part-done"
        }
        mlock = threading.Lock()

        def run_group(gi: int) -> None:
            gfiles = files[bounds[gi] : bounds[gi + 1]]
            if not gfiles:
                return
            gkey = f"g{gi:05d}"
            gfp = _fingerprint(fp, gkey, *gfiles)
            if self.store.part_done(tmp, gkey) and (gkey, gfp) in done_parts:
                return  # resumed: group already complete
            t0 = time.time()
            gtmp = self.store.part_begin(tmp, gkey)
            # NB: no min_rows_per_file coalescing here — forcing the
            # write to merge across upstream blocks stalls the
            # streaming pipeline (measured +3s on the hot stage); the
            # many small files cost less than that downstream
            self._analyze_pipeline(gfiles).write_parquet(gtmp)
            gdir = self.store.part_commit(tmp, gkey)
            # fold the doc_stats projection in HERE: the group's files
            # are page-cache-warm, so this read is nearly free — and
            # build_doc_stats then never re-scans the analyzed
            # artifact (a 2-column pass over 10^12 rows at full scale)
            self._write_stats_part(gdir, gkey)
            rows = sum(
                pq.read_metadata(os.path.join(gdir, f)).num_rows
                for f in os.listdir(gdir)
                if f.endswith(".parquet")
            )
            nbytes = sum(
                os.path.getsize(os.path.join(gdir, f)) for f in os.listdir(gdir)
                if f.endswith(".parquet")
            )
            with mlock:
                self.manifest.append(
                    stage="analyzed", partition=gkey, fingerprint=gfp,
                    rows=rows, bytes=nbytes, status="part-done",
                    wall_ms=int((time.time() - t0) * 1000),
                )

        with ThreadPoolExecutor(max_workers=self.ANALYZE_OVERLAP) as ex:
            # list() re-raises the first group failure (fail the stage,
            # completed groups stay checkpointed for the resume)
            list(ex.map(run_group, range(n_groups)))
        self.store.stage_commit("analyzed", fp)
        self.manifest.append(
            stage="analyzed", fingerprint=fp, status="done",
            wall_ms=int((time.time() - t_stage) * 1000),
        )

    # -- stage 3: doc_stats -------------------------------------------
    def _stats_parts_dir(self) -> str:
        # shard_range keyed: parts from a run with a different sharding
        # must never assemble into this build's doc_stats
        return os.path.join(self.out_dir,
                            f"doc_stats.parts.sr{self.shard_range}")

    def _write_stats_part(self, gdir: str, gkey: str) -> None:
        """(doc_id, width, tokens) projection of one analyzed group,
        written hive-partitioned by shard under an atomically-renamed
        per-group dir — the doc_stats stage assembles these instead of
        re-scanning `analyzed`."""
        t = pq.read_table(gdir, columns=["doc_id", "width", "tokens"])
        pdir = self._stats_parts_dir()
        os.makedirs(pdir, exist_ok=True)
        gtmp = self.store.part_begin(pdir, gkey)  # empty group → empty part
        write_stats_shards(t, gtmp, gkey, self.shard_range)
        self.store.part_commit(pdir, gkey)

    def build_doc_stats(self, fingerprint: str):
        fp = self.stage_fp("doc_stats", fingerprint)
        if self.manifest.stage_done("doc_stats", fp):
            return
        t0 = time.time()
        # SHARD-partitioned projection of `analyzed` (shard = doc_id //
        # shard_range — the key the postings merge groups by, so merge
        # tasks partition-prune their norm slice).  The projection was
        # already written per group DURING the analyze stage
        # (_write_stats_part, page-cache-warm read inside the
        # overlapped group threads); here we assemble those parts and
        # only BACKFILL groups whose part is missing (crash between the
        # group publish and its stats write, or a shard_range change).
        analyzed_dir = self.store.resolve("analyzed")
        groups = sorted(
            d for d in os.listdir(analyzed_dir)
            if os.path.isdir(os.path.join(analyzed_dir, d))
        )
        parts_root = self._stats_parts_dir()
        tmp = self.store.stage_begin("doc_stats", fp, clear=True)
        for g in groups:
            gpart = os.path.join(parts_root, g)
            if not self.store.part_done(parts_root, g):
                self._write_stats_part(os.path.join(analyzed_dir, g), g)
            for sd in os.listdir(gpart):
                src = os.path.join(gpart, sd)
                if not os.path.isdir(src):
                    continue  # part commit marker, not a shard dir
                dst = os.path.join(tmp, sd)
                os.makedirs(dst, exist_ok=True)
                for f in os.listdir(src):
                    # COPY, not move: a crash mid-assembly must leave
                    # every part intact (part_done stays true, so the
                    # resume would otherwise skip the backfill and
                    # commit a doc_stats missing the consumed rows);
                    # parts are deleted wholesale after the publish
                    self.store.copy_file(
                        os.path.join(src, f), os.path.join(dst, f))
        final = self.store.stage_commit("doc_stats", fp)
        # parts consumed — drop every parts dir (incl. stale other-
        # shard_range ones)
        for d in os.listdir(self.out_dir):
            if d.startswith("doc_stats.parts."):
                shutil.rmtree(os.path.join(self.out_dir, d),
                              ignore_errors=True)
        self.write_config(final, fp, int((time.time() - t0) * 1000))

    def write_config(self, stats_dir: str, fp_stats: str,
                     stats_wall_ms: int) -> dict:
        """Global sums (N, Σtokens, max doc_id) over the committed
        doc_stats files → ``config.json``, then the ``config`` and
        ``doc_stats`` done rows.  doc_stats is journaled done only
        AFTER its config exists: a rerun skips a done doc_stats, and
        every later stage reads the config.  Returns the config."""
        t0 = time.time()  # config wall measures ONLY the aggregate
        # Auto-select (the docids precedent): below the size cap a
        # thread pool of column-pruned driver reads over the artifact
        # files avoids a whole Ray pipeline launch (~0.5 s fixed
        # cost); beyond it the per-batch-partials pass keeps
        # everything distributed.
        stat_files = [
            os.path.join(r, n)
            for r, _d, ns in os.walk(stats_dir)
            for n in ns if n.endswith(".parquet")
        ]
        total_bytes = sum(os.path.getsize(f) for f in stat_files)
        if total_bytes <= 256 * 1024 * 1024:
            from concurrent.futures import ThreadPoolExecutor

            def fpart(path):
                t = pq.read_table(path, columns=["doc_id", "tokens"])
                return (
                    t.num_rows,
                    int(pa.compute.sum(t["tokens"]).as_py() or 0),
                    int(pa.compute.max(t["doc_id"]).as_py())
                    if t.num_rows else -1,
                )

            with ThreadPoolExecutor(max_workers=16) as ex:
                parts = list(ex.map(fpart, stat_files))
            n_docs = int(sum(p[0] for p in parts))
            total_tokens = int(sum(p[1] for p in parts))
            max_doc = int(max((p[2] for p in parts), default=-1))
        else:
            def _partial(t: pa.Table) -> pa.Table:
                return pa.table({
                    "n": pa.array([t.num_rows], pa.int64()),
                    "tok": pa.array([int(pa.compute.sum(t["tokens"]).as_py() or 0)]),
                    "maxd": pa.array([
                        int(pa.compute.max(t["doc_id"]).as_py())
                        if t.num_rows else -1
                    ]),
                })

            parts = ray.data.read_parquet(
                stats_dir, columns=["doc_id", "tokens"]
            ).map_batches(_partial, batch_format="pyarrow").take_all()
            n_docs = int(sum(p["n"] for p in parts))
            total_tokens = int(sum(p["tok"] for p in parts))
            max_doc = int(max((p["maxd"] for p in parts), default=-1))
        avgdl = total_tokens / n_docs if n_docs else 1.0
        cfg = {
            "n_docs": n_docs,
            "max_doc_id": max_doc,
            "total_tokens": total_tokens,
            "avgdl": avgdl,
            "k1": K1,
            "b": B,
            "idf_exp": self.idf_exp,
            "analyzer": self.analyzer,
            "shard_range": self.shard_range,
            "num_buckets": self.num_buckets,
            "block": 128,
        }
        # atomic single-object PUT in both modes (readers never see a
        # torn config)
        self.store.put_json(os.path.join(self.out_dir, "config.json"), cfg)
        self.manifest.append(stage="config", fingerprint=fp_stats,
                             status="done",
                             wall_ms=int((time.time() - t0) * 1000))
        self.manifest.append(stage="doc_stats", fingerprint=fp_stats,
                             status="done", wall_ms=stats_wall_ms)
        return cfg

    # -- stage 4: postings --------------------------------------------
    def build_postings(self, fingerprint: str):
        fp = self.stage_fp("postings", fingerprint)
        if self.manifest.stage_done("postings", fp):
            return
        t0 = time.time()  # include dataset creation (file listing) in wall
        cfg = self.config()
        analyzed = ray.data.read_parquet(
            self.store.resolve("analyzed"),
            columns=["doc_id", "terms", "tfs"],
        )
        segments = analyzed.map_batches(
            SegmentEncode(self.shard_range, self.num_buckets),
            batch_format="pyarrow",
            batch_size=self.SEGMENT_BATCH_SIZE,
        )
        # block-max norms come from each group's own shard slice of the
        # shard-partitioned doc_stats artifact — no global dense array
        merged = segments.groupby(["bucket", "shard"]).map_groups(
            make_merge_fn(self.store.resolve("doc_stats"),
                          cfg["avgdl"], self.shard_range),
            batch_format="pyarrow",
        )
        # small row groups: the serving engine reads postings per term
        # via row-group-pruned reads — one giant row group per file
        # would make every cold term read the whole file's blobs
        _write_stage(merged, self.store, "postings", self.manifest, fp,
                     t_start=t0, row_group_size=256)

    # -- stage 5: term_stats / lexicon --------------------------------
    # Below this artifact size the whole lexicon aggregation runs as one
    # driver-side Arrow group_by (saves ~1.5 s of fixed Ray shuffle/sort
    # launch); beyond it the distributed groupby + sort-rank path (the
    # 10^9-term web-scale lexicon) takes over — identical output.
    TERM_STATS_DRIVER_MAX_BYTES = 512 * 1024 * 1024

    def build_term_stats(self, fingerprint: str):
        fp = self.stage_fp("term_stats", fingerprint)
        if self.manifest.stage_done("term_stats", fp):
            return
        t0 = time.time()
        post_dir = self.store.resolve("postings")
        post_files = [
            os.path.join(post_dir, f) for f in os.listdir(post_dir)
            if f.endswith(".parquet")
        ]
        total_bytes = sum(os.path.getsize(f) for f in post_files)
        if total_bytes <= self.TERM_STATS_DRIVER_MAX_BYTES:
            self.write_lexicon(
                pq.read_table(post_dir, columns=["term", "df", "cf"]),
                fp, t0)
            return
        posts = ray.data.read_parquet(post_files, columns=["term", "df", "cf"])
        stats = posts.groupby("term").aggregate(
            Sum("df", alias_name="df"), Sum("cf", alias_name="cf")
        )
        with_ids = assign_ranks(stats, "term", "rank")
        with_ids = with_ids.map_batches(
            lambda t: t.append_column(
                "term_id",
                pa.array(t["rank"].to_numpy(zero_copy_only=False) + 1, pa.int32()),
            ).drop_columns(["rank"]),
            batch_format="pyarrow",
        )
        _write_stage(with_ids, self.store, "term_stats", self.manifest, fp,
                     t_start=t0)

    def write_lexicon(self, rows: pa.Table, fp: str, t0: float) -> None:
        """Driver-side term_stats: per-term sums of the (term, df, cf)
        posting rows, terms ranked lexicographically, then published."""
        g = rows.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
        g = g.take(pa.compute.sort_indices(
            g, sort_keys=[("term", "ascending")]))
        out = pa.table({
            "term": g["term"],
            "df": pa.compute.cast(g["df_sum"], pa.int64()),
            "cf": pa.compute.cast(g["cf_sum"], pa.int64()),
            # dense lexicographic ids (TermLexicon.java:1-30); id 0
            # is the absent-term sentinel, so ranks start at 1
            "term_id": pa.array(
                np.arange(1, g.num_rows + 1, dtype=np.int32)),
        })
        tmp = self.store.stage_begin("term_stats", fp, clear=True)
        pq.write_table(out, os.path.join(tmp, "part-0.parquet"))
        final = self.store.stage_commit("term_stats", fp)
        self.manifest.record_partitions(
            "term_stats", final, fp, int((time.time() - t0) * 1000))

    # -- orchestration -------------------------------------------------
    def config(self) -> dict:
        with open(os.path.join(self.out_dir, "config.json")) as f:
            return json.load(f)

    def build_from_analyzed(self, fingerprint: str) -> None:
        """doc_stats → postings → term_stats over the committed
        analyzed stage of input ``fingerprint`` — the staged tail of
        ``build`` and ``compact``."""
        fps = self.fingerprints(fingerprint)
        self.build_doc_stats(fps["analyzed"])
        self.build_postings(fps["doc_stats"])
        self.build_term_stats(fps["postings"])

    def _plan_start(self, fingerprint: str):
        """Shared-FS guard; the stage fingerprints of input
        ``fingerprint`` and the set of stages already done under them."""
        if getattr(self.store, "fs", None) is None:
            # an fsspec-backed store handles remote visibility itself;
            # the probe protocol is for plain shared-FS paths
            verify_shared_fs(self.out_dir)
        fps = self.fingerprints(fingerprint)
        return fps, {s for s, f in fps.items()
                     if self.manifest.stage_done(s, f)}

    def _flush_ok(self, done: set) -> bool:
        """Whether the flush plan can take this build: it has no
        intra-stage checkpoints (a partly done build resumes through
        the staged ones), writes through no fsspec ``pa_fs`` plumbing,
        and compiles no hunspell sidecar."""
        return (not done and getattr(self.store, "fs", None) is None
                and self.hunspell_resources is None)

    def _record_plan(self, plan: str, done: set, rows, t0: float,
                     steps_ms: dict | None = None) -> None:
        """One ``stage="build"`` manifest row (plan, input rows, wall,
        and the flush plan's step walls) per build; a rerun that finds
        every stage done appends none."""
        if len(done) < len(STAGES):
            extra = {} if steps_ms is None else {"steps_ms": steps_ms}
            self.manifest.append(stage="build", status="built", plan=plan,
                                 rows=rows,
                                 wall_ms=int((time.time() - t0) * 1000),
                                 **extra)

    def build(self, input_ds: ray.data.Dataset, input_kind: str = "pages",
              fingerprint: str = "input") -> str:
        """Build the index of ``input_ds`` under ``out_dir``.

        A pages-kind input of at most ``smallbuild.SMALL_BUILD_MAX_ROWS``
        rows runs the flush plan (``smallbuild.build_small``); a larger
        one, a documents-kind input, or a build ``_flush_ok`` declines
        runs the staged stages.  A pages input is counted once (parquet
        metadata for a plain read, one execution for a transformed one)
        and that count serves both the flush gate and the docs stage."""
        from . import smallbuild

        t0 = time.time()
        fps, done = self._plan_start(fingerprint)
        n_rows = steps_ms = None
        if input_kind == "pages" and "docs" not in done:
            n_rows = input_ds.count()
        if n_rows is not None and self._flush_ok(done) and \
                n_rows <= smallbuild.SMALL_BUILD_MAX_ROWS:
            plan = "flush"
            steps_ms = smallbuild.build_small(self, input_ds, fps)
        else:
            plan = "staged"
            if input_kind != "pages":
                self.build_docs_from_documents(input_ds, fingerprint)
            elif n_rows is not None:
                self._docs_from_pages(input_ds, fps["docs"], n_rows)
            self.build_analyzed(fps["docs"])
            self.build_from_analyzed(fingerprint)
        if self.hunspell_resources is not None:
            # HunspellCompiler.compile analog: prune the supplied dic
            # to the indexed vocabulary, annotate fr: counts, write the
            # <field>.dic/.aff sidecar pair next to the index
            from ..analysis.hunspell import compile_restricted

            ts = pq.read_table(self.store.resolve("term_stats"),
                               columns=["term", "cf"])
            term_cf = dict(zip(ts["term"].to_pylist(),
                               ts["cf"].to_pylist()))
            dic_lines, aff_text = self.hunspell_resources
            kept = compile_restricted(
                dic_lines, aff_text, term_cf,
                os.path.join(self.out_dir, "hunspell"),
            )
            self.manifest.append(stage="hunspell", status="done",
                                 rows=kept, fingerprint="sidecar")
        self._record_plan(plan, done, n_rows, t0, steps_ms)
        return self.out_dir

    def compact(self, sources: list[str], deleted: np.ndarray,
                fingerprint: str) -> str:
        """Build this index from the docs and analyzed artifacts of the
        index dirs ``sources`` minus the doc ids in the sorted array
        ``deleted``.  Doc ids are kept and analysis never re-runs, as a
        Lucene merge copies postings without re-tokenizing.  A live set
        of at most ``smallbuild.SMALL_COMPACT_MAX_ROWS`` rows runs the
        flush plan; else the staged stages run from docs on, the
        filtered analyzed rows adopted as one committed group."""
        from . import smallbuild

        t0 = time.time()
        fps, done = self._plan_start(fingerprint)
        docs_files = stage_files(sources, "docs")
        an_files = stage_files(sources, "analyzed")
        # exact: every tombstone targets one live doc of the sources
        # (validated at delete/update time)
        live = sum(json.load(open(os.path.join(s, "config.json")))["n_docs"]
                   for s in sources) - len(deleted)
        steps_ms = None
        if self._flush_ok(done) and live <= smallbuild.SMALL_COMPACT_MAX_ROWS:
            plan = "flush"
            steps_ms = smallbuild.compact_small(self, docs_files, an_files,
                                                deleted, fps)
        else:
            plan = "staged"
            del_ref = ray.put(np.asarray(deleted, np.int64))

            def drop(t: pa.Table) -> pa.Table:
                return drop_deleted(t, ray.get(del_ref))

            self.build_docs_from_documents(ray.data.read_parquet(
                docs_files).map_batches(drop, batch_format="pyarrow"),
                fingerprint)
            if "analyzed" not in done:
                t_an, gkey = time.time(), "g00000"
                tmp = self.store.stage_begin("analyzed", fps["analyzed"],
                                             clear=True)
                ray.data.read_parquet(an_files).map_batches(
                    drop, batch_format="pyarrow").write_parquet(
                        self.store.part_begin(tmp, gkey))
                self._write_stats_part(self.store.part_commit(tmp, gkey),
                                       gkey)
                self.manifest.append(
                    stage="analyzed", partition=gkey,
                    fingerprint=_fingerprint(fps["analyzed"], gkey),
                    status="part-done")
                self.store.stage_commit("analyzed", fps["analyzed"])
                self.manifest.append(
                    stage="analyzed", fingerprint=fps["analyzed"],
                    status="done", wall_ms=int((time.time() - t_an) * 1000))
            self.build_from_analyzed(fingerprint)
        self._record_plan(plan, done, live, t0, steps_ms)
        return self.out_dir

