"""Artifact store abstraction: how built index stages are committed,
resolved, and journaled.

Two implementations of one publish protocol:

- ``RenameStore`` (default) — the staged ``<stage>.tmp`` → atomic
  directory-rename publish the builder has always used.  Requires ONE
  shared POSIX filesystem mounted on every node (NFS/Lustre); guarded
  by ``build.verify_shared_fs``.
- ``PointerStore`` — the object-store protocol: every stage version is
  written under an immutable versioned prefix
  (``.versions/<stage>/<fingerprint>/``) and COMMITTED by atomically
  putting a small pointer object (``_ptr/<stage>.json``).  The only
  storage primitives used are PUT (whole-object write), GET, LIST,
  per-object DELETE, and COPY — exactly the S3-style API; there are NO
  directory renames anywhere on the publish path (single-file
  ``os.replace`` is the local simulation of an atomic single-key PUT).
  Intra-stage resume checkpoints commit with ``_SUCCESS`` marker
  objects (ignored by every parquet reader in the repo: pyarrow
  datasets skip ``_``/``.`` prefixes and ``walk_parquet`` filters on
  the ``.parquet`` suffix).  The lineage journal becomes PUT-only too
  (``ObjectManifest``: one immutable object per append under
  ``manifest.d/``).

``PointerStore`` optionally takes an **fsspec filesystem object**
(``make_store(root, "pointer", fs=...)``): every protocol write then
goes through ``fs.pipe_file`` — a true atomic single-key PUT — and
every protocol read/list/delete through the fs, so the publish path
runs against a real object-store URI with NO ``os.rename``/
``os.replace`` anywhere (asserted by ``tests/test_store.py``, which
denies both during a full fs-threaded build).  Scope: the PROTOCOL
(pointers, manifest journal, stage/part begin-commit, lineage
``record_partitions``) is fully fs-threaded; the parquet DATA PLANE
(the builder's ``ray.data``/``pq`` reads and writes) still addresses
the same root by PATH, so a remote deployment mounts the bucket
path-addressably (FUSE / DFS mount) or threads ``store.pa_fs`` (the
pyarrow wrapper exposed for exactly that) into the data-plane calls.
Without ``fs`` it runs against a local directory using single-file
``os.replace`` as the local PUT simulation.

Reference parity note: the reference publishes its Lucene index by an
atomic directory swap on one machine (TeiIngester writes + commit);
this module re-expresses that durability contract for the two storage
backends a multi-node deployment actually has.
"""

from __future__ import annotations

import json
import os
import shutil
import time


# ---------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------


class _ManifestBase:
    """Append-only lineage journal: stage/partition rows with
    fingerprints, used for stage-skip resume and bench lineage."""

    def rows(self) -> list[dict]:  # pragma: no cover - abstract
        raise NotImplementedError

    def append_rows(self, rows: list[dict]) -> None:  # pragma: no cover
        raise NotImplementedError

    def append(self, **row) -> None:
        row.setdefault("ts", time.strftime("%Y-%m-%dT%H:%M:%S"))
        self.append_rows([row])

    def stage_done(self, stage: str, fingerprint: str) -> bool:
        for r in self.rows():
            if (
                r.get("stage") == stage
                and r.get("status") == "done"
                and r.get("fingerprint") == fingerprint
            ):
                return True
        return False

    def record_partitions(self, stage: str, out_dir: str, fingerprint: str,
                          wall_ms: int) -> None:
        import pyarrow.parquet as pq
        from concurrent.futures import ThreadPoolExecutor

        fs = getattr(self, "fs", None)
        if fs is not None:
            # fs-threaded journal: LIST + ranged GETs through the
            # fsspec API, no local-path assumption on the lineage path
            infos = sorted(
                (i for i in fs.ls(out_dir, detail=True)
                 if i["name"].endswith(".parquet")),
                key=lambda i: i["name"])

            def meta(info):
                with fs.open(info["name"], "rb") as f:
                    nrows = pq.read_metadata(f).num_rows
                return (info["name"].rsplit("/", 1)[-1], nrows,
                        int(info.get("size") or 0))

            with ThreadPoolExecutor(max_workers=16) as ex:
                metas = list(ex.map(meta, infos))
        else:
            names = sorted(
                n for n in os.listdir(out_dir) if n.endswith(".parquet")
            )

            def meta(name):
                p = os.path.join(out_dir, name)
                return (name, pq.read_metadata(p).num_rows,
                        os.path.getsize(p))

            # footer reads are I/O-bound and independent — a serial
            # loop over ~1000 partition files costs ~1s of driver wall
            with ThreadPoolExecutor(max_workers=16) as ex:
                metas = list(ex.map(meta, names))
        ts = time.strftime("%Y-%m-%dT%H:%M:%S")
        rows = [
            {"stage": stage, "partition": name, "fingerprint": fingerprint,
             "rows": nrows, "bytes": nbytes, "status": "partition", "ts": ts}
            for name, nrows, nbytes in metas
        ]
        rows.append({"stage": stage, "fingerprint": fingerprint,
                     "rows": sum(r["rows"] for r in rows), "wall_ms": wall_ms,
                     "status": "done", "ts": ts})
        self.append_rows(rows)


class Manifest(_ManifestBase):
    """Journal file (``manifest.jsonl``) — shared-POSIX-FS backend."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, "manifest.jsonl")

    def rows(self) -> list[dict]:
        if not os.path.exists(self.path):
            return []
        with open(self.path) as f:
            return [json.loads(line) for line in f if line.strip()]

    def append_rows(self, rows: list[dict]) -> None:
        with open(self.path, "a") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")


class ObjectManifest(_ManifestBase):
    """PUT-only journal: each ``append`` is one immutable object under
    ``manifest.d/`` (object stores cannot append).  Object names embed
    (ns-timestamp, pid, seq) so a lexicographic list replays appends in
    order within a driver and is collision-free across drivers.  With
    an fsspec ``fs``, every PUT/LIST/GET goes through it."""

    def __init__(self, out_dir: str, fs=None):
        self.dir = os.path.join(out_dir, "manifest.d")
        self.fs = fs
        self._seq = 0

    def rows(self) -> list[dict]:
        if self.fs is not None:
            if not self.fs.isdir(self.dir):
                return []
            out: list[dict] = []
            for path in sorted(self.fs.ls(self.dir, detail=False)):
                if not path.endswith(".jsonl"):
                    continue
                text = self.fs.cat_file(path).decode()
                out.extend(json.loads(line) for line in text.splitlines()
                           if line.strip())
            return out
        if not os.path.isdir(self.dir):
            return []
        out: list[dict] = []
        for name in sorted(os.listdir(self.dir)):
            if not name.endswith(".jsonl"):
                continue
            with open(os.path.join(self.dir, name)) as f:
                out.extend(json.loads(line) for line in f if line.strip())
        return out

    def append_rows(self, rows: list[dict]) -> None:
        self._seq += 1
        name = f"{time.time_ns():020d}-{os.getpid()}-{self._seq:06d}.jsonl"
        text = "".join(json.dumps(r) + "\n" for r in rows)
        if self.fs is not None:
            self.fs.makedirs(self.dir, exist_ok=True)
            self.fs.pipe_file(os.path.join(self.dir, name), text.encode())
            return
        os.makedirs(self.dir, exist_ok=True)
        _put_text(os.path.join(self.dir, name), text)


# ---------------------------------------------------------------------
# stores
# ---------------------------------------------------------------------


def _clear_dir_objects(d: str) -> None:
    """Delete everything under ``d`` object-by-object (the DELETE-
    prefix idiom; no directory rename involved)."""
    if os.path.isdir(d):
        shutil.rmtree(d)  # locally rmtree IS per-object deletes
    os.makedirs(d, exist_ok=True)


def _put_text(path: str, text: str) -> None:
    """Atomic whole-file write — the local simulation of a single-key
    object PUT (write a unique temp object, then ``os.replace``, which
    is atomic for a single FILE; never a directory rename)."""
    tmp = f"{path}.put{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


class RenameStore:
    """Staged-dir + atomic-rename publish (shared POSIX FS)."""

    kind = "rename"
    fs = None     # uniform surface with PointerStore(fs=...)
    pa_fs = None

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def make_manifest(self) -> Manifest:
        return Manifest(self.root)

    # -- stage publish ------------------------------------------------
    def stage_begin(self, stage: str, fingerprint: str,
                    clear: bool = True) -> str:
        tmp = os.path.join(self.root, stage + ".tmp")
        if clear:
            _clear_dir_objects(tmp)
        else:
            os.makedirs(tmp, exist_ok=True)
        return tmp

    def stage_commit(self, stage: str, fingerprint: str) -> str:
        tmp = os.path.join(self.root, stage + ".tmp")
        final = os.path.join(self.root, stage)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp, final)
        # a pointer left by an earlier pointer-mode build of this root
        # would otherwise shadow the plain dir just published —
        # resolve_stage prefers pointers
        stale_ptr = os.path.join(self.root, "_ptr", f"{stage}.json")
        if os.path.exists(stale_ptr):
            os.remove(stale_ptr)
        return final

    def resolve(self, stage: str) -> str:
        return os.path.join(self.root, stage)

    # -- intra-stage resume parts -------------------------------------
    def part_begin(self, parent: str, key: str) -> str:
        tmp = os.path.join(parent, key + ".tmp")
        _clear_dir_objects(tmp)
        return tmp

    def part_commit(self, parent: str, key: str) -> str:
        tmp = os.path.join(parent, key + ".tmp")
        final = os.path.join(parent, key)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(tmp, final)
        return final

    def part_done(self, parent: str, key: str) -> bool:
        return os.path.isdir(os.path.join(parent, key))

    def part_path(self, parent: str, key: str) -> str:
        return os.path.join(parent, key)

    # -- small primitives ---------------------------------------------
    def move_file(self, src: str, dst: str) -> None:
        os.rename(src, dst)

    def copy_file(self, src: str, dst: str) -> None:
        shutil.copyfile(src, dst)

    def put_json(self, path: str, obj) -> None:
        _put_text(path, json.dumps(obj, indent=1))


class PointerStore:
    """Immutable versioned prefixes + atomic pointer commit (the
    object-store publish protocol; see module docstring).

    ``fs``: optional fsspec AbstractFileSystem — all protocol
    primitives (PUT/GET/LIST/DELETE/COPY) route through it; ``pa_fs``
    exposes the pyarrow wrapper for threading the same fs into
    data-plane ``ray.data``/``pq`` calls (the builder's data plane is
    path-addressed — see module docstring for the deployment
    contract).  Without ``fs``, local os primitives with
    ``os.replace`` as the single-key-PUT simulation."""

    kind = "pointer"

    def __init__(self, root: str, fs=None):
        self.root = root
        self.fs = fs
        self.ptr_dir = os.path.join(root, "_ptr")
        self._mkdirs(self.ptr_dir)

    @property
    def pa_fs(self):
        """pyarrow FileSystem view of ``fs`` (None without one)."""
        if self.fs is None:
            return None
        from pyarrow.fs import FSSpecHandler, PyFileSystem

        return PyFileSystem(FSSpecHandler(self.fs))

    # -- primitive adapters (fs when threaded, os otherwise) -----------
    def _mkdirs(self, d: str) -> None:
        if self.fs is not None:
            self.fs.makedirs(d, exist_ok=True)
        else:
            os.makedirs(d, exist_ok=True)

    def _clear(self, d: str) -> None:
        if self.fs is not None:
            if self.fs.exists(d):
                self.fs.rm(d, recursive=True)  # per-object DELETEs
            self.fs.makedirs(d, exist_ok=True)
        else:
            _clear_dir_objects(d)

    def _put(self, path: str, text: str) -> None:
        if self.fs is not None:
            self.fs.pipe_file(path, text.encode())  # one atomic PUT
        else:
            _put_text(path, text)

    def _exists(self, path: str) -> bool:
        return (self.fs.exists(path) if self.fs is not None
                else os.path.exists(path))

    def _read_text(self, path: str) -> str:
        if self.fs is not None:
            return self.fs.cat_file(path).decode()
        with open(path) as f:
            return f.read()

    def make_manifest(self) -> ObjectManifest:
        return ObjectManifest(self.root, fs=self.fs)

    def _version_dir(self, stage: str, fingerprint: str) -> str:
        return os.path.join(self.root, ".versions", stage, fingerprint)

    # -- stage publish ------------------------------------------------
    def stage_begin(self, stage: str, fingerprint: str,
                    clear: bool = True) -> str:
        d = self._version_dir(stage, fingerprint)
        if clear:
            self._clear(d)  # crashed attempt → delete its objects
        else:
            self._mkdirs(d)
        return d

    def stage_commit(self, stage: str, fingerprint: str) -> str:
        d = self._version_dir(stage, fingerprint)
        rel = os.path.relpath(d, self.root)
        self.put_json(
            os.path.join(self.ptr_dir, f"{stage}.json"),
            {"path": rel, "fingerprint": fingerprint,
             "ts": time.strftime("%Y-%m-%dT%H:%M:%S")},
        )
        return d

    def resolve(self, stage: str) -> str:
        ptr = os.path.join(self.ptr_dir, f"{stage}.json")
        if self._exists(ptr):
            return os.path.join(self.root,
                                json.loads(self._read_text(ptr))["path"])
        return os.path.join(self.root, stage)

    # -- intra-stage resume parts -------------------------------------
    # A part commits by PUTting a `_SUCCESS` marker object; leftover
    # objects from an uncommitted attempt are deleted per-object before
    # the rewrite.  Every parquet reader here ignores the marker
    # (pyarrow datasets skip `_` prefixes; walk_parquet filters on the
    # .parquet suffix).
    def part_begin(self, parent: str, key: str) -> str:
        # always clear: the caller only begins a part it has decided to
        # (re)write, and leftovers — including a stale _SUCCESS from a
        # crash between part_commit and the lineage row — must never
        # mix with the new attempt's objects
        d = os.path.join(parent, key)
        self._clear(d)
        return d

    def part_commit(self, parent: str, key: str) -> str:
        d = os.path.join(parent, key)
        self._put(os.path.join(d, "_SUCCESS"), "")
        return d

    def part_done(self, parent: str, key: str) -> bool:
        return self._exists(os.path.join(parent, key, "_SUCCESS"))

    def part_path(self, parent: str, key: str) -> str:
        return os.path.join(parent, key)

    # -- small primitives ---------------------------------------------
    def move_file(self, src: str, dst: str) -> None:
        # object-store move = server-side COPY + DELETE (no rename)
        if self.fs is not None:
            self.fs.copy(src, dst)
            self.fs.rm_file(src)
            return
        shutil.copyfile(src, dst)
        os.remove(src)

    def copy_file(self, src: str, dst: str) -> None:
        if self.fs is not None:
            self.fs.copy(src, dst)
            return
        shutil.copyfile(src, dst)

    def put_json(self, path: str, obj) -> None:
        self._put(path, json.dumps(obj, indent=1))

    # -- garbage collection -------------------------------------------
    def prune_versions(self) -> list[str]:
        """Delete superseded version prefixes (immutable-prefix
        publishes accumulate garbage by design).  Scoped to stages
        that HAVE a committed pointer, so a build that crashed before
        its first commit keeps its staging prefix (the analyzed resume
        checkpoints live there).  Do NOT run concurrently with a
        build: an in-progress rebuild's new prefix has no pointer yet
        and would be collected."""
        current, pointed_stages = set(), set()
        for name in self._listdir(self.ptr_dir):
            if name.endswith(".json"):
                doc = json.loads(
                    self._read_text(os.path.join(self.ptr_dir, name)))
                current.add(os.path.normpath(doc["path"]))
                pointed_stages.add(name[: -len(".json")])
        removed = []
        vroot = os.path.join(self.root, ".versions")
        for stage in self._listdir(vroot):
            if stage not in pointed_stages:
                continue  # never committed → resume state, keep
            sdir = os.path.join(vroot, stage)
            for fp in self._listdir(sdir):
                rel = os.path.normpath(os.path.relpath(
                    os.path.join(sdir, fp), self.root))
                if rel not in current:
                    if self.fs is not None:
                        self.fs.rm(os.path.join(sdir, fp), recursive=True)
                    else:
                        shutil.rmtree(os.path.join(sdir, fp))
                    removed.append(rel)
        return removed

    def _listdir(self, d: str) -> list[str]:
        if self.fs is not None:
            if not self.fs.isdir(d):
                return []
            return [p.rstrip("/").rsplit("/", 1)[-1]
                    for p in self.fs.ls(d, detail=False)]
        return os.listdir(d) if os.path.isdir(d) else []


def make_store(root: str, kind: str = "rename", fs=None):
    if not isinstance(kind, str):  # an already-constructed store
        return kind
    if kind == "rename":
        if fs is not None:
            raise ValueError("RenameStore needs a POSIX shared FS — an "
                             "fsspec-backed store must use kind='pointer'")
        return RenameStore(root)
    if kind == "pointer":
        return PointerStore(root, fs=fs)
    raise ValueError(f"unknown artifact store kind {kind!r}")


def resolve_stage(root: str, stage: str) -> str:
    """Current committed directory for ``stage`` under an index root,
    without knowing which store built it: follow the ``_ptr`` pointer
    if one exists (PointerStore build), else the plain subdirectory
    (RenameStore build).  Every reader resolves through this."""
    ptr = os.path.join(root, "_ptr", f"{stage}.json")
    if os.path.exists(ptr):
        with open(ptr) as f:
            return os.path.join(root, json.load(f)["path"])
    return os.path.join(root, stage)


def walk_parquet(dir_: str):
    """Every ``.parquet`` file under ``dir_`` (full paths, walk order)."""
    for root, _dirs, names in os.walk(dir_):
        for n in names:
            if n.endswith(".parquet"):
                yield os.path.join(root, n)


def stage_files(sources: list[str], stage: str) -> list[str]:
    """Parquet files of ``stage`` across index dirs ``sources``, sorted
    per dir."""
    return [f for src in sources
            for f in sorted(walk_parquet(resolve_stage(src, stage)))]
