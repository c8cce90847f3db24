"""ArtifactStore tests: the pointer (object-store) publish protocol
builds a working index using NO directory renames, resolves through
pointers, flips atomically on rebuild, and prunes superseded versions.
"""

import json
import os

import pytest

from conftest import staged_plan

N = 120


def _build(out, store, analyzer="french"):
    """A staged-plan build (the flush row gate below any input) with
    small analyze and segment batches."""
    from alix_ray.corpus import pages_dataset
    from alix_ray.stages.build import IndexBuilder

    b = IndexBuilder(out, analyzer=analyzer, shard_range=50, num_buckets=4,
                     store=store)
    with staged_plan():
        b.build(pages_dataset(N), input_kind="pages", fingerprint=f"p{N}")
    assert [r["plan"] for r in b.manifest.rows()
            if r["stage"] == "build"][-1:] == ["staged"]
    return b


class TestPointerStore:
    def test_no_directory_renames_and_search_parity(
        self, ray_session, tmp_path, monkeypatch
    ):
        """The whole pointer-mode build must touch only object-store
        primitives: driver-side directory renames are forbidden (we
        make os.rename raise; single-FILE os.replace stays allowed —
        it is the local simulation of an atomic single-key PUT)."""
        out_ptr = str(tmp_path / "ptr")
        out_ren = str(tmp_path / "ren")
        _build(out_ren, store="rename")

        real_rename = os.rename

        def deny_rename(src, dst, **kw):
            raise AssertionError(f"os.rename({src!r}, {dst!r}) on the "
                                 "pointer-store publish path")

        monkeypatch.setattr(os, "rename", deny_rename)
        try:
            _build(out_ptr, store="pointer")
        finally:
            monkeypatch.setattr(os, "rename", real_rename)

        # layout: versioned prefixes + pointers, no plain stage dirs
        assert os.path.isdir(os.path.join(out_ptr, ".versions"))
        for stage in ("docs", "analyzed", "doc_stats", "postings",
                      "term_stats"):
            assert os.path.exists(
                os.path.join(out_ptr, "_ptr", f"{stage}.json"))
            assert not os.path.exists(os.path.join(out_ptr, stage))

        # serving parity: identical BM25 results from both stores
        from alix_ray.index.engine import BM25Index

        a, b = BM25Index(out_ptr), BM25Index(out_ren)
        assert a.n_docs == b.n_docs and a.n_docs > 0
        terms = a.cf.top(5)
        assert terms
        for q in terms:
            assert a.search_exact([q], 10) == b.search_exact([q], 10)

    def test_fsspec_threaded_pointer_build(self, ray_session, tmp_path,
                                           monkeypatch):
        """r3-verdict directive 10: with an fsspec filesystem threaded
        through the store, every protocol write is a TRUE single-key
        PUT (fs.pipe_file) — BOTH os.rename and os.replace are denied
        driver-side for the whole build (the plain pointer test still
        allows os.replace as the local PUT simulation), and the index
        builds, resolves through pointers, journals, and serves."""
        import fsspec

        from alix_ray.stages.store import ObjectManifest, PointerStore

        fs = fsspec.filesystem("file")
        out = str(tmp_path / "fsidx")
        store = PointerStore(out, fs=fs)
        assert store.pa_fs is not None  # pyarrow wrapper for writers

        def deny(name):
            def _d(src, dst, **kw):
                raise AssertionError(
                    f"os.{name}({src!r}, {dst!r}) on the fs-threaded "
                    "publish path")
            return _d

        monkeypatch.setattr(os, "rename", deny("rename"))
        monkeypatch.setattr(os, "replace", deny("replace"))
        try:
            _build(out, store=store)
        finally:
            monkeypatch.undo()

        for stage in ("docs", "analyzed", "doc_stats", "postings",
                      "term_stats"):
            assert os.path.exists(
                os.path.join(out, "_ptr", f"{stage}.json"))
            assert not os.path.exists(os.path.join(out, stage))
        rows = ObjectManifest(out, fs=fs).rows()
        assert any(r.get("stage") == "term_stats"
                   and r.get("status") == "done" for r in rows)

        from alix_ray.index.engine import BM25Index

        ix = BM25Index(out)
        t = ix.cf.top(1)[0]
        assert ix.search_exact([t], 5)

    def test_rebuild_flips_pointer_and_prune(self, ray_session, tmp_path):
        out = str(tmp_path / "idx")
        _build(out, store="pointer", analyzer="french")
        ptr = os.path.join(out, "_ptr", "analyzed.json")
        with open(ptr) as f:
            v1 = json.load(f)["path"]

        b2 = _build(out, store="pointer", analyzer="simple")
        with open(ptr) as f:
            v2 = json.load(f)["path"]
        # changed analyzer → new immutable version, pointer flipped,
        # the old version prefix still intact until pruned
        assert v2 != v1
        assert os.path.isdir(os.path.join(out, v1))

        removed = b2.store.prune_versions()
        assert any(os.path.normpath(v1) == r for r in removed)
        assert not os.path.exists(os.path.join(out, v1))
        # current version untouched; index still serves
        from alix_ray.index.engine import BM25Index

        ix = BM25Index(out)
        t = ix.cf.top(1)[0]
        assert ix.search_exact([t], 5)

    def test_stray_group_dirs_are_swept(self, ray_session, tmp_path):
        """A crashed attempt under a different group count can leave
        group dirs in the analyzed staging prefix that this run's key
        set doesn't cover — they must be swept, not published as
        phantom documents."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        out = str(tmp_path / "idx")
        stray = os.path.join(out, "analyzed.tmp", "g99999")
        os.makedirs(stray)
        pq.write_table(pa.table({"doc_id": [10**9]}),
                       os.path.join(stray, "phantom.parquet"))
        _build(out, store="rename")
        final = os.path.join(out, "analyzed")
        assert not os.path.exists(os.path.join(final, "g99999"))

    def test_resume_skips_done_stages(self, ray_session, tmp_path):
        from alix_ray.stages.store import ObjectManifest

        out = str(tmp_path / "idx")
        _build(out, store="pointer")
        before = len(ObjectManifest(out).rows())
        _build(out, store="pointer")  # same fingerprint → all skipped
        assert len(ObjectManifest(out).rows()) == before


class TestObjectManifest:
    def test_put_only_journal_roundtrip(self, tmp_path):
        from alix_ray.stages.store import ObjectManifest

        m = ObjectManifest(str(tmp_path))
        m.append(stage="docs", fingerprint="f1", status="done")
        m.append(stage="analyzed", fingerprint="f2", status="part-done",
                 partition="g00000")
        # one immutable object per append — no file is ever appended to
        names = sorted(os.listdir(tmp_path / "manifest.d"))
        assert len(names) == 2
        assert m.stage_done("docs", "f1")
        assert not m.stage_done("docs", "f2")
        rows = m.rows()
        assert [r["stage"] for r in rows] == ["docs", "analyzed"]

    def test_record_partitions(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from alix_ray.stages.store import ObjectManifest

        d = tmp_path / "stage"
        d.mkdir()
        pq.write_table(pa.table({"x": [1, 2, 3]}), str(d / "p0.parquet"))
        m = ObjectManifest(str(tmp_path))
        m.record_partitions("docs", str(d), "fp", wall_ms=5)
        rows = m.rows()
        parts = [r for r in rows if r["status"] == "partition"]
        assert len(parts) == 1 and parts[0]["rows"] == 3
        assert m.stage_done("docs", "fp")


class TestRenameStoreParts:
    def test_part_protocol(self, tmp_path):
        from alix_ray.stages.store import RenameStore

        s = RenameStore(str(tmp_path))
        parent = str(tmp_path / "stage.tmp")
        os.makedirs(parent)
        assert not s.part_done(parent, "g0")
        d = s.part_begin(parent, "g0")
        with open(os.path.join(d, "a.parquet"), "w") as f:
            f.write("x")
        s.part_commit(parent, "g0")
        assert s.part_done(parent, "g0")
        # re-begin clears and does not see stale content after commit
        d2 = s.part_begin(parent, "g0")
        assert os.listdir(d2) == []
