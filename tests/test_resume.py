"""Kill-and-resume test (north rule: resumable from per-partition
checkpoints): a build killed mid-analyze, rerun, must skip completed
partitions and produce artifacts logically identical to an
uninterrupted build."""

import json
import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

from conftest import staged_plan

N_PAGES = 600
TESTS = os.path.dirname(os.path.abspath(__file__))

BUILD_SCRIPT = """
import sys, ray
sys.path.insert(0, {repo!r})
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
from alix_ray.corpus import pages_dataset
from alix_ray.stages.build import IndexBuilder
sys.path.insert(0, {tests!r})
from conftest import staged_plan
IndexBuilder.GROUP_TARGET_BYTES = 1  # one analyze group per docs file
with staged_plan():  # the staged plan: per-group resume
    b = IndexBuilder({out!r}, analyzer="french")
    b.build(pages_dataset({n}), input_kind="pages",
            fingerprint="resume-test")
print("BUILD-COMPLETE")
ray.shutdown()
"""


def run_build(out, timeout=None, kill_after=None):
    p = subprocess.Popen(
        [sys.executable, "-c",
         BUILD_SCRIPT.format(repo=os.path.dirname(TESTS), tests=TESTS,
                             out=out, n=N_PAGES)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,
    )
    if kill_after is not None:
        # kill once the first analyzed partition is done (mid-stage)
        manifest = os.path.join(out, "manifest.jsonl")
        deadline = time.time() + 300
        killed = False
        while time.time() < deadline:
            if os.path.exists(manifest):
                rows = [json.loads(x) for x in open(manifest) if x.strip()]
                if any(r.get("stage") == "analyzed" and
                       r.get("status") == "part-done" for r in rows):
                    os.killpg(p.pid, signal.SIGKILL)
                    killed = True
                    break
            if p.poll() is not None:
                break  # finished before we could kill (too fast) — fine
            time.sleep(0.2)
        p.wait()
        return killed
    out_text, _ = p.communicate(timeout=timeout)
    assert "BUILD-COMPLETE" in out_text
    return True


def logical_artifacts(out):
    posts = pq.read_table(os.path.join(out, "postings")).sort_by(
        [("term", "ascending"), ("shard", "ascending")])
    stats = pq.read_table(os.path.join(out, "term_stats")).sort_by("term")
    docs = pq.read_table(os.path.join(out, "doc_stats")).sort_by("doc_id")
    return (
        posts.select(["term", "shard", "df", "cf", "docs", "tfs"]).to_pylist(),
        stats.to_pylist(),
        docs.select(["doc_id", "width", "tokens"]).to_pylist(),
    )


@pytest.mark.slow
def test_kill_and_resume_identical(tmp_path):
    clean = str(tmp_path / "clean")
    resumed = str(tmp_path / "resumed")

    run_build(clean, timeout=600)

    killed = run_build(resumed, kill_after="analyzed-part")
    # whether or not the kill landed (build may be too fast), the rerun
    # must complete and reuse completed partitions
    manifest_before = []
    mpath = os.path.join(resumed, "manifest.jsonl")
    if os.path.exists(mpath):
        manifest_before = [json.loads(x) for x in open(mpath) if x.strip()]
    run_build(resumed, timeout=600)

    if killed:
        done_parts_before = {
            r["partition"] for r in manifest_before
            if r.get("stage") == "analyzed" and r.get("status") == "part-done"
        }
        rows_after = [json.loads(x) for x in open(mpath) if x.strip()]
        redone = [
            r for r in rows_after[len(manifest_before):]
            if r.get("stage") == "analyzed" and r.get("status") == "part-done"
            and r.get("partition") in done_parts_before
        ]
        assert not redone, "completed partitions were re-analyzed"

    for out in (clean, resumed):
        assert [r["plan"] for r in map(json.loads, open(
            os.path.join(out, "manifest.jsonl")))
            if r["stage"] == "build"] == ["staged"]
    assert logical_artifacts(clean) == logical_artifacts(resumed)


def test_changed_analyzer_rebuilds_downstream(ray_session, tmp_path):
    """ADVICE round-1 (medium): rebuilding into an existing out_dir
    with a DIFFERENT analyzer must re-run doc_stats/postings/
    term_stats, not skip them as 'done' against the old analyzer."""
    import json
    import os

    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.stages.build import IndexBuilder

    out = str(tmp_path / "ix")
    rows = [{"doc_id": i, "text": f"Le chat w{i} dort ici"} for i in range(6)]

    b1 = IndexBuilder(out, analyzer="simple")
    b1.build(ray.data.from_items(rows), input_kind="documents",
             fingerprint="same-input")
    terms_simple = set(BM25Index(out).lexicon)

    # same out_dir, same input fingerprint, DIFFERENT analyzer
    b2 = IndexBuilder(out, analyzer="french")
    b2.build(ray.data.from_items(rows), input_kind="documents",
             fingerprint="same-input")
    terms_french = set(BM25Index(out).lexicon)

    # the french chain lemmatizes/stops differently — if postings had
    # been skipped as 'done', the lexicon would still be the simple one
    assert terms_simple != terms_french
    # and the config records the new analyzer
    cfg = json.load(open(os.path.join(out, "config.json")))
    assert cfg["analyzer"] == "french"


def test_shared_fs_guard(tmp_path, ray_session):
    """Artifact-store precondition guard: URI dirs fail fast; a local
    shared dir passes the driver->worker visibility probe."""
    import pytest

    from alix_ray.stages.build import verify_shared_fs

    with pytest.raises(ValueError, match="shared-filesystem"):
        verify_shared_fs("s3://bucket/index")
    # local dir: probe file must be visible from a Ray worker task
    verify_shared_fs(str(tmp_path / "idx"))
    # memoized second call is a no-op
    verify_shared_fs(str(tmp_path / "idx"))


def test_config_crash_resumes(ray_session, tmp_path, monkeypatch):
    """A build that dies writing config.json — after doc_stats is
    committed — must complete on rerun, with artifacts equal to a
    clean build's (doc_stats is journaled done only after its config
    exists, so the rerun redoes it instead of skipping to postings)."""
    from alix_ray.corpus import pages_dataset
    from alix_ray.stages.build import IndexBuilder
    from alix_ray.stages.store import RenameStore

    def build(out):
        with staged_plan():  # its rerun resumes stage by stage
            IndexBuilder(out).build(pages_dataset(120), fingerprint="cfg")

    clean, crashed = str(tmp_path / "clean"), str(tmp_path / "crashed")
    build(clean)
    with monkeypatch.context() as m:
        def put_json(self, path, obj):
            raise OSError("crash writing config")

        m.setattr(RenameStore, "put_json", put_json)
        with pytest.raises(OSError):
            build(crashed)
    build(crashed)
    assert logical_artifacts(clean) == logical_artifacts(crashed)
    assert json.load(open(os.path.join(clean, "config.json"))) == \
        json.load(open(os.path.join(crashed, "config.json")))
