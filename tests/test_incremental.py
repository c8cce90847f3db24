"""Incremental index tests: add / delete / update / compact.

Oracle = a one-shot build over the same live pages: the generational
index must return the SAME (url, score) results (doc ids differ — base
ids are ranks within each generation's url sort), and after compaction
the artifact stats (df/cf per term) must match the one-shot build
exactly.  Lucene semantics pinned here: deletes mask results
immediately while df/cf stay stale until compact; n_docs (→ idf)
counts live docs only.
"""

import contextlib
import json
import os

import numpy as np
import pytest

from conftest import staged_plan

N_BASE = 120  # split at 120: url-dup pairs (i-1, i) with i%50==1 never straddle
N_ALL = 180
SHARD_RANGE = 50  # base shards {0,1,2}; delta ids from 120 share shard 2


def pages_slice(lo: int, hi: int):
    import ray.data

    from alix_ray.corpus import pages_batch

    return ray.data.range(hi - lo).map_batches(
        lambda b: pages_batch(b["id"] + lo), batch_format="numpy",
        batch_size=1024,
    )


def build_oneshot(out, lo, hi, drop_urls=()):
    from alix_ray.stages.build import IndexBuilder

    ds = pages_slice(lo, hi)
    if drop_urls:
        drop = set(drop_urls)
        ds = ds.filter(lambda r: r["url"] not in drop)
    b = IndexBuilder(out, analyzer="french", shard_range=SHARD_RANGE,
                     num_buckets=8)
    with staged_plan():  # the reference plan, many segments per merge
        b.build(ds, input_kind="pages", fingerprint=f"oneshot{lo}-{hi}")
    assert build_plans(out) == ["staged"]
    return out


def by_url(ix, res):
    return {(ix.document(d)["url"], s) for d, s in res}


def queries_for(ix, n=8, seed=11):
    """Deterministic query mix from an index's own vocabulary: Zipf
    head + mid-tail terms (the synthetic corpus vocabulary is generated,
    so queries must come from the lexicon, not a fixed word list)."""
    rng = np.random.default_rng(seed)
    head = ix.cf.top(20)
    terms = list(ix.lexicon)
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        q = [head[int(rng.integers(len(head)))] for _ in range(k)]
        q.append(terms[int(rng.integers(len(terms)))])
        out.append(sorted(set(q)))
    return out


@pytest.fixture(scope="module")
def incr(ray_session, tmp_path_factory):
    """Generational index (base + delta) and the full one-shot oracle."""
    from alix_ray.index.incremental import IndexWriter

    root = str(tmp_path_factory.mktemp("incr"))
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8)
    assert w.add_documents(pages_slice(0, N_BASE)) == "gen-00000"
    assert w.add_documents(pages_slice(N_BASE, N_ALL)) == "gen-00001"
    oneshot = build_oneshot(
        str(tmp_path_factory.mktemp("oneshot")), 0, N_ALL)
    return root, oneshot, w


def test_two_generations_match_oneshot(incr):
    from alix_ray.index.engine import BM25Index

    root, oneshot, _w = incr
    ix = BM25Index(root)
    ref = BM25Index(oneshot)
    assert len(ix.gen_dirs) == 2
    assert ix.n_docs == ref.n_docs
    assert ix.avgdl == ref.avgdl
    # merged lexicon stats equal the global build's
    assert len(ix.lexicon) == len(ref.lexicon)
    for t in ref.cf.top(30):
        assert ix.df[t] == ref.df[t], t
        assert ix.cf[t] == ref.cf[t], t
    for q in queries_for(ref):
        want = by_url(ref, ref.search_exact(q, 10))
        assert by_url(ix, ix.search_exact(q, 10)) == want
        assert by_url(ix, ix.search_terms(q, 10)) == want
        assert by_url(ix, ix.search_block_window(q, 10, window=64)) == want


def test_delete_masks_all_paths(incr, tmp_path_factory):
    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    root, _oneshot, w = incr
    ix = BM25Index(root)
    qhead = ix.cf.top(2)
    # tombstone the current top-3 docs of a hot-term query
    top = ix.search_exact(qhead, 3)
    urls = [ix.document(d)["url"] for d, _ in top]
    n = w.delete_documents(urls=urls)
    assert n == 3
    assert w.delete_documents(urls=urls) == 0  # idempotent
    ix2 = BM25Index(root)  # snapshot semantics: reopen
    # scoring stats stay stale (raw N), live count is separate
    assert ix2.n_docs == ix.n_docs
    assert ix2.n_live == ix.n_live - 3
    gone = {d for d, _ in top}
    for q in queries_for(ix) + [qhead]:
        for res in (ix2.search_exact(q, 10), ix2.search_terms(q, 10),
                    ix2.search_block_window(q, 10, window=64)):
            assert not gone & {d for d, _ in res}
    # df/cf stay stale until compact (Lucene semantics)
    t0 = qhead[0]
    assert ix2.df[t0] == ix.df[t0]
    # exact/serving/window still rank-identical with tombstones present
    for q in queries_for(ix):
        want = ix2.search_exact(q, 10)
        assert ix2.search_terms(q, 10) == want
        assert ix2.search_block_window(q, 10, window=64) == want


def test_compact_equals_oneshot_live(incr, tmp_path_factory):
    import pyarrow.parquet as pq

    from alix_ray.index.engine import BM25Index, _load_tombstones
    from alix_ray.stages.store import resolve_stage

    root, _oneshot, w = incr
    deleted_urls = []
    pre = BM25Index(root)
    for d in pre.deleted:
        deleted_urls.append(pre.document(int(d))["url"])
    assert deleted_urls  # test_delete ran first (module order)
    gen = w.compact()
    assert json.load(open(os.path.join(root, "generations.json")))[
        "generations"] == [gen]
    assert len(_load_tombstones(root)) == 0
    removed = w.prune()
    assert "gen-00000" in removed and "gen-00001" in removed
    ref = build_oneshot(str(tmp_path_factory.mktemp("live")), 0, N_ALL,
                        drop_urls=deleted_urls)
    ix = BM25Index(root)
    rx = BM25Index(ref)
    assert len(ix.gen_dirs) == 1
    assert ix.n_docs == rx.n_docs
    assert ix.avgdl == rx.avgdl
    # full artifact-stats parity: df/cf per term identical
    mine = pq.read_table(resolve_stage(ix.gen_dirs[0], "term_stats"),
                         columns=["term", "df", "cf"]).to_pandas()
    theirs = pq.read_table(resolve_stage(ref, "term_stats"),
                           columns=["term", "df", "cf"]).to_pandas()
    mine = mine.sort_values("term").reset_index(drop=True)
    theirs = theirs.sort_values("term").reset_index(drop=True)
    assert mine.equals(theirs)
    for q in queries_for(rx):
        assert by_url(ix, ix.search_exact(q, 10)) == \
            by_url(rx, rx.search_exact(q, 10))
        assert ix.search_terms(q, 10) == ix.search_exact(q, 10)


def test_update_replaces_old_url(ray_session, tmp_path_factory):
    import pyarrow as pa
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter
    from alix_ray.corpus import make_page

    root = str(tmp_path_factory.mktemp("upd"))
    w = IndexWriter(root, analyzer="simple", shard_range=SHARD_RANGE,
                    num_buckets=4)
    w.add_documents(pages_slice(0, 40))
    # re-crawl of an existing url with new content
    p = make_page(7)
    new = pa.table({
        "url": pa.array([p["url"]]),
        "warc_ts": pa.array([p["warc_ts"]], pa.timestamp("us")),
        "html": pa.array([b"<html><body>zzzfresh content</body></html>"],
                         pa.binary()),
        "text": pa.array(["zzzfresh content"]),
        "lang": pa.array(["fr"]),
    })
    w.add_documents(ray.data.from_arrow(new), update=True)
    ix = BM25Index(root)
    res = ix.search_exact(["zzzfresh"], 5)
    assert len(res) == 1
    assert ix.document(res[0][0])["url"] == p["url"]
    # the OLD doc under that url is tombstoned: no query returns it
    old_hits = [d for d, _ in ix.search_exact(["zzzfresh"], 10)]
    assert len(old_hits) == 1
    assert len(ix.deleted) == 1


def test_update_distributed_path_same_ids(ray_session, tmp_path_factory):
    """The scale path of the replaced-url lookup (coarse co-group) must
    tombstone exactly the ids the broadcast path does."""
    import pyarrow as pa
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter
    from alix_ray.corpus import make_page

    def recrawl(idxs):
        rows = [make_page(i) for i in idxs]
        return ray.data.from_arrow(pa.table({
            "url": pa.array([r["url"] for r in rows]),
            "warc_ts": pa.array([r["warc_ts"] for r in rows],
                                pa.timestamp("us")),
            "html": pa.array([b"<p>recrawled body</p>"] * len(rows),
                             pa.binary()),
            "text": pa.array(["recrawled body"] * len(rows)),
            "lang": pa.array(["fr"] * len(rows)),
        }))

    roots = []
    for forced_max in (None, 0):  # broadcast path, distributed path
        root = str(tmp_path_factory.mktemp(f"updist{forced_max}"))
        w = IndexWriter(root, analyzer="simple", shard_range=SHARD_RANGE,
                        num_buckets=4)
        if forced_max is not None:
            w.UPDATE_BROADCAST_MAX_ROWS = forced_max
        w.add_documents(pages_slice(0, 40))
        w.add_documents(recrawl([3, 11, 27]), update=True)
        roots.append(root)
    a, b = BM25Index(roots[0]), BM25Index(roots[1])
    assert list(a.deleted) == list(b.deleted) and len(a.deleted) == 3
    assert a.n_live == b.n_live


def test_span_search_over_generations(ray_session, tmp_path_factory):
    """Positions build (keep_positions) across generations: span-near
    matches the same (url, score) set as a one-shot positional build;
    the rail resolves docs from every generation dir."""
    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter
    from alix_ray.stages.build import IndexBuilder

    root = str(tmp_path_factory.mktemp("spangen"))
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8, keep_positions=True)
    w.add_documents(pages_slice(0, 70))
    w.add_documents(pages_slice(70, 120))
    ref = str(tmp_path_factory.mktemp("spanref"))
    b = IndexBuilder(ref, analyzer="french", shard_range=SHARD_RANGE,
                     num_buckets=8, keep_positions=True)
    with staged_plan():  # flush-built generations vs a staged reference
        b.build(pages_slice(0, 120), input_kind="pages",
                fingerprint="spanref")
    ix, rx = BM25Index(root), BM25Index(ref)
    qs = rx.cf.top(2)
    got = ix.search_span(qs, 10, slop=8)
    want = rx.search_span(qs, 10, slop=8)
    assert by_url(ix, got) == by_url(rx, want)
    assert got  # non-vacuous: the span actually matched docs


def test_block_max_rescale_is_safe(ray_session, tmp_path_factory):
    """Generations with very different avgdl: the delta's long docs
    raise the merged avgdl far above the base build's, which makes the
    base's stored block_max bounds too small — the per-generation
    rescale must keep WAND/window rank-identical to exact."""
    import pyarrow as pa
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    def docs_ds(rows):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows]),
        }))

    root = str(tmp_path_factory.mktemp("scale"))
    w = IndexWriter(root, analyzer="simple", shard_range=16, num_buckets=4)
    # base: short docs (avgdl ~3)
    base = [(i, f"alpha beta w{i % 7}") for i in range(40)]
    w.add_documents(docs_ds(base), input_kind="documents")
    # delta: long docs (avgdl ~200) — merged avgdl ≫ base avgdl
    delta = [(40 + i, "alpha " + " ".join(
        f"filler{j % 17}" for j in range(200)) + " beta")
        for i in range(40)]
    w.add_documents(docs_ds(delta), input_kind="documents")
    ix = BM25Index(root)
    scale = ix.avgdl / json.load(
        open(os.path.join(root, "gen-00000", "config.json")))["avgdl"]
    assert scale > 2.0  # the hazard is real in this setup
    for q in (["alpha"], ["beta"], ["alpha", "beta"],
              ["alpha", "filler3"]):
        want = ix.search_exact(q, 10)
        assert ix.search_terms(q, 10) == want
        assert ix.search_block_window(q, 10, window=32) == want


def test_tiered_merge_subset(ray_session, tmp_path_factory):
    """Partial merge (TieredMergePolicy unit step): merging a subset of
    generations applies only the tombstones in their id ranges, keeps
    the rest, and serving stays identical to the unmerged index."""
    from alix_ray.index.engine import BM25Index, _load_tombstones
    from alix_ray.index.incremental import IndexWriter

    from alix_ray.index.incremental import _min_doc_id
    from alix_ray.stages.store import resolve_stage

    root = str(tmp_path_factory.mktemp("tier"))
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8)
    for lo, hi in ((0, 60), (60, 100), (100, 140), (140, 170)):
        w.add_documents(pages_slice(lo, hi))
    ix0 = BM25Index(root)
    # one tombstone inside the future merge set (gen-00001), one outside
    in_gen1 = _min_doc_id(
        resolve_stage(os.path.join(root, "gen-00001"), "docs"))
    url_in = ix0.document(in_gen1)["url"]
    url_out = ix0.document(5)["url"]
    w.delete_documents(doc_ids=[5, in_gen1])
    pre = BM25Index(root)
    new = w.merge(["gen-00001", "gen-00002"])
    assert new == "gen-00004"
    assert sorted(w.generations()) == ["gen-00000", "gen-00003",
                                       "gen-00004"]
    # the in-range tombstone was applied; the gen-00000 one remains
    assert list(_load_tombstones(root)) == [5]
    ix = BM25Index(root)
    assert ix.n_live == pre.n_live  # live count unchanged by merge
    # oracle for post-merge semantics: one-shot build WITHOUT the
    # applied doc (its stats are gone) + a tombstone for the unapplied
    # one (indexed but masked, stats stale — exactly what merge leaves)
    ref = build_oneshot(str(tmp_path_factory.mktemp("tierref")), 0, 170,
                        drop_urls=[url_in])
    IndexWriter(ref).delete_documents(urls=[url_out])
    rx = BM25Index(ref)
    assert ix.n_docs == rx.n_docs
    for q in queries_for(rx, n=5):
        got = ix.search_exact(q, 10)
        assert by_url(ix, got) == by_url(rx, rx.search_exact(q, 10))
        assert ix.search_terms(q, 10) == got
        assert ix.search_block_window(q, 10, window=64) == got

    # policy step: cap at 2 generations → merges the smallest ones
    name = w.maybe_merge(max_generations=2)
    assert name is not None and len(w.generations()) == 2
    assert w.maybe_merge(max_generations=2) is None
    ix2 = BM25Index(root)
    assert ix2.n_live == ix.n_live
    for q in queries_for(ix2, n=4):
        got = ix2.search_exact(q, 10)
        assert ix2.search_terms(q, 10) == got
        assert url_in not in {ix2.document(d)["url"] for d, _ in got}
        assert url_out not in {ix2.document(d)["url"] for d, _ in got}


def test_merge_takes_adjacent_generations(ray_session, tmp_path_factory):
    """At the default shard_range a generation is one doc-range shard,
    so merging two generations around a third would give one posting
    row doc ids on both sides of the third's.  ``merge`` refuses such a
    subset, and ``maybe_merge`` picks the adjacent run with the fewest
    docs even when the two smallest generations are not adjacent;
    serving then equals the exact scorer."""
    import pyarrow as pa
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    def docs(lo, hi):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(lo, hi), pa.int64()),
            "text": pa.array([f"hot {'odd' if i % 2 else 'even'} f{i % 7}"
                              for i in range(lo, hi)])}))

    root = str(tmp_path_factory.mktemp("adjacent"))
    w = IndexWriter(root, analyzer="simple", num_buckets=4)
    for lo, hi in ((0, 100), (100, 400), (400, 500), (500, 900)):
        w.add_documents(docs(lo, hi), input_kind="documents")
    gens = w.generations()
    with pytest.raises(ValueError, match="adjacent"):
        w.merge([gens[0], gens[2]])
    assert w.generations() == gens
    # the two smallest (100 docs each) are gens 0 and 2; the adjacent
    # pairs hold 400, 400 and 500 docs, and the first fewest is merged
    name = w.maybe_merge(max_generations=3)
    assert w.generations() == [name, gens[2], gens[3]]
    ix = BM25Index(root)
    for q in (["hot", "odd"], ["even", "f3"], ["f1", "f2", "hot"]):
        for k in (1, 10, 50):
            want = ix.search_exact(q, k)
            assert ix.search_terms(q, k) == want, (q, k)
            for window in (64, 16384):
                assert ix.search_block_window(q, k, window) == want


def test_open_refuses_interleaved_generations(ray_session,
                                              tmp_path_factory):
    """Merges once took any subset of generations, so an index on disk
    may hold a generation merged from two around a third: one posting
    row then has doc ids on both sides of the third's, and joining a
    term's rows by their last doc id would not give doc order.  Opening
    such an index, or one listing its generations out of doc-id order,
    raises and names ``compact()``, which repairs it."""
    import pyarrow as pa
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    root = str(tmp_path_factory.mktemp("interleaved"))
    w = IndexWriter(root, analyzer="simple", num_buckets=4)
    for lo in (0, 100, 200):
        w.add_documents(ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(lo, lo + 100), pa.int64()),
            "text": pa.array([f"hot f{i % 7} g{i % 3}"
                              for i in range(lo, lo + 100)])})),
            input_kind="documents")
    gens = w.generations()
    # what the subset merge of gens 0 and 2 left, written by hand
    merged = w._rebuild_from([gens[0], gens[2]], np.empty(0, np.int64),
                             "gen-00099")
    gj = os.path.join(root, "generations.json")
    with open(gj) as f:
        state = json.load(f)

    def publish(names):
        with open(gj, "w") as f:
            json.dump(dict(state, generations=names, next=100), f)

    for names in ([merged, gens[1]], gens[::-1]):
        publish(names)
        with pytest.raises(ValueError, match=r"compact\(\)"):
            BM25Index(root)
    publish([merged, gens[1]])
    w.compact()
    ix = BM25Index(root)
    assert len(ix.gen_dirs) == 1 and ix.n_docs == 300
    for q in (["hot", "f1"], ["f3", "g2"], ["f1", "f2", "g0"]):
        want = ix.search_exact(q, 10)
        assert ix.search_terms(q, 10) == want, q
        assert ix.search_block_window(q, 10, 64) == want, q


def test_mass_delete_keeps_idf_nonnegative(ray_session, tmp_path_factory):
    """Stats-staleness regression: with live-N idf, deleting most docs
    of a hot term (df > live N) would flip idf negative and break the
    WAND/window upper-bound pruning.  N stays raw (Lucene
    CollectionStatistics), so idf ≥ 0 and every path stays
    rank-identical."""
    import pyarrow as pa
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    root = str(tmp_path_factory.mktemp("massdel"))
    w = IndexWriter(root, analyzer="simple", shard_range=16, num_buckets=4)
    rows = [(i, f"alpha common w{i % 3} x{i}") for i in range(20)]
    w.add_documents(ray.data.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows]),
    })), input_kind="documents")
    w.delete_documents(doc_ids=list(range(16)))  # df(alpha)=20 > live=4
    ix = BM25Index(root)
    assert ix.n_live == 4 and ix.df["alpha"] == 20
    assert ix.idf("alpha") >= 0.0
    for q in (["alpha"], ["alpha", "common"], ["alpha", "w1"]):
        want = ix.search_exact(q, 10)
        assert all(d >= 16 for d, _ in want)
        assert ix.search_terms(q, 10) == want
        assert ix.search_block_window(q, 10, window=8) == want


def test_delete_validations(ray_session, tmp_path_factory):
    import pyarrow as pa
    import ray.data

    from alix_ray.index.incremental import IndexWriter

    root = str(tmp_path_factory.mktemp("delval"))
    w = IndexWriter(root, analyzer="simple", shard_range=16, num_buckets=4)
    w.add_documents(ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(5)), pa.int64()),
        "text": pa.array([f"a b{i}" for i in range(5)]),
    })), input_kind="documents")
    with pytest.raises(ValueError, match="outside every generation"):
        w.delete_documents(doc_ids=[999_999])
    with pytest.raises(TypeError):
        w.delete_documents(urls="http://not-a-list")
    with pytest.raises(TypeError):
        w.delete_documents(doc_ids="123")


def test_crashed_delta_resumes_same_generation(ray_session,
                                               tmp_path_factory):
    """The state file's ``next`` counter names the delta BEFORE the
    build, so a crashed add retries into the same dir + fingerprint
    and the per-stage manifest resume fires (no abandoned orphan)."""
    import pyarrow as pa
    import ray.data

    from alix_ray.index.incremental import IndexWriter

    def docs_ds(lo, hi):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(lo, hi)), pa.int64()),
            "text": pa.array([f"a b{i}" for i in range(lo, hi)]),
        }))

    root = str(tmp_path_factory.mktemp("crash"))
    w = IndexWriter(root, analyzer="simple", shard_range=16, num_buckets=4)
    w.add_documents(docs_ds(0, 8), input_kind="documents")
    # simulate a crash: build the delta generation dir fully but die
    # before the state swap (monkeypatch the swap to raise)
    orig = w._write_state
    w._write_state = lambda *_a, **_k: (_ for _ in ()).throw(
        OSError("crash before swap"))
    with pytest.raises(OSError):
        w.add_documents(docs_ds(100, 108), input_kind="documents")
    w._write_state = orig
    assert w.generations() == ["gen-00000"]  # crashed delta invisible
    assert os.path.isdir(os.path.join(root, "gen-00001"))  # dir exists
    # retry lands in the SAME generation and resumes (stages skipped →
    # the manifest keeps exactly one 'done' row per stage)
    name = w.add_documents(docs_ds(100, 108), input_kind="documents")
    assert name == "gen-00001"
    assert w.generations() == ["gen-00000", "gen-00001"]
    manifest = os.path.join(root, "gen-00001", "manifest.jsonl")
    rows = [json.loads(ln) for ln in open(manifest)]
    done = [r for r in rows
            if r.get("stage") == "postings" and r.get("status") == "done"]
    assert len(done) == 1  # built once, resumed (not rebuilt)


def test_stream_ingest_drain(ray_session, tmp_path_factory):
    """Micro-batch ingestion loop: each drain indexes only the new
    files as one delta generation; re-draining with nothing new is a
    no-op; the merge policy bounds the generation count."""
    import sys

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                    "scripts"))
    from stream_ingest import drain_once

    watch = str(tmp_path_factory.mktemp("watch"))
    root = str(tmp_path_factory.mktemp("stream"))
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8)
    pages_slice(0, 40).write_parquet(os.path.join(watch, "b0"))
    for f in os.listdir(os.path.join(watch, "b0")):
        os.rename(os.path.join(watch, "b0", f),
                  os.path.join(watch, f"b0-{f}"))
    out1 = drain_once(w, watch, max_generations=4)
    assert out1["files"] > 0 and out1["generation"] == "gen-00000"
    assert drain_once(w, watch, 4) == {"files": 0, "generation": None,
                                       "merged": None}
    pages_slice(40, 70).write_parquet(os.path.join(watch, "b1"))
    for f in os.listdir(os.path.join(watch, "b1")):
        os.rename(os.path.join(watch, "b1", f),
                  os.path.join(watch, f"b1-{f}"))
    out2 = drain_once(w, watch, max_generations=4)
    assert out2["generation"] == "gen-00001" and out2["merged"] is None
    ix = BM25Index(root)
    assert len(ix.gen_dirs) == 2
    ref = build_oneshot(str(tmp_path_factory.mktemp("streamref")), 0, 70)
    rx = BM25Index(ref)
    assert ix.n_docs == rx.n_docs
    for q in queries_for(rx, n=3):
        assert by_url(ix, ix.search_exact(q, 10)) == \
            by_url(rx, rx.search_exact(q, 10))


def test_reopen_if_changed(ray_session, tmp_path_factory):
    """DirectoryReader.openIfChanged semantics: same handle while the
    state is unchanged (warm caches kept), fresh handle after a writer
    mutation, and the fresh handle sees the mutation."""
    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    root = str(tmp_path_factory.mktemp("reopen"))
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8)
    w.add_documents(pages_slice(0, 40))
    ix = BM25Index(root)
    assert ix.reopen_if_changed() is ix  # unchanged → same handle
    w.add_documents(pages_slice(40, 60))
    ix2 = ix.reopen_if_changed()
    assert ix2 is not ix and len(ix2.gen_dirs) == 2
    assert ix2.n_docs > ix.n_docs
    assert ix2.reopen_if_changed() is ix2
    w.delete_documents(doc_ids=[int(ix2.search_exact(
        ix2.cf.top(1), 1)[0][0])])
    ix3 = ix2.reopen_if_changed()
    assert ix3 is not ix2 and len(ix3.deleted) == 1


def test_snapshot_is_consistent_and_independent(ray_session,
                                                tmp_path_factory):
    """snapshot() captures a queryable point-in-time copy; subsequent
    writer mutations (delete + compact + prune) never affect it."""
    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    root = str(tmp_path_factory.mktemp("snaproot"))
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8)
    w.add_documents(pages_slice(0, 50))
    w.add_documents(pages_slice(50, 80))
    w.delete_documents(doc_ids=[2])
    snap = str(tmp_path_factory.mktemp("snapdst") / "s1")
    info = w.snapshot(snap)
    assert len(info["generations"]) == 2 and info["tombstones"] == 1
    before = BM25Index(snap)
    q = before.cf.top(2)
    want = before.search_exact(q, 10)
    # mutate + compact + prune the ORIGINAL
    w.delete_documents(doc_ids=[70])
    w.compact()
    w.prune()
    after = BM25Index(snap)  # reopen the snapshot
    assert after.search_exact(q, 10) == want
    assert list(after.deleted) == [2]
    live = BM25Index(root)
    assert len(live.gen_dirs) == 1 and live.n_live == before.n_live - 1


def test_stream_ingest_crash_with_grown_backlog(ray_session,
                                                tmp_path_factory):
    """Crash after the delta's stages checkpoint but before the state
    swap, then MORE files arrive: the retry must rebuild the generation
    over the grown backlog (the backlog digest folds into the build
    fingerprint), not resume checkpoints missing the new files — and
    the ledger publishes atomically with the generation (no sidecar to
    desynchronize)."""
    import sys

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                    "scripts"))
    from stream_ingest import drain_once

    watch = str(tmp_path_factory.mktemp("gwatch"))
    root = str(tmp_path_factory.mktemp("gstream"))
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8)
    pages_slice(0, 30).write_parquet(os.path.join(watch, "c0"))
    for f in os.listdir(os.path.join(watch, "c0")):
        os.rename(os.path.join(watch, "c0", f),
                  os.path.join(watch, f"c0-{f}"))
    # crash the state swap: generation dir builds fully, publish fails
    orig = w._write_state
    w._write_state = lambda *_a, **_k: (_ for _ in ()).throw(
        OSError("crash before swap"))
    with pytest.raises(OSError):
        drain_once(w, watch, max_generations=8)
    w._write_state = orig
    assert w.generations() == []
    # new files arrive while the ingester is down
    pages_slice(30, 50).write_parquet(os.path.join(watch, "c1"))
    for f in os.listdir(os.path.join(watch, "c1")):
        os.rename(os.path.join(watch, "c1", f),
                  os.path.join(watch, f"c1-{f}"))
    out = drain_once(w, watch, max_generations=8)
    assert out["generation"] == "gen-00000"
    ix = BM25Index(root)
    ref = build_oneshot(str(tmp_path_factory.mktemp("gref")), 0, 50)
    rx = BM25Index(ref)
    # every file of the GROWN backlog made it in (no stale checkpoint)
    assert ix.n_docs == rx.n_docs
    # and the ledger matches the published generation exactly
    meta = w.meta()["gen-00000"]
    assert len(meta["ingested_files"]) == out["files"]
    assert drain_once(w, watch, 8)["files"] == 0  # nothing re-ingested


def test_write_lock_excludes_and_breaks_stale(ray_session,
                                              tmp_path_factory):
    """Lucene write.lock analog: a live foreign writer blocks mutating
    ops; a stale lock (dead pid, same host) breaks automatically; the
    lock releases after each op."""
    import socket

    import pyarrow as pa
    import ray.data

    from alix_ray.index.incremental import IndexLockError, IndexWriter

    root = str(tmp_path_factory.mktemp("lock"))
    w = IndexWriter(root, analyzer="simple", shard_range=16, num_buckets=4)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "text": pa.array([f"a b{i}" for i in range(6)]),
    }))
    w.add_documents(ds, input_kind="documents")
    lock = os.path.join(root, "write.lock")
    assert not os.path.exists(lock)  # released after the op
    host = socket.gethostname()
    # live same-host pid (this process) → refused
    with open(lock, "w") as f:
        f.write(f"{host}:{os.getpid()}")
    with pytest.raises(IndexLockError, match="write-locked"):
        w.delete_documents(doc_ids=[1])
    os.remove(lock)
    # dead same-host pid → stale, broken automatically
    with open(lock, "w") as f:
        f.write(f"{host}:999999999")
    assert w.delete_documents(doc_ids=[1]) == 1
    assert not os.path.exists(lock)
    # foreign-host lock → never auto-broken
    with open(lock, "w") as f:
        f.write("other-host-name:12345")
    with pytest.raises(IndexLockError, match="write-locked"):
        w.delete_documents(doc_ids=[2])
    os.remove(lock)


def test_documents_kind_id_overlap_rejected(ray_session, tmp_path_factory):
    import pyarrow as pa
    import ray.data

    from alix_ray.index.incremental import IndexWriter

    def docs_ds(rows):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows]),
        }))

    root = str(tmp_path_factory.mktemp("overlap"))
    w = IndexWriter(root, analyzer="simple", shard_range=16, num_buckets=4)
    w.add_documents(docs_ds([(i, f"a b c{i}") for i in range(10)]),
                    input_kind="documents")
    with pytest.raises(ValueError, match="interleave"):
        w.add_documents(docs_ds([(5, "dup id")]), input_kind="documents")


def test_adopt_plain_index_and_extend(ray_session, tmp_path_factory):
    """A pre-existing plain (non-generational) index becomes
    incrementally extendable in place — generation ``"."``."""
    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    root = build_oneshot(str(tmp_path_factory.mktemp("plain")), 0, 60)
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8)
    assert w.generations() == ["."]
    name = w.add_documents(pages_slice(60, 90))
    assert name == "gen-00000"
    assert w.generations() == [".", "gen-00000"]
    ix = BM25Index(root)
    ref = build_oneshot(str(tmp_path_factory.mktemp("plainref")), 0, 90)
    rx = BM25Index(ref)
    assert ix.n_docs == rx.n_docs
    for q in queries_for(rx, n=4):
        assert by_url(ix, ix.search_exact(q, 10)) == \
            by_url(rx, rx.search_exact(q, 10))


# Stage fingerprints of the two generations built below, recorded
# before the flush builder's fingerprint code was folded into
# ``IndexBuilder.fingerprints``: existing indexes and half-finished
# builds resume only while these stay byte-identical.
PINNED_FPS = {
    "gen-00000": {"docs": "b7285c9b01d8ba97a746d803",
                  "analyzed": "30b3159ad7410f195fe9f5e9",
                  "doc_stats": "8d54620ca7387a376e0188e9",
                  "config": "8d54620ca7387a376e0188e9",
                  "postings": "36b2b90a149c4ebe6e4cc6f5",
                  "term_stats": "81d1a255055feb729c814e89"},
    "gen-00001": {"docs": "3086782b07f5dd907112e1d2",
                  "analyzed": "d3286cbcb9cf217e02c2f0c7",
                  "doc_stats": "ce45f6a5ce0a671f20d5e168",
                  "config": "ce45f6a5ce0a671f20d5e168",
                  "postings": "9084c27f3f43f66ee4679d8c",
                  "term_stats": "decf00cd9543f5676c7fc164"},
    "gen-00002": {"docs": "595d504fed4460489e83512a",
                  "analyzed": "846f57e422bee3c7564d8d49",
                  "doc_stats": "21dcb2b1f4b6ae5607aaa5f6",
                  "config": "21dcb2b1f4b6ae5607aaa5f6",
                  "postings": "a0695a0658786167c3190ef7",
                  "term_stats": "99a2e3ef814baca4f1f27c8d"},
}


def done_fingerprints(gen_dir):
    rows = [json.loads(ln)
            for ln in open(os.path.join(gen_dir, "manifest.jsonl"))]
    return {r["stage"]: r["fingerprint"] for r in rows
            if r.get("status") == "done"}


def build_plans(out):
    """The ``plan`` of each ``stage="build"`` manifest row of ``out``."""
    return [r["plan"] for r in map(json.loads, open(
        os.path.join(out, "manifest.jsonl"))) if r["stage"] == "build"]


def test_small_path_matches_staged(ray_session, tmp_path_factory):
    """The single-pass flush builder (``stages/smallbuild.py``) must
    produce byte-equal artifact CONTENT to the staged five-stage
    builder for the same adds: every stage table equal after a
    canonical sort, config.json equal, search results equal, manifest
    fingerprints equal to the pinned ones.  Covers a parquet-backed
    delta, a transformed (range→map) input and a compaction that drops
    two deleted docs; the staged side is forced by setting the flush
    row gates below any input."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter
    from alix_ray.stages.store import resolve_stage

    pdir = str(tmp_path_factory.mktemp("smallpages"))
    pages_slice(0, N_BASE).write_parquet(pdir)

    roots = {}
    for mode in ("flush", "staged"):
        root = str(tmp_path_factory.mktemp(f"small{mode}"))
        w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                        num_buckets=8)
        with staged_plan() if mode == "staged" else contextlib.nullcontext():
            w.add_documents(ray.data.read_parquet(pdir))
            # second gen from a TRANSFORMED input
            w.add_documents(pages_slice(N_BASE, N_ALL))
            w.delete_documents(doc_ids=[3, 130])
            assert w.compact() == "gen-00002"
        roots[mode] = root

    sort_keys = {
        "docs": [("doc_id", "ascending")],
        "analyzed": [("doc_id", "ascending")],
        "doc_stats": [("doc_id", "ascending")],
        "postings": [("term", "ascending"), ("shard", "ascending")],
        "term_stats": [("term", "ascending")],
    }
    for gen in ("gen-00000", "gen-00001", "gen-00002"):
        for stage, keys in sort_keys.items():
            ta, tb = (
                pq.read_table(resolve_stage(
                    os.path.join(roots[m], gen), stage))
                for m in ("flush", "staged"))
            ta = ta.take(pc.sort_indices(ta, sort_keys=keys))
            tb = tb.take(pc.sort_indices(tb, sort_keys=keys))
            tb = tb.select(ta.schema.names).cast(ta.schema)
            assert ta.equals(tb), f"{gen}/{stage} diverges"
        ca, cb = (
            json.load(open(os.path.join(roots[m], gen, "config.json")))
            for m in ("flush", "staged"))
        assert ca == cb
        for m in ("flush", "staged"):
            assert done_fingerprints(os.path.join(roots[m], gen)) == \
                PINNED_FPS[gen], f"{m}/{gen} fingerprints changed"
            assert build_plans(os.path.join(roots[m], gen)) == [m]
    ixa, ixb = BM25Index(roots["flush"]), BM25Index(roots["staged"])
    for q in queries_for(ixb, n=4):
        assert by_url(ixa, ixa.search_exact(q, 10)) == \
            by_url(ixb, ixb.search_exact(q, 10))


def test_flush_writes_one_stats_file_per_shard(ray_session,
                                               tmp_path_factory):
    """A flush build of a several-block input and a flush compact of
    several analyzed files each leave ONE doc_stats file per shard dir,
    and those files hold every doc of the generation exactly once."""
    import pyarrow.parquet as pq
    import ray.data

    from alix_ray.corpus import pages_batch
    from alix_ray.index.incremental import IndexWriter
    from alix_ray.stages.store import resolve_stage

    root = str(tmp_path_factory.mktemp("statsfiles"))
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8)
    pages = pages_batch(np.arange(N_BASE))
    blocks = [pages.slice(lo, 30) for lo in range(0, N_BASE, 30)]
    assert w.add_documents(ray.data.from_arrow(blocks)) == "gen-00000"
    assert w.add_documents(pages_slice(N_BASE, N_ALL)) == "gen-00001"
    w.delete_documents(doc_ids=[3, 130])
    assert w.compact() == "gen-00002"
    for gen, n_files in (("gen-00000", 4), ("gen-00002", 2)):
        g = os.path.join(root, gen)
        analyzed = [f for _, _, fs in os.walk(resolve_stage(g, "analyzed"))
                    for f in fs if f.endswith(".parquet")]
        assert len(analyzed) >= n_files, gen  # a multi-block build
        stats = resolve_stage(g, "doc_stats")
        shards = sorted(d for d in os.listdir(stats)
                        if d.startswith("shard="))
        assert len(shards) > 1, gen
        ids = []
        for d in shards:
            files = os.listdir(os.path.join(stats, d))
            assert len(files) == 1, (gen, d, files)
            ids += pq.read_table(os.path.join(stats, d, files[0]))[
                "doc_id"].to_pylist()
        want = pq.read_table(resolve_stage(g, "analyzed"),
                             columns=["doc_id"])["doc_id"].to_pylist()
        assert sorted(ids) == sorted(want) and len(set(ids)) == len(ids)


def test_small_path_block_splits_dont_overcount(ray_session,
                                                tmp_path_factory):
    """Ray duplicates a batch's schema metadata onto every slice when
    it splits an oversized output block — config sums must therefore
    come from the written doc_stats, never from metadata riding.
    Force splits with a tiny target block size and assert the config
    counts equal the true input counts."""
    import ray.data

    from alix_ray.index.incremental import IndexWriter

    pdir = str(tmp_path_factory.mktemp("splitpages"))
    pages_slice(0, N_BASE).write_parquet(pdir)
    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024  # force many block splits
    try:
        root = str(tmp_path_factory.mktemp("splitix"))
        w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                        num_buckets=8)
        w.add_documents(ray.data.read_parquet(pdir))
    finally:
        ctx.target_max_block_size = old
    cfg = json.load(open(os.path.join(root, "gen-00000", "config.json")))
    # corpus contract: urls i%50==1 duplicate the previous url
    expected = N_BASE - len([i for i in range(N_BASE) if i % 50 == 1
                             and i > 0])
    assert cfg["n_docs"] == expected
    assert cfg["max_doc_id"] == expected - 1
    assert 0 < cfg["total_tokens"] < 10_000 * expected


def test_small_path_pushed_filter_routes_to_fallback(ray_session,
                                                     tmp_path_factory):
    """A row filter pushed into read_parquet keeps the plan a bare
    Read; the flush path must rank only the urls the filter keeps
    (ranking filtered-out urls would break dense ids).  Assert ids
    match the staged build of the same filtered input."""
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq
    import ray.data

    from alix_ray.index.incremental import IndexWriter
    from alix_ray.stages.store import resolve_stage

    pdir = str(tmp_path_factory.mktemp("filtpages"))
    pages_slice(0, N_BASE).write_parquet(pdir)
    flt = pds.field("warc_ts") >= pq.read_table(
        pdir, columns=["warc_ts"])["warc_ts"][5].as_py()

    roots = {}
    for mode in ("flush", "staged"):
        root = str(tmp_path_factory.mktemp(f"filt{mode}"))
        w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                        num_buckets=8)
        with staged_plan() if mode == "staged" else contextlib.nullcontext():
            w.add_documents(ray.data.read_parquet(pdir, filter=flt))
        roots[mode] = root
    ids = {}
    for m, root in roots.items():
        t = pq.read_table(resolve_stage(
            os.path.join(root, "gen-00000"), "docs"),
            columns=["url", "doc_id"])
        ids[m] = sorted(zip(t["url"].to_pylist(), t["doc_id"].to_pylist()))
    assert ids["flush"] == ids["staged"]
    assert ids["flush"], "filtered build produced no docs"


def test_small_path_gate_runs_before_execution(ray_session, tmp_path,
                                               monkeypatch):
    """Above the row gate the flush plan is never entered: a transformed
    pages input reaches the staged plan without the flush plan
    materializing it (which would put a delta of any size, html
    included, into the object store)."""
    from alix_ray.index.incremental import IndexWriter
    from alix_ray.stages import smallbuild

    monkeypatch.setattr(smallbuild, "SMALL_BUILD_MAX_ROWS", 10)
    entered = []
    monkeypatch.setattr(smallbuild, "build_small",
                        lambda *a, **k: entered.append(a))
    root = str(tmp_path / "gate")
    w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                    num_buckets=8)
    w.add_documents(pages_slice(0, 60))
    assert entered == [], "the flush plan ran on an input above the gate"
    assert build_plans(os.path.join(root, "gen-00000")) == ["staged"]
    cfg = json.load(open(os.path.join(root, "gen-00000", "config.json")))
    # corpus contract: url i (i%50==1) duplicates url i-1
    assert cfg["n_docs"] == 60 - len([i for i in range(1, 60)
                                      if i % 50 == 1])


def test_above_gate_input_counted_once(ray_session, tmp_path, monkeypatch):
    """One count of a transformed pages input serves both the flush row
    gate and the docs stage: each count executes the whole transform,
    so a second one would run the input twice before it is built."""
    import ray.data

    from alix_ray.index.incremental import IndexWriter
    from alix_ray.stages import smallbuild
    from alix_ray.stages.build import IndexBuilder

    monkeypatch.setattr(smallbuild, "SMALL_BUILD_MAX_ROWS", 10)
    counts = []
    orig_count = ray.data.Dataset.count

    def count(self):
        counts.append(1)
        return orig_count(self)

    monkeypatch.setattr(ray.data.Dataset, "count", count)
    root = str(tmp_path / "add")
    IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                num_buckets=8).add_documents(pages_slice(0, 60))
    assert len(counts) == 1, "an above-gate add counted its input twice"
    counts.clear()
    out = str(tmp_path / "base")
    IndexBuilder(out, analyzer="french", shard_range=SHARD_RANGE,
                 num_buckets=8).build(pages_slice(0, 60))
    assert len(counts) == 1, "an above-gate build counted its input twice"
    assert build_plans(out) == ["staged"]


def test_base_build_takes_flush_plan(ray_session, tmp_path):
    """A below-gate ``IndexBuilder.build`` runs the flush plan, the same
    plan as an ``add_documents`` of the same input into an empty root,
    and the two give the same logical artifacts."""
    from test_resume import logical_artifacts

    from alix_ray.index.incremental import IndexWriter
    from alix_ray.stages.build import IndexBuilder

    kw = dict(analyzer="french", shard_range=SHARD_RANGE, num_buckets=8)
    out = str(tmp_path / "base")
    IndexBuilder(out, **kw).build(pages_slice(0, N_BASE))
    root = str(tmp_path / "writer")
    IndexWriter(root, **kw).add_documents(pages_slice(0, N_BASE))
    gen = os.path.join(root, "gen-00000")
    assert build_plans(out) == build_plans(gen) == ["flush"]
    assert logical_artifacts(out) == logical_artifacts(gen)


def test_small_path_config_crash_resumes(ray_session, tmp_path,
                                         monkeypatch):
    """A flush add that dies writing config.json must complete on
    retry, with the same config as a clean add."""
    from alix_ray.index.incremental import IndexWriter
    from alix_ray.stages.store import RenameStore

    def add(root):
        w = IndexWriter(root, analyzer="french", shard_range=SHARD_RANGE,
                        num_buckets=8)
        return w, w.add_documents(pages_slice(0, 60))

    clean = str(tmp_path / "clean")
    add(clean)
    crashed = str(tmp_path / "crashed")
    with monkeypatch.context() as m:
        def put_json(self, path, obj):
            raise OSError("crash writing config")

        m.setattr(RenameStore, "put_json", put_json)
        with pytest.raises(OSError):
            add(crashed)
    w, name = add(crashed)
    assert w.generations() == [name] == ["gen-00000"]
    assert json.load(open(os.path.join(crashed, name, "config.json"))) == \
        json.load(open(os.path.join(clean, name, "config.json")))
