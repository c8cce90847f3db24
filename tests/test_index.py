"""End-to-end index build + BM25 engine tests (small corpus, real Ray).

Oracle = direct per-doc analysis on the driver; checks the invariants
from SURVEY.md §5 (df/cf/doc-length parity, lexicon sorted+dense,
posting round-trip, tokens<=width) and exact↔WAND rank identity.
"""

import collections
import math
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from conftest import posting_rows, staged_plan

N_PAGES = 300


@pytest.fixture(scope="module")
def built_index(ray_session, tmp_path_factory):
    from alix_ray.corpus import make_page, pages_dataset
    from alix_ray.stages.build import IndexBuilder

    out = str(tmp_path_factory.mktemp("idx"))
    b = IndexBuilder(
        out,
        analyzer="french",
        shard_range=50,  # force multi-shard postings
        num_buckets=8,
    )
    with staged_plan():
        b.build(pages_dataset(N_PAGES), input_kind="pages",
                fingerprint=f"p{N_PAGES}")

    # driver-side oracle: same dedup rule + same analyzer
    from alix_ray.analysis import FrenchAnalyzer

    fa = FrenchAnalyzer()
    pages = [make_page(i) for i in range(N_PAGES)]
    byurl = {}
    for p in pages:
        cur = byurl.get(p["url"])
        if cur is None or p["warc_ts"] < cur["warc_ts"]:
            byurl[p["url"]] = p
    urls = sorted(byurl)
    oracle = {}
    for doc_id, url in enumerate(urls):
        emitted, width, n = fa.analyze(byurl[url]["text"])
        oracle[doc_id] = (emitted, width, n)
    return out, oracle, urls


def test_docs_stage_dedup_and_ids(built_index):
    out, oracle, urls = built_index
    docs = pq.read_table(os.path.join(out, "docs"))
    assert docs.num_rows == len(urls)
    got = dict(zip(docs["doc_id"].to_pylist(), docs["url"].to_pylist()))
    assert got == dict(enumerate(urls))


def test_doc_stats_match_oracle(built_index):
    out, oracle, urls = built_index
    t = pq.read_table(os.path.join(out, "doc_stats"))
    rows = {r["doc_id"]: (r["width"], r["tokens"]) for r in t.to_pylist()}
    for doc_id, (emitted, width, n) in oracle.items():
        assert rows[doc_id] == (width, n)
        assert n <= width  # TermStats.java:40-46


def test_term_stats_match_oracle(built_index):
    out, oracle, urls = built_index
    df = collections.Counter()
    cf = collections.Counter()
    for doc_id, (emitted, _, _) in oracle.items():
        terms = [t for t, _ in emitted]
        for t in set(terms):
            df[t] += 1
        cf.update(terms)
    t = pq.read_table(os.path.join(out, "term_stats"))
    got_df = dict(zip(t["term"].to_pylist(), t["df"].to_pylist()))
    got_cf = dict(zip(t["term"].to_pylist(), t["cf"].to_pylist()))
    assert got_df == dict(df)
    assert got_cf == dict(cf)


def test_lexicon_sorted_dense(built_index):
    out, _, _ = built_index
    t = pq.read_table(os.path.join(out, "term_stats")).sort_by("term_id")
    terms = t["term"].to_pylist()
    ids = t["term_id"].to_pylist()
    assert terms == sorted(terms)
    assert ids == list(range(1, len(terms) + 1))  # id 0 = sentinel


def test_postings_roundtrip_and_sharding(built_index):
    out, oracle, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    # rebuild per-term (doc, tf) lists from the oracle
    want = collections.defaultdict(list)
    for doc_id in sorted(oracle):
        counts = collections.Counter(t for t, _ in oracle[doc_id][0])
        for term, tf in counts.items():
            want[term].append((doc_id, tf))
    assert set(ix.postings) == set(want)
    multi = 0
    for term, post in ix.postings.items():
        multi += posting_rows(ix, term) > 1
        d, t = post.decode()
        assert list(zip(d.tolist(), t.tolist())) == want[term], term
    assert multi > 0  # shard_range=50 must split broad terms


def test_exact_matches_manual_bm25(built_index):
    out, oracle, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    term = max(ix.cf, key=lambda t: ix.cf[t] if posting_rows(ix, t) > 1 else 0)
    res = ix.search_exact([term], 5)
    # manual formula (IdfTermScorer.java:253,266)
    N = ix.n_docs
    df = ix.df[term]
    idf = math.log(1 + (N - df + 0.5) / (df + 0.5)) ** ix.idf_exp
    d0, s0 = res[0]
    tf = dict(zip(*[x.tolist() for x in ix.postings[term].decode()]))[d0]
    dl = ix.doc_tokens[d0]
    tfp = tf * (ix.k1 + 1) / (tf + ix.k1 * (1 - ix.b + ix.b * dl / ix.avgdl))
    assert s0 == pytest.approx(idf * tfp, rel=1e-12)


def test_wand_rank_identical(built_index):
    """The serving path (search_terms: single-term scan or block
    window) and the block-window scorer rank exactly like the exact
    oracle for 1- to 4-term queries."""
    out, _, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    rng = np.random.default_rng(7)
    terms = list(ix.lexicon)
    for _ in range(300):
        qs = [terms[i] for i in rng.choice(len(terms), rng.integers(1, 5))]
        k = int(rng.choice([3, 10, 50]))
        want = ix.search_exact(qs, k)
        assert ix.search_terms(qs, k) == want
        assert ix.search_block_window(qs, k) == want


def test_resume_skips_done_stages(built_index, ray_session):
    out, _, _ = built_index
    from alix_ray.corpus import pages_dataset
    from alix_ray.stages.build import IndexBuilder, Manifest

    n_rows_before = len(Manifest(out).rows())
    b = IndexBuilder(out, analyzer="french", shard_range=50, num_buckets=8)
    with staged_plan():
        b.build(pages_dataset(N_PAGES), input_kind="pages",
                fingerprint=f"p{N_PAGES}")
    # all stages already done for this fingerprint → no new manifest rows
    assert len(Manifest(out).rows()) == n_rows_before


def test_manifest_has_partition_lineage(built_index):
    out, _, _ = built_index
    from alix_ray.stages.build import Manifest

    rows = Manifest(out).rows()
    parts = [r for r in rows if r["status"] == "partition"]
    assert parts and all(r["rows"] >= 0 and r["bytes"] > 0 for r in parts)
    done = {r["stage"] for r in rows if r["status"] == "done"}
    assert {"docs", "analyzed", "doc_stats", "postings", "term_stats"} <= done
    plans = [r for r in rows if r["stage"] == "build"]
    assert [(r["plan"], r["rows"]) for r in plans] == [("staged", N_PAGES)]


def test_block_window_rank_identical(built_index):
    from alix_ray.index.engine import BM25Index

    out, _, _ = built_index
    ix = BM25Index(out)
    rng = np.random.default_rng(17)
    terms = list(ix.lexicon)
    for _ in range(200):
        qs = [terms[i] for i in rng.choice(len(terms), rng.integers(2, 5))]
        k = int(rng.choice([3, 10, 50]))
        assert ix.search_exact(qs, k) == ix.search_block_window(qs, k, window=64)


def test_docid_paths_identical(ray_session):
    """Broadcast-dictionary and sort-based docid assignment produce the
    SAME (url -> doc_id) mapping — the auto-selection threshold in
    build_docs_from_pages must never change ids."""
    import functools

    import pyarrow as pa
    import ray.data

    from alix_ray.corpus import pages_dataset
    from alix_ray.stages.analyze import extract_batch
    from alix_ray.stages.docids import (
        build_url_dictionary,
        dedup_assign_ids,
        stamp_ids_batch,
    )

    pages = pages_dataset(180)
    urls, ts = build_url_dictionary(pages)
    dict_ref = ray.put((urls, ts))
    bc = (
        pages.map_batches(extract_batch, batch_format="pyarrow")
        .map_batches(functools.partial(stamp_ids_batch, urls_ts_ref=dict_ref),
                     batch_format="pyarrow")
        .to_pandas()
    )
    extracted = pages_dataset(180).map_batches(
        extract_batch, batch_format="pyarrow"
    )
    srt, n = dedup_assign_ids(extracted)
    sp = srt.to_pandas()
    m_bc = dict(zip(bc["url"], bc["doc_id"]))
    m_s = dict(zip(sp["url"], sp["doc_id"]))
    assert m_bc == m_s and n == len(m_s)


def test_document_fetch(ray_session, tmp_path):
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.stages.build import IndexBuilder

    rows = [{"doc_id": i, "text": f"doc number {i}"} for i in range(30)]
    b = IndexBuilder(str(tmp_path / "ix"), analyzer="simple")
    b.build(ray.data.from_items(rows), input_kind="documents",
            fingerprint="docfetch")
    ix = BM25Index(str(tmp_path / "ix"))
    d = ix.document(17)
    assert d["doc_id"] == 17 and d["text"] == "doc number 17"
    import pytest

    with pytest.raises(KeyError):
        ix.document(999)


def _lev_ref(a: str, b: str) -> int:
    # full-matrix reference implementation (no band, no early exit)
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            c = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + c)
    return d[la][lb]


def test_lev_leq_matches_reference():
    from alix_ray.index.engine import _lev_leq

    rng = np.random.RandomState(5)
    alpha = "abcde"
    words = ["".join(alpha[i] for i in rng.randint(0, 5, rng.randint(0, 8)))
             for _ in range(60)]
    for a in words[:20]:
        for b in words:
            d = _lev_ref(a, b)
            for k in range(4):
                assert _lev_leq(a, b, k) == (d <= k), (a, b, k, d)


def test_fuzzy_terms_and_search(built_index):
    out, _, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    term = max(ix.cf, key=lambda t: ix.cf[t])
    # distance 0 always includes the term itself, nothing else closer
    assert ix.fuzzy_terms(term, max_edits=0) == [term]
    # brute-force oracle over the whole vocabulary
    for q in (term, term[:-1] + "x", "zz" + term):
        for me in (1, 2):
            want = sorted(t for t in ix.cf if _lev_ref(q, t) <= me)
            assert sorted(ix.fuzzy_terms(q, max_edits=me)) == want
    # prefix_len constrains candidates to a shared literal prefix
    got = ix.fuzzy_terms(term, max_edits=2, prefix_len=len(term))
    assert all(t.startswith(term) for t in got)
    # search == exact OR over the expansion (rewrite-to-boolean shape)
    q = term[:-1] + "x"
    exp = ix.fuzzy_terms(q, max_edits=1)
    assert exp
    assert ix.search_fuzzy(q, 5, max_edits=1) == ix.search_exact(exp, 5)
    # no expansion -> no hits
    assert ix.search_fuzzy("qqqqqqqqqq", 5, max_edits=1) == []


def test_regex_terms_and_search(built_index):
    import re

    out, _, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    term = max(ix.cf, key=lambda t: ix.cf[t])
    pat = re.escape(term[:2]) + "[a-z]*"
    want = sorted(t for t in ix.cf if re.fullmatch(pat, t))
    assert sorted(ix.regex_terms(pat)) == want
    assert want  # the pattern actually matches something
    assert ix.search_regex(pat, 5) == ix.search_exact(want, 5)
    assert ix.search_regex("qqq+", 5) == []


def test_range_terms_and_search(built_index):
    out, _, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    vocab = sorted(ix.cf)
    lo, hi = vocab[2], vocab[-3]
    want = [t for t in vocab if lo <= t < hi]
    assert ix.range_terms(lo, hi) == want
    # open ends
    assert ix.range_terms(None, None) == vocab
    assert ix.range_terms(hi, None) == [t for t in vocab if t >= hi]
    assert ix.range_terms(None, lo) == [t for t in vocab if t < lo]
    # keys that are not themselves vocabulary terms
    assert ix.range_terms(lo + "\x00", hi) == \
        [t for t in vocab if t > lo and t < hi]
    # search == exact OR over the expansion
    assert ix.search_term_range(lo, hi, 5) == ix.search_exact(want, 5)
    assert ix.search_term_range("zzz", "zzzz", 5) == []


def test_more_like_this(built_index):
    out, _, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    seed = 3
    res = ix.more_like_this(seed, k=5, n_terms=4)
    assert res
    assert all(d != seed for d, _ in res)
    assert len(res) <= 5
    # composition contract: theme-terms selection + exact OR minus seed
    mask = np.zeros(ix.n_slots, bool)
    mask[seed] = True
    terms = [t for t, _ in ix.theme_terms(mask, k=4, mode="BM25")]
    want = [(d, s) for d, s in ix.search_exact(terms, 6) if d != seed][:5]
    assert res == want
    # scores ordered desc, doc asc on ties
    assert res == sorted(res, key=lambda r: (-r[1], r[0]))


def test_search_after_paging(built_index):
    out, _, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    terms = sorted(ix.cf, key=lambda t: -ix.cf[t])[:2]
    full = ix.search_exact(terms, 10)
    page1 = ix.search_exact(terms, 5)
    page2 = ix.search_after(terms, after=page1[-1], k=5)
    assert page1 + page2 == full
    # pages never overlap, cursor hit itself excluded
    assert set(d for d, _ in page1).isdisjoint(d for d, _ in page2)
    # paging past the end returns empty
    tail = ix.search_exact(terms, ix.n_docs)
    assert ix.search_after(terms, after=tail[-1], k=5) == []


def test_search_facet_counts(built_index):
    out, _, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    terms = sorted(ix.cf, key=lambda t: -ix.cf[t])[:2]
    labels = np.array([f"g{d % 3}" for d in range(ix.n_slots)],
                      dtype=object)
    got = ix.search_facet_counts(terms, labels)
    # manual oracle: union of matching docs, counted per label
    match = {d for d, _ in ix.search_exact(terms, ix.n_docs)}
    want = {}
    for d in match:
        want[labels[d]] = want.get(labels[d], 0) + 1
    assert dict(got) == want
    assert got == sorted(got, key=lambda r: (-r[1], r[0]))
    assert ix.search_facet_counts(["qqqq"], labels) == []


def test_wildcard_terms_and_search(built_index):
    import fnmatch

    out, _, _ = built_index
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(out)
    term = max(ix.cf, key=lambda t: ix.cf[t])
    for pat in (term[:2] + "*", "?" + term[1:], term[:-1] + "?",
                "*" + term[-2:]):
        want = sorted(t for t in ix.cf if fnmatch.fnmatchcase(t, pat))
        assert sorted(ix.wildcard_terms(pat)) == want, pat
    # regex metacharacters in the literal part are escaped
    assert ix.wildcard_terms("a.c*") == sorted(
        t for t in ix.cf if fnmatch.fnmatchcase(t, "a.c*"))
    pat = term[:2] + "*"
    exp = ix.wildcard_terms(pat)
    assert exp
    assert ix.search_wildcard(pat, 5) == ix.search_exact(exp, 5)


def test_flush_build_content_golden(ray_session, tmp_path):
    """A French flush build of a seeded 500-page window: digests of its
    term_stats ``(term, df, cf)`` and doc_stats ``(doc_id, width,
    tokens)`` rows, recorded on the per-token analyzer the fast paths
    replaced, pin what the analyzer puts in an index.  The build's
    manifest row names the flush plan and its step walls."""
    import hashlib

    import ray.data

    from alix_ray.corpus import DUP_EVERY, pages_batch
    from alix_ray.stages.build import IndexBuilder, Manifest
    from alix_ray.stages.store import resolve_stage

    slot = np.random.default_rng(2024).integers(0, 40_000_000 // DUP_EVERY)
    start = int(slot) * DUP_EVERY
    pages = pages_batch(np.arange(start, start + 500, dtype=np.int64))
    out = str(tmp_path / "idx")
    IndexBuilder(out, analyzer="french").build(ray.data.from_arrow(pages),
                                               input_kind="pages")

    def digest(stage, cols, key):
        t = pq.read_table(resolve_stage(out, stage), columns=cols).sort_by(key)
        h = hashlib.sha256()
        for row in zip(*(t[c].to_pylist() for c in cols)):
            h.update(repr(row).encode())
            h.update(b"\n")
        return t.num_rows, h.hexdigest()[:16]

    assert digest("term_stats", ["term", "df", "cf"], "term") == (
        1961, "bb4a73aebab85338")
    assert digest("doc_stats", ["doc_id", "width", "tokens"], "doc_id") == (
        490, "d9e229ad445e8009")
    (row,) = [r for r in Manifest(out).rows() if r["stage"] == "build"]
    assert row["plan"] == "flush" and row["rows"] == 500
    assert set(row["steps_ms"]) == {"extract_analyze", "url_dictionary",
                                    "block_wave", "merge_assemble"}
    assert sum(row["steps_ms"].values()) <= row["wall_ms"]
