"""Span/proximity search over the rail artifact (SURVEY.md §2.9)."""

import numpy as np
import pytest

from conftest import posting_rows


@pytest.fixture(scope="module")
def span_index(ray_session, tmp_path_factory):
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.stages.build import IndexBuilder

    out = str(tmp_path_factory.mktemp("spanidx"))
    rows = [
        {"doc_id": 0, "text": "<p>Le chat noir dormait.</p>"},
        {"doc_id": 1, "text": "<p>Le chat, vraiment très grand, noir.</p>"},
        {"doc_id": 2, "text": "<p>Un chat dormait. Un mur noir restait.</p>"},
        {"doc_id": 3, "text": "<p>noir chat</p>"},
        {"doc_id": 4, "text": "<p>rien ici</p>"},
    ]
    b = IndexBuilder(out, analyzer="french", keep_positions=True)
    b.build(ray.data.from_items(rows), input_kind="documents",
            fingerprint="span")
    return BM25Index(out)


class TestMinWindow:
    def test_basic(self):
        from alix_ray.index.engine import BM25Index

        w = BM25Index._min_window
        assert w([np.array([1, 9]), np.array([3])]) == 3  # [1..3]
        assert w([np.array([0]), np.array([5]), np.array([2])]) == 6
        assert w([np.array([7]), np.array([8])]) == 2


class TestSpanSearch:
    def test_adjacent_phrase(self, span_index):
        # "chat noir" adjacent (slop 0): docs 0 ("chat noir" at 1,2)
        # and 3 ("noir chat" — unordered); doc 1 has gap (punct holes),
        # doc 2 has words far apart
        res = span_index.search_span(["chat", "noir"], slop=0)
        assert sorted(d for d, _ in res) == [0, 3]

    def test_slop_crosses_small_gaps(self, span_index):
        res4 = span_index.search_span(["chat", "noir"], slop=4)
        assert 1 in {d for d, _ in res4}  # "chat … très grand … noir"
        res_all = span_index.search_span(["chat", "noir"], slop=10)
        assert {d for d, _ in res_all} == {0, 1, 2, 3}

    def test_conjunctive_only(self, span_index):
        res = span_index.search_span(["chat", "dormir"], slop=10)
        # docs containing both (dormait→dormir lemma): 0 and 2
        assert {d for d, _ in res} == {0, 2}

    def test_scores_match_bm25(self, span_index):
        res = span_index.search_span(["chat", "noir"], slop=10)
        exact = dict(span_index.search_exact(["chat", "noir"], 10))
        for d, s in res:
            assert s == pytest.approx(exact[d])

    def test_tie_rule(self, span_index):
        res = span_index.search_span(["chat"], k=10)
        scores = [s for _, s in res]
        assert scores == sorted(scores, reverse=True)

    def test_warm_predecode_identical_results(self, span_index):
        """warm(span_terms=N) pre-decodes the hot postings + rail probe
        columns; a warmed engine returns identical span results and
        actually holds the warmed state (decoded shards, memoized
        contribs, probe columns)."""
        from alix_ray.index.engine import BM25Index

        cold = span_index.search_span(["chat", "noir"], slop=10)
        ix = BM25Index(span_index.dir)
        assert ix._has_positions()
        ix.warm(span_terms=4)
        hot = ix.cf.top(4)
        assert any(ix.postings[t]._decoded is not None
                   for t in hot if t in ix.postings)
        assert any(t in ix._contrib_cache for t in hot)
        assert len(ix.rail()._docs_cache) > 0
        assert ix.search_span(["chat", "noir"], slop=10) == cold

    def test_candidate_scoring_never_full_decodes(self, ray_session,
                                                  tmp_path_factory):
        """r3-verdict directive 3: scoring span candidates must decode
        only candidate-bearing posting BLOCKS of the non-rarest terms
        (the term's ``PostingShard._decoded`` stays None), with scores still
        bit-equal to the exact full-decode path."""
        import ray.data

        from alix_ray.index.engine import BM25Index
        from alix_ray.stages.build import IndexBuilder

        out = str(tmp_path_factory.mktemp("spanhot"))
        b = IndexBuilder(out, analyzer="french", keep_positions=True)
        b.build(ray.data.from_items(_hot_rare_rows(0, 3000)),
                input_kind="documents", fingerprint="spanhot")
        ix = BM25Index(out)
        res = _assert_candidates_block_pruned(ix)
        assert {d for d, _ in res} == {0, 977, 1954, 2931}

    def test_candidate_scoring_block_pruned_over_generations(
            self, ray_session, tmp_path_factory):
        """The same check on three generations of doc-range-sharded
        postings: the hot term's one posting list joins many rows, and
        span scoring still decodes only the blocks its candidates land
        in."""
        import ray.data

        from alix_ray.index.engine import BM25Index
        from alix_ray.index.incremental import IndexWriter

        root = str(tmp_path_factory.mktemp("spanhotgen"))
        w = IndexWriter(root, analyzer="french", keep_positions=True,
                        shard_range=512, num_buckets=4)
        for lo in range(0, 3000, 1000):
            w.add_documents(ray.data.from_items(_hot_rare_rows(lo, lo + 1000)),
                            input_kind="documents")
        ix = BM25Index(root)
        assert len(ix.gen_dirs) == 3
        hot = ix._query_terms(["commun"])[0]
        assert posting_rows(ix, hot) > 3
        _assert_candidates_block_pruned(ix)


def _hot_rare_rows(lo: int, hi: int) -> list[dict]:
    """"commun" is a Zipf head (every doc, >128 docs → multiple posting
    blocks); "rare" appears in every 977th doc — the span query pairs
    them, so the hot term must be scored block-pruned."""
    return [{"doc_id": i,
             "text": f"<p>commun {'rare ' if i % 977 == 0 else ''}"
                     f"mot{i}.</p>"} for i in range(lo, hi)]


def _assert_candidates_block_pruned(ix) -> list:
    """Span-score ``rare`` ∧ ``commun`` on a fresh handle: the hits are
    the docs of ``rare``, the hot term's list is never fully decoded
    nor its contributions memoized, and the scores equal the exact
    scorer's (which DOES decode it fully)."""
    res = ix.search_span(["rare", "commun"], k=10, slop=2)
    rare, hot = ix._query_terms(["rare"])[0], ix._query_terms(["commun"])[0]
    assert len(res) == 4
    assert {d for d, _ in res} == set(ix.postings[rare].decode()[0].tolist())
    assert ix.postings[hot].n_blocks() > 1
    assert ix.postings[hot]._decoded is None  # block-pruned, never full
    assert hot not in ix._contrib_cache
    exact = dict(ix.search_exact(["rare", "commun"], 10))
    for d, sc in res:
        assert sc == exact[d]
    return res
