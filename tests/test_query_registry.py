"""The driver-query registry: every ``q_*`` in ``pipelines/queries.py``
registers itself and its oracle with ``@query``.  No Ray session."""

import pytest

from alix_ray.pipelines import queries as q

ROWS_ONLY = {
    "multimodal", "bm25_french", "pages_extract", "ann_ivf", "clades",
    "w2v_corpus", "unknowns", "names", "balinoms", "expressions",
    "bpe_vocab", "ann_pq",
}

# The window the driver verifies: the priority list, then the first
# oracle-backed names in registration order.
FIRST_50 = [
    "tfidf_pairs", "kmeans", "semdedup", "pagerank_dist", "pagerank",
    "crawl_diff", "domain_stats", "anchor_terms", "hits", "degree_dist",
    "host_graph", "crawl_schedule", "components", "components_dist",
    "fuzzy", "regex", "wildcard", "term_range", "more_like_this",
    "search_page2", "search_facets", "bulk_queries", "triangles",
    "clustering", "graph_stats", "robots", "coreness", "percolate",
    "spellcheck", "hll", "cms_hh", "bm25_filtered", "bm25_and",
    "lm_perplexity", "curate", "cluster_reps", "blocklist",
    "quantiles_by_source", "cross_dedup", "dsir_weights", "pack_chunks",
    "corpus_card", "pack_offsets", "hash_split", "keywords", "quantiles",
    "term_stats", "doc_token_counts", "top_terms", "bm25_top10",
]


def test_every_q_function_registered_once():
    fns = {n: f for n, f in vars(q).items()
           if n.startswith("q_") and callable(f)}
    assert len(fns) == len(q.QUERIES) == 102
    for name, fn in q.QUERIES.items():
        assert fns["q_" + name] is fn
    assert len(set(map(id, q.QUERIES.values()))) == len(q.QUERIES)


def test_oracles_subset_and_rows_only_pinned():
    assert set(q.ORACLES) <= set(q.QUERIES)
    assert set(q.QUERIES) - set(q.ORACLES) == ROWS_ONLY
    assert all(isinstance(s, str) and s.strip() for s in q.ORACLES.values())
    # the two pagerank and the two components variants share one oracle
    assert q.ORACLES["pagerank"] == q.ORACLES["pagerank_dist"]
    assert q.ORACLES["components"] == q.ORACLES["components_dist"]


def test_second_registration_raises():
    before, oracles = dict(q.QUERIES), dict(q.ORACLES)
    with pytest.raises(ValueError, match="already registered"):
        @q.query(oracle="SELECT 1")
        def q_term_stats(sf_dir):
            return None
    with pytest.raises(ValueError, match="q_ prefix"):
        @q.query()
        def term_stats(sf_dir):
            return None
    assert q.QUERIES == before and q.ORACLES == oracles


def test_driver_window_order(monkeypatch):
    import __ray_entry__ as entry

    monkeypatch.setattr(entry, "_ensure_workers_can_import", lambda: None)
    names = list(entry.queries())
    assert names[:50] == FIRST_50
    assert sorted(names) == sorted(q.QUERIES)
    assert set(names[-len(ROWS_ONLY):]) == ROWS_ONLY
    assert entry.oracle_sql() == q.ORACLES
