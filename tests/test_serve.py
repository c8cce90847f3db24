"""Query-serving actor pool tests."""

import pytest


@pytest.fixture(scope="module")
def served(ray_session, tmp_path_factory):
    import ray.data

    from alix_ray.index.serve import QueryService
    from alix_ray.stages.build import IndexBuilder

    out = str(tmp_path_factory.mktemp("serveidx"))
    rows = [{"doc_id": i, "text": f"alpha beta doc{i} gamma " * (i + 1)}
            for i in range(30)]
    IndexBuilder(out, analyzer="simple").build(
        ray.data.from_items(rows), input_kind="documents", fingerprint="serve")
    svc = QueryService(out, n_actors=2)
    yield svc, out
    svc.shutdown()


def test_single_query_matches_local(served):
    from alix_ray.index.engine import BM25Index

    svc, out = served
    local = BM25Index(out)
    assert svc.search("alpha beta", 5) == local.search("alpha beta", 5)


def test_batch_throughput_path(served):
    svc, _ = served
    batch = [["alpha"], ["beta", "gamma"], ["doc3"]] * 4
    res = svc.search_many(batch, k=3)
    assert len(res) == 12
    assert all(isinstance(r, list) for r in res)
    # identical queries → identical results regardless of serving actor
    assert res[0] == res[3] == res[6] == res[9]


def test_suggest_via_actor(served):
    import ray

    svc, _ = served
    out = ray.get(svc.actors[0].suggest_prefix.remote("do", 5))
    assert out and all(t.startswith("do") for t, _ in out)


def test_actor_refresh_adopts_writer_changes(served, ray_session):
    """A replica's refresh() swaps to the latest snapshot only when
    the writer advanced the index (openIfChanged semantics)."""
    import ray

    from alix_ray.index.incremental import IndexWriter

    svc, out = served
    actor = svc.actors[0]
    assert ray.get(actor.refresh.remote()) is False  # unchanged
    w = IndexWriter(out)
    import ray.data

    w.add_documents(ray.data.from_items(
        [{"doc_id": 100 + i, "text": f"zqxfresh alpha z{i}"}
         for i in range(5)]), input_kind="documents")
    assert ray.get(actor.refresh.remote()) is True
    hits = ray.get(actor.search_terms.remote(["zqxfresh"], 10))
    assert len(hits) == 5
    assert ray.get(actor.refresh.remote()) is False


def test_bulk_search_matches_local(served, ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from alix_ray.index.engine import BM25Index
    from alix_ray.index.serve import bulk_search

    _, index_dir = served
    ix = BM25Index(index_dir)
    terms = sorted(ix.cf, key=lambda t: (-ix.cf[t], t))[:6]
    queries = ray.data.from_arrow(
        pa.table({"query": pa.array(terms, pa.string())}))
    got = (bulk_search(queries.repartition(3), index_dir, k=3,
                       concurrency=2)
           .to_pandas().sort_values(["query", "rank"])
           .reset_index(drop=True))
    rows = []
    for q in sorted(terms):
        for r, (d, s) in enumerate(ix.search_exact([q], 3), start=1):
            rows.append((q, r, d, s))
    import pandas as pd

    want = pd.DataFrame(rows, columns=["query", "rank", "doc_id",
                                       "score"])
    want["rank"] = want["rank"].astype(np.int64)
    want["doc_id"] = want["doc_id"].astype(np.int64)
    pd.testing.assert_frame_equal(got, want)


BULK_AT_TWO_CPUS = r"""
from alix_ray.pipelines.queries import BULK_K, _index, q_bulk_queries

got = q_bulk_queries(sf_dir)
ix = _index(sf_dir)
for q, g in got.groupby("query"):
    want = [d for d, _ in ix.search_exact([q], BULK_K)]
    assert g.sort_values("rank")["doc_id"].tolist() == want, q
print("rows", len(got))
"""


def test_bulk_queries_progresses_at_two_cpus(tmp_path):
    """``q_bulk_queries`` under a 2-CPU Ray: the scorer actor pool must
    leave a CPU to the ``repartition`` tasks that feed it, or neither
    side makes progress."""
    import pandas as pd

    from conftest import run_at_two_cpus

    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "iota", "kappa", "lambda", "mu", "nu", "xi"]
    texts = [" ".join(words[j % len(words)] for j in range(i, 3 * i + 5))
             for i in range(60)]
    pd.DataFrame({"doc_id": range(60), "text": texts}).to_parquet(
        tmp_path / "documents.parquet")
    stdout = run_at_two_cpus(BULK_AT_TWO_CPUS, tmp_path, "q_bulk_queries")
    assert "rows " in stdout
