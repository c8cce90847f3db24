"""Distributed query serving: an actor pool over the immutable index.

Reference analog: the servlet container's request threads over one
frozen ``LuceneIndex`` handle (SURVEY.md §3.2, §4 "query actors each
own the (immutable) index artifacts; scale by actor count").  Each
actor loads the artifacts once in ``__init__``; the pool round-robins
queries; throughput scales with ``n_actors`` since the index is
read-only and per-actor caches warm independently.

At 10^12-doc scale each actor would mmap / row-group-prune its postings
instead of loading them (BM25Index docstring); the pool shape is
unchanged.
"""

from __future__ import annotations

import ray


@ray.remote
class QueryActor:
    """One serving replica holding the frozen index."""

    def __init__(self, index_dir: str, warm_top_n: int = 512):
        from .engine import BM25Index

        self.ix = BM25Index(index_dir)
        if warm_top_n:
            # preload the Zipf head so a fresh replica doesn't pay
            # cold row-group reads on its first hot-term queries
            self.ix.warm(warm_top_n)

    def search(self, query: str, k: int = 10):
        return self.ix.search(query, k)

    def search_terms(self, terms: list[str], k: int = 10):
        return self.ix.search_terms(terms, k)

    def search_span(self, terms: list[str], k: int = 10, slop: int = 0):
        return self.ix.search_span(terms, k, slop=slop)

    def suggest_prefix(self, prefix: str, k: int = 10):
        from ..ops.analytics import suggest

        # folded vocab frame cached on the handle — no per-request
        # O(vocab) materialization
        out = suggest(self.ix.suggest_frame(), prefix, k)
        return list(zip(out["term"], out["cf"]))

    def refresh(self, warm_top_n: int = 512) -> bool:
        """Swap to the latest index state if a writer advanced it
        (``DirectoryReader.openIfChanged``): unchanged state keeps
        every warm cache; a changed state reopens + re-warms.  Returns
        True when a new snapshot was adopted."""
        new = self.ix.reopen_if_changed()
        if new is self.ix:
            return False
        if warm_top_n:
            new.warm(warm_top_n)
        self.ix = new
        return True


class QueryService:
    """Round-robin facade over an actor pool; fire-and-gather batching."""

    def __init__(self, index_dir: str, n_actors: int = 2):
        self.actors = [
            QueryActor.remote(index_dir) for _ in range(n_actors)
        ]
        self._rr = 0

    def _next(self):
        a = self.actors[self._rr % len(self.actors)]
        self._rr += 1
        return a

    def search(self, query: str, k: int = 10):
        return ray.get(self._next().search.remote(query, k))

    def search_many(self, term_lists: list[list[str]], k: int = 10):
        """Pipeline a batch of queries across the pool (throughput path)."""
        futs = [
            self._next().search_terms.remote(terms, k) for terms in term_lists
        ]
        return ray.get(futs)

    def shutdown(self):
        for a in self.actors:
            ray.kill(a)
        self.actors = []


class BulkScorer:
    """Ray-Data-native bulk query scoring: the callable-CLASS
    ``map_batches`` shape — ONE frozen :class:`BM25Index` replica per
    actor, opened (and Zipf-head warmed) in ``__init__``, batches of
    query terms scored in ``__call__``.  This is the offline
    counterpart of :class:`QueryActor`: relevance sweeps, golden-set
    regression scoring, query-log replay — 10^8 queries stream
    through ``concurrency=N`` replicas with the index artifacts read
    once per actor, never per batch.

    Emits one (query, rank, doc_id, score) row per hit, rank 1-based
    in the TopArray order (score desc, doc asc)."""

    def __init__(self, index_dir: str, k: int = 3,
                 warm_top_n: int = 512):
        from .engine import BM25Index

        self.ix = BM25Index(index_dir)
        if warm_top_n:
            self.ix.warm(warm_top_n)
        self.k = k

    def __call__(self, batch):
        import pyarrow as pa

        queries, ranks, docs, scores = [], [], [], []
        for q in batch["query"].to_pylist():
            for r, (d, s) in enumerate(
                    self.ix.search_exact([q], self.k), start=1):
                queries.append(q)
                ranks.append(r)
                docs.append(d)
                scores.append(s)
        import numpy as np

        return pa.table({
            "query": pa.array(queries, pa.string()),
            "rank": pa.array(np.asarray(ranks, np.int64)),
            "doc_id": pa.array(np.asarray(docs, np.int64)),
            "score": pa.array(np.asarray(scores, np.float64)),
        })


def bulk_search(queries, index_dir: str, k: int = 3,
                concurrency: int = 2, batch_size: int = 256,
                warm_top_n: int = 512):
    """Score a Dataset of query terms against a frozen index with an
    actor pool (``map_batches`` over :class:`BulkScorer`).  The
    queries dataset streams; each actor holds one replica; sizing is
    ``concurrency`` × one index handle of RAM.

    The pool is sized by :func:`alix_ray.ops._util.actor_pool`: its
    actors together reserve at most all but one of the cluster's CPUs,
    so the tasks feeding it (a read, a ``repartition``) can run."""
    import ray.data  # noqa: F401  (Dataset method surface)

    from ..ops._util import actor_pool

    return queries.map_batches(
        BulkScorer,
        fn_constructor_kwargs={"index_dir": index_dir, "k": k,
                               "warm_top_n": warm_top_n},
        batch_size=batch_size, batch_format="pyarrow",
        **actor_pool(concurrency))
