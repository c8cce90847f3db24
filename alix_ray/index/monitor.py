"""Percolation: registered queries matched against streaming docs.

The inverse of search — the Lucene Monitor / Elasticsearch percolator
shape (reference analog: alix's alert-less design has no monitor; this
is part of the "what a user of the engine needs at crawl scale"
surface): ALERTING on a crawl.  Users register standing queries
(conjunctive term sets here — the Monitor's core case); every new
crawl batch is matched against ALL registered queries in one pass and
(doc, query) hit rows stream out.

Scale shape: the registry is the SMALL side — thousands of standing
queries vs billions of streaming docs — so it broadcasts once and
each actor compiles it once in ``__init__`` (term → query inverted
map + per-query term counts; Lucene Monitor's "QueryIndex" idea).
Per batch the work is one Python loop over the docs (regex tokenize,
keep the distinct tokens found in the registry) + one vectorized
(doc-token × registered-term) merge + one groupby — no per-query
loop.  The merge and groupby scale with tokens that HIT the registry,
not with |registry| × |batch|; the per-doc loop is linear in the
batch's text.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray
import ray.data

_TOKEN_RE = r"[a-z0-9]+"


class Percolator:
    """``map_batches`` callable class: compile the standing-query
    registry once per actor, match document batches in ``__call__``.

    ``queries``: mapping query-name → list of terms, CONJUNCTIVE
    semantics (every term must appear in the doc's token set — the
    Monitor core case; OR/phrase extensions decompose into multiple
    registered conjunctions).  Tokenization is the SimpleAnalyzer
    ``[a-z0-9]+`` lowercase profile, which is what gives
    :func:`percolate` an exact DuckDB oracle."""

    def __init__(self, queries: dict[str, list[str]],
                 text_col: str = "text", id_col: str = "doc_id"):
        import re

        self.text_col = text_col
        self.id_col = id_col
        self.tok = re.compile(_TOKEN_RE).findall
        rows = [(q, t) for q, terms in queries.items()
                for t in set(terms)]
        self.qterms = pd.DataFrame(rows, columns=["query", "term"])
        self.qsize = self.qterms.groupby("query")["term"].size()
        # terms appearing in ANY registered query — the prefilter set
        self.registry = frozenset(self.qterms["term"])

    def __call__(self, batch: pa.Table) -> pa.Table:
        id_type = batch.schema.field(self.id_col).type
        ids = batch[self.id_col].to_pylist()
        texts = batch[self.text_col].to_pylist()
        doc_ids, toks = [], []
        for i, txt in zip(ids, texts):
            # distinct registered tokens only — the registry prefilter
            # keeps the merge proportional to HITS, not tokens
            hit = {t for t in self.tok((txt or "").lower())
                   if t in self.registry}
            doc_ids.extend([i] * len(hit))
            toks.extend(hit)
        if not doc_ids:
            return pa.table({self.id_col: pa.array([], id_type),
                             "query": pa.array([], pa.string())})
        pairs = pd.DataFrame({"_id": doc_ids, "term": toks})
        m = pairs.merge(self.qterms, on="term")
        cnt = m.groupby(["_id", "query"])["term"].nunique()
        full = cnt[cnt == self.qsize.reindex(
            cnt.index.get_level_values("query")).to_numpy()]
        out = full.reset_index()
        # the id column keeps its NAME and Arrow TYPE — string ids
        # and non-default id_col values round-trip unchanged
        return pa.table({
            self.id_col: pa.array(out["_id"].tolist(), id_type),
            "query": pa.array(out["query"].astype(str).tolist(),
                              pa.string()),
        })


def percolate(docs: ray.data.Dataset, queries: dict[str, list[str]],
              text_col: str = "text", id_col: str = "doc_id",
              concurrency: int = 2,
              batch_size: int = 256) -> ray.data.Dataset:
    """Match a streaming document Dataset against the standing-query
    registry with an actor pool (``map_batches`` over
    :class:`Percolator`); emits one (doc_id, query) row per match.
    Zero shuffle — the registry rides the actor, matches stream out."""
    return docs.map_batches(
        Percolator,
        fn_constructor_kwargs={"queries": queries,
                               "text_col": text_col,
                               "id_col": id_col},
        concurrency=concurrency, batch_size=batch_size,
        batch_format="pyarrow")
