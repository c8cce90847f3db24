"""Export operators (SURVEY.md §2.1 sinks).

- token table export — the relational ``(doc, tok)`` dump of the
  reference's SQLite exporter (``sqlite/.../Insert.java:1-20``,
  schema ``alix.sql:36-50``) and the ``TermRail`` forward index
  (§1.3), as Parquet ``tokens(doc_id, pos, term)``;
- word2vec corpus export — POS-filtered token lines for embedding
  training (``Analyze4vec.java:1-16`` / ``Lucene2vec.java``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..analysis import SimpleAnalyzer
from ._util import actor_pool


def _export_concurrency() -> int:
    """Analyzer actors for an export: all cluster CPUs but two, at
    least two."""
    return max(2, int(ray.cluster_resources().get("CPU", 4)) - 2)


W2V_POS = frozenset({"NOUN", "VERB", "ADJ", "PROPN"})  # VERB/SUB/ADJ/NAME


def token_table(ds: ray.data.Dataset, text_col="text") -> ray.data.Dataset:
    """Vectorized simple-profile token dump with 1-based positions
    (matches SQL ``generate_subscripts``)."""

    def explode(batch: pa.Table) -> pa.Table:
        lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
        lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(lengths)), lengths)
        pos = np.concatenate([np.arange(1, n + 1) for n in lengths]) if len(
            lengths
        ) else np.empty(0, np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(pa.array(owner)),
                "pos": pa.array(pos.astype(np.int64)),
                "term": lists.flatten(),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def french_token_table(ds: ray.data.Dataset, text_col="text",
                       concurrency=None) -> ray.data.Dataset:
    """French-chain token dump with canonical-field positions (the
    rail artifact: gaps where punctuation/stop words sat)."""

    class Analyze:
        def __init__(self):
            from ..analysis import FrenchAnalyzer

            self.fa = FrenchAnalyzer()

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids, poss, terms = [], [], []
            for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                    batch[text_col].to_pylist()):
                emitted, _, _ = self.fa.analyze(text or "")
                for term, p in emitted:
                    ids.append(doc_id)
                    poss.append(p)
                    terms.append(term)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "pos": pa.array(poss, pa.int32()),
                    "term": pa.array(terms, pa.large_string()),
                }
            )

    if concurrency is None:
        concurrency = _export_concurrency()
    return ds.map_batches(Analyze, batch_format="pyarrow",
                          **actor_pool(concurrency))


def w2v_corpus(ds: ray.data.Dataset, text_col="text",
               pos_filter=W2V_POS) -> ray.data.Dataset:
    """POS-filtered one-doc-per-line text for word2vec training.

    Runs the French chain and keeps only tokens whose lexicon POS is in
    ``pos_filter`` — unknown-POS tokens are kept (the reference's
    open-class default for out-of-lexicon words).
    """

    class ToLines:
        def __init__(self):
            from ..analysis import FrenchAnalyzer

            # the canonical chain up to the stop filter, no tagger
            self.fa = FrenchAnalyzer(tagger=None)

        def __call__(self, batch: pa.Table) -> pa.Table:
            lines = []
            for text in batch[text_col].to_pylist():
                kept = [
                    t for t in self.fa._chain(text or "")
                    if t.cls == "WORD" and t.text
                    and (t.pos is None or t.pos in pos_filter)
                ]
                lines.append(" ".join((t.lemma or t.text) for t in kept))
            return pa.table({"line": pa.array(lines, pa.string())})

    return ds.map_batches(ToLines, batch_format="pyarrow",
                          **actor_pool(_export_concurrency()))
