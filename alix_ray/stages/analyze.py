"""Extraction + analysis stages (actor-pool ``map_batches``).

Reference parity: the per-document analysis work of
``AlixLuceneConsumer``/``FrenchAnalyzer`` (SURVEY.md §3.1), re-expressed
as zero-copy Arrow batch transforms.  Analyzer state (lexicons,
automata) is built once per actor in ``__init__`` (SURVEY.md §2.3), not
per batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..extract import extract_text

MAX_HTML_BYTES = 2_000_000  # oversized-row quarantine threshold (§7.4.7)


def extract_batch(batch: pa.Table) -> pa.Table:
    """html → text; drops the html column immediately (SURVEY.md §4).

    Oversized rows are quarantined: ``error`` column marks them and the
    text is left empty (per-row error policy mirroring the reference's
    per-file skip, ``TeiIngester.java:143-150``).
    """
    htmls = batch["html"]
    texts = []
    errors = []
    for h in htmls:
        buf = h.as_py()
        if buf is not None and len(buf) > MAX_HTML_BYTES:
            texts.append("")
            errors.append("oversized")
            continue
        try:
            texts.append(extract_text(buf))
            errors.append(None)
        except Exception as e:  # defensive: poison-row quarantine
            texts.append("")
            errors.append(f"extract:{type(e).__name__}")
    out = batch.drop_columns(["html"])
    idx = out.schema.get_field_index("text")
    out = out.set_column(idx, "text", pa.array(texts, pa.string()))
    return out.append_column("error", pa.array(errors, pa.string()))


# Per-worker-process analyzer cache for the stateless-task formulation:
# analyzer state is cheap to build (~50 ms) but must not be rebuilt per
# batch; a module-global cached instance gives actor-style amortization
# while letting the stage run as plain tasks on the already-warm worker
# pool — measured faster than an actor pool here because no fresh actor
# processes have to fork+import at stage start and task scheduling can
# use every idle worker.  (An actor pool remains the right shape when
# per-actor state is heavy — e.g. a model; see ops/multimodal.py.)
_WORKER_ANALYZERS: dict = {}


def tune_worker_gc() -> None:
    """Worker-lifetime CPython GC tuning for allocation-heavy stages.

    The analyzer churns millions of small short-lived objects per task;
    generational GC scans were the dominant multi-core contention
    (measured: ~1.5× per-doc inflation at 32-way).  Freezing the
    long-lived import graph and disabling cyclic collection is safe
    here: batch-local garbage is acyclic (refcount-freed), workers are
    long-lived, and peak heap stays bounded by batch size.
    """
    import gc

    if gc.isenabled():
        gc.collect()
        gc.freeze()
        gc.disable()


def analyze_batch_fn(batch: pa.Table, profile: str = "french",
                     text_col: str = "text",
                     keep_positions: bool = False) -> pa.Table:
    key = (profile, text_col, keep_positions)
    inst = _WORKER_ANALYZERS.get(key)
    if inst is None:
        tune_worker_gc()
        cls = AnalyzeSimple if profile == "simple" else AnalyzeDocs
        inst = cls(text_col=text_col, keep_positions=keep_positions)
        _WORKER_ANALYZERS[key] = inst
    return inst(batch)


class AnalyzeDocs:
    """Stateful stage: docs → per-doc term/tf lists + width/tokens.

    Emits per-doc aggregated term counts (tf), each row's terms in
    code-point order — the partial aggregation that keeps the posting
    shuffle small (SURVEY.md §2.5 TermStats row).  Positions are
    optional (``keep_positions``) — BM25 needs only tf (§7.4.6);
    positions feed the rail/cooc artifacts.  One analyzer walk per
    batch gives every column; the list columns are taken from the
    batch's term strings by offsets."""

    def __init__(self, text_col: str = "text", keep_positions: bool = False):
        from ..analysis import FrenchAnalyzer

        self.analyzer = FrenchAnalyzer()
        self.text_col = text_col
        self.keep_positions = keep_positions

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch[self.text_col].to_pylist()]
        return self._columns(
            batch, self.analyzer.count_rows(texts, self.keep_positions))

    def _columns(self, batch: pa.Table, r: dict) -> pa.Table:
        """The output table of ``batch`` from its walk's ``count_rows``."""
        vocab = pa.array(r["vocabulary"], pa.large_string())

        def lists(row_lengths, values):
            offsets = np.zeros(len(row_lengths) + 1, np.int32)
            np.cumsum(row_lengths, out=offsets[1:])
            return pa.ListArray.from_arrays(pa.array(offsets), values)

        cols = {
            "doc_id": batch["doc_id"],
            "terms": lists(r["row_terms"], vocab.take(r["term"])),
            "tfs": lists(r["row_terms"], pa.array(r["tf"].astype(np.int32))),
            "width": pa.array(r["width"].astype(np.int32)),
            "tokens": pa.array(r["tokens"].astype(np.int32)),
        }
        if self.keep_positions:
            cols["pos_terms"] = lists(r["tokens"], vocab.take(r["pos_term"]))
            cols["positions"] = lists(
                r["tokens"], pa.array(r["positions"].astype(np.int32)))
        return pa.table(cols)


class AnalyzeSimple:
    """Vectorized simple-profile analyze (SQL-mirrorable; no Python loop
    over rows for tokenization — Arrow kernels end-to-end, then a numpy
    pass for per-doc counting)."""

    def __init__(self, text_col: str = "text", keep_positions: bool = False):
        from ..analysis import SimpleAnalyzer

        self.sa = SimpleAnalyzer
        self.text_col = text_col
        self.keep_positions = keep_positions

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        lists = self.sa.tokens_arrays(batch[self.text_col])
        lengths = pa.compute.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = lists.flatten()
        n_docs = len(lengths)
        terms_col, tfs_col = [], []
        vals = flat.to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        for i in range(n_docs):
            seg = vals[starts[i] : starts[i + 1]]
            if len(seg) == 0:
                terms_col.append([])
                tfs_col.append([])
                continue
            uniq, counts = np.unique(seg, return_counts=True)
            terms_col.append(uniq.tolist())
            tfs_col.append(counts.tolist())
        cols = {
            "doc_id": batch["doc_id"],
            "terms": pa.array(terms_col, pa.list_(pa.large_string())),
            "tfs": pa.array(tfs_col, pa.list_(pa.int32())),
            "width": pa.array(lengths, pa.int32()),
            "tokens": pa.array(lengths, pa.int32()),
        }
        if self.keep_positions:
            cols["pos_terms"] = lists  # token order = positions 0..n-1
            pos = [list(range(int(n))) for n in lengths]
            cols["positions"] = pa.array(pos, pa.list_(pa.int32()))
        return pa.table(cols)
