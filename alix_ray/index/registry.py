"""Operation registry façade — the servlet dispatch surface without
the HTTP container (reference: ``AlixServlet.java:109-146`` routing +
``:542-553`` op registry, ``Op.java:114-140`` format dispatch).

The reference registers ``chrono, clades, cooc-profile, doc, freqlist,
results, snippets, suggest, terms`` over a frozen ``LuceneIndex``
handle per index name.  Here:

- :class:`IndexRegistry` — name → frozen :class:`BM25Index`
  (``IndexRegistry.java`` analog; handles are immutable and shared);
- :data:`OPS` — op name → handler ``(ix, pars) -> result``; add an op
  by decorating with :func:`op` (the user-extension surface of
  SURVEY.md §2.10);
- :func:`handle` — one-call dispatch with the reference's
  ``{op}.{format}`` convention: ``handle(ix, "results.json", pars)``;
  formats (``json/jsonl/csv/html/docx``) apply to hit-list ops via the
  :mod:`alix_ray.ops.render` hooks, other ops return plain data.

Ops that aggregate over the CORPUS tables rather than the index alone
(``chrono``, ``cooc-profile``, ``clades``) delegate to their existing
oracled pipeline callables and need ``pars["sf_dir"]`` — the engine
serves per-index state, Ray Data serves the table scans, exactly the
reference's split between ``LuceneIndex`` and its lazily-built
sidecar inventories (``FlucText.java:387-501``).
"""

from __future__ import annotations

from .engine import BM25Index

OPS: dict = {}


def op(name: str):
    """Register an op handler (Op.java subclass-registration analog)."""

    def deco(fn):
        OPS[name] = fn
        return fn

    return deco


class IndexRegistry:
    """name → frozen index handle, opened once (IndexRegistry.java)."""

    def __init__(self):
        self._open: dict[str, BM25Index] = {}
        self._dirs: dict[str, str] = {}

    def get(self, name: str, index_dir: str | None = None) -> BM25Index:
        ix = self._open.get(name)
        if ix is None:
            if index_dir is None:
                raise KeyError(f"index {name!r} not registered")
            ix = BM25Index(index_dir)
            self._open[name] = ix
            self._dirs[name] = index_dir
        elif index_dir is not None and index_dir != self._dirs[name]:
            # silently serving the old handle would query stale data
            raise ValueError(
                f"index {name!r} already registered at "
                f"{self._dirs[name]!r}; refusing to rebind to "
                f"{index_dir!r} — use a new name or a new registry"
            )
        return ix


def _hits(ix: BM25Index, pars: dict):
    """Shared q→hits resolution (Op.java common param block): parse
    query, optional conjunctive span mode, k / start pagination,
    explicit sort mode."""
    from ..ops.render import order_hits

    k = int(pars.get("k", 10))
    start = int(pars.get("start", 0))
    terms = ix.parse(pars.get("q", ""))
    slop = pars.get("slop")
    if slop is not None:  # the reference's SpanNear relevance mode
        hits = ix.search_span(terms, start + k, slop=int(slop))
    else:
        hits = ix.search_terms(terms, start + k)
    hits = order_hits(hits, pars.get("sort", "score"))
    return terms, hits[start : start + k]


@op("results")
def op_results(ix: BM25Index, pars: dict):
    """Top-k hit list with the three /results sort modes
    (OpResults.java:163-271) + pagination."""
    _terms, hits = _hits(ix, pars)
    return hits


@op("doc")
def op_doc(ix: BM25Index, pars: dict):
    """Stored-document fetch (the /doc op)."""
    return ix.document(int(pars["id"]))


@op("suggest")
def op_suggest(ix: BM25Index, pars: dict):
    """Diacritic-folded prefix/infix suggestion (TermSuggest); the
    folded vocabulary frame is cached on the handle."""
    from ..ops.analytics import suggest

    out = suggest(ix.suggest_frame(), pars.get("q", ""),
                  int(pars.get("k", 10)))
    return list(zip(out["term"], (int(c) for c in out["cf"])))


@op("freqlist")
def op_freqlist(ix: BM25Index, pars: dict):
    """Vocabulary ranking by corpus frequency (OpFreqlist.java:21-60)."""
    terms = ix.cf.top(int(pars.get("k", 50)))
    return [(t, int(ix.cf[t]), int(ix.df[t])) for t in terms]


@op("terms")
def op_terms(ix: BM25Index, pars: dict):
    """Theme terms for a focus doc set (OpTerms.java main mode): rank
    vocabulary against ``pars["docs"]`` (iterable of doc ids) under a
    contrastive ``mode`` (BM25/MINUS/WEIGHTED/IRDF/RSJ/FACTOR/DKL)."""
    import numpy as np

    mask = np.zeros(ix.n_slots, bool)
    mask[np.asarray(list(pars["docs"]), np.int64)] = True
    return ix.theme_terms(mask, k=int(pars.get("k", 20)),
                          mode=pars.get("mode", "BM25"))


@op("snippets")
def op_snippets(ix: BM25Index, pars: dict):
    """Per-doc highlight fragments for q over the stored text (the
    /snippets op; milestones pass through to the fragment renderer)."""
    from ..ops.snippets import doc_snippets

    terms = set(ix.parse(pars.get("q", "")))
    doc = ix.document(int(pars["id"]))
    return doc_snippets(doc.get("text", "") or "", terms,
                        merge_gap=int(pars.get("merge_gap", 6)),
                        ctx=int(pars.get("ctx", 3)),
                        milestones=pars.get("milestones"))


@op("chrono")
def op_chrono(ix: BM25Index, pars: dict):
    """Year histogram of query hits (OpChrono shape): top-N hits
    binned by the stored ``warc_ts`` year."""
    from collections import Counter

    pars = dict(pars, k=pars.get("k", 1000))
    _terms, hits = _hits(ix, pars)
    years = Counter()
    for doc_id, _score in hits:
        ts = ix.document(doc_id).get("warc_ts")
        if ts is not None:
            years[str(ts)[:4]] += 1
    return sorted(years.items())


@op("cooc-profile")
def op_cooc_profile(_ix: BM25Index, pars: dict):
    """Corpus-table op — delegates to the oracled pipeline (needs
    pars['sf_dir']); the engine's role here is only name dispatch."""
    from ..pipelines import queries as q

    return q.QUERIES["cooc_profile"](pars["sf_dir"])


@op("clades")
def op_clades(_ix: BM25Index, pars: dict):
    from ..pipelines import queries as q

    return q.QUERIES["clades"](pars["sf_dir"])


def handle(ix: BM25Index, op_fmt: str, pars: dict | None = None):
    """Dispatch ``{op}.{format}`` (AlixServlet.java:283 split).  Format
    hooks apply to hit-list results; ``.data`` (default) returns the
    handler's python value."""
    pars = dict(pars or {})
    name, _, fmt = op_fmt.partition(".")
    if name not in OPS:
        raise KeyError(f"unknown op {name!r}; registered: {sorted(OPS)}")
    result = OPS[name](ix, pars)
    if not fmt or fmt == "data":
        return result
    from ..ops import render

    hooks = {"json": render.to_json, "jsonl": render.to_jsonl,
             "csv": render.to_csv, "html": render.to_html,
             "docx": render.to_docx}
    if fmt not in hooks:
        raise ValueError(f"unknown format {fmt!r}")
    if name != "results":
        raise ValueError(
            f"format rendering applies to 'results' (got {name!r}); "
            "use '.data' for structured ops"
        )
    kwargs = {} if fmt in ("jsonl", "csv") else {"q": pars.get("q", "")}
    return hooks[fmt](result, **kwargs)
