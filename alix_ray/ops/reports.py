"""Vocabulary-report operators — the reference's CLI report tools
re-expressed as distributed freqlists (cli/Keywords.java:31-89,
cli/Unknowns.java:44-140, cli/Names.java:44-188,
cli/Expressions.java:43-380).

* :func:`keywords_report` — per-doc top-k terms under the reference's
  three Distrib scorers (FREQ, G test, FREQ·IDF).  Runs on the
  SQL-mirrorable simple profile so it carries a FULL DuckDB oracle;
  ``Distrib.java``/``FormEnum.java`` are absent from the reference
  tree (stripped, like the 500k ``word.csv``), so G is this repo's
  established signed-G² convention (``analytics.keyness_g2``) and IDF
  is the textbook ``ln(N/df)`` — both documented divergences.
* :func:`unknowns_report` / :func:`names_report` /
  :func:`expressions_report` — French-chain freqlists with the
  reference's exact break rules (lexicon-unknown forms; maximal
  proper-name runs; 3-word open-class chunks).  The chain is
  per-doc Python by nature (same as the reference), so these are
  actor-pool stages over the corpus with partial counts per batch and
  ONE small groupby-sum of (form, n) rows — the freqlist shuffle
  carries distinct forms, never token occurrences.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..analysis import SimpleAnalyzer
from ._util import actor_pool, broadcast_cached, default_concurrency
from .analytics import keyness_g2
from .textstats import round_half_away

# closed-class POS the Expressions chunker breaks on
# (Expressions.java:343-353: PUN | VERB | DET | CONN | PRO | ADV)
_CLOSED_POS = frozenset(
    {"VERB", "AUX", "DET", "PRON", "ADV", "ADP", "CCONJ", "SCONJ", "CONN"})


# ---------------------------------------------------------------------
# Keywords (full-oracle; simple profile)
# ---------------------------------------------------------------------


def keywords_report(ds: ray.data.Dataset, k: int = 10,
                    text_col: str = "text",
                    stopwords: frozenset | None = None) -> ray.data.Dataset:
    """Per-doc top-``k`` terms under each scorer, rows
    ``(doc_id, metric, rank, term, score)`` with metric ∈
    {freq, g, freq_idf}; stop words excluded before scoring
    (Keywords.java uses the no-stop form enum).  Ranking is by
    ``(round(score, 6) DESC, term ASC)`` — rounding BEFORE ranking
    keeps the order reproducible in SQL float64 arithmetic.

    Corpus stats (df/cf/N/total) come from one partial-count pass +
    small groupby, broadcast once per worker (``ray.put`` +
    ``pc.index_in``); at web vocabularies swap the broadcast for the
    gram-partitioned join of :mod:`~alix_ray.ops.lm` (same shape)."""
    from .textstats import LANG_PROFILES

    stop = stopwords if stopwords is not None \
        else frozenset(LANG_PROFILES["en"])
    stop_arr = pa.array(sorted(stop))

    def partial(batch: pa.Table) -> pa.Table:
        lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
        flat = lists.flatten()
        flat = flat.filter(pc.invert(pc.is_in(flat, value_set=stop_arr)))
        vc = pc.value_counts(flat)
        return pa.table({
            "term": vc.field(0).cast(pa.string()),
            "cf": vc.field(1).cast(pa.int64()),
        })

    n_docs = ds.count()
    stats = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("term").sum("cf").to_pandas())
    # df needs per-doc distinct terms — second slim pass (vectorized:
    # dedupe (owner, term) pairs per batch, then count terms)
    def df_partial(batch: pa.Table) -> pa.Table:
        lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
        n = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(n), dtype=np.int64), n)
        pairs = pd.DataFrame({"term": lists.flatten().to_pylist(),
                              "owner": owner}).drop_duplicates()
        vc = pairs["term"].value_counts()
        return pa.table({"term": pa.array(vc.index.tolist(), pa.string()),
                         "df": pa.array(vc.to_numpy(np.int64))})

    dfs = (ds.map_batches(df_partial, batch_format="pyarrow")
           .groupby("term").sum("df").to_pandas())
    merged = stats.merge(dfs, on="term", how="left")
    terms_arr = pa.array(merged["term"].tolist(), pa.string())
    cf_arr = merged["sum(cf)"].to_numpy(np.float64)
    df_arr = merged["sum(df)"].fillna(0).to_numpy(np.float64)
    total = float(cf_arr.sum())
    model_ref = ray.put((terms_arr, cf_arr, df_arr, total, n_docs))

    def score(batch: pa.Table) -> pa.Table:
        terms_a, cf_a, df_a, tot, nd = broadcast_cached(model_ref)
        lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        # per-doc distinct (term, tf), collected batch-wide so the
        # corpus-vocabulary hash lookup (index_in builds a table over
        # value_set per CALL) runs ONCE per batch, not once per doc
        doc_terms, doc_tfs, doc_rows = [], [], []
        for i in range(len(ids)):
            toks = lists.slice(i, 1).flatten()
            toks = toks.filter(
                pc.invert(pc.is_in(toks, value_set=stop_arr)))
            if len(toks) == 0:
                continue
            vc = pc.value_counts(toks)
            doc_terms.append(vc.field(0))
            doc_tfs.append(vc.field(1).to_numpy(zero_copy_only=False)
                           .astype(np.float64))
            doc_rows.append(i)
        rows = {"doc_id": [], "metric": [], "rank": [], "term": [],
                "score": []}
        if not doc_rows:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "metric": pa.array([], pa.string()),
                "rank": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "score": pa.array([], pa.float64()),
            })
        all_terms = pa.concat_arrays(
            [t.combine_chunks() if isinstance(t, pa.ChunkedArray) else t
             for t in doc_terms])
        all_ix = pc.index_in(all_terms, value_set=terms_a) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        offs = np.concatenate(
            ([0], np.cumsum([len(t) for t in doc_terms])))
        for j, i in enumerate(doc_rows):
            t_terms = doc_terms[j]
            tf = doc_tfs[j]
            dl = float(tf.sum())
            ix = all_ix[offs[j]:offs[j + 1]]
            cf = cf_a[ix]
            dfv = df_a[ix]
            t_list = np.asarray(t_terms.to_pylist(), dtype=object)
            g = keyness_g2(tf, dl, cf - tf, tot - dl)
            idf = np.log(nd / np.maximum(dfv, 1.0))
            for metric, s in (("freq", tf), ("g", g),
                              ("freq_idf", tf * idf)):
                s6 = round_half_away(s)
                order = np.lexsort((t_list.astype(str), -s6))[:k]
                nsel = len(order)
                rows["doc_id"].extend([int(ids[i])] * nsel)
                rows["metric"].extend([metric] * nsel)
                rows["rank"].extend(range(1, nsel + 1))
                rows["term"].extend(t_list[order].tolist())
                rows["score"].extend(s6[order].tolist())
        return pa.table({
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "metric": pa.array(rows["metric"], pa.string()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "term": pa.array(rows["term"], pa.string()),
            "score": pa.array(rows["score"], pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------
# French-chain freqlist reports (rows-only — the chain is non-SQL)
# ---------------------------------------------------------------------


def _freqlist(ds: ray.data.Dataset, forms_fn, k: int,
              concurrency: int | None = None) -> pd.DataFrame:
    """Shared shape: actor-pool analyze pass emitting per-batch PARTIAL
    (form, n) counts, one small groupby sum, exact global top-k with
    (n DESC, form ASC) ties."""

    class Extract:
        def __init__(self):
            from ..analysis import FrenchAnalyzer

            self.fa = FrenchAnalyzer()

        def __call__(self, batch: pa.Table) -> pa.Table:
            from collections import Counter

            c: Counter = Counter()
            for text in batch["text"].to_pylist():
                c.update(forms_fn(self.fa, text or ""))
            return pa.table({
                "form": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            })

    if concurrency is None:
        concurrency = default_concurrency()
    counts = (
        ds.map_batches(Extract, batch_format="pyarrow",
                       **actor_pool(concurrency))
        .groupby("form").sum("n").to_pandas()
        .rename(columns={"sum(n)": "n"})
    )
    if "form" not in counts.columns:  # no form anywhere → schemaless
        return pd.DataFrame({"form": pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    return (counts.sort_values(["n", "form"], ascending=[False, True],
                               kind="stable").head(k)
            .reset_index(drop=True))


def unknowns_report(ds: ray.data.Dataset, k: int = 2000) -> pd.DataFrame:
    """Freqlist of forms the analyzer cannot explain — no lexicon
    resolution, not a proper name, not stop, len ≥ 3, last char not a
    digit/apostrophe (Unknowns.java:118-133 skip rules)."""

    def forms(fa, text):
        for t in fa._chain(text):
            if t.cls != "WORD" or not t.text or len(t.text) < 3:
                continue
            if t.lex or t.lemma or t.pos == "PROPN":
                continue
            if t.text.lower() in fa.stopwords:
                continue
            last = t.text[-1]
            if last.isdigit() or last == "'":
                continue
            yield t.text
    return _freqlist(ds, forms, k)


def names_report(ds: ray.data.Dataset, k: int = 2000) -> pd.DataFrame:
    """Freqlist of maximal proper-name runs, with the reference's
    break/flush structure (Names.java:128-186):

    * candidate tokens (PROPN-tagged, or capitalized lexicon-unknown;
      digit-FINAL excluded, rule A1) append to the run, and the
      ACCUMULATED form is stop-checked (a run that becomes a stop
      phrase resets without counting);
    * a run is FLUSHED (counted) only on a break token — punctuation,
      math- or digit-initial, or a dictionary-known word; at the
      flush, empty / 1-char / trailing-``'``/``.`` / two-single-char
      (``? ?`` glob) forms are discarded;
    * any other token (e.g. a lowercase unknown word) passes through
      WITHOUT flushing, so a multi-word name spanning it still counts
      as one form — exactly the Java chain's behavior.

    Documented divergence: the reference additionally excludes
    place/org-TYPED name candidates (NAMEplace/NAMEorg flags from its
    name dictionaries); the bundled mini-lexicon carries no name
    typing, so every name candidate participates."""
    _MATH = frozenset("<>=+±×÷")

    def forms(fa, text):
        run: list[str] = []

        def flush():
            form = " ".join(run)
            run.clear()
            if len(form) <= 1 or form[-1] in "'.":
                return None
            if len(form) == 3 and form[1] == " ":  # the "? ?" glob
                return None
            return form

        for t in fa._chain(text):
            if not t.text:
                continue  # empty position (stop hole) — no break
            if t.cls == "WORD":
                is_cand = ((t.pos == "PROPN"
                            or (t.text[:1].isupper() and not t.lex
                                and t.text.lower() not in fa.stopwords))
                           and not t.text[-1].isdigit())
                if is_cand:
                    run.append(t.text)
                    if " ".join(run).lower() in fa.stopwords:
                        run.clear()  # accumulated-form stop check
                    continue
            c0 = t.text[0]
            is_break = (t.cls != "WORD" or c0.isdigit() or c0 in _MATH
                        or t.lex or bool(t.lemma))
            if is_break and run:
                form = flush()
                if form is not None:
                    yield form
            # non-break non-candidates pass through; run persists
        if run:
            form = flush()
            if form is not None:
                yield form
    return _freqlist(ds, forms, k)


def expressions_report(ds: ray.data.Dataset, k: int = 2000,
                       width: int = 3) -> pd.DataFrame:
    """Freqlist of ``width``-word open-class chunks: runs break on
    punctuation, closed-class POS, stop words, digit- or
    hyphen-initial tokens; every time a run reaches ``width`` words it
    is counted and restarted (Expressions.java:337-376)."""

    def forms(fa, text):
        run: list[str] = []
        for t in fa._chain(text):
            if (t.cls != "WORD" or not t.text
                    or (t.pos in _CLOSED_POS)
                    or t.text.lower() in fa.stopwords
                    or t.text[0].isdigit() or t.text[0] == "-"):
                run = []
                continue
            run.append(t.text)
            if len(run) >= width:
                yield " ".join(run)
                run = []
    return _freqlist(ds, forms, k)


# ---------------------------------------------------------------------
# Balinoms — tag person names inside XML (cli/Balinoms.java:175-245)
# ---------------------------------------------------------------------


def _tag_names_one(fa, xml: str) -> tuple[str, int]:
    """Splice ``<persName key="…">…</persName>`` around name tokens
    using their source offsets; every byte outside the injected tags is
    the original document (Balinoms.java prints the inter-token
    substrings verbatim).  Returns (tagged_xml, n_names)."""
    parts: list[str] = []
    begin = 0
    n = 0
    for t in fa._chain(xml):
        if t.cls != "WORD" or not t.text:
            continue
        is_name = (t.pos == "PROPN"
                   or (t.text[:1].isupper() and not t.lex
                       and len(t.text) > 1
                       and t.text.lower() not in fa.stopwords))
        if not is_name:
            continue
        key = t.lemma or t.text
        parts.append(xml[begin:t.start])
        parts.append(f'<persName key="{key}">')
        parts.append(xml[t.start:t.end])
        parts.append("</persName>")
        begin = t.end
        n += 1
    parts.append(xml[begin:])
    return "".join(parts), n


def balinoms(ds: ray.data.Dataset, text_col: str = "text",
             id_col: str = "doc_id",
             concurrency: int | None = None) -> ray.data.Dataset:
    """Distributed Balinoms: rows ``(doc_id, tagged, n_names)`` — the
    XML with person-name tokens wrapped in ``<persName key=lemma>``
    elements (pers-initial merging on, so "M. Martin" tags as one
    name).  Actor-pool stage, analyzer loaded once per worker."""

    class Tag:
        def __init__(self):
            from ..analysis import FrenchAnalyzer

            self.fa = FrenchAnalyzer(pers_initial=True)

        def __call__(self, batch: pa.Table) -> pa.Table:
            tagged, counts = [], []
            for xml in batch[text_col].to_pylist():
                t, n = _tag_names_one(self.fa, xml or "")
                tagged.append(t)
                counts.append(n)
            return pa.table({
                id_col: batch[id_col],
                "tagged": pa.array(tagged, pa.large_string()),
                "n_names": pa.array(counts, pa.int64()),
            })

    if concurrency is None:
        concurrency = default_concurrency()
    return ds.map_batches(Tag, batch_format="pyarrow",
                          **actor_pool(concurrency))
