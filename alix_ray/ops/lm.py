"""Bigram language-model quality scoring (CCNet-style perplexity
filter: Wenzek et al. 2020 score web documents with a corpus LM and
keep the low-perplexity head — the standard pretraining-data quality
signal alongside the heuristic metrics in :mod:`textstats`).

Two distributed pieces:

* :func:`train_bigram_counts` — ONE tokenize pass emitting per-batch
  partial unigram AND bigram counts (combine-before-shuffle), then a
  single ``groupby(gram).sum`` exchange.  At 100 TB the count table is
  the only thing shuffled — never token occurrences.
* :func:`perplexity` — per-doc add-k smoothed bigram perplexity.  The
  model ships ONCE per worker (``ray.put`` + per-process cache) when it
  fits (``PPL_BROADCAST_MAX_GRAMS`` grams); beyond that the scorer
  switches to a count join through gram-hash
  :func:`~alix_ray.ops.exchange.exchange` shuffles, so no single
  process ever holds the model.

Token profile is :class:`~alix_ray.analysis.SimpleAnalyzer` — the
DuckDB-mirrorable ``[a-z0-9]+`` split — so the SQL oracle reproduces
every probability exactly (``queries.py q_lm_perplexity``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..analysis import SimpleAnalyzer
from ._util import broadcast_cached
from .exchange import exchange, string_key
from .textstats import round_half_away

# Gram count up to which perplexity broadcasts the count table; past it
# the scorer joins occurrences to counts through exchanges.
PPL_BROADCAST_MAX_GRAMS = 5_000_000


def _bigram_rows(batch: pa.Table, text_col: str):
    """Vectorized (owner_row, bigram_pos, flat_tokens, w1, w2) for one
    batch: flatten the token lists, pair adjacent tokens that share an
    owner row."""
    lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
    n = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    flat = lists.flatten()
    owner = np.repeat(np.arange(len(n), dtype=np.int64), n)
    if len(owner) < 2:
        idx = np.empty(0, np.int64)
    else:
        idx = np.nonzero(owner[:-1] == owner[1:])[0]
    w1 = flat.take(pa.array(idx, pa.int64()))
    w2 = flat.take(pa.array(idx + 1, pa.int64()))
    return owner, idx, flat, w1, w2


def train_bigram_counts(ds: ray.data.Dataset,
                        text_col: str = "text") -> ray.data.Dataset:
    """Corpus n-gram counts in one pass: rows ``(gram, order, cnt)``
    where order-1 grams are single tokens and order-2 grams are
    ``"w1 w2"`` (space-joined — token chars are ``[a-z0-9]`` so the
    separator never collides, and gram alone is a unique key across
    both orders).  Partial counts per batch, one global sum shuffle."""

    def partial(batch: pa.Table) -> pa.Table:
        _, _, flat, w1, w2 = _bigram_rows(batch, text_col)
        uni = pc.value_counts(flat)
        bi = pc.value_counts(pc.binary_join_element_wise(w1, w2, " "))
        grams = pa.concat_arrays([
            uni.field(0).cast(pa.string()), bi.field(0).cast(pa.string()),
        ])
        cnt = pa.concat_arrays([
            uni.field(1).cast(pa.int64()), bi.field(1).cast(pa.int64()),
        ])
        return pa.table({"gram": grams, "cnt": cnt})

    def with_order(batch: pa.Table) -> pa.Table:
        order = pc.add(
            pc.cast(pc.match_substring(batch["gram"], " "), pa.int64()), 1)
        return batch.append_column("order", order)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("gram")
        .sum("cnt")
        .rename_columns({"sum(cnt)": "cnt"})
        .map_batches(with_order, batch_format="pyarrow")
    )


def _doc_table(batch: pa.Table, owner, idx, logp) -> pa.Table:
    """Aggregate per-bigram logp back to per-doc rows (bincount —
    a doc's text lives in one row, so no cross-batch shuffle)."""
    n_rows = len(batch)
    nbig = np.bincount(owner[idx], minlength=n_rows)
    s = np.bincount(owner[idx], weights=logp, minlength=n_rows)
    keep = nbig > 0
    avg = s[keep] / np.maximum(nbig[keep], 1)
    return pa.table({
        "doc_id": batch["doc_id"].filter(pa.array(keep)),
        "n_bigrams": pa.array(nbig[keep].astype(np.int64)),
        "avg_logprob": pa.array(round_half_away(avg)),
        "ppl": pa.array(round_half_away(np.exp(-avg))),
    })


def perplexity(ds: ray.data.Dataset, text_col: str = "text",
               add_k: float = 0.5, counts: ray.data.Dataset | None = None,
               ) -> ray.data.Dataset:
    """Per-doc bigram perplexity under the corpus (or a supplied) LM.

    Output rows ``(doc_id, n_bigrams, avg_logprob, ppl)`` — docs with
    fewer than two tokens have no bigrams and drop out (matching the
    oracle's GROUP BY).  ``ppl = exp(-mean log P)`` with add-k smoothed
    ``P(w2|w1) = (c(w1 w2)+k) / (c(w1)+k·V)``; grams the LM has never
    seen (foreign-LM scoring) use count 0.

    The count table is broadcast when it has at most
    ``PPL_BROADCAST_MAX_GRAMS`` grams (one ``ray.put``, cached per
    worker process, ``pc.index_in`` hash lookups per batch — no shuffle
    at all), else occurrences join counts by gram-hash exchange
    (coarse shuffles with bounded groups — the 10^9-vocabulary path).
    """
    if counts is None:
        counts = train_bigram_counts(ds, text_col)
    counts = counts.materialize()
    if counts.count() <= PPL_BROADCAST_MAX_GRAMS:
        return _ppl_broadcast(ds, counts, text_col, add_k)
    return _ppl_join(ds, counts, text_col, add_k)


def _ppl_broadcast(ds, counts, text_col, add_k):
    t = pa.table(counts.to_pandas())
    uni_mask = pc.equal(t["order"], 1)
    uni = t.filter(uni_mask)
    bi = t.filter(pc.invert(uni_mask))
    n_vocab = len(uni)
    model_ref = ray.put((
        uni["gram"].combine_chunks(),
        uni["cnt"].to_numpy().astype(np.float64),
        bi["gram"].combine_chunks(),
        bi["cnt"].to_numpy().astype(np.float64),
    ))

    def score(batch: pa.Table) -> pa.Table:
        uni_g, uni_c, bi_g, bi_c = broadcast_cached(model_ref)
        owner, idx, _, w1, w2 = _bigram_rows(batch, text_col)
        gram = pc.binary_join_element_wise(w1, w2, " ")
        i1 = pc.fill_null(pc.index_in(w1, value_set=uni_g), -1)
        i2 = pc.fill_null(pc.index_in(gram, value_set=bi_g), -1)
        i1 = i1.to_numpy(zero_copy_only=False).astype(np.int64)
        i2 = i2.to_numpy(zero_copy_only=False).astype(np.int64)
        c1 = np.where(i1 >= 0, uni_c[np.maximum(i1, 0)], 0.0)
        c2 = np.where(i2 >= 0, bi_c[np.maximum(i2, 0)], 0.0)
        logp = np.log((c2 + add_k) / (c1 + add_k * float(n_vocab)))
        return _doc_table(batch, owner, idx, logp)

    return ds.map_batches(score, batch_format="pyarrow")


def _ppl_join(ds, counts, text_col, add_k):
    """Scale path: no process holds the LM.  Occurrence rows and count
    rows share one slim schema ``(doc_id, key, carry, cnt)`` and meet
    in an exchange on the gram hash — count rows have null doc_id,
    occurrence rows null cnt.  Two gram-keyed exchanges (bigram count,
    then unigram count), then a doc-keyed sum."""
    n_vocab = counts.filter(expr="order == 1").count()

    def occ(batch: pa.Table) -> pa.Table:
        owner, idx, _, w1, w2 = _bigram_rows(batch, text_col)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids[owner[idx]], pa.int64()),
            "key": pc.binary_join_element_wise(w1, w2, " "),
            "carry": w1.cast(pa.string()),  # next join key
            "cnt": pa.nulls(len(idx), pa.float64()),
        })

    def count_rows(order: int):
        def conv(batch: pa.Table) -> pa.Table:
            m = pc.equal(batch["order"], order)
            g = batch["gram"].filter(m)
            c = batch["cnt"].filter(m).cast(pa.float64())
            return pa.table({
                "doc_id": pa.nulls(len(g), pa.int64()),
                "key": g.cast(pa.string()),
                "carry": pa.nulls(len(g), pa.string()),
                "cnt": c,
            })
        return conv

    def _pkey(tbl: pa.Table) -> pa.Table:
        return tbl.append_column("pkey", pa.array(string_key(tbl["key"])))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        """Occurrence rows pick up the count for their key (0 when the
        LM never saw it); the carry column becomes the next join key
        and the looked-up count rides in carry's old slot's place."""
        is_cnt = g["doc_id"].isna()
        lut = pd.Series(g.loc[is_cnt, "cnt"].to_numpy(),
                        index=g.loc[is_cnt, "key"])
        rows = g[~is_cnt]
        looked = rows["key"].map(lut).fillna(0.0).to_numpy()
        return pd.DataFrame({
            "doc_id": rows["doc_id"].to_numpy(np.int64),
            "key": rows["carry"].to_numpy(),  # w1 for join #2
            "carry": looked.astype(str),      # c2 rides as string carry
            "cnt": np.full(len(rows), np.nan),
        })

    occ_ds = ds.map_batches(occ, batch_format="pyarrow")
    bi_cnt = counts.map_batches(count_rows(2), batch_format="pyarrow")
    uni_cnt = counts.map_batches(count_rows(1), batch_format="pyarrow")

    step1 = exchange(occ_ds.union(bi_cnt).map_batches(
        _pkey, batch_format="pyarrow"), attach, "pkey")

    def attach2(g: pd.DataFrame) -> pd.DataFrame:
        is_cnt = g["doc_id"].isna()
        lut = pd.Series(g.loc[is_cnt, "cnt"].to_numpy(),
                        index=g.loc[is_cnt, "key"])
        rows = g[~is_cnt]
        c1 = rows["key"].map(lut).fillna(0.0).to_numpy()
        c2 = rows["carry"].to_numpy(np.float64)
        logp = np.log((c2 + add_k) / (c1 + add_k * float(n_vocab)))
        return pd.DataFrame({"doc_id": rows["doc_id"].to_numpy(np.int64),
                             "logp": logp})

    step2 = exchange(step1.union(uni_cnt).map_batches(
        _pkey, batch_format="pyarrow"), attach2, "pkey")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("doc_id", sort=True)["logp"].agg(["sum", "count"])
        avg = agg["sum"].to_numpy() / agg["count"].to_numpy()
        return pd.DataFrame({
            "doc_id": agg.index.to_numpy(np.int64),
            "n_bigrams": agg["count"].to_numpy(np.int64),
            "avg_logprob": round_half_away(avg),
            "ppl": round_half_away(np.exp(-avg)),
        })

    # finish() re-groups each partition exactly by doc_id
    return exchange(step2, finish, "doc_id")
