"""Reference-parity analytics operators (SURVEY.md §2.5, §2.6, §2.9).

All scorers are vectorized numpy over (term, focus/other count) arrays;
all pipelines are Ray Data groupby/aggregate shapes with partial
aggregation inside ``map_batches`` where the reduction allows it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Sum

from ..analysis import SimpleAnalyzer


# ---------------------------------------------------------------------
# Keyness scorers (KeynessScorer.java:77-260) — exact formula parity
# ---------------------------------------------------------------------


def keyness_chi2(fo_count, fo_tokens, ot_count, ot_tokens):
    """Signed Pearson X² over the 2×2 term/non-term table
    (KeynessScorer.java Chi2; sign = rate direction)."""
    fo_count = np.asarray(fo_count, np.float64)
    ot_count = np.asarray(ot_count, np.float64)
    fnon = fo_tokens - fo_count
    onon = ot_tokens - ot_count
    allt = float(fo_tokens + ot_tokens)
    term_t = fo_count + ot_count
    non_t = fnon + onon

    def cell(obs, exp):
        out = np.zeros_like(obs)
        m = exp > 0
        d = obs[m] - exp[m]
        out[m] = d * d / exp[m]
        return out

    e1 = fo_tokens * term_t / allt
    e2 = ot_tokens * term_t / allt
    e3 = fo_tokens * non_t / allt
    e4 = ot_tokens * non_t / allt
    x2 = cell(fo_count, e1) + cell(ot_count, e2) + cell(fnon, e3) + cell(onon, e4)
    sign = np.where(fo_count / fo_tokens >= ot_count / ot_tokens, 1.0, -1.0)
    return sign * x2


def keyness_g2(fo_count, fo_tokens, ot_count, ot_tokens):
    """Signed log-likelihood G² (Dunning 1993; KeynessScorer.java G2)."""
    fo_count = np.asarray(fo_count, np.float64)
    ot_count = np.asarray(ot_count, np.float64)
    fnon = fo_tokens - fo_count
    onon = ot_tokens - ot_count
    allt = float(fo_tokens + ot_tokens)
    term_t = fo_count + ot_count
    non_t = fnon + onon

    def part(obs, exp):
        out = np.zeros_like(obs)
        m = (obs > 0) & (exp > 0)
        out[m] = 2.0 * obs[m] * np.log(obs[m] / exp[m])
        return out

    g2 = (
        part(fo_count, fo_tokens * term_t / allt)
        + part(ot_count, ot_tokens * term_t / allt)
        + part(fnon, fo_tokens * non_t / allt)
        + part(onon, ot_tokens * non_t / allt)
    )
    sign = np.where(fo_count / fo_tokens >= ot_count / ot_tokens, 1.0, -1.0)
    return sign * g2


def keyness_logdice(fo_count, fo_tokens, ot_count):
    """14 + log2(2·fo / (fo_tokens + termTotal)) (KeynessScorer LogDice)."""
    fo_count = np.asarray(fo_count, np.float64)
    ot_count = np.asarray(ot_count, np.float64)
    dice = 2.0 * fo_count / (fo_tokens + fo_count + ot_count)
    with np.errstate(divide="ignore"):
        return 14.0 + np.log2(dice)


def keyness_simplemaths(fo_count, fo_tokens, ot_count, ot_tokens, k=1.0):
    """Smoothed per-million rate ratio (Kilgarriff 2009;
    KeynessScorer.java SimpleMaths:233-258)."""
    fo = np.asarray(fo_count, np.float64)
    ot = np.asarray(ot_count, np.float64)
    ppm_f = fo * 1_000_000.0 / fo_tokens + k
    ppm_o = ot * 1_000_000.0 / ot_tokens + k
    return ppm_f / ppm_o


def part_pearson(fo_count, fo_tokens, total_count, total_tokens):
    """Adjusted Pearson residual of the focus cell
    (PartScorer.java Pearson:791-860): z = (o − e)/√(e·(1−p_part)·(1−p_term))."""
    fo = np.asarray(fo_count, np.float64)
    tt = np.asarray(total_count, np.float64)
    expected = fo_tokens * tt / total_tokens
    part_prop = fo_tokens / total_tokens
    term_prop = tt / total_tokens
    var = expected * (1.0 - part_prop) * (1.0 - term_prop)
    out = np.zeros_like(fo)
    m = var > 0
    out[m] = (fo[m] - expected[m]) / np.sqrt(var[m])
    return out


def part_loglikelihood(part_counts, part_tokens, focus_part,
                       focus_term_docs, focus_docs,
                       dispersion_exponent=0.3, min_focus_term_docs=3,
                       min_part_tokens=1, tail_fraction=None):
    """Pairwise log-likelihood part scorer (PartScorer.java
    LogLikelihood:542 / LogLikelihoodTail:706): the focus part is
    compared 2×2 against EVERY other part (never a pooled rest); the
    strict variant takes the MINIMUM pair score, the tail variant the
    mean of the lowest ``ceil(count·tail_fraction)`` scores; the result
    is damped by focus-document coverage
    ``(focusTermDocs/focusDocs)^dispersionExponent``."""
    if min_focus_term_docs > 0 and focus_term_docs < min_focus_term_docs:
        return float("nan")
    fo = float(part_counts[focus_part])
    fo_tok = float(part_tokens[focus_part])
    if fo_tok <= 0:
        return float("nan")
    pair_scores = []
    for p in range(len(part_tokens)):
        if p == focus_part or part_tokens[p] < min_part_tokens:
            continue
        g2 = keyness_g2(np.array([fo]), fo_tok,
                        np.array([float(part_counts[p])]),
                        float(part_tokens[p]))[0]
        if not np.isnan(g2):
            pair_scores.append(float(g2))
    if not pair_scores:
        return float("nan")
    if tail_fraction is None:
        agg = min(pair_scores)  # strict: weakest pairwise evidence
    else:
        pair_scores.sort()
        tc = max(1, int(np.ceil(len(pair_scores) * tail_fraction)))
        agg = sum(pair_scores[:tc]) / tc
    if dispersion_exponent > 0 and focus_docs > 0 and focus_term_docs > 0:
        agg *= (focus_term_docs / focus_docs) ** dispersion_exponent
    return agg


def contrastive_terms(ds, part_col: str, focus_part: str, k: int = 20,
                      text_col: str = "text", tail_fraction: float = 0.20,
                      min_focus_term_docs: int = 3,
                      dispersion_exponent: float = 0.3,
                      min_part_tokens: int = 1):
    """The reference's ``/terms`` contrastive mode end-to-end
    (OpTerms.java:100-177: Partition + PartScorer.LogLikelihoodTail):
    distributed term×part count matrix → per-term pairwise LL-tail score
    for the focus part → top-k (score desc, term asc).

    Fully vectorized: the pairwise G2 runs once per NON-FOCUS PART over
    the whole (terms × 1) count column (P−1 keyness_g2 calls total),
    then the tail mean is a single row-sorted slice — no per-term
    Python loop (the scalar :func:`part_loglikelihood` is kept as the
    unit-tested reference kernel)."""
    import pandas as pd

    from ..ops.clades import contingency

    cont = contingency(ds, part_col, text_col=text_col)
    mat = cont.pivot_table(index="term", columns="category", values="n",
                           fill_value=0, aggfunc="sum")
    parts = list(mat.columns)
    fi = parts.index(focus_part)
    part_tokens = mat.sum(axis=0).to_numpy(np.int64)

    # per-term focus df: flat (doc, term) pairs → unique → bincount
    def focus_df(batch):
        m = pc.equal(batch[part_col], focus_part)
        sub = batch.filter(m)
        lists = SimpleAnalyzer.tokens_arrays(sub[text_col])
        lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(lengths)), lengths)
        if len(flat) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        uniq_terms, inv = np.unique(flat, return_inverse=True)
        key = owner.astype(np.int64) * len(uniq_terms) + inv
        tid, counts = np.unique(np.unique(key) % len(uniq_terms),
                                return_counts=True)
        return pa.table({"term": pa.array(uniq_terms[tid].tolist(), pa.string()),
                         "df": pa.array(counts, pa.int64())})

    fdf_parts = ds.map_batches(focus_df, batch_format="pyarrow").to_pandas()
    fdf = fdf_parts.groupby("term", as_index=False)["df"].sum()
    fdf_map = dict(zip(fdf["term"], fdf["df"]))
    n_focus_docs = int(ds.map_batches(
        lambda b: __import__("pyarrow").table(
            {"n": [int(pc.sum(pc.cast(pc.equal(b[part_col], focus_part),
                                      "int64")).as_py() or 0)]}),
        batch_format="pyarrow").sum("n"))

    counts = mat.to_numpy(np.float64)
    fo = counts[:, fi]
    fo_tok = float(part_tokens[fi])
    others = [p for p in range(len(parts))
              if p != fi and part_tokens[p] >= min_part_tokens]
    terms_idx = np.asarray(mat.index)
    if fo_tok <= 0 or not others:
        return pd.DataFrame({"term": pd.Series([], dtype="object"),
                             "score": pd.Series([], dtype="float64")})
    G = np.stack([
        keyness_g2(fo, fo_tok, counts[:, p], float(part_tokens[p]))
        for p in others
    ], axis=1)  # (terms, other parts)
    tc = max(1, int(np.ceil(G.shape[1] * tail_fraction)))
    G.sort(axis=1)
    score = G[:, :tc].mean(axis=1)
    fdfv = np.array([float(fdf_map.get(t, 0)) for t in terms_idx])
    if dispersion_exponent > 0 and n_focus_docs > 0:
        damp = np.where(fdfv > 0,
                        (fdfv / n_focus_docs) ** dispersion_exponent, 1.0)
        score = score * damp
    keep = fdfv >= min_focus_term_docs if min_focus_term_docs > 0 else (
        np.ones(len(score), bool)
    )
    keep &= ~np.isnan(score)
    terms_k, score_k = terms_idx[keep], score[keep]
    order = sorted(range(len(terms_k)),
                   key=lambda i: (-score_k[i], terms_k[i]))[:k]
    return pd.DataFrame(
        {"term": [str(terms_k[i]) for i in order],
         "score": [float(score_k[i]) for i in order]}
    )


def part_loglikelihood_residual(fo_count, fo_tokens, total_count,
                                total_tokens, min_focus_term_freq=5):
    """Focus-row log-likelihood deviance residual (PartScorer.java
    LogLikelihoodResidual:594-681): sign(O1−E1)·√(2·O1·ln(O1/E1) +
    2·O0·ln(O0/E0)) against the proportional-to-part-size null.
    Vectorized over terms; NaN when the expectation is degenerate or
    the focus count is under the floor."""
    fo = np.asarray(fo_count, np.float64)
    tt = np.asarray(total_count, np.float64)
    e1 = fo_tokens * tt / total_tokens
    o0 = fo_tokens - fo
    e0 = fo_tokens - e1

    def cell(obs, exp):
        out = np.zeros_like(obs)
        m = (obs > 0) & (exp > 0)
        out[m] = 2.0 * obs[m] * np.log(obs[m] / exp[m])
        return out

    g2 = cell(fo, e1) + cell(o0, e0)
    score = np.where(g2 <= 0, 0.0, np.sign(fo - e1) * np.sqrt(np.maximum(g2, 0)))
    bad = (e1 <= 0) | (e1 >= fo_tokens) | (fo < min_focus_term_freq)
    return np.where(bad, np.nan, score)


def part_rate_ratio(fo_count, fo_tokens, part_counts, part_tokens,
                    focus_part, alpha=0.3, min_part_tokens=1):
    """Smoothed log2 rate ratio vs the STRONGEST non-focus part
    (PartScorer.java RateRatio:861-960) — effect size, not significance."""
    focus_rate = (float(fo_count) + alpha) / (float(fo_tokens) + alpha)
    max_other = -np.inf
    seen = False
    for p in range(len(part_tokens)):
        if p == focus_part or part_tokens[p] < min_part_tokens:
            continue
        max_other = max(
            max_other, (float(part_counts[p]) + alpha) / (float(part_tokens[p]) + alpha)
        )
        seen = True
    if not seen:
        return float("nan")
    return float(np.log2(focus_rate / max_other))


def part_specificity(k, n, K, N):
    """Signed hypergeometric specificity (Lafon; PartScorer.java
    Specificity:966-1110): urn model N tokens / K term occurrences /
    n focus tokens / k focus occurrences; ``-log10 P[X >= k]`` when
    over-represented, ``log10 P[X <= k]`` when under."""
    from math import lgamma, log, exp

    k, n, K, N = int(k), int(n), int(K), int(N)
    if K > N or n > N:
        return float("nan")
    lo = max(0, n - (N - K))
    hi = min(n, K)
    if k < lo or k > hi:
        return float("nan")

    def log_choose(nn, kk):
        if kk < 0 or kk > nn:
            return float("nan")
        return lgamma(nn + 1) - lgamma(kk + 1) - lgamma(nn - kk + 1)

    def log_pmf(x):
        return log_choose(K, x) + log_choose(N - K, n - x) - log_choose(N, n)

    expected = n * K / N

    def log_tail(frm, to, step):
        acc = None
        x = frm
        while (step > 0 and x <= to) or (step < 0 and x >= to):
            lp = log_pmf(x)
            if acc is None:
                acc = lp
            else:
                m = max(acc, lp)
                acc = m + log(exp(acc - m) + exp(lp - m))
            if lp < (acc or 0) - 40:  # tail cutoff (TAIL_EPS analog)
                break
            x += step
        return acc

    if k >= expected:
        lt = log_tail(k, hi, 1)
        sign = 1.0
    else:
        lt = log_tail(k, lo, -1)
        sign = -1.0
    if lt is None:
        return float("nan")
    return sign * (-lt / log(10.0))


def keyness_logratio(fo_count, fo_tokens, ot_count, ot_tokens):
    """log2(relFocus/relOther)·ln(focusCount) (KeynessScorer LogRatio)."""
    fo = np.asarray(fo_count, np.float64)
    ot = np.asarray(ot_count, np.float64)
    out = np.zeros_like(fo)
    m = (fo > 0) & (ot > 0)
    rel = (fo[m] / fo_tokens) / (ot[m] / ot_tokens)
    out[m] = np.log2(rel) * np.log(fo[m])
    return out


# ---------------------------------------------------------------------
# Token-level aggregates over a text Dataset (simple profile)
# ---------------------------------------------------------------------


def term_stats_ds(ds: ray.data.Dataset, text_col="text") -> ray.data.Dataset:
    """(term, df, cf) via partial in-batch aggregation then small groupby
    (the TermStats.build partial+final shape, TermStats.java:239)."""

    def partial(batch: pa.Table) -> pa.Table:
        lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
        lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(lengths)), lengths)
        flat = lists.flatten()
        t = pa.table({"doc": pa.array(owner), "term": flat})
        g = t.group_by(["doc", "term"]).aggregate([("term", "count")])
        # per-batch partials: df = #docs containing term, cf = Σ tf
        g2 = g.group_by("term").aggregate([("term_count", "sum"), ("doc", "count")])
        return pa.table(
            {
                "term": g2["term"],
                "cf": g2["term_count_sum"],
                "df": g2["doc_count"],
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("term").aggregate(
        Sum("df", alias_name="df"), Sum("cf", alias_name="cf")
    )


# ---------------------------------------------------------------------
# Facet / category counts (FlucCategory.java:46, FlucFacet.java:57)
# ---------------------------------------------------------------------


def facet_counts(ds: ray.data.Dataset, col: str) -> ray.data.Dataset:
    return ds.groupby(col).aggregate(Count(alias_name="n"))


# ---------------------------------------------------------------------
# Chrono histogram (FlucNum.cacheHisto / HistoNum; OpChrono)
# ---------------------------------------------------------------------


def chrono_histogram(events: ray.data.Dataset, ts_col="ts", value_col="value"):
    """Monthly doc-count + value-sum channels (HistoNum multi-channel)."""

    def bucketize(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col]
        ym = pc.add(
            pc.multiply(pc.year(ts), 100), pc.month(ts)
        )
        return pa.table({"bucket": ym, value_col: batch[value_col]})

    b = events.map_batches(bucketize, batch_format="pyarrow")
    return b.groupby("bucket").aggregate(
        Count(alias_name="n"), Sum(value_col, alias_name="total")
    )


# ---------------------------------------------------------------------
# Term suggestion (TermSuggest.java:29) — prefix ranked by frequency
# ---------------------------------------------------------------------


def fold_ascii(s: str) -> str:
    """Diacritic fold (TermSuggest.java ASCII folding): NFD-decompose
    and strip combining marks, lowercase."""
    import unicodedata

    return "".join(
        c for c in unicodedata.normalize("NFD", s.lower())
        if not unicodedata.combining(c)
    )


def suggest(term_stats, prefix: str, k: int = 10):
    """Prefix (<3 folded chars) / infix (≥3) suggestion ranked by cf
    desc, DIACRITIC-INSENSITIVE: both the vocabulary and the query are
    ASCII-folded before matching (TermSuggest.java:29 — ``ete``
    suggests ``été``); output keeps the original terms."""
    import pandas as pd

    df = term_stats if isinstance(term_stats, pd.DataFrame) else term_stats.to_pandas()
    q = fold_ascii(prefix)
    # a precomputed "folded" column (BM25Index.suggest_frame) skips the
    # per-request O(vocab) fold
    folded = df["folded"] if "folded" in df.columns else df["term"].map(fold_ascii)
    if len(q) < 3:
        m = df[folded.str.startswith(q)]
    else:
        m = df[folded.str.contains(q, regex=False)]
    m = m.sort_values(["cf", "term"], ascending=[False, True]).head(k)
    return m.reset_index(drop=True)


def theme_terms_ds(ds: ray.data.Dataset, focus_col: str, focus_value,
                   mode: str = "BM25", k: int = 20, text_col: str = "text",
                   k1: float = 1.2, b: float = 0.75, idf_exp: float = 1.0,
                   min_focus_df: int = 1):
    """Distributed theme terms — the Ray-job form of
    ``BM25Index.theme_terms`` for corpora whose postings don't fit one
    process (the engine version streams its local postings; this one
    is a groupby-term job over the raw text table, same formulas —
    ``IdfTermScorer.termScore``, IdfTermScorer.java:268-520).

    Shape: one pass computes per-(doc, term) tf with doc length and
    focus flag attached batch-locally (dl is per-doc, so it never
    shuffles); per-term part aggregates reduce through a partial
    in-batch Arrow group_by then one small ``groupby(term)``; mode
    scoring is vectorized over the final term table.  Global scalars
    (N, avgdl, focus sizes) come from tiny per-batch partials.
    """
    import pandas as pd

    # pass 0: global scalars from per-batch partials (tiny)
    def globals_partial(batch: pa.Table) -> pa.Table:
        lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        isf = pc.equal(batch[focus_col], focus_value).to_numpy(
            zero_copy_only=False
        )
        return pa.table({
            "n": pa.array([len(lens)], pa.int64()),
            "tok": pa.array([int(lens.sum())], pa.int64()),
            "fdocs": pa.array([int(isf.sum())], pa.int64()),
            "ftok": pa.array([int(lens[isf].sum())], pa.int64()),
        })

    parts = ds.map_batches(globals_partial, batch_format="pyarrow").take_all()
    n_docs = float(sum(p["n"] for p in parts))
    total_tokens = float(sum(p["tok"] for p in parts))
    focus_docs = float(sum(p["fdocs"] for p in parts))
    focus_tokens = float(sum(p["ftok"] for p in parts))
    avgdl = total_tokens / n_docs if n_docs else 1.0

    # pass 1: per-(doc, term) tf + batch-local dl → per-term partials
    def term_partial(batch: pa.Table) -> pa.Table:
        lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(lens)), lens)
        isf_doc = pc.equal(batch[focus_col], focus_value).to_numpy(
            zero_copy_only=False
        )
        if len(flat) == 0:
            return pa.table({c: pa.array([], t) for c, t in [
                ("term", pa.string()), ("df", pa.float64()),
                ("fdf", pa.float64()), ("cf", pa.float64()),
                ("acc", pa.float64()), ("oacc", pa.float64()),
                ("ftf", pa.float64()), ("otf", pa.float64()),
                ("f_tlogt", pa.float64()), ("f_tlogdl", pa.float64()),
                ("o_tlogt", pa.float64()), ("o_tlogdl", pa.float64()),
            ]})
        uniq, inv = np.unique(flat, return_inverse=True)
        key = owner.astype(np.int64) * len(uniq) + inv
        uk, tf = np.unique(key, return_counts=True)
        doc = uk // len(uniq)
        tid = uk % len(uniq)
        tf = tf.astype(np.float64)
        dl = lens[doc].astype(np.float64)
        m = isf_doc[doc]
        tfpart = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        logtf = np.log(tf)
        logdl = np.log(dl)
        g = pd.DataFrame({
            "tid": tid,
            "df": 1.0, "fdf": m.astype(np.float64), "cf": tf,
            "acc": np.where(m, tfpart, 0.0),
            "oacc": np.where(m, 0.0, tfpart),
            "ftf": np.where(m, tf, 0.0),
            "otf": np.where(m, 0.0, tf),
            "f_tlogt": np.where(m, tf * logtf, 0.0),
            "f_tlogdl": np.where(m, tf * logdl, 0.0),
            "o_tlogt": np.where(m, 0.0, tf * logtf),
            "o_tlogdl": np.where(m, 0.0, tf * logdl),
        }).groupby("tid", as_index=False).sum()
        out = {"term": pa.array(uniq[g["tid"].to_numpy()].tolist(),
                                pa.string())}
        for c in g.columns:
            if c != "tid":
                out[c] = pa.array(g[c].to_numpy(np.float64))
        return pa.table(out)

    aggs = [Sum(c, alias_name=c) for c in (
        "df", "fdf", "cf", "acc", "oacc", "ftf", "otf",
        "f_tlogt", "f_tlogdl", "o_tlogt", "o_tlogdl")]
    stats = (
        ds.map_batches(term_partial, batch_format="pyarrow")
        .groupby("term").aggregate(*aggs).to_pandas()
    )
    # vectorized mode scoring — identical formulas to the engine
    N = n_docs
    df_, fdf = stats["df"].to_numpy(), stats["fdf"].to_numpy()
    acc, oacc = stats["acc"].to_numpy(), stats["oacc"].to_numpy()
    idf = np.log(1.0 + (N - df_ + 0.5) / (df_ + 0.5)) ** idf_exp
    keep = fdf >= min_focus_df
    with np.errstate(divide="ignore", invalid="ignore"):
        if mode == "BM25":
            score = idf * acc
        elif mode == "MINUS":
            score = idf * (acc - oacc)
        elif mode == "WEIGHTED":
            score = idf * (acc - 2.0 * oacc)
        elif mode == "IRDF":
            od, odf = N - focus_docs, df_ - fdf
            score = np.log(1.0 + (od - odf + 0.5) / (odf + 0.5)) ** idf_exp * acc
        elif mode == "RSJ":
            od, odf = N - focus_docs, df_ - fdf
            fnon, onon = focus_docs - fdf, od - odf
            rsj = np.log(((fdf + 0.5) * (onon + 0.5))
                         / ((odf + 0.5) * (fnon + 0.5)))
            score = np.copysign(np.abs(rsj) ** idf_exp, rsj) * acc
            score = np.where(np.minimum(np.minimum(od, odf),
                                        np.minimum(fnon, onon)) < 0,
                             0.0, score)
        elif mode == "FACTOR":
            ftf = stats["ftf"].to_numpy()
            rel_f = ftf / max(focus_tokens, 1e-300)
            rel_c = stats["cf"].to_numpy() / total_tokens
            score = idf * acc * np.log(rel_f / rel_c) * np.log(ftf)
            score = np.where((ftf == 0) | (focus_tokens <= 0) | (rel_c <= 0),
                             0.0, score)
        elif mode == "DKL":
            ftf, otf = stats["ftf"].to_numpy(), stats["otf"].to_numpy()
            rest_tokens = total_tokens - focus_tokens
            d_f = (stats["f_tlogt"].to_numpy() - ftf * np.log(ftf)
                   - stats["f_tlogdl"].to_numpy()
                   + ftf * np.log(max(focus_tokens, 1e-300))) / ftf
            d_r = (stats["o_tlogt"].to_numpy() - otf * np.log(otf)
                   - stats["o_tlogdl"].to_numpy()
                   + otf * np.log(max(rest_tokens, 1e-300))) / otf
            score = d_r - d_f
            keep = keep & (ftf > 0) & (otf > 0) & (focus_tokens > 0) & (
                rest_tokens > 0)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    terms = stats["term"].to_numpy()[keep]
    score = np.asarray(score, np.float64)[keep]
    order = sorted(range(len(terms)),
                   key=lambda i: (-score[i], terms[i]))[:k]
    return pd.DataFrame({"term": [str(terms[i]) for i in order],
                         "score": [float(score[i]) for i in order]})


# ---------------------------------------------------------------------
# Windowed co-occurrence (TopCoocSnippets.java:58 counting model)
# ---------------------------------------------------------------------


def _flat_tokens(batch: pa.Table, text_col: str):
    """(flat token array, doc index per token, position in doc)."""
    lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
    lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    flat = lists.flatten().to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(len(lengths)), lengths)
    return flat, doc_of


def _window_neighbors(sel: np.ndarray, doc_of: np.ndarray, n: int,
                      radius: int):
    """For selected token indices, yield (src_idx, nbr_idx, |offset|)
    arrays for every offset in ±radius — vectorized per offset, bounded
    to the same doc."""
    for d in range(-radius, radius + 1):
        if d == 0:
            continue
        j = sel + d
        ok = (j >= 0) & (j < n)
        src, nbr = sel[ok], j[ok]
        same = doc_of[src] == doc_of[nbr]
        yield src[same], nbr[same], abs(d)


def cooc_window(ds: ray.data.Dataset, pivot: str, window: int = 2,
                text_col="text") -> ray.data.Dataset:
    """Count co-terms within ±window positions of every pivot occurrence.

    Each (pivot occurrence, co-occurrence position) pair counts once —
    the per-pair counting model of the reference's cooc population.
    Inner counting is numpy over the flat token array (one vector pass
    per window offset), not a Python loop over rows.
    """

    def pairs(batch: pa.Table) -> pa.Table:
        flat, doc_of = _flat_tokens(batch, text_col)
        sel = np.flatnonzero(flat == pivot)
        co = [flat[nbr] for _, nbr, _ in
              _window_neighbors(sel, doc_of, len(flat), window)]
        co = np.concatenate(co) if co else np.array([], object)
        if len(co) == 0:
            return pa.table({"coterm": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        terms, counts = np.unique(co, return_counts=True)
        return pa.table({"coterm": pa.array(terms.tolist(), pa.string()),
                         "n": pa.array(counts, pa.int64())})

    partials = ds.map_batches(pairs, batch_format="pyarrow")
    return partials.groupby("coterm").aggregate(Sum("n", alias_name="n"))


def cooc_profile(ds: ray.data.Dataset, pivot: str, radius: int = 4,
                 text_col="text") -> ray.data.Dataset:
    """Term × distance co-occurrence grid (CoocProfile.java:42 — the
    nested-radius-shell counting done in one walk at the widest radius;
    cumulate over distance on the consumer side for the shell view)."""

    def pairs(batch: pa.Table) -> pa.Table:
        flat, doc_of = _flat_tokens(batch, text_col)
        sel = np.flatnonzero(flat == pivot)
        co_t, co_d = [], []
        for _, nbr, dist in _window_neighbors(sel, doc_of, len(flat), radius):
            co_t.append(flat[nbr])
            co_d.append(np.full(len(nbr), dist, np.int64))
        if not co_t:
            return pa.table({"coterm": pa.array([], pa.string()),
                             "distance": pa.array([], pa.int32()),
                             "n": pa.array([], pa.int64())})
        co_t = np.concatenate(co_t)
        co_d = np.concatenate(co_d)
        uniq_t, tid = np.unique(co_t, return_inverse=True)
        key = tid * (2 * radius + 1) + co_d
        uk, counts = np.unique(key, return_counts=True)
        return pa.table(
            {"coterm": pa.array(uniq_t[uk // (2 * radius + 1)].tolist(),
                                pa.string()),
             "distance": pa.array((uk % (2 * radius + 1)).astype(np.int32)),
             "n": pa.array(counts, pa.int64())}
        )

    partials = ds.map_batches(pairs, batch_format="pyarrow")
    return partials.groupby(["coterm", "distance"]).aggregate(
        Sum("n", alias_name="n")
    )


def cooc_matrix(ds: ray.data.Dataset, row_terms: list[str],
                col_terms: list[str], window: int = 2,
                text_col="text") -> ray.data.Dataset:
    """Rectangular term×term window pair counts (CoocMatSnippets.java:85)."""
    rows_l = sorted(set(row_terms))
    cols_l = sorted(set(col_terms))

    def pairs(batch: pa.Table) -> pa.Table:
        flat, doc_of = _flat_tokens(batch, text_col)
        sel = np.flatnonzero(np.isin(flat, rows_l))
        src_t, dst_t = [], []
        for src, nbr, _ in _window_neighbors(sel, doc_of, len(flat), window):
            keep = np.isin(flat[nbr], cols_l)
            src_t.append(flat[src[keep]])
            dst_t.append(flat[nbr[keep]])
        if not src_t or not sum(len(x) for x in src_t):
            return pa.table({"row": pa.array([], pa.string()),
                             "col": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        src_t = np.concatenate(src_t)
        dst_t = np.concatenate(dst_t)
        ur, rid = np.unique(src_t, return_inverse=True)
        ucl, cid = np.unique(dst_t, return_inverse=True)
        key = rid.astype(np.int64) * len(ucl) + cid
        uk, counts = np.unique(key, return_counts=True)
        return pa.table(
            {"row": pa.array(ur[uk // len(ucl)].tolist(), pa.string()),
             "col": pa.array(ucl[uk % len(ucl)].tolist(), pa.string()),
             "n": pa.array(counts, pa.int64())}
        )

    partials = ds.map_batches(pairs, batch_format="pyarrow")
    return partials.groupby(["row", "col"]).aggregate(Sum("n", alias_name="n"))
