"""Text-analysis operators: language ID, quality scoring, token
counting, document fingerprinting (training-data extensions; the
quality-metric shapes mirror published web-corpus filtering heuristics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..analysis import SimpleAnalyzer


def round_half_away(x, decimals: int = 6):
    """SQL-compatible rounding (half away from zero) — numpy's default
    round-half-even diverges from DuckDB ROUND on exact halves."""
    x = np.asarray(x, np.float64)
    f = 10.0**decimals
    return np.sign(x) * np.floor(np.abs(x) * f + 0.5) / f

# small per-language function-word profiles (n-gram-free heuristic)
LANG_PROFILES = {
    "en": frozenset("the a of and to in is it that for on with as are was".split()),
    "fr": frozenset("le la les de des du et un une est dans que pour sur avec".split()),
    "de": frozenset("der die das und ist ein eine zu den von mit für auf im".split()),
    "es": frozenset("el la los las de y un una es en que para por con del".split()),
}


class LangId:
    """Per-doc language guess = argmax function-word hit count.

    Stateful actor stage: profiles compile once per actor into Arrow
    value sets; the batch path is fully vectorized (``pc.is_in`` per
    language + one bincount scatter per language — no Python loop over
    rows or tokens).  Ties go to the alphabetically-first language; no
    hits → "und"."""

    def __init__(self, profiles=LANG_PROFILES):
        self.langs = sorted(profiles)
        self.value_sets = [
            pa.array(sorted(profiles[lang])) for lang in self.langs
        ]
        self.sa = SimpleAnalyzer()

    def guess(self, text: str) -> str:
        """Single-doc convenience wrapper over the batch kernel."""
        t = pa.table({"doc_id": pa.array([0], pa.int64()),
                      "text": pa.array([text or ""], pa.string())})
        return self(t)["lang_guess"][0].as_py()

    def _guess_batch(self, texts) -> pa.Array:
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        texts = pc.fill_null(texts, "")  # null text → "und", not a crash
        lists = SimpleAnalyzer.tokens_arrays(texts)
        n_tok = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = lists.flatten()
        owner = np.repeat(np.arange(len(n_tok)), n_tok)
        hits = np.zeros((len(n_tok), len(self.langs)), np.int64)
        for j, vs in enumerate(self.value_sets):
            m = pc.is_in(flat, value_set=vs).to_numpy(zero_copy_only=False)
            hits[:, j] = np.bincount(owner[m], minlength=len(n_tok))
        best = np.argmax(hits, axis=1)  # first max = alphabetical tie rule
        none = hits.max(axis=1) == 0
        out = np.array(self.langs, dtype=object)[best]
        out[none] = "und"
        return pa.array(out, pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "lang_guess", self._guess_batch(batch["text"])
        )


def quality_metrics(ds: ray.data.Dataset, text_col="text") -> ray.data.Dataset:
    """Vectorized quality features per doc: n_tokens, alpha_ratio,
    stop_ratio (en profile), mean token length."""
    stop = sorted(LANG_PROFILES["en"])

    def feats(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        lists = SimpleAnalyzer.tokens_arrays(texts)
        n_tok = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = lists.flatten()
        tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        is_stop = pc.is_in(flat, value_set=pa.array(stop)).to_numpy(
            zero_copy_only=False
        )
        owner = np.repeat(np.arange(len(n_tok)), n_tok)
        sum_len = np.bincount(owner, weights=tok_lens, minlength=len(n_tok))
        n_stop = np.bincount(owner, weights=is_stop, minlength=len(n_tok))
        n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        alpha = pc.utf8_length(
            pc.replace_substring_regex(texts, "[^A-Za-z]", "")
        ).to_numpy(zero_copy_only=False)
        safe = np.maximum(n_tok, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok.astype(np.int64)),
                "alpha_ratio": pa.array(
                    round_half_away(alpha / np.maximum(n_chars, 1))
                ),
                "stop_ratio": pa.array(round_half_away(n_stop / safe)),
                "mean_token_len": pa.array(round_half_away(sum_len / safe)),
            }
        )

    return ds.map_batches(feats, batch_format="pyarrow")


def fingerprint(ds: ray.data.Dataset, text_col="text", window: int = 4,
                k: int = 3):
    """Winnowing document fingerprints (Schleimer et al. 2003 shape):
    token ``k``-grams → gram hash → min over every full sliding
    ``window`` → DISTINCT selected hashes per doc, emitted as rows
    ``(doc_id, fp)`` (16-hex-char).

    Docs with fewer than ``k`` tokens fall back to their single-token
    hashes (the minhash-shingle convention); empty docs emit no rows.

    The gram hash is md5_number_lower of the space-joined gram — the
    hash of the exact SQL window-min oracle.  The window min is
    vectorized (sliding_window_view)."""
    from .dedup import md5_lower64

    def fp(batch: pa.Table) -> pa.Table:
        sa = SimpleAnalyzer()
        ids = batch["doc_id"].to_pylist()
        out_id, out_fp = [], []
        for did, t in zip(ids, batch[text_col].to_pylist()):
            toks = sa.terms(t or "")
            if not toks:
                continue
            if len(toks) < k:
                sh = md5_lower64(toks)
            else:
                sh = md5_lower64([
                    " ".join(toks[i : i + k])
                    for i in range(len(toks) - k + 1)
                ])
            if len(sh) >= window:
                view = np.lib.stride_tricks.sliding_window_view(sh, window)
                sel = np.unique(view.min(axis=1))
            else:
                sel = np.unique(sh)
            out_id.extend([did] * len(sel))
            out_fp.extend(f"{int(v):016x}" for v in sel)
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "fp": pa.array(out_fp, pa.string())})

    return ds.map_batches(fp, batch_format="pyarrow")


# GPT-2-style pre-tokenizer regex, restricted to RE2 syntax (no
# lookahead) so pyarrow's count_substring_regex and DuckDB's
# regexp_extract_all — both RE2, default leftmost-first options —
# count the identical match set.
BPE_RE = r"'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+"


def token_counts(ds: ray.data.Dataset, text_col="text") -> ray.data.Dataset:
    """Per-doc token counts two ways: whitespace runs (``\\S+``) and a
    BPE-ish pre-tokenizer regex (contractions / letter runs / digit
    runs / punctuation runs, each with optional leading space — the
    GPT-2 pattern minus the RE2-unsupported lookahead).  The budget
    metric every training-data pipeline needs before mixing corpora;
    fully vectorized, no shuffle."""

    def counts(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[text_col], "")
        return pa.table({
            "doc_id": batch["doc_id"],
            "ws_tokens": pc.cast(
                pc.count_substring_regex(texts, pattern=r"\S+"), pa.int64()
            ),
            "bpe_tokens": pc.cast(
                pc.count_substring_regex(texts, pattern=BPE_RE), pa.int64()
            ),
        })

    return ds.map_batches(counts, batch_format="pyarrow")


_HH_CAND_CACHE: dict = {}


def heavy_hitters(ds: ray.data.Dataset, k: int = 30,
                  candidates: int = 4096, text_col="text"):
    """EXACT global top-``k`` most frequent tokens without a
    full-vocabulary shuffle (a web corpus has ~10^9 distinct terms; a
    ``groupby(term)`` moves all of them — the hot-key finder must not).

    Two streaming passes (distributed top-k with the TPUT-style
    threshold bound):

    1. per batch: exact local token counts (Arrow ``value_counts``),
       truncated to the local top-``candidates``; the batch also emits
       its truncation threshold (its highest DROPPED count, 0 if
       nothing was dropped).  A term absent from every batch's local
       top-m has global count ≤ Σ thresholds.
    2. exact recount of the candidate union only (``pc.is_in`` against
       the broadcast candidate set — ``ray.put`` once, read per task).

    If the k-th candidate's exact count exceeds Σ thresholds the
    result is PROVABLY the exact top-k (so the DuckDB oracle matches
    bit-for-bit); otherwise raises — raise ``candidates``.  Ties break
    by term ascending, matching ``ORDER BY cf DESC, term``."""

    def local_top(batch: pa.Table) -> pa.Table:
        lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
        vc = pc.value_counts(lists.flatten())
        terms, counts = vc.field(0), vc.field(1).to_numpy(zero_copy_only=False)
        if len(counts) > candidates:
            idx = np.argpartition(-counts, candidates - 1)
            keep, dropped = idx[:candidates], idx[candidates:]
            thr = int(counts[dropped].max())
            terms = terms.take(pa.array(keep))
            counts = counts[keep]
        else:
            thr = 0
        # threshold rides along as a null-term row (tokens are
        # [a-z0-9]+ so null never collides)
        return pa.table({
            "term": pa.concat_arrays([terms.cast(pa.string()),
                                      pa.array([None], pa.string())]),
            "cnt": pa.array(np.concatenate([counts, [thr]]), pa.int64()),
        })

    part = ds.map_batches(local_top, batch_format="pyarrow").to_pandas()
    thr_sum = int(part[part["term"].isna()]["cnt"].sum())
    cand = sorted(part[part["term"].notna()]["term"].unique())
    cand_ref = ray.put(pa.array(cand, pa.string()))

    def recount(batch: pa.Table) -> pa.Table:
        key = cand_ref.hex()
        vs = _HH_CAND_CACHE.get(key)
        if vs is None:  # once per worker process, not per batch
            vs = _HH_CAND_CACHE[key] = ray.get(cand_ref)
        flat = SimpleAnalyzer.tokens_arrays(batch[text_col]).flatten()
        hits = flat.filter(pc.is_in(flat, value_set=vs))
        vc = pc.value_counts(hits)
        return pa.table({"term": vc.field(0).cast(pa.string()),
                         "cnt": vc.field(1).cast(pa.int64())})

    exact = ds.map_batches(recount, batch_format="pyarrow").to_pandas()
    totals = exact.groupby("term", as_index=False)["cnt"].sum()
    totals = totals.sort_values(["cnt", "term"], ascending=[False, True],
                                kind="stable").head(k)
    # provable iff nothing was truncated anywhere (thr_sum == 0), or
    # the k-th candidate count strictly beats what any missed term
    # could total; fewer than k candidates under truncation is equally
    # unprovable (the corpus may hold ≥ k distinct terms we dropped)
    kth = int(totals["cnt"].iloc[-1]) if len(totals) else 0
    if thr_sum > 0 and (len(totals) < k or kth <= thr_sum):
        raise ValueError(
            f"top-{k} not provable: {len(totals)} candidates, k-th count "
            f"{kth} vs threshold bound {thr_sum}; raise candidates="
            f"{candidates}"
        )
    return totals.rename(columns={"cnt": "cf"}).reset_index(drop=True)
