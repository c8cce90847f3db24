"""Web-corpus cleaning operators: PII redaction, Gopher-style
repetition metrics, benchmark decontamination, C4-style global line
dedup.

These extend the reference's operator set along the training-data-
pipeline axis (SURVEY.md §2 extensions): the reference indexes curated
French editions, but the north-star input is Common-Crawl-style web
pages, where every production pipeline runs exactly these four stages
between extraction and indexing.  All four are vectorized Arrow
kernels inside ``map_batches`` (no per-row Python in hot paths) and
every one has a full DuckDB oracle in ``pipelines/queries.py``.

Scale notes per operator:

* ``pii_redact`` — embarrassingly parallel, zero shuffle: RE2 kernels
  (``pc.replace_substring_regex`` / ``count_substring_regex``) over
  zero-copy Arrow batches.
* ``repetition_metrics`` — zero shuffle; per-batch lexsort/bincount
  over dictionary-encoded token codes.
* ``decontaminate`` — the benchmark side (eval suites) is small by
  nature (MBs even for dozens of benchmarks), so it is collected,
  deduplicated and broadcast once via ``ray.put``; the 100-TB scan
  side streams with a per-worker cached ``pc.is_in`` value set — no
  shuffle at all.  If the "benchmark" side ever approached corpus
  scale, the right shape is the hash-partitioned repartition join used
  by :func:`alix_ray.ops.dedup.minhash_lsh_pairs`.
* ``line_dedup`` — the one genuine all-to-all: group by line (an
  :func:`alix_ray.ops.exchange.exchange` on the line hash) to elect a global keep-first winner per distinct line, then
  group by doc to reassemble.  The line payload crosses the wire once
  per stage, which is the C4 shape; skewed boilerplate lines
  ("cookie policy") are bounded because a group carries one row per
  *occurrence* but work per group is a vectorized drop_duplicates.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..analysis import SimpleAnalyzer
from .exchange import exchange, string_key
from .textstats import round_half_away


def _arr(x):
    """Normalize a (possibly chunked) column to a contiguous Array —
    ``ChunkedArray.flatten()`` returns a LIST of arrays, so every
    kernel below that flattens list results needs plain Arrays."""
    return x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x

# ---------------------------------------------------------------------
# PII redaction
# ---------------------------------------------------------------------

# RE2 syntax only, shared verbatim with the DuckDB oracle (both
# engines are RE2 with leftmost-first defaults, so match sets are
# identical by construction).  Applied in this order; each replacement
# tag contains no digits/'@' so later patterns cannot re-match it.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PHONE_RE = r"\b\d{3}[-.]\d{3}[-.]\d{4}\b"

_PII_STAGES = (
    ("n_emails", EMAIL_RE, "<EMAIL>"),
    ("n_ips", IPV4_RE, "<IP>"),
    ("n_phones", PHONE_RE, "<PHONE>"),
)


def pii_redact(ds: ray.data.Dataset, text_col: str = "text",
               id_col: str = "doc_id") -> ray.data.Dataset:
    """Redact emails / IPv4s / phone numbers, counting each family.

    Counts are taken on the text as it stands when that family is
    applied (email → ip → phone), mirroring the nested
    ``regexp_replace`` oracle stage for stage.  Output:
    ``(doc_id, text, n_emails, n_ips, n_phones)`` with ``text``
    redacted in place."""

    def redact(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[text_col], "")
        cols = {id_col: batch[id_col]}
        for name, pat, tag in _PII_STAGES:
            cols[name] = pc.cast(
                pc.count_substring_regex(texts, pattern=pat), pa.int64()
            )
            texts = pc.replace_substring_regex(
                texts, pattern=pat, replacement=tag
            )
        cols[text_col] = texts
        return pa.table(
            {id_col: cols[id_col], text_col: cols[text_col],
             "n_emails": cols["n_emails"], "n_ips": cols["n_ips"],
             "n_phones": cols["n_phones"]}
        )

    return ds.map_batches(redact, batch_format="pyarrow")


# ---------------------------------------------------------------------
# repetition metrics (Gopher-style quality rules)
# ---------------------------------------------------------------------


def _per_owner_max(owner: np.ndarray, n_docs: int,
                   keys: list[np.ndarray]) -> np.ndarray:
    """Max run length of identical consecutive ``keys`` tuples per
    owner (owner itself is the first key)."""
    m = len(owner)
    out = np.zeros(n_docs, np.int64)
    if m == 0:
        return out
    brk = np.ones(m, bool)
    same = owner[1:] == owner[:-1]
    for k in keys:
        same = same & (k[1:] == k[:-1])
    brk[1:] = ~same
    starts = np.flatnonzero(brk)
    runlen = np.diff(np.append(starts, m))
    np.maximum.at(out, owner[starts], runlen)
    return out


def repetition_metrics(ds: ray.data.Dataset, text_col: str = "text",
                       id_col: str = "doc_id",
                       line_sep: str = "\n") -> ray.data.Dataset:
    """Per-doc repetition features (the Gopher/MassiveText filter
    family, token-count flavor):

    * ``n_tokens`` — analyzer token count;
    * ``top_bigram_frac`` — occurrences of the modal token bigram over
      total bigram slots ``max(n_tokens-1, 1)``;
    * ``max_run`` — longest run of one token repeated consecutively;
    * ``dup_line_frac`` — ``1 - distinct/total`` over non-empty
      ``line_sep`` lines (0 for ≤1 line).

    Fully vectorized: dictionary-encoded token codes + lexsort /
    bincount; no shuffle (each doc is independent)."""

    def feats(batch: pa.Table) -> pa.Table:
        texts = _arr(pc.fill_null(batch[text_col], ""))
        lists = SimpleAnalyzer.tokens_arrays(texts)
        n_tok = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        n = len(n_tok)
        flat = lists.flatten()
        enc = flat.dictionary_encode().indices.to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        owner = np.repeat(np.arange(n), n_tok)

        # modal-bigram count per doc
        top_bg = np.zeros(n, np.int64)
        same = owner[1:] == owner[:-1]
        o = owner[:-1][same]
        a, b = enc[:-1][same], enc[1:][same]
        if len(o):
            order = np.lexsort((b, a, o))
            o2, a2, b2 = o[order], a[order], b[order]
            new = np.ones(len(o2), bool)
            new[1:] = ((o2[1:] != o2[:-1]) | (a2[1:] != a2[:-1])
                       | (b2[1:] != b2[:-1]))
            starts = np.flatnonzero(new)
            counts = np.diff(np.append(starts, len(o2)))
            np.maximum.at(top_bg, o2[starts], counts)

        max_run = _per_owner_max(owner, n, [enc])

        # duplicate-line fraction
        lsplit = pc.split_pattern(texts, line_sep)
        lflat = lsplit.flatten()
        keep = pc.not_equal(lflat, "").to_numpy(zero_copy_only=False)
        nl_raw = pc.list_value_length(lsplit).to_numpy(zero_copy_only=False)
        lowner = np.repeat(np.arange(n), nl_raw)[keep]
        lcodes = lflat.filter(pa.array(keep)).dictionary_encode() \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nl = np.bincount(lowner, minlength=n)
        if len(lowner):
            pairs = np.unique(lowner * (lcodes.max() + 1) + lcodes)
            ndist = np.bincount(pairs // (lcodes.max() + 1), minlength=n)
        else:
            ndist = np.zeros(n, np.int64)
        dup_frac = 1.0 - ndist / np.maximum(nl, 1)
        dup_frac[nl == 0] = 0.0

        return pa.table({
            id_col: batch[id_col],
            "n_tokens": pa.array(n_tok.astype(np.int64)),
            "top_bigram_frac": pa.array(
                round_half_away(top_bg / np.maximum(n_tok - 1, 1))
            ),
            "max_run": pa.array(max_run),
            "dup_line_frac": pa.array(round_half_away(dup_frac)),
        })

    return ds.map_batches(feats, batch_format="pyarrow")


# ---------------------------------------------------------------------
# benchmark decontamination
# ---------------------------------------------------------------------

_DECON_CACHE: dict = {}


def _gram_strings(texts, n: int):
    """(flat grams joined by ' ', owner row index per gram) — grams
    never cross doc boundaries; docs with < n tokens emit none."""
    grams, owner, _pos = _gram_strings_pos(texts, n)
    return grams, owner


def decontaminate(ds: ray.data.Dataset, benchmark: ray.data.Dataset,
                  n: int = 13, text_col: str = "text",
                  id_col: str = "doc_id") -> ray.data.Dataset:
    """Training-set decontamination: count, per scanned doc, the
    DISTINCT token ``n``-grams it shares with a benchmark corpus
    (the GPT-3 appendix-C / 13-gram-overlap shape).  Emits only
    contaminated docs: ``(doc_id, n_contaminated)``.

    The benchmark side is globally deduplicated on the driver and
    broadcast once (``ray.put``); membership is a per-batch
    ``pc.is_in`` against the cached value set, so the corpus scan is
    shuffle-free.  Exact string grams (not hashes) so the DuckDB
    oracle matches bit-for-bit."""

    def bench_grams(batch: pa.Table) -> pa.Table:
        g, _ = _gram_strings(pc.fill_null(batch[text_col], ""), n)
        return pa.table({"g": pc.unique(g)})

    bpdf = benchmark.map_batches(bench_grams, batch_format="pyarrow") \
        .to_pandas()
    # an all-empty benchmark yields a schemaless empty frame
    bg = bpdf["g"].unique() if "g" in bpdf.columns else []
    bench_ref = ray.put(pa.array(sorted(bg), pa.string()))

    def scan(batch: pa.Table) -> pa.Table:
        key = bench_ref.hex()
        vs = _DECON_CACHE.get(key)
        if vs is None:  # once per worker process
            vs = _DECON_CACHE[key] = ray.get(bench_ref)
        grams, owner = _gram_strings(pc.fill_null(batch[text_col], ""), n)
        hit = pc.is_in(grams, value_set=vs).to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if not hit.any():
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_contaminated": pa.array([], pa.int64())})
        howner = owner[hit]
        codes = grams.filter(pa.array(hit)).dictionary_encode() \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # distinct (doc, gram) pairs → per-doc distinct-hit count
        pairs = np.unique(howner * (codes.max() + 1) + codes)
        cnt = np.bincount(pairs // (codes.max() + 1), minlength=len(ids))
        nz = np.flatnonzero(cnt)
        return pa.table({id_col: pa.array(ids[nz], pa.int64()),
                         "n_contaminated": pa.array(cnt[nz], pa.int64())})

    return ds.map_batches(scan, batch_format="pyarrow")


# ---------------------------------------------------------------------
# exact-substring (windowed) duplicate spans
# ---------------------------------------------------------------------


def _gram_strings_pos(texts, n: int):
    """Like :func:`_gram_strings` but also returns each gram's 1-based
    start position within its doc's token sequence."""
    lists = SimpleAnalyzer.tokens_arrays(texts)
    n_tok = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    flat = lists.flatten()
    owner = np.repeat(np.arange(len(n_tok)), n_tok)
    L = len(flat) - n + 1
    if L <= 0:
        return (pa.array([], pa.string()), np.zeros(0, np.int64),
                np.zeros(0, np.int64))
    parts = [flat.slice(k, L) for k in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ")
    valid = owner[:L] == owner[n - 1:]
    starts = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
    vown = owner[:L][valid]
    pos = np.flatnonzero(valid) - starts[vown] + 1
    return grams.filter(pa.array(valid)), vown, pos


def substring_dup_spans(ds: ray.data.Dataset, w: int = 8,
                        text_col: str = "text",
                        id_col: str = "doc_id") -> ray.data.Dataset:
    """Exact duplicate ``w``-token windows across the corpus — the
    windowed form of exact-substring training-data dedup (Lee et al.
    2022, "Deduplicating Training Data Makes Language Models Better"):
    every stride-1 window of ``w`` tokens whose text already occurred
    earlier in global ``(doc_id, pos)`` order is flagged.  Emits the
    REDUNDANT occurrences ``(doc_id, pos)`` (keep-first; overlapping
    windows flag independently — a caller masks the union of flagged
    token ranges to cut the duplicated passage).

    Shuffle shape = :func:`line_dedup_from_lines`'s: one all-to-all of
    ``(window, doc, pos)`` rows hash-partitioned by window content into
    coarse groups, winners elected vectorized per group.  Exact window
    STRINGS ship so the DuckDB oracle matches bit-for-bit; at 100 TB a
    window row is ~w tokens per position (w× the corpus), so the scale
    variant ships a 128-bit window hash instead (collision odds ≪
    hardware error rates — the Lee et al. suffix-array pipeline makes
    the same exactness trade in reverse) with byte-identical group
    logic."""

    def explode(batch: pa.Table) -> pa.Table:
        grams, owner, pos = _gram_strings_pos(
            pc.fill_null(batch[text_col], ""), w)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "w": grams,
            id_col: pa.array(ids[owner], pa.int64()),
            "pos": pa.array(pos, pa.int64()),
            "pkey": pa.array(string_key(grams)),
        })

    def dups(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["w", id_col, "pos"], kind="stable")
        red = g["w"].eq(g["w"].shift())
        return g.loc[red, [id_col, "pos"]]

    return exchange(ds.map_batches(explode, batch_format="pyarrow"), dups,
                    "pkey")


# ---------------------------------------------------------------------
# C4-style global line dedup
# ---------------------------------------------------------------------


def line_dedup_from_lines(lines: ray.data.Dataset,
                          id_col: str = "doc_id",
                          line_sep: str = "\n") -> ray.data.Dataset:
    """Global keep-first line dedup over an exploded
    ``(doc_id, line_no, line)`` dataset: every distinct line keeps its
    first occurrence (min ``(doc_id, line_no)``) and loses all others,
    including repeats inside one doc; docs reassemble from surviving
    lines (docs losing every line drop out, matching ``string_agg``).

    Two :func:`~alix_ray.ops.exchange.exchange` shuffles (vectorized
    pandas per partition): elect winners routed by line hash,
    reassemble routed by doc."""

    def pkeys(batch: pa.Table) -> pa.Table:
        return batch.append_column("pkey",
                                   pa.array(string_key(batch["line"])))

    def winners(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "line_no"], kind="stable")
        return g.drop_duplicates("line")[[id_col, "line_no", "line"]]

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "line_no"], kind="stable")
        out = g.groupby(id_col, sort=True)["line"].agg(line_sep.join)
        return out.rename("text").reset_index()

    kept = exchange(lines.map_batches(pkeys, batch_format="pyarrow"),
                    winners, "pkey")
    return exchange(kept, reassemble, id_col)


def line_dedup(ds: ray.data.Dataset, text_col: str = "text",
               id_col: str = "doc_id",
               line_sep: str = "\n") -> ray.data.Dataset:
    """Split each doc on ``line_sep`` (dropping empty lines), then
    :func:`line_dedup_from_lines`.  Output ``(doc_id, text)``."""

    def explode(batch: pa.Table) -> pa.Table:
        texts = _arr(pc.fill_null(batch[text_col], ""))
        lsplit = pc.split_pattern(texts, line_sep)
        lflat = lsplit.flatten()
        keep = pc.not_equal(lflat, "").to_numpy(zero_copy_only=False)
        nl = pc.list_value_length(lsplit).to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(nl)), nl)
        # line_no = 1-based rank among NON-empty lines within the doc
        kowner = owner[keep]
        line_no = (np.arange(len(kowner))
                   - np.searchsorted(kowner, kowner, side="left") + 1)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(ids[kowner], pa.int64()),
            "line_no": pa.array(line_no, pa.int64()),
            "line": lflat.filter(pa.array(keep)),
        })

    return line_dedup_from_lines(
        ds.map_batches(explode, batch_format="pyarrow"),
        id_col=id_col, line_sep=line_sep,
    )


# ---------------------------------------------------------------------
# blocklist (bad-words) filter — the C4 "dirty word" gate
# ---------------------------------------------------------------------


def blocklist_regex(patterns: tuple[str, ...]) -> str:
    """The shared whole-word RE2 pattern for a blocklist — metachars
    escaped per entry (real C4/LDNOOBW lists contain '$', '.', '(' …),
    so every entry matches literally on BOTH engines.  ``re.escape``
    output uses only backslash escapes, which RE2 (Arrow and DuckDB
    alike) accepts unchanged.

    A ``\\b`` anchor is only attached where the entry EDGE is a word
    character — RE2 has no lookarounds, and ``\\b`` after a non-word
    edge (``a$$`` + space) can never match, which would silently let
    the entry through; a non-word-edged entry matches as a literal
    substring instead (the whole-word proxy real filters use)."""
    import re

    if not patterns:
        raise ValueError("empty blocklist — a bare alternation would "
                         "flag every document")

    def atom(p: str) -> str:
        lead = r"\b" if p and (p[0].isalnum() or p[0] == "_") else ""
        trail = r"\b" if p and (p[-1].isalnum() or p[-1] == "_") else ""
        return lead + re.escape(p) + trail

    return "(?:" + "|".join(atom(p) for p in patterns) + ")"


def blocklist_filter(ds: ray.data.Dataset,
                     patterns: tuple[str, ...],
                     text_col: str = "text",
                     id_col: str = "doc_id") -> ray.data.Dataset:
    """Flag documents containing any blocklist word/phrase
    (C4, Raffel et al. 2020 §2.2: drop pages with any "bad word").

    Whole-word semantics: :func:`blocklist_regex` over the lowercased
    text, shared VERBATIM with the DuckDB oracle (both engines are
    RE2; counts are leftmost non-overlapping on both sides).
    Embarrassingly parallel — one zero-copy Arrow kernel per batch, no
    shuffle.  Output ``(id, n_bad, kept)`` so callers can either
    filter (``kept``) or threshold on the count."""
    rx = blocklist_regex(patterns)

    def flag(batch: pa.Table) -> pa.Table:
        col = _arr(batch[text_col]).cast(pa.string())
        txt = pc.utf8_lower(pc.fill_null(col, ""))
        n = pc.count_substring_regex(txt, rx).cast(pa.int64())
        return pa.table({
            id_col: batch[id_col],
            "n_bad": n,
            "kept": pc.equal(n, 0),
        })

    return ds.map_batches(flag, batch_format="pyarrow")
