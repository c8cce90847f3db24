"""Driver-contract queries over ``/root/testdata/sf*`` + DuckDB oracles.

Every oracle-checked query pins its column names AND value rounding to
the SQL text (driver compares row-count + schema + order-insensitive
value hash).  Token semantics for SQL-checked queries use the simple
profile: ``lower(text)`` split on ``[^a-z0-9]+`` with empties removed —
byte-identical between :class:`alix_ray.analysis.SimpleAnalyzer` and
``regexp_split_to_array`` (see chain.py).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..stages.store import resolve_stage

from .. import IDF_EXP, K1, B

# shared SQL fragment: the token CTE (the analyzer mirror)
TOKS = (
    "SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text), "
    "'[^a-z0-9]+'), x -> x <> '')) AS term FROM documents"
)

BM25_QUERY_TERMS = ("table", "stream", "vector")
COOC_PIVOT = "table"
SUGGEST_PREFIX = "st"
JACCARD_THRESHOLD = 0.8
EMB_DUP_THRESHOLD = 0.4
ANN_QUERIES = 5
ANN_K = 10
KEYNESS_FOCUS_LANG = "en"
KEYNESS_TOP = 30


def _docs(sf_dir: str,
          columns: list[str] | None = None) -> ray.data.Dataset:
    # every call site passes the 2-3 columns it actually needs so only
    # those leave storage (projection pushdown at the parquet read)
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns,
    )


def _docs_text(sf_dir: str) -> ray.data.Dataset:
    # documents.parquet is a single file with ONE row group at test
    # scale — override_num_blocks cannot split below row-group
    # granularity, so every per-doc stage (tokenize/hash/minhash) would
    # run as a single task.  The explicit repartition is an all-to-all
    # of a few MB here; production inputs arrive as many files and
    # never need it.
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"],
    ).repartition(64)


# ---------------------------------------------------------------------
# cached index build per (sf_dir, profile)
# ---------------------------------------------------------------------

_INDEX_CACHE: dict[tuple, str] = {}


def build_documents_index(sf_dir: str, profile: str = "simple") -> str:
    from .. import FORMAT_VERSION

    key = (os.path.abspath(sf_dir), profile, FORMAT_VERSION)
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    h = hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()
    out = f"/tmp/alix_ray_idx/{h}"
    from ..stages.build import IndexBuilder

    base_profile = profile.removesuffix("_pos")
    b = IndexBuilder(out, analyzer=base_profile,
                     keep_positions=profile.endswith("_pos"))
    b.build(_docs_text(sf_dir), input_kind="documents", fingerprint=repr(key))
    _INDEX_CACHE[key] = out
    return out


def _index(sf_dir: str, profile: str = "simple"):
    from ..index.engine import BM25Index

    return BM25Index(build_documents_index(sf_dir, profile))


# ---------------------------------------------------------------------
# index-core queries (oracle-checked)
# ---------------------------------------------------------------------


def q_term_stats(sf_dir: str) -> pd.DataFrame:
    ix = _index(sf_dir)
    t = pq.read_table(resolve_stage(ix.dir, "term_stats"))
    df = t.to_pandas()[["term", "df", "cf"]]
    df["df"] = df["df"].astype("int64")
    df["cf"] = df["cf"].astype("int64")
    return df.sort_values("term").reset_index(drop=True)


SQL_TERM_STATS = f"""
WITH toks AS ({TOKS})
SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS cf
FROM toks GROUP BY term ORDER BY term
"""


def q_doc_token_counts(sf_dir: str) -> pd.DataFrame:
    ix = _index(sf_dir)
    t = pq.read_table(resolve_stage(ix.dir, "doc_stats"))
    df = t.to_pandas()[["doc_id", "tokens"]].rename(columns={"tokens": "n_tokens"})
    df["n_tokens"] = df["n_tokens"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_DOC_TOKEN_COUNTS = """
SELECT doc_id,
  len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
      x -> x <> ''))::BIGINT AS n_tokens
FROM documents ORDER BY doc_id
"""


def q_top_terms(sf_dir: str) -> pd.DataFrame:
    df = q_term_stats(sf_dir)
    return (
        df.sort_values(["cf", "term"], ascending=[False, True])
        .head(50)[["term", "cf"]]
        .reset_index(drop=True)
    )


SQL_TOP_TERMS = f"""
WITH toks AS ({TOKS})
SELECT term, count(*)::BIGINT AS cf
FROM toks GROUP BY term ORDER BY cf DESC, term LIMIT 50
"""


def q_bm25_top10(sf_dir: str) -> pd.DataFrame:
    ix = _index(sf_dir)
    res = ix.search_exact(list(BM25_QUERY_TERMS), 10)
    from ..ops.textstats import round_half_away

    return pd.DataFrame(
        {
            "doc_id": [d for d, _ in res],
            "score": round_half_away([s for _, s in res]),
        }
    )


def _sql_bm25(terms: tuple, k: int, term_pred: str | None = None,
              extra_cte: str = "", final_where: str = "",
              offset: int = 0) -> str:
    tlist = ", ".join(f"'{t}'" for t in terms)
    pred = term_pred or f"term IN ({tlist})"
    return f"""
WITH toks AS ({TOKS}),{extra_cte}
corpus AS (SELECT count(*)::DOUBLE AS n FROM documents),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY doc_id),
avg_dl AS (SELECT sum(dl.dl) / corpus.n AS avgdl FROM dl, corpus GROUP BY corpus.n),
df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM toks
       WHERE {pred} GROUP BY term),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks
       WHERE {pred} GROUP BY doc_id, term),
scored AS (
  SELECT tf.doc_id,
    sum( pow(ln(1 + (corpus.n - df.df + 0.5) / (df.df + 0.5)), {IDF_EXP}) *
         tf.tf * ({K1} + 1) /
         (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / avg_dl.avgdl)) ) AS score
  FROM tf
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN corpus CROSS JOIN avg_dl
  GROUP BY tf.doc_id
)
SELECT doc_id, round(score, 6) AS score
FROM scored {final_where} ORDER BY scored.score DESC, doc_id LIMIT {k} OFFSET {offset}
"""
# NB: ORDER BY scored.score (the RAW float64 sum), not the rounded
# alias — the engine ranks by raw score, and two docs straddling the
# LIMIT boundary could round equal while their raw scores differ.


SQL_BM25_TOP10 = _sql_bm25(BM25_QUERY_TERMS, 10)


def q_dedup_exact(sf_dir: str) -> pd.DataFrame:
    from ..ops.dedup import exact_dedup

    kept = exact_dedup(_docs(sf_dir, ["doc_id", "text"])).to_pandas()
    return (
        kept[["doc_id"]].astype("int64").sort_values("doc_id").reset_index(drop=True)
    )


SQL_DEDUP_EXACT = """
SELECT min(doc_id)::BIGINT AS doc_id FROM documents GROUP BY text ORDER BY doc_id
"""


def q_lang_counts(sf_dir: str) -> pd.DataFrame:
    from ..ops.analytics import facet_counts

    df = facet_counts(_docs(sf_dir, ["lang"]), "lang").to_pandas()
    df["n"] = df["n"].astype("int64")
    return df.sort_values("lang").reset_index(drop=True)


SQL_LANG_COUNTS = "SELECT lang, count(*)::BIGINT AS n FROM documents GROUP BY lang ORDER BY lang"


def q_source_counts(sf_dir: str) -> pd.DataFrame:
    from ..ops.analytics import facet_counts

    df = facet_counts(_docs(sf_dir, ["source"]), "source").to_pandas()
    df["n"] = df["n"].astype("int64")
    return df.sort_values("source").reset_index(drop=True)


SQL_SOURCE_COUNTS = "SELECT source, count(*)::BIGINT AS n FROM documents GROUP BY source ORDER BY source"


def q_chrono(sf_dir: str) -> pd.DataFrame:
    from ..ops.analytics import chrono_histogram

    ev = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["ts", "value"])
    df = chrono_histogram(ev).to_pandas()
    df["bucket"] = df["bucket"].astype("int64")
    df["n"] = df["n"].astype("int64")
    from ..ops.textstats import round_half_away

    df["total"] = round_half_away(df["total"].to_numpy())
    return df.sort_values("bucket").reset_index(drop=True)


SQL_CHRONO = """
SELECT (year(ts) * 100 + month(ts))::BIGINT AS bucket,
       count(*)::BIGINT AS n, round(sum(value), 6) AS total
FROM events GROUP BY bucket ORDER BY bucket
"""


def q_keyness_chi2(sf_dir: str) -> pd.DataFrame:
    """Focus = lang='en' docs vs the rest; signed Chi2 keyness
    (KeynessScorer.java:77-122), top 30."""
    from ..ops.analytics import keyness_chi2, term_stats_ds

    docs = _docs(sf_dir, ["text", "lang"])
    focus = term_stats_ds(docs.filter(expr=f"lang == '{KEYNESS_FOCUS_LANG}'")).to_pandas()
    other = term_stats_ds(docs.filter(expr=f"lang != '{KEYNESS_FOCUS_LANG}'")).to_pandas()
    merged = focus.merge(other, on="term", how="outer", suffixes=("_f", "_o")).fillna(0)
    fo_tokens = float(merged["cf_f"].sum())
    ot_tokens = float(merged["cf_o"].sum())
    chi2 = keyness_chi2(
        merged["cf_f"].to_numpy(np.float64), fo_tokens,
        merged["cf_o"].to_numpy(np.float64), ot_tokens,
    )
    from ..ops.textstats import round_half_away

    out = pd.DataFrame({"term": merged["term"], "chi2": round_half_away(chi2)})
    return (
        out.sort_values(["chi2", "term"], ascending=[False, True])
        .head(KEYNESS_TOP)
        .reset_index(drop=True)
    )


SQL_KEYNESS_CHI2 = f"""
WITH toks AS ({TOKS}),
tagged AS (SELECT t.term, d.lang = '{KEYNESS_FOCUS_LANG}' AS is_focus
           FROM toks t JOIN documents d ON t.doc_id = d.doc_id),
counts AS (
  SELECT term,
    sum(CASE WHEN is_focus THEN 1 ELSE 0 END)::DOUBLE AS fo,
    sum(CASE WHEN is_focus THEN 0 ELSE 1 END)::DOUBLE AS ot
  FROM tagged GROUP BY term),
tot AS (SELECT sum(fo) AS fo_tokens, sum(ot) AS ot_tokens FROM counts),
cells AS (
  SELECT c.term, c.fo, c.ot, t.fo_tokens, t.ot_tokens,
    t.fo_tokens - c.fo AS fnon, t.ot_tokens - c.ot AS onon,
    t.fo_tokens + t.ot_tokens AS allt,
    c.fo + c.ot AS term_t,
    (t.fo_tokens - c.fo) + (t.ot_tokens - c.ot) AS non_t
  FROM counts c CROSS JOIN tot t),
x2 AS (
  SELECT term, fo, ot, fo_tokens, ot_tokens,
    (CASE WHEN fo_tokens * term_t / allt > 0
      THEN pow(fo - fo_tokens * term_t / allt, 2) / (fo_tokens * term_t / allt) ELSE 0 END) +
    (CASE WHEN ot_tokens * term_t / allt > 0
      THEN pow(ot - ot_tokens * term_t / allt, 2) / (ot_tokens * term_t / allt) ELSE 0 END) +
    (CASE WHEN fo_tokens * non_t / allt > 0
      THEN pow(fnon - fo_tokens * non_t / allt, 2) / (fo_tokens * non_t / allt) ELSE 0 END) +
    (CASE WHEN ot_tokens * non_t / allt > 0
      THEN pow(onon - ot_tokens * non_t / allt, 2) / (ot_tokens * non_t / allt) ELSE 0 END)
    AS raw
  FROM cells)
SELECT term,
  round(CASE WHEN fo / fo_tokens >= ot / ot_tokens THEN raw ELSE -raw END, 6) AS chi2
FROM x2 ORDER BY chi2 DESC, term LIMIT {KEYNESS_TOP}
"""


def q_suggest(sf_dir: str) -> pd.DataFrame:
    from ..ops.analytics import suggest

    df = q_term_stats(sf_dir)
    out = suggest(df, SUGGEST_PREFIX, 10)[["term", "cf"]]
    out["cf"] = out["cf"].astype("int64")
    return out.reset_index(drop=True)


SQL_SUGGEST = f"""
WITH toks AS ({TOKS})
SELECT term, count(*)::BIGINT AS cf FROM toks
WHERE term LIKE '{SUGGEST_PREFIX}%'
GROUP BY term ORDER BY cf DESC, term LIMIT 10
"""


def q_cooc(sf_dir: str) -> pd.DataFrame:
    from ..ops.analytics import cooc_window

    df = cooc_window(_docs_text(sf_dir), COOC_PIVOT, window=2).to_pandas()
    df["n"] = df["n"].astype("int64")
    return (
        df.sort_values(["n", "coterm"], ascending=[False, True])
        .head(20)
        .reset_index(drop=True)
    )


SQL_COOC = f"""
WITH base AS (
  SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS arr
  FROM documents),
toks AS (
  SELECT doc_id, unnest(arr) AS term, generate_subscripts(arr, 1) AS pos
  FROM base)
SELECT b.term AS coterm, count(*)::BIGINT AS n
FROM toks a JOIN toks b
  ON a.doc_id = b.doc_id AND b.pos BETWEEN a.pos - 2 AND a.pos + 2
  AND b.pos <> a.pos
WHERE a.term = '{COOC_PIVOT}'
GROUP BY coterm ORDER BY n DESC, coterm LIMIT 20
"""


def q_jaccard_pairs(sf_dir: str) -> pd.DataFrame:
    from ..ops.dedup import jaccard_pairs_exact

    return jaccard_pairs_exact(_docs_text(sf_dir), JACCARD_THRESHOLD)


SQL_JACCARD_PAIRS = f"""
WITH s AS (
  SELECT doc_id,
    list_distinct(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                  x -> x <> '')) AS toks
  FROM documents)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
  round(len(list_intersect(a.toks, b.toks))::DOUBLE /
        (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks))), 6)
    AS jaccard
FROM s a JOIN s b ON a.doc_id < b.doc_id
WHERE len(a.toks) + len(b.toks) > 0
  AND len(list_intersect(a.toks, b.toks))::DOUBLE /
      (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)))
      >= {JACCARD_THRESHOLD}
ORDER BY doc_a, doc_b
"""


def q_ann_topk(sf_dir: str) -> pd.DataFrame:
    from ..ops.similarity import brute_force_topk

    emb = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    head = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    head = head[head["vec_id"] < ANN_QUERIES].sort_values("vec_id")
    Q = np.array(head["embedding"].tolist(), np.float64)
    res = brute_force_topk(emb, Q, ANN_K)
    res["query_id"] = res["query_id"].astype("int64")
    res["vec_id"] = res["vec_id"].astype("int64")
    from ..ops.textstats import round_half_away

    res["score"] = round_half_away(res["score"].to_numpy())
    return res.reset_index(drop=True)


SQL_ANN_TOPK = f"""
WITH q AS (SELECT vec_id AS query_id, embedding AS qv FROM embeddings
           WHERE vec_id < {ANN_QUERIES}),
scored AS (
  SELECT q.query_id, e.vec_id,
    round(list_cosine_similarity(q.qv::DOUBLE[], e.embedding::DOUBLE[]), 6) AS score,
    row_number() OVER (
      PARTITION BY q.query_id
      ORDER BY list_cosine_similarity(q.qv::DOUBLE[], e.embedding::DOUBLE[]) DESC, e.vec_id
    ) AS rnk
  FROM q CROSS JOIN embeddings e)
SELECT query_id, vec_id, score FROM scored WHERE rnk <= {ANN_K}
ORDER BY query_id, rnk
"""


def q_embedding_dups(sf_dir: str) -> pd.DataFrame:
    """Embedding near-dup pairs via the IVF partition join (the scale
    path: no driver-side corpus matrix, list-sharded exact scoring).
    At the contract threshold 0.4 a qualifying neighbor can sit in any
    list, so the probe set covers all lists for exact oracle parity —
    at realistic dup thresholds (≥0.9) n_probe≈2 suffices and prunes
    most comparisons (see q_ann_ivf for the pruned-recall variant)."""
    from ..ops.dedup import embedding_dup_pairs_ivf

    emb = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    df = embedding_dup_pairs_ivf(
        emb, EMB_DUP_THRESHOLD, n_lists=8, n_probe=8
    ).to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                             "doc_b": pd.Series(dtype="int64"),
                             "cosine": pd.Series(dtype="float64")})
    from ..ops.textstats import round_half_away

    df["cosine"] = round_half_away(df["cosine"].to_numpy())
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


SQL_EMBEDDING_DUPS = f"""
SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
  round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= {EMB_DUP_THRESHOLD}
ORDER BY doc_a, doc_b
"""


def q_quality(sf_dir: str) -> pd.DataFrame:
    from ..ops.textstats import quality_metrics

    df = quality_metrics(_docs_text(sf_dir)).to_pandas()
    df["n_tokens"] = df["n_tokens"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


_STOP_EN = "'the','a','of','and','to','in','is','it','that','for','on','with','as','are','was'"
SQL_QUALITY = f"""
WITH base AS (
  SELECT doc_id, text,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS arr
  FROM documents)
SELECT doc_id,
  len(arr)::BIGINT AS n_tokens,
  round(len(regexp_replace(text, '[^A-Za-z]', '', 'g'))::DOUBLE /
        greatest(len(text), 1), 6) AS alpha_ratio,
  round(len(list_filter(arr, x -> x IN ({_STOP_EN})))::DOUBLE /
        greatest(len(arr), 1), 6) AS stop_ratio,
  round(coalesce(list_sum(list_transform(arr, x -> len(x))), 0)::DOUBLE /
        greatest(len(arr), 1), 6) AS mean_token_len
FROM base ORDER BY doc_id
"""


def q_token_counts(sf_dir: str) -> pd.DataFrame:
    """Per-doc whitespace + BPE-ish-regex token counts (training-data
    budget metric; see ops/textstats.py:token_counts)."""
    from ..ops.textstats import token_counts

    df = token_counts(_docs_text(sf_dir)).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


# Same RE2 patterns as the Ray side — DuckDB's regexp engine is also
# RE2 with default (leftmost-first) options, so the match sets are
# identical by construction.
SQL_TOKEN_COUNTS = r"""
SELECT doc_id,
  len(regexp_extract_all(coalesce(text, ''), '\S+'))::BIGINT AS ws_tokens,
  len(regexp_extract_all(coalesce(text, ''),
      '''s|''t|''re|''ve|''m|''ll|''d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+'
  ))::BIGINT AS bpe_tokens
FROM documents ORDER BY doc_id
"""


HH_K = 30


def q_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Exact corpus top-k tokens WITHOUT a full-vocabulary shuffle
    (two-pass threshold-bounded candidates; ops/textstats.py)."""
    from ..ops.textstats import heavy_hitters

    df = heavy_hitters(_docs_text(sf_dir), k=HH_K)
    return df.reset_index(drop=True)


SQL_HEAVY_HITTERS = f"""
WITH toks AS ({TOKS})
SELECT term, count(*)::BIGINT AS cf FROM toks
GROUP BY term ORDER BY cf DESC, term LIMIT {HH_K}
"""

QUOTA_N = 5


def q_quota_cap(sf_dir: str) -> pd.DataFrame:
    """Per-source quota: best N docs per source (longest first,
    doc_id tie-break) — the training-mix anti-spam cap."""
    from ..ops.mixing import quota_cap

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "n_chars"],
    ).repartition(16)
    df = quota_cap(docs, key_col="source", n=QUOTA_N).to_pandas()
    return (df[["doc_id", "source", "n_chars"]]
            .sort_values(["source", "doc_id"]).reset_index(drop=True))


SQL_QUOTA_CAP = f"""
SELECT doc_id, source, n_chars FROM (
  SELECT doc_id, source, n_chars,
    row_number() OVER (PARTITION BY source
                       ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents) WHERE rn <= {QUOTA_N}
ORDER BY source, doc_id
"""


def q_mix_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic weighted corpus mix: keep (suffix%4+1)/4 of each
    source srcN by hash threshold (ops/mixing.py mix_sample)."""
    from ..ops.mixing import mix_sample

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
    ).repartition(16)
    srcs = sorted(
        pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["source"])["source"].unique().to_pylist()
    )
    weights = {s: (int(s[3:]) % 4 + 1) / 4 for s in srcs}
    df = mix_sample(docs, weights).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_MIX_SAMPLE = """
SELECT doc_id, source FROM documents
WHERE md5_number_lower('mix:' || doc_id) % 1000000
      < (CAST(substr(source, 4) AS INT) % 4 + 1) * 250000
ORDER BY doc_id
"""


# ---------------------------------------------------------------------
# rows-only queries (no SQL-expressible oracle)
# ---------------------------------------------------------------------


def q_minhash_pairs(sf_dir: str) -> pd.DataFrame:
    """MinHash-LSH near-dup pairs, exact-shingle-verified.  Oracle:
    all-pairs 3-shingle Jaccard ≥ threshold in SQL — sound because the
    emitted jaccard is the EXACT verified value, and complete on this
    corpus because every qualifying pair lands well above the banding
    recall knee (16 bands × 4 rows: P(miss) < 1e-6 at J ≥ 0.85)."""
    from ..ops.dedup import minhash_lsh_pairs

    df = minhash_lsh_pairs(_docs_text(sf_dir), threshold=0.5).to_pandas()
    df["jaccard"] = df["jaccard"].round(6)
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# 3-token shingles (docs shorter than 3 tokens fall back to their
# distinct tokens — mirroring _shingles_from); exact set Jaccard.
SQL_MINHASH_PAIRS = """
WITH base AS (
  SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS arr
  FROM documents),
tok AS (
  SELECT doc_id, unnest(arr) AS term, generate_subscripts(arr, 1) AS pos
  FROM base),
cnt AS (SELECT doc_id, count(*) AS c FROM tok GROUP BY doc_id),
sh AS (
  SELECT DISTINCT a.doc_id, a.term || ' ' || b.term || ' ' || c3.term AS s
  FROM tok a
  JOIN tok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
  JOIN tok c3 ON a.doc_id = c3.doc_id AND c3.pos = a.pos + 2
  UNION
  SELECT DISTINCT t.doc_id, t.term AS s
  FROM tok t JOIN cnt ON t.doc_id = cnt.doc_id WHERE cnt.c < 3),
sz AS (SELECT doc_id, count(*)::DOUBLE AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*)::DOUBLE AS i
  FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
  GROUP BY a, b)
SELECT inter.a AS doc_a, inter.b AS doc_b,
       round(inter.i / (sa.n + sb.n - inter.i), 6) AS jaccard
FROM inter
JOIN sz sa ON inter.a = sa.doc_id
JOIN sz sb ON inter.b = sb.doc_id
WHERE inter.i / (sa.n + sb.n - inter.i) >= 0.5
ORDER BY doc_a, doc_b
"""


def q_dedup_clusters(sf_dir: str) -> pd.DataFrame:
    """Near-dup clusters: MinHash-LSH pairs → distributed connected
    components (min-label propagation), cluster id = min doc id.
    Oracle: recursive-CTE transitive closure over the exact shingle
    pair set."""
    from ..ops.dedup import connected_components, minhash_lsh_pairs

    pairs = minhash_lsh_pairs(_docs_text(sf_dir), threshold=0.5)
    df = connected_components(pairs).to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    df["cluster_id"] = df["cluster_id"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_DEDUP_CLUSTERS = f"""
WITH RECURSIVE pairs AS ({SQL_MINHASH_PAIRS.replace("ORDER BY doc_a, doc_b", "")}),
edges AS (
  SELECT doc_a AS u, doc_b AS v FROM pairs
  UNION SELECT doc_b, doc_a FROM pairs),
reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u)
SELECT u AS doc_id, least(u, min(v))::BIGINT AS cluster_id
FROM reach GROUP BY u ORDER BY doc_id
"""


def q_simhash_pairs(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup pairs — oracle-checked: token hash is
    md5_number_lower, so DuckDB recomputes the 64-bit signatures
    bit-identically and the 4-block banding is COMPLETE at hamming ≤ 3
    (pigeonhole), making the all-pairs SQL set exactly the op's set."""
    from ..ops.dedup import simhash_pairs

    df = simhash_pairs(_docs_text(sf_dir)).to_pandas()
    df["hamming"] = df["hamming"].astype("int64")
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


SQL_SIMHASH_PAIRS = f"""
WITH toks AS ({TOKS}),
tc AS (SELECT doc_id, term, count(*)::HUGEINT AS c
       FROM toks GROUP BY doc_id, term),
bits AS (
  SELECT doc_id, b.bit,
    sum(CASE WHEN (md5_number_lower(term) >> b.bit) & 1 = 1
             THEN c ELSE -c END) AS v
  FROM tc CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS bit) b
  GROUP BY doc_id, b.bit),
sig0 AS (
  SELECT doc_id,
    sum(CASE WHEN v > 0 THEN (1::UBIGINT << bit) ELSE 0::UBIGINT END)
      ::UBIGINT AS s
  FROM bits GROUP BY doc_id),
sig AS (
  SELECT d.doc_id, coalesce(s.s, 0::UBIGINT) AS s
  FROM documents d LEFT JOIN sig0 s ON d.doc_id = s.doc_id)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
  bit_count(xor(a.s, b.s))::BIGINT AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.s, b.s)) <= 3
ORDER BY doc_a, doc_b
"""


def q_langid(sf_dir: str) -> pd.DataFrame:
    """Function-word language ID counts — oracle-checked: the heuristic
    is per-language hit counts + argmax with first-alphabetical ties,
    a closed-form SQL CASE."""
    from ..ops.textstats import LangId

    ds = _docs_text(sf_dir).map_batches(
        LangId, batch_format="pyarrow", concurrency=2
    )
    from ray.data.aggregate import Count

    df = ds.groupby("lang_guess").aggregate(Count(alias_name="n")).to_pandas()
    df["n"] = df["n"].astype("int64")
    return df.sort_values("lang_guess").reset_index(drop=True)


def _sql_langid() -> str:
    from ..ops.textstats import LANG_PROFILES

    langs = sorted(LANG_PROFILES)
    hit_cols = ",\n    ".join(
        f"count(*) FILTER (WHERE term IN ("
        + ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lg]))
        + f")) AS {lg}"
        for lg in langs
    )
    gmax = "greatest(" + ", ".join(langs) + ")"
    case = f"CASE WHEN {gmax} = 0 THEN 'und' " + " ".join(
        f"WHEN {lg} = {gmax} THEN '{lg}'" for lg in langs[:-1]
    ) + f" ELSE '{langs[-1]}' END"
    return f"""
WITH toks AS ({TOKS}),
hits AS (SELECT doc_id,
    {hit_cols}
  FROM toks GROUP BY doc_id),
guesses AS (
  SELECT d.doc_id,
    CASE WHEN h.doc_id IS NULL THEN 'und' ELSE {case} END AS lang_guess
  FROM documents d LEFT JOIN hits h ON d.doc_id = h.doc_id)
SELECT lang_guess, count(*)::BIGINT AS n
FROM guesses GROUP BY lang_guess ORDER BY lang_guess
"""


SQL_LANGID = _sql_langid()


def q_fingerprint(sf_dir: str) -> pd.DataFrame:
    """Winnowing fingerprints — oracle-checked: md5 gram hashes +
    exploded (doc_id, fp) rows mirror a DuckDB window-min exactly."""
    from ..ops.textstats import fingerprint

    df = fingerprint(_docs_text(sf_dir)).to_pandas()
    return df.sort_values(["doc_id", "fp"]).reset_index(drop=True)


SQL_FINGERPRINT = """
WITH base AS (
  SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS arr
  FROM documents),
tok AS (
  SELECT doc_id, unnest(arr) AS term, generate_subscripts(arr, 1) AS pos
  FROM base),
cnt AS (SELECT doc_id, count(*) AS c FROM tok GROUP BY doc_id),
sh AS (
  SELECT a.doc_id, a.pos,
    md5_number_lower(a.term || ' ' || b.term || ' ' || c3.term) AS h
  FROM tok a
  JOIN tok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
  JOIN tok c3 ON a.doc_id = c3.doc_id AND c3.pos = a.pos + 2
  UNION ALL
  SELECT t.doc_id, t.pos, md5_number_lower(t.term)
  FROM tok t JOIN cnt ON t.doc_id = cnt.doc_id WHERE cnt.c < 3),
wm AS (
  SELECT doc_id, h,
    min(h) OVER (PARTITION BY doc_id ORDER BY pos
                 ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS m,
    row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn,
    count(*) OVER (PARTITION BY doc_id) AS nsh
  FROM sh)
SELECT DISTINCT doc_id,
  lpad(lower(to_hex(CASE WHEN nsh < 4 THEN h ELSE m END)), 16, '0') AS fp
FROM wm WHERE rn >= 4 OR nsh < 4
ORDER BY doc_id, fp
"""


def _events(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))


SESSION_GAP_SEC = 1800
SLIDE_WINDOW_SEC = 3600
SLIDE_STEP_SEC = 900
ATTR_HORIZON_SEC = 86400


def q_sessions(sf_dir: str) -> pd.DataFrame:
    """Gap-based sessionization over the event stream (streaming-window
    operator class) — oracle: lag()/cumsum window SQL."""
    from ..ops.streams import sessionize

    df = sessionize(_events(sf_dir), gap_sec=SESSION_GAP_SEC).to_pandas()
    for c in ("user_id", "session_ord", "n_events", "start_us", "end_us"):
        df[c] = df[c].astype("int64")
    return df.sort_values(["user_id", "session_ord"]).reset_index(drop=True)


SQL_SESSIONS = f"""
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS t, value,
    CASE WHEN lag(epoch_us(ts)) OVER w IS NULL
         OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > {SESSION_GAP_SEC * 1_000_000}
         THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
s AS (
  SELECT *, sum(new_s) OVER (PARTITION BY user_id ORDER BY t, event_id
                             ROWS UNBOUNDED PRECEDING) AS session_ord
  FROM e)
SELECT user_id, session_ord::BIGINT AS session_ord,
  count(*)::BIGINT AS n_events, round(sum(value), 6) AS total_value,
  min(t) AS start_us, max(t) AS end_us
FROM s GROUP BY user_id, session_ord
ORDER BY user_id, session_ord
"""


def q_sliding_windows(sf_dir: str) -> pd.DataFrame:
    """Sliding-window aggregate per event type (each event lands in
    window/slide windows) — oracle: generate_series window expansion."""
    from ..ops.streams import sliding_window_agg

    df = sliding_window_agg(
        _events(sf_dir), window_sec=SLIDE_WINDOW_SEC,
        slide_sec=SLIDE_STEP_SEC).to_pandas()
    df["window_start_us"] = df["window_start_us"].astype("int64")
    df["n"] = df["n"].astype("int64")
    return df.sort_values(["event_type", "window_start_us"]).reset_index(
        drop=True)


_W_US = SLIDE_WINDOW_SEC * 1_000_000
_S_US = SLIDE_STEP_SEC * 1_000_000
# DuckDB // truncates toward zero; the engine floor-divides.  True
# floor division (a<0, a%s<>0 → one lower) keeps the oracle correct
# for events before the epoch window too.
_FLOOR_LO = (
    f"((t - {_W_US}) // {_S_US}"
    f" - CASE WHEN (t - {_W_US}) < 0 AND (t - {_W_US}) % {_S_US} <> 0"
    f" THEN 1 ELSE 0 END)"
)
_FLOOR_HI = (
    f"(t // {_S_US}"
    f" - CASE WHEN t < 0 AND t % {_S_US} <> 0 THEN 1 ELSE 0 END)"
)
SQL_SLIDING_WINDOWS = f"""
WITH e AS (SELECT event_type, epoch_us(ts) AS t, value FROM events),
x AS (
  SELECT event_type, value,
    unnest(generate_series({_FLOOR_LO} + 1, {_FLOOR_HI}))
      * {_S_US} AS window_start_us
  FROM e)
SELECT event_type, window_start_us, count(*)::BIGINT AS n,
  round(sum(value), 6) AS total_value
FROM x GROUP BY event_type, window_start_us
ORDER BY event_type, window_start_us
"""


def q_attribution(sf_dir: str) -> pd.DataFrame:
    """As-of join within the stream: each purchase gets its most recent
    strictly-earlier click by the same user within the horizon —
    oracle: LEFT JOIN LATERAL ... ORDER BY ts DESC LIMIT 1."""
    from ..ops.streams import asof_attribution

    df = asof_attribution(
        _events(sf_dir), target_type="purchase", source_type="click",
        horizon_sec=ATTR_HORIZON_SEC).to_pandas()
    return df.sort_values("event_id").reset_index(drop=True)


SQL_ATTRIBUTION = f"""
WITH ev AS (SELECT event_id, user_id, event_type, epoch_us(ts) AS t
            FROM events)
SELECT tr.event_id, tr.user_id, tr.t AS ts_us,
  coalesce(s.event_id, -1)::BIGINT AS src_event_id,
  coalesce(tr.t - s.t, -1)::BIGINT AS lag_us
FROM ev tr
LEFT JOIN LATERAL (
  SELECT event_id, t FROM ev s
  WHERE s.user_id = tr.user_id AND s.event_type = 'click'
    AND s.t < tr.t AND tr.t - s.t <= {ATTR_HORIZON_SEC * 1_000_000}
  ORDER BY s.t DESC, s.event_id DESC LIMIT 1) s ON true
WHERE tr.event_type = 'purchase'
ORDER BY tr.event_id
"""


RANGE_RADIUS_SEC = 900


def q_range_join(sf_dir: str) -> pd.DataFrame:
    """Non-equi range join (bucketed time join): errors within ±radius
    of each purchase — oracle: correlated |Δt| ≤ radius count."""
    from ..ops.streams import range_join_count

    df = range_join_count(
        _events(sf_dir), probe_type="purchase", match_type="error",
        radius_sec=RANGE_RADIUS_SEC).to_pandas()
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("event_id").reset_index(drop=True)


SQL_RANGE_JOIN = f"""
WITH ev AS (SELECT event_id, event_type, epoch_us(ts) AS t FROM events)
SELECT p.event_id, p.t AS ts_us,
  (SELECT count(*) FROM ev m WHERE m.event_type = 'error'
     AND abs(m.t - p.t) <= {RANGE_RADIUS_SEC * 1_000_000})::BIGINT
    AS n_matches
FROM ev p WHERE p.event_type = 'purchase'
ORDER BY p.event_id
"""


PRICING_CUTOFF = "1998-09-02"


def q_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """Broadcast-side join pattern: orders stream through map_batches
    against a ray.put customer→nation dictionary (sorted-key binary
    search); only per-batch partial sums leave a task."""
    import pyarrow.parquet as pq_

    from ..ops.relational import broadcast_join_agg

    cust = pq_.read_table(os.path.join(sf_dir, "customer.parquet"),
                          columns=["c_custkey", "c_nationkey"])
    nation = pq_.read_table(os.path.join(sf_dir, "nation.parquet"))
    ncol = "n_name" if "n_name" in nation.column_names else nation.column_names[1]
    nkey = "n_nationkey" if "n_nationkey" in nation.column_names else nation.column_names[0]
    nmap = dict(zip(nation[nkey].to_pylist(), nation[ncol].to_pylist()))
    keys = cust["c_custkey"].to_numpy()
    vals = [nmap[k] for k in cust["c_nationkey"].to_pylist()]
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_totalprice"], override_num_blocks=32)
    df = broadcast_join_agg(orders, "o_custkey", keys, vals, "o_totalprice")
    return df.rename(columns={"name": "n_name", "total": "revenue"})


SQL_REVENUE_BY_NATION = """
SELECT n.n_name, round(sum(o.o_totalprice), 2) AS revenue,
       count(*)::BIGINT AS n
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name ORDER BY n.n_name
"""


def q_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape (combine-before-shuffle): per-batch Arrow
    group_by partials over lineitem, one tiny final merge."""
    import datetime

    from ..ops.relational import pricing_summary

    cutoff = int(datetime.datetime.fromisoformat(
        PRICING_CUTOFF + "T23:59:59.999999").replace(
        tzinfo=datetime.timezone.utc).timestamp() * 1_000_000)
    li = ray.data.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                               columns=["l_returnflag", "l_linestatus",
                                        "l_quantity", "l_extendedprice",
                                        "l_discount", "l_shipdate"],
                               override_num_blocks=32)
    return pricing_summary(li, cutoff)


SQL_PRICING_SUMMARY = f"""
SELECT l_returnflag, l_linestatus,
  round(sum(l_quantity), 2) AS sum_qty,
  round(sum(l_extendedprice), 2) AS sum_base_price,
  round(sum(l_extendedprice * (1 - l_discount)), 4) AS sum_disc_price,
  count(*)::BIGINT AS n
FROM lineitem
WHERE epoch_us(l_shipdate) <=
  epoch_us(TIMESTAMP '{PRICING_CUTOFF} 23:59:59.999999')
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def q_multimodal(sf_dir: str) -> pd.DataFrame:
    """Multimodal actor-pool plumbing end-to-end (rows-only: decoders
    are container-stubbed with deterministic fakes — the schema, small
    batch sizing, actor-pool shapes and per-frame output layout are the
    real pipeline).  A synthetic media table is derived
    deterministically from ``documents`` (kind cycles image/audio/video
    by doc id); each kind runs its stage and reports one summary row
    per media: (media_id, kind, n_out, val)."""
    import hashlib

    from ..ops.multimodal import media_pipeline

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        kinds = [("image", "audio", "video")[i % 3] for i in ids]
        payloads = [
            hashlib.blake2b(f"{i}:{t}".encode(), digest_size=32).digest() * 4
            for i, t in zip(ids, texts)
        ]
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(
                [f"{k}/x-synthetic" for k in kinds], pa.string()),
            "meta": pa.array(["{}"] * len(ids), pa.string()),
        })

    media = _docs_text(sf_dir).map_batches(to_media, batch_format="pyarrow")
    media = media.materialize()  # reused by three consumers
    frames = []
    for kind in ("image", "audio", "video"):
        sub = media.filter(expr=f"kind == '{kind}'")
        out = media_pipeline(sub, kind, concurrency=2,
                             batch_size=16).to_pandas()
        if kind == "image":
            s = pd.DataFrame({
                "media_id": out["media_id"],
                "n_out": out["features"].map(len),
                "val": out["features"].map(
                    lambda v: float(np.sum(np.asarray(v, np.float64)))),
            })
        elif kind == "audio":
            s = pd.DataFrame({
                "media_id": out["media_id"],
                "n_out": out["frame_rms"].map(len),
                "val": out["frame_rms"].map(
                    lambda v: float(np.sum(np.asarray(v, np.float64)))),
            })
        else:  # video: one row per sampled frame → aggregate per media
            out["fsum"] = out["features"].map(
                lambda v: float(np.sum(np.asarray(v, np.float64))))
            g = out.groupby("media_id", as_index=False).agg(
                n_out=("frame_index", "count"), val=("fsum", "sum"))
            s = g
        s.insert(1, "kind", kind)
        frames.append(s)
    df = pd.concat(frames, ignore_index=True)
    df["n_out"] = df["n_out"].astype("int64")
    df["val"] = df["val"].round(6)
    return df.sort_values("media_id").reset_index(drop=True)


def q_bm25_french(sf_dir: str) -> pd.DataFrame:
    """French-chain index over documents (rows-only: lemmatization is
    not SQL-expressible)."""
    ix = _index(sf_dir, profile="french")
    res = ix.search_exact(list(BM25_QUERY_TERMS), 10)
    return pd.DataFrame(
        {"doc_id": [d for d, _ in res], "score": [round(s, 6) for _, s in res]}
    )


def q_pages_extract(sf_dir: str) -> pd.DataFrame:
    """Flagship extraction over the self-generated pages corpus
    (rows-only; the per-row byte-identity invariant is asserted here —
    any violation raises)."""
    from ..corpus import pages_dataset
    from ..stages.analyze import extract_batch

    n = 2000

    def check_batch(batch: pa.Table) -> pa.Table:
        expected = batch["text"]
        out = extract_batch(batch.set_column(
            batch.schema.get_field_index("text"), "text",
            pa.array([""] * batch.num_rows)))
        got = out["text"]
        ok = pa.compute.equal(got, expected)
        bad = batch.num_rows - pa.compute.sum(
            pa.compute.cast(ok, pa.int32())).as_py()
        if bad:
            raise AssertionError(
                f"{bad} rows violate the per-url byte-identity invariant")
        return out

    ds = pages_dataset(n).map_batches(
        check_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    # driver concat is bounded: fail fast rather than OOM if someone
    # raises n past the small audit size (not an assert — those strip
    # under python -O)
    if n > 50_000:
        raise ValueError(
            f"pages_extract audit is driver-side; n={n} > 50000")
    tbl = pa.concat_tables(ray.get(ds.materialize().to_arrow_refs()))
    df = tbl.select(["url", "text", "error"]).to_pandas()
    df["n_chars"] = df["text"].str.len().astype("int64")
    return df[["url", "n_chars", "error"]].sort_values("url").reset_index(drop=True)


WAND_BATTERY: tuple = (
    ("table",),
    ("stream", "vector"),
    ("table", "stream", "vector"),
    ("key", "value"),
    ("value",),
    ("table", "key"),
    ("stream", "key", "value"),
    ("vector", "table"),
)


def q_ann_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF-flat ANN over PARTITIONED-Parquet buckets (probes prune
    whole files) vs brute force.  Rows-only with an inline gate: mean
    top-10 recall vs the exact scorer must be ≥ 0.95 or this raises."""
    import shutil
    import tempfile

    from ..ops.similarity import IvfIndexedSearch, brute_force_topk

    emb = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    head = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet")
    ).to_pandas()
    head = head[head["vec_id"] < ANN_QUERIES].sort_values("vec_id")
    Q = np.array(head["embedding"].tolist(), np.float64)
    sample = emb.limit(4096).to_pandas()
    ivf = IvfIndexedSearch(n_lists=16, seed=42).fit(
        np.array(sample["embedding"].tolist(), np.float64)
    )
    bucket_dir = tempfile.mkdtemp(prefix="alix_ivf_")
    try:
        # disk-resident scale path: one directory per list, so a probe
        # set reads only its partitions' files
        ivf.add_buckets(emb).write_parquet(
            bucket_dir, partition_cols=["ivf_list"]
        )
        def _cast_list(t: pa.Table) -> pa.Table:
            i = t.schema.get_field_index("ivf_list")
            return t.set_column(
                i, "ivf_list", pa.compute.cast(t["ivf_list"], pa.int64())
            )

        # hive partition values read back as strings — normalize
        bucketed = ray.data.read_parquet(bucket_dir).map_batches(
            _cast_list, batch_format="pyarrow"
        )
        approx = ivf.search(bucketed, Q, k=ANN_K, n_probe=8)
        exact = brute_force_topk(emb, Q, ANN_K)
        rows = []
        for qi in range(len(Q)):
            a = set(approx[approx["query_id"] == qi]["vec_id"].astype(int))
            e = set(exact[exact["query_id"] == qi]["vec_id"].astype(int))
            rows.append((qi, len(a & e) / max(1, len(e))))
        out = pd.DataFrame(rows, columns=["query_id", "recall"])
        mean_recall = float(out["recall"].mean())
        if mean_recall < 0.95:
            raise AssertionError(
                f"IVF recall {mean_recall:.3f} < 0.95 vs brute force"
            )
        out["recall"] = out["recall"].round(6)
        return out
    finally:
        shutil.rmtree(bucket_dir, ignore_errors=True)


def q_wand_consistency(sf_dir: str) -> pd.DataFrame:
    """Serving-path top-10 (``search_terms``) for a fixed query
    battery, oracle-checked against DuckDB BM25.  Rank identity
    ``search_terms == search_block_window == search_exact`` is ALSO
    asserted inline (raises on divergence), plus a seeded 50-query
    random audit — so the oracle covers scores and the audit covers
    the block-max skip logic."""
    ix = _index(sf_dir)
    rng = np.random.default_rng(42)
    terms = list(ix.lexicon)
    for _ in range(50):
        qs = [terms[i] for i in rng.choice(len(terms), rng.integers(1, 4))]
        exact = ix.search_exact(qs, 10)
        if not (exact == ix.search_terms(qs, 10)
                == ix.search_block_window(qs, 10)):
            raise AssertionError(f"scorer rank divergence on {qs!r}")
    rows = []
    for qid, qs in enumerate(WAND_BATTERY):
        res = ix.search_terms(list(qs), 10)
        if res != ix.search_exact(list(qs), 10):
            raise AssertionError(f"scorer rank divergence on {qs!r}")
        for rank, (doc, score) in enumerate(res):
            rows.append((qid, rank, doc, round(score, 6)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def _sql_bm25_ranked(qid: int, terms: tuple, k: int = 10) -> str:
    """One battery query's (query_id, rank, doc_id, score) block —
    rank/order by RAW float score (the engine's ranking), rounded score
    only in the output."""
    tlist = ", ".join(f"'{t}'" for t in terms)
    return f"""
SELECT {qid}::BIGINT AS query_id,
       (row_number() OVER (ORDER BY s.score DESC, s.doc_id)) - 1 AS rank,
       s.doc_id, round(s.score, 6) AS score
FROM (
  WITH toks AS ({TOKS}),
  corpus AS (SELECT count(*)::DOUBLE AS n FROM documents),
  dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY doc_id),
  avg_dl AS (SELECT sum(dl.dl) / corpus.n AS avgdl FROM dl, corpus GROUP BY corpus.n),
  df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM toks
         WHERE term IN ({tlist}) GROUP BY term),
  tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks
         WHERE term IN ({tlist}) GROUP BY doc_id, term)
  SELECT tf.doc_id,
    sum( pow(ln(1 + (corpus.n - df.df + 0.5) / (df.df + 0.5)), {IDF_EXP}) *
         tf.tf * ({K1} + 1) /
         (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / avg_dl.avgdl)) ) AS score
  FROM tf
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN corpus CROSS JOIN avg_dl
  GROUP BY tf.doc_id
) s
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


SQL_WAND_CONSISTENCY = "\nUNION ALL\n".join(
    f"SELECT * FROM ({_sql_bm25_ranked(qid, qs)})"
    for qid, qs in enumerate(WAND_BATTERY)
)


# ---------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------

QUERIES = {
    "term_stats": q_term_stats,
    "doc_token_counts": q_doc_token_counts,
    "top_terms": q_top_terms,
    "bm25_top10": q_bm25_top10,
    "dedup_exact": q_dedup_exact,
    "lang_counts": q_lang_counts,
    "source_counts": q_source_counts,
    "chrono": q_chrono,
    "keyness_chi2": q_keyness_chi2,
    "suggest": q_suggest,
    "cooc": q_cooc,
    "jaccard_pairs": q_jaccard_pairs,
    "ann_topk": q_ann_topk,
    "embedding_dups": q_embedding_dups,
    "quality": q_quality,
    "token_counts": q_token_counts,
    "heavy_hitters": q_heavy_hitters,
    "quota_cap": q_quota_cap,
    "mix_sample": q_mix_sample,
    "minhash_pairs": q_minhash_pairs,
    "simhash_pairs": q_simhash_pairs,
    "langid": q_langid,
    "fingerprint": q_fingerprint,
    "multimodal": q_multimodal,
    "sessions": q_sessions,
    "sliding_windows": q_sliding_windows,
    "attribution": q_attribution,
    "revenue_by_nation": q_revenue_by_nation,
    "pricing_summary": q_pricing_summary,
    "range_join": q_range_join,
    "bm25_french": q_bm25_french,
    "pages_extract": q_pages_extract,
    "wand_consistency": q_wand_consistency,
    "ann_ivf": q_ann_ivf,
    "dedup_clusters": q_dedup_clusters,
}

ORACLES = {
    "term_stats": SQL_TERM_STATS,
    "doc_token_counts": SQL_DOC_TOKEN_COUNTS,
    "top_terms": SQL_TOP_TERMS,
    "bm25_top10": SQL_BM25_TOP10,
    "dedup_exact": SQL_DEDUP_EXACT,
    "lang_counts": SQL_LANG_COUNTS,
    "source_counts": SQL_SOURCE_COUNTS,
    "chrono": SQL_CHRONO,
    "keyness_chi2": SQL_KEYNESS_CHI2,
    "suggest": SQL_SUGGEST,
    "cooc": SQL_COOC,
    "jaccard_pairs": SQL_JACCARD_PAIRS,
    "ann_topk": SQL_ANN_TOPK,
    "embedding_dups": SQL_EMBEDDING_DUPS,
    "quality": SQL_QUALITY,
    "token_counts": SQL_TOKEN_COUNTS,
    "heavy_hitters": SQL_HEAVY_HITTERS,
    "quota_cap": SQL_QUOTA_CAP,
    "mix_sample": SQL_MIX_SAMPLE,
}

def q_token_dump(sf_dir: str) -> pd.DataFrame:
    """Token-table export (SQLite-exporter / TermRail analog) with
    1-based positions."""
    from ..ops.export import token_table

    df = token_table(_docs_text(sf_dir)).to_pandas()
    df["pos"] = df["pos"].astype("int64")
    return df.sort_values(["doc_id", "pos"]).reset_index(drop=True)


SQL_TOKEN_DUMP = """
WITH base AS (
  SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS arr
  FROM documents)
SELECT doc_id, generate_subscripts(arr, 1)::BIGINT AS pos, unnest(arr) AS term
FROM base ORDER BY doc_id, pos
"""


def q_keyness_g2(sf_dir: str) -> pd.DataFrame:
    """Signed log-likelihood G2 keyness (KeynessScorer.java:165-207)."""
    from ..ops.analytics import keyness_g2, term_stats_ds
    from ..ops.textstats import round_half_away

    docs = _docs(sf_dir, ["text", "lang"])
    focus = term_stats_ds(docs.filter(expr=f"lang == '{KEYNESS_FOCUS_LANG}'")).to_pandas()
    other = term_stats_ds(docs.filter(expr=f"lang != '{KEYNESS_FOCUS_LANG}'")).to_pandas()
    merged = focus.merge(other, on="term", how="outer", suffixes=("_f", "_o")).fillna(0)
    fo_tokens = float(merged["cf_f"].sum())
    ot_tokens = float(merged["cf_o"].sum())
    g2 = keyness_g2(
        merged["cf_f"].to_numpy(np.float64), fo_tokens,
        merged["cf_o"].to_numpy(np.float64), ot_tokens,
    )
    out = pd.DataFrame({"term": merged["term"], "g2": round_half_away(g2)})
    return (
        out.sort_values(["g2", "term"], ascending=[False, True])
        .head(KEYNESS_TOP)
        .reset_index(drop=True)
    )


SQL_KEYNESS_G2 = f"""
WITH toks AS ({TOKS}),
tagged AS (SELECT t.term, d.lang = '{KEYNESS_FOCUS_LANG}' AS is_focus
           FROM toks t JOIN documents d ON t.doc_id = d.doc_id),
counts AS (
  SELECT term,
    sum(CASE WHEN is_focus THEN 1 ELSE 0 END)::DOUBLE AS fo,
    sum(CASE WHEN is_focus THEN 0 ELSE 1 END)::DOUBLE AS ot
  FROM tagged GROUP BY term),
tot AS (SELECT sum(fo) AS fo_tokens, sum(ot) AS ot_tokens FROM counts),
cells AS (
  SELECT c.term, c.fo, c.ot, t.fo_tokens, t.ot_tokens,
    t.fo_tokens - c.fo AS fnon, t.ot_tokens - c.ot AS onon,
    t.fo_tokens + t.ot_tokens AS allt,
    c.fo + c.ot AS term_t,
    (t.fo_tokens - c.fo) + (t.ot_tokens - c.ot) AS non_t
  FROM counts c CROSS JOIN tot t),
g AS (
  SELECT term, fo, ot, fo_tokens, ot_tokens,
    (CASE WHEN fo > 0 AND fo_tokens * term_t / allt > 0
      THEN 2 * fo * ln(fo / (fo_tokens * term_t / allt)) ELSE 0 END) +
    (CASE WHEN ot > 0 AND ot_tokens * term_t / allt > 0
      THEN 2 * ot * ln(ot / (ot_tokens * term_t / allt)) ELSE 0 END) +
    (CASE WHEN fnon > 0 AND fo_tokens * non_t / allt > 0
      THEN 2 * fnon * ln(fnon / (fo_tokens * non_t / allt)) ELSE 0 END) +
    (CASE WHEN onon > 0 AND ot_tokens * non_t / allt > 0
      THEN 2 * onon * ln(onon / (ot_tokens * non_t / allt)) ELSE 0 END)
    AS raw
  FROM cells)
SELECT term,
  round(CASE WHEN fo / fo_tokens >= ot / ot_tokens THEN raw ELSE -raw END, 6) AS g2
FROM g ORDER BY g2 DESC, term LIMIT {KEYNESS_TOP}
"""


def q_snippets(sf_dir: str) -> pd.DataFrame:
    """Merged snippets for the BM25 query terms — oracle-checked on
    the structural projection (doc, rank, score, token span): the
    DocSnippets merge rule is a gaps-and-islands SQL, the ThemeWords
    score a distinct-term idf sum.  The html hilite stays in the op
    output (renderers use it) but is not SQL-expressible."""
    from ..ops.snippets import snippets_pipeline

    ix = _index(sf_dir)
    idf = {t: ix.idf(t) for t in BM25_QUERY_TERMS}
    df = snippets_pipeline(
        _docs_text(sf_dir), list(BM25_QUERY_TERMS), idf=idf
    ).to_pandas()
    df = df[["doc_id", "snippet_rank", "score", "start_tok", "end_tok"]]
    df["snippet_rank"] = df["snippet_rank"].astype("int64")
    return df.sort_values(["doc_id", "snippet_rank"]).reset_index(drop=True)


# DocSnippets online merge = islands of match positions with gaps > 6;
# ThemeWords score = Σ idf over DISTINCT matched terms per island;
# top-2 per doc by (score desc, start asc) — TopSnippetCollector.
SQL_SNIPPETS = f"""
WITH base AS (
  SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS arr
  FROM documents),
toks AS (
  SELECT doc_id, unnest(arr) AS term, generate_subscripts(arr, 1) AS pos
  FROM base),
corpus AS (SELECT count(*)::DOUBLE AS n FROM documents),
idfs AS (
  SELECT term,
    ln(1 + (corpus.n - count(DISTINCT doc_id) + 0.5)
         / (count(DISTINCT doc_id) + 0.5)) AS idf
  FROM toks CROSS JOIN corpus
  WHERE term IN ({", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)})
  GROUP BY term, corpus.n),
matches AS (
  SELECT t.doc_id, t.pos, t.term
  FROM toks t WHERE t.term IN ({", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)})),
flagged AS (
  SELECT doc_id, pos, term,
    CASE WHEN lag(pos) OVER w IS NULL
           OR pos > lag(pos) OVER w + 6 THEN 1 ELSE 0 END AS brk
  FROM matches WINDOW w AS (PARTITION BY doc_id ORDER BY pos)),
islands AS (
  SELECT doc_id, pos, term,
    sum(brk) OVER (PARTITION BY doc_id ORDER BY pos
                   ROWS UNBOUNDED PRECEDING) AS g
  FROM flagged),
spans AS (
  SELECT doc_id, g,
    (min(pos) - 1)::BIGINT AS start_tok,
    (max(pos) - 1)::BIGINT AS end_tok
  FROM islands GROUP BY doc_id, g),
span_scores AS (
  SELECT d.doc_id, d.g, sum(i.idf) AS score
  FROM (SELECT DISTINCT doc_id, g, term FROM islands) d
  JOIN idfs i USING (term) GROUP BY d.doc_id, d.g),
ranked AS (
  SELECT s.doc_id,
    (row_number() OVER (PARTITION BY s.doc_id
                        ORDER BY sc.score DESC, s.start_tok)) - 1
      AS snippet_rank,
    round(sc.score, 6) AS score, s.start_tok, s.end_tok
  FROM spans s JOIN span_scores sc ON s.doc_id = sc.doc_id AND s.g = sc.g)
SELECT doc_id, snippet_rank, score, start_tok, end_tok
FROM ranked WHERE snippet_rank < 2 ORDER BY doc_id, snippet_rank
"""


def q_w2v_corpus(sf_dir: str) -> pd.DataFrame:
    """POS-filtered word2vec corpus lines (rows-only)."""
    from ..ops.export import w2v_corpus

    df = w2v_corpus(_docs_text(sf_dir)).to_pandas()
    return df.reset_index(drop=True)



def q_clades(sf_dir: str) -> pd.DataFrame:
    """Correspondence-analysis 2-D coords of top terms × source
    categories (ContingencySvd/OpClades analog; rows-only — SVD sign
    conventions are not SQL-expressible)."""
    from ..ops.clades import contingency, correspondence_coords

    ds = _docs(sf_dir, ["text", "source"])
    cont = contingency(ds, "source")
    terms_df, cats_df = correspondence_coords(cont, top_terms=30)
    terms_df["kind"] = "term"
    cats_df["kind"] = "category"
    out = pd.concat([terms_df, cats_df], ignore_index=True)
    out["dim1"] = out["dim1"].round(6)
    out["dim2"] = out["dim2"].round(6)
    out["weight"] = out["weight"].astype("int64")
    return out.sort_values(["kind", "label"]).reset_index(drop=True)


def q_cooc_profile(sf_dir: str) -> pd.DataFrame:
    """Term × distance cooc grid around the pivot (CoocProfile analog)."""
    from ..ops.analytics import cooc_profile

    df = cooc_profile(_docs_text(sf_dir), COOC_PIVOT, radius=3).to_pandas()
    df["distance"] = df["distance"].astype("int64")
    df["n"] = df["n"].astype("int64")
    return df.sort_values(["coterm", "distance"]).reset_index(drop=True)


SQL_COOC_PROFILE = f"""
WITH base AS (
  SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS arr
  FROM documents),
toks AS (
  SELECT doc_id, unnest(arr) AS term, generate_subscripts(arr, 1) AS pos
  FROM base)
SELECT b.term AS coterm, abs(b.pos - a.pos)::BIGINT AS distance,
       count(*)::BIGINT AS n
FROM toks a JOIN toks b
  ON a.doc_id = b.doc_id AND b.pos BETWEEN a.pos - 3 AND a.pos + 3
  AND b.pos <> a.pos
WHERE a.term = '{COOC_PIVOT}'
GROUP BY coterm, distance ORDER BY coterm, distance
"""


def q_theme_terms(sf_dir: str) -> pd.DataFrame:
    """Theme terms for the lang='en' doc subset, BM25 + contrastive
    modes (IdfTermScorer.termScore) — oracle-checked: every mode's
    score is a closed-form aggregate over (term × part) sums, so the
    whole family is SQL-expressible (SQL_THEME_TERMS)."""
    import pyarrow.parquet as _pq

    ix = _index(sf_dir)
    docs = _pq.read_table(resolve_stage(ix.dir, "docs"),
                          columns=["doc_id"]).to_pandas()
    full = _pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "lang"]).to_pandas()
    mask = np.zeros(ix.cfg["max_doc_id"] + 1, bool)
    en = full[full["lang"] == "en"]["doc_id"].to_numpy()
    mask[en] = True
    rows = []
    for mode in ("BM25", "MINUS", "WEIGHTED", "IRDF", "RSJ", "FACTOR", "DKL"):
        for rank, (term, score) in enumerate(ix.theme_terms(mask, k=10, mode=mode)):
            rows.append((mode, rank, term, round(score, 6)))
    return pd.DataFrame(rows, columns=["mode", "rank", "term", "score"])


# Closed-form SQL mirror of IdfTermScorer.termScore (all 7 modes).
# Per-term part sums over the (doc, term, tf) join: acc/other_acc are
# BM25 tf-part sums, fdf/ftf/otf the focus df / tf totals, and the DKL
# pieces are Σ tf·ln(tf) and Σ tf·ln(dl) per part.  Modes are ranked by
# RAW score (desc, term asc) exactly like the engine, rounded on output.
SQL_THEME_TERMS = f"""
WITH toks AS ({TOKS}),
corpus AS (SELECT count(*)::DOUBLE AS n FROM documents),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY doc_id),
tot AS (SELECT sum(dl)::DOUBLE AS total_tokens FROM dl),
avg_dl AS (SELECT tot.total_tokens / corpus.n AS avgdl FROM tot, corpus),
fl AS (SELECT doc_id, (lang = '{KEYNESS_FOCUS_LANG}') AS is_focus FROM documents),
fsum AS (
  SELECT count(*) FILTER (WHERE fl.is_focus)::DOUBLE AS focus_docs,
         coalesce(sum(CASE WHEN fl.is_focus THEN dl.dl ELSE 0 END), 0)::DOUBLE
           AS focus_tokens
  FROM fl LEFT JOIN dl USING (doc_id)),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY doc_id, term),
parts AS (
  SELECT t.term,
    count(*)::DOUBLE AS df,
    sum(t.tf) AS cf,
    sum(CASE WHEN f.is_focus THEN 1 ELSE 0 END)::DOUBLE AS fdf,
    sum(CASE WHEN f.is_focus THEN t.tf ELSE 0 END) AS ftf,
    sum(CASE WHEN NOT f.is_focus THEN t.tf ELSE 0 END) AS otf,
    sum(CASE WHEN f.is_focus
        THEN t.tf * ({K1} + 1) / (t.tf + {K1} * (1 - {B} + {B} * d.dl / a.avgdl))
        ELSE 0 END) AS acc,
    sum(CASE WHEN NOT f.is_focus
        THEN t.tf * ({K1} + 1) / (t.tf + {K1} * (1 - {B} + {B} * d.dl / a.avgdl))
        ELSE 0 END) AS other_acc,
    sum(CASE WHEN f.is_focus THEN t.tf * ln(t.tf) ELSE 0 END) AS f_tlogt,
    sum(CASE WHEN f.is_focus THEN t.tf * ln(d.dl) ELSE 0 END) AS f_tlogdl,
    sum(CASE WHEN NOT f.is_focus THEN t.tf * ln(t.tf) ELSE 0 END) AS o_tlogt,
    sum(CASE WHEN NOT f.is_focus THEN t.tf * ln(d.dl) ELSE 0 END) AS o_tlogdl
  FROM tf t
  JOIN dl d USING (doc_id)
  JOIN fl f USING (doc_id)
  CROSS JOIN avg_dl a
  GROUP BY t.term),
base AS (
  SELECT p.*, c.n, s.focus_docs, s.focus_tokens, tt.total_tokens,
    pow(ln(1 + (c.n - p.df + 0.5) / (p.df + 0.5)), {IDF_EXP}) AS idf,
    c.n - s.focus_docs AS other_docs,
    p.df - p.fdf AS other_df,
    s.focus_docs - p.fdf AS fnon,
    tt.total_tokens - s.focus_tokens AS rest_tokens
  FROM parts p CROSS JOIN corpus c CROSS JOIN fsum s CROSS JOIN tot tt
  WHERE p.fdf >= 1),
scored AS (
  SELECT term, 'BM25' AS mode, idf * acc AS score FROM base
  UNION ALL
  SELECT term, 'MINUS', idf * (acc - other_acc) FROM base
  UNION ALL
  SELECT term, 'WEIGHTED', idf * (acc - 2 * other_acc) FROM base
  UNION ALL
  SELECT term, 'IRDF',
    pow(ln(1 + (other_docs - other_df + 0.5) / (other_df + 0.5)), {IDF_EXP}) * acc
  FROM base
  UNION ALL
  SELECT term, 'RSJ',
    CASE WHEN least(other_docs, other_df, fnon,
                    other_docs - other_df) < 0 THEN 0
    ELSE ln( ((fdf + 0.5) * ((other_docs - other_df) + 0.5))
           / ((other_df + 0.5) * (fnon + 0.5)) ) * acc END
  FROM base
  UNION ALL
  SELECT term, 'FACTOR',
    CASE WHEN ftf = 0 OR focus_tokens <= 0 OR cf / total_tokens <= 0 THEN 0
    ELSE idf * acc * ln( (ftf / focus_tokens) / (cf / total_tokens) ) * ln(ftf)
    END
  FROM base
  UNION ALL
  SELECT term, 'DKL',
    ( (o_tlogt - otf * ln(otf) - o_tlogdl + otf * ln(rest_tokens)) / otf )
    - ( (f_tlogt - ftf * ln(ftf) - f_tlogdl + ftf * ln(focus_tokens)) / ftf )
  FROM base
  WHERE otf > 0 AND ftf > 0 AND rest_tokens > 0 AND focus_tokens > 0),
ranked AS (
  SELECT mode,
    (row_number() OVER (PARTITION BY mode ORDER BY score DESC, term)) - 1
      AS rank,
    term, round(score, 6) AS score
  FROM scored)
SELECT mode, rank, term, score FROM ranked
WHERE rank < 10 ORDER BY mode, rank
"""


SPAN_BATTERY = (
    (("table", "stream"), 2),
    (("table", "stream"), 8),
    (("key", "value"), 1),
)


def q_span_near(sf_dir: str) -> pd.DataFrame:
    """Unordered span-near BM25 top-k over the rail artifact
    (SpanNearQuery relevance mode).  Oracle-checked: the simple profile
    has contiguous positions, so the two-term window condition is
    exactly ``|pos_a − pos_b| ≤ slop + 1`` over the token CTE and the
    score is the plain two-term BM25 sum."""
    ix = _index(sf_dir, profile="simple_pos")
    rows = []
    for qid, (terms, slop) in enumerate(SPAN_BATTERY):
        for rank, (doc, score) in enumerate(
            ix.search_span(list(terms), k=10, slop=slop)
        ):
            rows.append((qid, rank, doc, round(score, 6)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])


def _sql_span_near(qid: int, t1: str, t2: str, slop: int, k: int = 10) -> str:
    return f"""
SELECT {qid}::BIGINT AS query_id,
       (row_number() OVER (ORDER BY s.score DESC, s.doc_id)) - 1 AS rank,
       s.doc_id, round(s.score, 6) AS score
FROM (
  WITH toks AS ({TOKS}),
  base AS (
    SELECT doc_id,
      list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                  x -> x <> '') AS arr
    FROM documents),
  pos AS (
    SELECT doc_id, unnest(arr) AS term, generate_subscripts(arr, 1) AS pos
    FROM base),
  near AS (
    SELECT DISTINCT a.doc_id
    FROM pos a JOIN pos b ON a.doc_id = b.doc_id
    WHERE a.term = '{t1}' AND b.term = '{t2}'
      AND abs(a.pos - b.pos) <= {slop + 1}),
  corpus AS (SELECT count(*)::DOUBLE AS n FROM documents),
  dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY doc_id),
  avg_dl AS (SELECT sum(dl.dl) / corpus.n AS avgdl FROM dl, corpus GROUP BY corpus.n),
  df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM toks
         WHERE term IN ('{t1}', '{t2}') GROUP BY term),
  tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks
         WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term)
  SELECT tf.doc_id,
    sum( pow(ln(1 + (corpus.n - df.df + 0.5) / (df.df + 0.5)), {IDF_EXP}) *
         tf.tf * ({K1} + 1) /
         (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / avg_dl.avgdl)) ) AS score
  FROM tf
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  JOIN near ON tf.doc_id = near.doc_id
  CROSS JOIN corpus CROSS JOIN avg_dl
  GROUP BY tf.doc_id
) s
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


SQL_SPAN_NEAR = "\nUNION ALL\n".join(
    f"SELECT * FROM ({_sql_span_near(qid, ts[0], ts[1], slop)})"
    for qid, (ts, slop) in enumerate(SPAN_BATTERY)
)


def q_contrastive_terms(sf_dir: str) -> pd.DataFrame:
    """/terms contrastive mode: LL-tail over the lang partition, focus
    'en'.  Oracle-checked: with the 5-language partition the 20% tail
    of 4 pairwise comparisons is the single worst one, so the score is
    ``min_p G2(focus, p) × (fdf/focusDocs)^0.3`` — closed-form SQL."""
    from ..ops.analytics import contrastive_terms
    from ..ops.textstats import round_half_away

    df = contrastive_terms(_docs(sf_dir, ["text", "lang"]), "lang",
                           KEYNESS_FOCUS_LANG, k=20)
    df["score"] = round_half_away(df["score"].to_numpy())
    return df.reset_index(drop=True)


# Pairwise signed G2 of the focus language against EVERY other
# language (never a pooled rest — PartScorer.java LogLikelihoodTail),
# worst pair kept, damped by focus-document coverage ^0.3, floor
# fdf >= 3 (the contrastive_terms defaults).
SQL_CONTRASTIVE_TERMS = f"""
WITH toks AS ({TOKS}),
tagged AS (SELECT t.term, t.doc_id, d.lang
           FROM toks t JOIN documents d USING (doc_id)),
counts AS (SELECT term, lang, count(*)::DOUBLE AS cnt
           FROM tagged GROUP BY term, lang),
pt AS (SELECT lang, count(*)::DOUBLE AS tok FROM tagged GROUP BY lang),
terms AS (SELECT DISTINCT term FROM counts),
cells AS (
  SELECT tm.term, p.lang,
    coalesce(fo.cnt, 0) AS fo, fpt.tok AS fo_tokens,
    coalesce(ot.cnt, 0) AS ot, p.tok AS ot_tokens
  FROM terms tm
  CROSS JOIN (SELECT lang, tok FROM pt
              WHERE lang <> '{KEYNESS_FOCUS_LANG}' AND tok >= 1) p
  CROSS JOIN (SELECT tok FROM pt
              WHERE lang = '{KEYNESS_FOCUS_LANG}') fpt
  LEFT JOIN counts fo ON fo.term = tm.term
                      AND fo.lang = '{KEYNESS_FOCUS_LANG}'
  LEFT JOIN counts ot ON ot.term = tm.term AND ot.lang = p.lang),
g AS (
  SELECT term, lang,
    (CASE WHEN fo > 0 AND fo_tokens * (fo + ot) / (fo_tokens + ot_tokens) > 0
      THEN 2 * fo * ln(fo / (fo_tokens * (fo + ot) / (fo_tokens + ot_tokens)))
      ELSE 0 END) +
    (CASE WHEN ot > 0 AND ot_tokens * (fo + ot) / (fo_tokens + ot_tokens) > 0
      THEN 2 * ot * ln(ot / (ot_tokens * (fo + ot) / (fo_tokens + ot_tokens)))
      ELSE 0 END) +
    (CASE WHEN fo_tokens - fo > 0
      THEN 2 * (fo_tokens - fo) * ln((fo_tokens - fo) /
        (fo_tokens * ((fo_tokens - fo) + (ot_tokens - ot))
         / (fo_tokens + ot_tokens)))
      ELSE 0 END) +
    (CASE WHEN ot_tokens - ot > 0
      THEN 2 * (ot_tokens - ot) * ln((ot_tokens - ot) /
        (ot_tokens * ((fo_tokens - fo) + (ot_tokens - ot))
         / (fo_tokens + ot_tokens)))
      ELSE 0 END) AS raw,
    CASE WHEN fo / fo_tokens >= ot / ot_tokens THEN 1 ELSE -1 END AS sgn
  FROM cells),
per_term AS (SELECT term, min(sgn * raw) AS min_g2 FROM g GROUP BY term),
fdf AS (
  SELECT term, count(DISTINCT doc_id)::DOUBLE AS fdf
  FROM tagged WHERE lang = '{KEYNESS_FOCUS_LANG}' GROUP BY term),
nf AS (SELECT count(*)::DOUBLE AS n
       FROM documents WHERE lang = '{KEYNESS_FOCUS_LANG}'),
scored AS (
  SELECT p.term, p.min_g2 * pow(f.fdf / nf.n, 0.3) AS score
  FROM per_term p JOIN fdf f USING (term) CROSS JOIN nf
  WHERE f.fdf >= 3)
SELECT term, round(score, 6) AS score
FROM scored ORDER BY scored.score DESC, term LIMIT 20
"""

QUERIES.update({
    "contrastive_terms": q_contrastive_terms,
    "span_near": q_span_near,
    "cooc_profile": q_cooc_profile,
    "theme_terms": q_theme_terms,
    "clades": q_clades,
    "token_dump": q_token_dump,
    "keyness_g2": q_keyness_g2,
    "snippets": q_snippets,
    "w2v_corpus": q_w2v_corpus,
})
ORACLES.update({
    "cooc_profile": SQL_COOC_PROFILE,
    "token_dump": SQL_TOKEN_DUMP,
    "keyness_g2": SQL_KEYNESS_G2,
    "theme_terms": SQL_THEME_TERMS,
    "span_near": SQL_SPAN_NEAR,
    "wand_consistency": SQL_WAND_CONSISTENCY,
    "minhash_pairs": SQL_MINHASH_PAIRS,
    "contrastive_terms": SQL_CONTRASTIVE_TERMS,
    "dedup_clusters": SQL_DEDUP_CLUSTERS,
    "snippets": SQL_SNIPPETS,
    "langid": SQL_LANGID,
    "simhash_pairs": SQL_SIMHASH_PAIRS,
    "fingerprint": SQL_FINGERPRINT,
    "sessions": SQL_SESSIONS,
    "sliding_windows": SQL_SLIDING_WINDOWS,
    "attribution": SQL_ATTRIBUTION,
    "revenue_by_nation": SQL_REVENUE_BY_NATION,
    "pricing_summary": SQL_PRICING_SUMMARY,
    "range_join": SQL_RANGE_JOIN,
})


# ---------------------------------------------------------------------
# web-corpus cleaning queries (ops/cleaning.py)
# ---------------------------------------------------------------------

# The testdata documents contain no PII, so both sides deterministically
# salt one email + one IPv4 + one phone per row (same expression in
# pandas and SQL) — every row then exercises all three pattern families
# and the oracle hashes the full redacted text.


def _salted_docs(sf_dir: str) -> ray.data.Dataset:
    def salt(batch: pd.DataFrame) -> pd.DataFrame:
        i = batch["doc_id"]
        batch = batch.copy()
        batch["text"] = (
            batch["text"].fillna("") + " reach user" + i.astype(str)
            + "@mail" + (i % 7).astype(str) + ".example.com at "
            + (i % 200 + 1).astype(str) + ".13.7." + (i % 250).astype(str)
            + " or 555-" + (i % 1000).astype(str).str.zfill(3)
            + "-" + (i % 10000).astype(str).str.zfill(4)
        )
        return batch

    return _docs_text(sf_dir).map_batches(salt, batch_format="pandas")


_SQL_SALT = (
    "coalesce(text, '') || ' reach user' || doc_id || '@mail' || "
    "(doc_id % 7) || '.example.com at ' || (doc_id % 200 + 1) || "
    "'.13.7.' || (doc_id % 250) || ' or 555-' || "
    "lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0') || '-' || "
    "lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')"
)


def q_pii_redact(sf_dir: str) -> pd.DataFrame:
    """PII redaction (emails → IPv4 → phones) with per-family counts
    over deterministically salted docs (ops/cleaning.py:pii_redact)."""
    from ..ops.cleaning import pii_redact

    df = pii_redact(_salted_docs(sf_dir)).to_pandas()
    for c in ("n_emails", "n_ips", "n_phones"):
        df[c] = df[c].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_PII_REDACT = """
WITH s0 AS (SELECT doc_id, @SALT@ AS t FROM documents),
s1 AS (SELECT doc_id,
  len(regexp_extract_all(t, '@EMAIL@'))::BIGINT AS n_emails,
  regexp_replace(t, '@EMAIL@', '<EMAIL>', 'g') AS t FROM s0),
s2 AS (SELECT doc_id, n_emails,
  len(regexp_extract_all(t, '@IP@'))::BIGINT AS n_ips,
  regexp_replace(t, '@IP@', '<IP>', 'g') AS t FROM s1),
s3 AS (SELECT doc_id, n_emails, n_ips,
  len(regexp_extract_all(t, '@PHONE@'))::BIGINT AS n_phones,
  regexp_replace(t, '@PHONE@', '<PHONE>', 'g') AS t FROM s2)
SELECT doc_id, t AS text, n_emails, n_ips, n_phones
FROM s3 ORDER BY doc_id
"""


def _fill_pii_sql() -> str:
    from ..ops.cleaning import EMAIL_RE, IPV4_RE, PHONE_RE

    return (SQL_PII_REDACT.replace("@SALT@", _SQL_SALT)
            .replace("@EMAIL@", EMAIL_RE)
            .replace("@IP@", IPV4_RE)
            .replace("@PHONE@", PHONE_RE))


def q_repetition(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition features per doc
    (ops/cleaning.py:repetition_metrics)."""
    from ..ops.cleaning import repetition_metrics

    df = repetition_metrics(_docs_text(sf_dir)).to_pandas()
    df["n_tokens"] = df["n_tokens"].astype("int64")
    df["max_run"] = df["max_run"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_REPETITION = """
WITH arr AS (
  SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '') AS a FROM documents),
toks AS (SELECT doc_id, i AS ord, a[i] AS term
  FROM arr, LATERAL (SELECT unnest(generate_series(1, len(a))) AS i) s),
bg AS (SELECT doc_id, a[i] || ' ' || a[i+1] AS g
  FROM arr, LATERAL (SELECT unnest(generate_series(1, len(a)-1)) AS i) s),
bgc AS (SELECT doc_id, max(c) AS mc FROM
  (SELECT doc_id, g, count(*) AS c FROM bg GROUP BY doc_id, g)
  GROUP BY doc_id),
runs AS (SELECT doc_id, term,
  ord - row_number() OVER (PARTITION BY doc_id, term ORDER BY ord) AS grp
  FROM toks),
mr AS (SELECT doc_id, max(c) AS mx FROM
  (SELECT doc_id, count(*) AS c FROM runs GROUP BY doc_id, term, grp)
  GROUP BY doc_id),
ln AS (SELECT doc_id,
  len(list_filter(regexp_split_to_array(coalesce(text, ''), chr(10)),
      x -> x <> '')) AS nl,
  len(list_distinct(list_filter(regexp_split_to_array(coalesce(text, ''),
      chr(10)), x -> x <> ''))) AS ndl
  FROM documents)
SELECT arr.doc_id, len(a)::BIGINT AS n_tokens,
  round(coalesce(mc, 0)::DOUBLE / greatest(len(a) - 1, 1), 6)
    AS top_bigram_frac,
  coalesce(mx, 0)::BIGINT AS max_run,
  round(CASE WHEN nl = 0 THEN 0.0 ELSE 1.0 - ndl::DOUBLE / nl END, 6)
    AS dup_line_frac
FROM arr LEFT JOIN bgc USING (doc_id) LEFT JOIN mr USING (doc_id)
JOIN ln USING (doc_id)
ORDER BY doc_id
"""


DECON_N = 3       # 13 in production; testdata docs are short and the
DECON_MOD = 23    # vocab tiny, so 3-grams give a meaningful overlap set


def _decon_parts(sf_dir: str):
    """(corpus, benchmark) slices of documents under the deterministic
    decontamination partition doc_id % DECON_MOD == 0 — shared by the
    exact-n-gram and near-dup decontamination queries."""
    docs = _docs_text(sf_dir)

    def part(keep_bench: bool):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            m = (ids % DECON_MOD == 0) == keep_bench
            return batch.filter(pa.array(m))

        return docs.map_batches(f, batch_format="pyarrow")

    return part(False), part(True)


def q_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: distinct shared token n-grams per
    scanned doc vs the deterministic benchmark slice doc_id %% 23 == 0
    (ops/cleaning.py:decontaminate)."""
    from ..ops.cleaning import decontaminate

    corpus, bench = _decon_parts(sf_dir)
    df = decontaminate(corpus, bench, n=DECON_N).to_pandas()
    df["n_contaminated"] = df["n_contaminated"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_DECONTAMINATE = f"""
WITH arr AS (
  SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '') AS a FROM documents),
grams AS (SELECT doc_id, array_to_string(a[i : i+{DECON_N - 1}], ' ') AS g
  FROM arr, LATERAL (SELECT unnest(generate_series(1, len(a)-{DECON_N - 1}))
                     AS i) s),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {DECON_MOD} = 0)
SELECT g2.doc_id, count(DISTINCT g2.g)::BIGINT AS n_contaminated
FROM grams g2 JOIN bench USING (g)
WHERE g2.doc_id % {DECON_MOD} <> 0
GROUP BY g2.doc_id ORDER BY doc_id
"""


LINE_W = 12  # testdata text has no newlines; both sides derive
             # deterministic 12-token lines so the global line dedup
             # is exercised on real cross-doc duplicates


def q_line_dedup(sf_dir: str) -> pd.DataFrame:
    """C4-style global keep-first line dedup
    (ops/cleaning.py:line_dedup_from_lines) over derived 12-token
    lines; docs reassemble from surviving lines."""
    from ..analysis import SimpleAnalyzer
    from ..ops.cleaning import line_dedup_from_lines

    def to_lines(batch: pa.Table) -> pa.Table:
        lists = SimpleAnalyzer.tokens_arrays(
            pc.fill_null(batch["text"], "")
        )
        n_tok = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = lists.flatten()
        nl = -(-n_tok // LINE_W)
        line_owner = np.repeat(np.arange(len(n_tok)), nl)
        csum = np.concatenate(([0], np.cumsum(nl)))[:-1]
        within = np.arange(int(nl.sum())) - np.repeat(csum, nl)
        starts = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
        line_start = starts[line_owner] + within * LINE_W
        offsets = np.append(line_start, len(flat)).astype(np.int32)
        lines = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets), flat), " "
        )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids[line_owner], pa.int64()),
            "line_no": pa.array(within + 1, pa.int64()),
            "line": lines,
        })

    lines = _docs_text(sf_dir).map_batches(to_lines, batch_format="pyarrow")
    df = line_dedup_from_lines(lines).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_LINE_DEDUP = f"""
WITH arr AS (
  SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '') AS a FROM documents),
lines AS (SELECT doc_id, i AS line_no,
    array_to_string(a[(i-1)*{LINE_W}+1 : least(i*{LINE_W}, len(a))], ' ')
      AS line
  FROM arr, LATERAL (SELECT unnest(generate_series(1,
    CAST(ceil(len(a) / {LINE_W}.0) AS BIGINT))) AS i) s),
kept AS (SELECT doc_id, line_no, line FROM (
  SELECT doc_id, line_no, line,
    row_number() OVER (PARTITION BY line ORDER BY doc_id, line_no) AS rn
  FROM lines) WHERE rn = 1)
SELECT doc_id, string_agg(line, chr(10) ORDER BY line_no) AS text
FROM kept GROUP BY doc_id ORDER BY doc_id
"""


QUERIES.update({
    "pii_redact": q_pii_redact,
    "repetition": q_repetition,
    "decontaminate": q_decontaminate,
    "line_dedup": q_line_dedup,
})
ORACLES.update({
    "pii_redact": _fill_pii_sql(),
    "repetition": SQL_REPETITION,
    "decontaminate": SQL_DECONTAMINATE,
    "line_dedup": SQL_LINE_DEDUP,
})


# ---------------------------------------------------------------------
# incremental index lifecycle (add → delete → compact) — the Lucene
# IndexWriter protocol over generations (index/incremental.py)
# ---------------------------------------------------------------------

_INCR_CACHE: dict[tuple, str] = {}

# tombstone predicate — mirrored literally in the SQL oracle
INCR_DELETE_MOD = 7
INCR_DELETE_REM = 3


def q_incremental(sf_dir: str) -> pd.DataFrame:
    """Full incremental lifecycle: build a base generation over ~70% of
    the documents, add the rest as a delta generation, tombstone every
    ``doc_id % 7 == 3``, then compact.  Result = the compacted index's
    term_stats — which must EXACTLY equal a one-shot build over the
    live documents (the oracle tokenizes ``WHERE doc_id % 7 <> 3``),
    proving add/delete/compact preserve df/cf to the last term.
    (Reference: Lucene ``IndexWriter.addDocuments`` /
    ``deleteDocuments`` / ``forceMerge`` — SURVEY.md §1.3.)"""
    import shutil

    from .. import FORMAT_VERSION
    from ..index.incremental import IndexWriter

    key = (os.path.abspath(sf_dir), "incremental", FORMAT_VERSION)
    if key not in _INCR_CACHE:
        h = hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()
        root = f"/tmp/alix_ray_idx/incr_{h}"
        shutil.rmtree(root, ignore_errors=True)  # stale prior-run state
        ids = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )["doc_id"].to_numpy(zero_copy_only=False)
        split = int(ids.max() * 0.7)
        w = IndexWriter(root, analyzer="simple")
        docs = _docs_text(sf_dir)
        w.add_documents(docs.filter(expr=f"doc_id <= {split}"),
                        input_kind="documents")
        w.add_documents(docs.filter(expr=f"doc_id > {split}"),
                        input_kind="documents")
        dead = ids[ids % INCR_DELETE_MOD == INCR_DELETE_REM]
        w.delete_documents(doc_ids=dead)
        w.compact()
        w.prune()
        _INCR_CACHE[key] = root
    from ..index.engine import BM25Index

    ix = BM25Index(_INCR_CACHE[key])
    assert len(ix.gen_dirs) == 1 and not len(ix.deleted)
    t = pq.read_table(resolve_stage(ix.gen_dirs[0], "term_stats"))
    df = t.to_pandas()[["term", "df", "cf"]]
    df["df"] = df["df"].astype("int64")
    df["cf"] = df["cf"].astype("int64")
    return df.sort_values("term").reset_index(drop=True)


SQL_INCREMENTAL = f"""
WITH toks AS (
  SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '')) AS term
  FROM documents WHERE doc_id % {INCR_DELETE_MOD} <> {INCR_DELETE_REM})
SELECT term, count(DISTINCT doc_id)::BIGINT AS df, count(*)::BIGINT AS cf
FROM toks GROUP BY term ORDER BY term
"""


QUERIES.update({"incremental": q_incremental})
ORACLES.update({"incremental": SQL_INCREMENTAL})


# ---------------------------------------------------------------------
# exact-substring (windowed) duplicate spans — Lee et al. 2022 shape
# ---------------------------------------------------------------------

SUBSTR_W = 8


def q_substring_dups(sf_dir: str) -> pd.DataFrame:
    """Redundant occurrences of duplicated 8-token windows across the
    corpus (keep-first in global (doc_id, pos) order) — the windowed
    exact-substring dedup (ops/cleaning.substring_dup_spans)."""
    from ..ops.cleaning import substring_dup_spans

    df = substring_dup_spans(_docs_text(sf_dir), w=SUBSTR_W).to_pandas()
    if "doc_id" not in df.columns:  # no duplicated window anywhere:
        # all-empty map_groups output is schemaless (the decontaminate
        # precedent) — return the oracle's empty shape
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "pos": pd.Series([], dtype="int64")})
    df["pos"] = df["pos"].astype("int64")
    return df.sort_values(["doc_id", "pos"]).reset_index(drop=True)


SQL_SUBSTRING_DUPS = f"""
WITH arr AS (
  SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '') AS a FROM documents),
win AS (
  SELECT doc_id, i AS pos,
    array_to_string(a[i : i + {SUBSTR_W} - 1], ' ') AS w
  FROM arr, LATERAL (SELECT unnest(generate_series(1,
    len(a) - {SUBSTR_W} + 1)) AS i) s),
ranked AS (
  SELECT doc_id, pos, row_number() OVER (
    PARTITION BY w ORDER BY doc_id, pos) AS rn
  FROM win)
SELECT doc_id, pos::BIGINT AS pos FROM ranked WHERE rn > 1
ORDER BY doc_id, pos
"""


QUERIES.update({"substring_dups": q_substring_dups})
ORACLES.update({"substring_dups": SQL_SUBSTRING_DUPS})


# ---------------------------------------------------------------------
# bigram-LM perplexity quality scoring — CCNet (Wenzek et al. 2020)
# ---------------------------------------------------------------------

LM_ADD_K = 0.5


def q_lm_perplexity(sf_dir: str) -> pd.DataFrame:
    """Per-doc add-k bigram perplexity under the corpus's own LM
    (ops/lm.py: one-pass partial counts -> one sum shuffle -> broadcast
    or gram-partitioned-join scoring)."""
    from ..ops.lm import perplexity

    df = perplexity(_docs_text(sf_dir), add_k=LM_ADD_K).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_LM_PERPLEXITY = f"""
WITH arr AS (
  SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '') AS l FROM documents),
toks AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos
  FROM arr),
big AS (
  SELECT doc_id,
    lag(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w1,
    term AS w2
  FROM toks QUALIFY w1 IS NOT NULL),
uni AS (SELECT term AS w, count(*)::DOUBLE AS c1 FROM toks GROUP BY term),
bi AS (SELECT w1, w2, count(*)::DOUBLE AS c2 FROM big GROUP BY w1, w2),
v AS (SELECT count(*)::DOUBLE AS nv FROM uni),
scored AS (
  SELECT b.doc_id,
    ln((bi.c2 + {LM_ADD_K}) / (uni.c1 + {LM_ADD_K} * v.nv)) AS logp
  FROM big b
  JOIN bi ON b.w1 = bi.w1 AND b.w2 = bi.w2
  JOIN uni ON uni.w = b.w1
  CROSS JOIN v)
SELECT doc_id, count(*)::BIGINT AS n_bigrams,
  round(sum(logp) / count(*), 6) AS avg_logprob,
  round(exp(-sum(logp) / count(*)), 6) AS ppl
FROM scored GROUP BY doc_id ORDER BY doc_id
"""


QUERIES.update({"lm_perplexity": q_lm_perplexity})
ORACLES.update({"lm_perplexity": SQL_LM_PERPLEXITY})


# ---------------------------------------------------------------------
# DSIR hashed-n-gram importance weights — Xie et al. 2023
# ---------------------------------------------------------------------

DSIR_BUCKETS = 8192
DSIR_ADD = 1.0


def q_dsir_weights(sf_dir: str) -> pd.DataFrame:
    """Importance weight of every doc toward the lang='en' target
    distribution via hashed unigram+bigram features (ops/dsir.py:
    one bincount-partial counting pass, broadcast log-ratio table,
    one scoring pass — token occurrences never shuffle)."""
    from ..ops.dsir import dsir_weights

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    ).repartition(64)
    df = dsir_weights(docs, buckets=DSIR_BUCKETS, add=DSIR_ADD).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_DSIR_WEIGHTS = f"""
WITH arr AS (
  SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
    '[^a-z0-9]+'), x -> x <> '') AS l FROM documents),
toks AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos
  FROM arr),
big AS (
  SELECT doc_id,
    lag(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w1,
    term AS w2
  FROM toks QUALIFY w1 IS NOT NULL),
grams AS (
  SELECT doc_id, term AS g FROM toks
  UNION ALL
  SELECT doc_id, w1 || ' ' || w2 AS g FROM big),
hashed AS (
  SELECT doc_id, (md5_number_lower(g) % {DSIR_BUCKETS})::BIGINT AS b
  FROM grams),
raw_cnt AS (SELECT b, count(*)::DOUBLE AS rc FROM hashed GROUP BY b),
tgt AS (SELECT doc_id FROM documents WHERE lang = 'en'),
tgt_cnt AS (
  SELECT b, count(*)::DOUBLE AS tc FROM hashed
  JOIN tgt USING (doc_id) GROUP BY b),
tot AS (SELECT
  (SELECT count(*) FROM hashed)::DOUBLE AS rt,
  (SELECT count(*) FROM hashed JOIN tgt USING (doc_id))::DOUBLE AS tt)
SELECT h.doc_id, count(*)::BIGINT AS n_grams,
  round(sum(ln((coalesce(tc.tc, 0) + {DSIR_ADD})
              / (tot.tt + {DSIR_ADD} * {DSIR_BUCKETS}))
          - ln((rc.rc + {DSIR_ADD})
              / (tot.rt + {DSIR_ADD} * {DSIR_BUCKETS}))), 6) AS logw
FROM hashed h
JOIN raw_cnt rc USING (b)
LEFT JOIN tgt_cnt tc USING (b)
CROSS JOIN tot
GROUP BY h.doc_id ORDER BY h.doc_id
"""


QUERIES.update({"dsir_weights": q_dsir_weights})
ORACLES.update({"dsir_weights": SQL_DSIR_WEIGHTS})


# ---------------------------------------------------------------------
# sequence-packing offsets — distributed exclusive prefix sum
# ---------------------------------------------------------------------

PACK_SEQ_LEN = 512


def q_pack_offsets(sf_dir: str) -> pd.DataFrame:
    """Every doc's position in the concatenated training token stream
    (ops/packing.py: hierarchical scan — per-shard partials, driver
    scan over shard totals, broadcast bases; one slim shuffle)."""
    from ..ops.packing import pack_offsets

    df = pack_offsets(_docs_text(sf_dir), seq_len=PACK_SEQ_LEN,
                      shard_size=100).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_PACK_OFFSETS = f"""
WITH c AS (
  SELECT doc_id,
    len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
        x -> x <> ''))::BIGINT AS n_tokens
  FROM documents),
s AS (
  SELECT doc_id, n_tokens,
    coalesce(sum(n_tokens) OVER (ORDER BY doc_id
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT
      AS "offset"
  FROM c)
SELECT doc_id, n_tokens, "offset",
  ("offset" // {PACK_SEQ_LEN})::BIGINT AS chunk_id,
  ("offset" % {PACK_SEQ_LEN})::BIGINT AS chunk_pos
FROM s ORDER BY doc_id
"""


QUERIES.update({"pack_offsets": q_pack_offsets})
ORACLES.update({"pack_offsets": SQL_PACK_OFFSETS})


# ---------------------------------------------------------------------
# deterministic train/val/test hash split
# ---------------------------------------------------------------------

SPLIT_FRACS = {"train": 0.9, "val": 0.05, "test": 0.05}


def q_hash_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic split assignment by md5 hash ranges
    (ops/mixing.py hash_split — shuffle-free, partition-invariant)."""
    from ..ops.mixing import hash_split

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
    ).repartition(16)
    df = hash_split(docs, SPLIT_FRACS).to_pandas()
    return (df[["doc_id", "source", "split"]]
            .sort_values("doc_id").reset_index(drop=True))


SQL_HASH_SPLIT = """
SELECT doc_id, source,
  CASE
    WHEN md5_number_lower('split:' || doc_id) % 1000000 < 900000
      THEN 'train'
    WHEN md5_number_lower('split:' || doc_id) % 1000000 < 950000
      THEN 'val'
    ELSE 'test'
  END AS split
FROM documents ORDER BY doc_id
"""


QUERIES.update({"hash_split": q_hash_split})
ORACLES.update({"hash_split": SQL_HASH_SPLIT})


# ---------------------------------------------------------------------
# vocabulary reports — cli/Keywords.java, Unknowns.java, Names.java,
# Expressions.java re-expressed (ops/reports.py)
# ---------------------------------------------------------------------

KW_K = 10


def q_keywords(sf_dir: str) -> pd.DataFrame:
    """Per-doc top-10 keywords under the reference's three Distrib
    scorers (freq / G test / freq·idf), stop words excluded — the
    Keywords CLI report on the SQL-mirrorable simple profile."""
    from ..ops.reports import keywords_report

    df = keywords_report(_docs_text(sf_dir), k=KW_K).to_pandas()
    return (df.sort_values(["doc_id", "metric", "rank"])
            .reset_index(drop=True))


SQL_KEYWORDS = f"""
WITH toks AS ({TOKS}),
nost AS (SELECT doc_id, term FROM toks WHERE term NOT IN ({_STOP_EN})),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
       FROM nost GROUP BY doc_id, term),
dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY doc_id),
cfdf AS (SELECT term, sum(tf) AS cf, count(*)::DOUBLE AS df
         FROM tf GROUP BY term),
tot AS (SELECT sum(tf) AS total FROM tf),
nd AS (SELECT count(*)::DOUBLE AS n_docs FROM documents),
cells AS (
  SELECT t.doc_id, t.term, t.tf, d.dl, c.cf, c.df,
    c.cf - t.tf AS ot, x.total - d.dl AS ot_tokens,
    d.dl - t.tf AS fnon, (x.total - d.dl) - (c.cf - t.tf) AS onon,
    x.total AS allt, c.cf AS term_t,
    x.total - c.cf AS non_t
  FROM tf t JOIN dl d USING (doc_id) JOIN cfdf c USING (term)
  CROSS JOIN tot x),
g AS (
  SELECT doc_id, term, tf, df,
    (CASE WHEN tf > 0 AND dl * term_t / allt > 0
      THEN 2 * tf * ln(tf / (dl * term_t / allt)) ELSE 0 END) +
    (CASE WHEN ot > 0 AND ot_tokens * term_t / allt > 0
      THEN 2 * ot * ln(ot / (ot_tokens * term_t / allt)) ELSE 0 END) +
    (CASE WHEN fnon > 0 AND dl * non_t / allt > 0
      THEN 2 * fnon * ln(fnon / (dl * non_t / allt)) ELSE 0 END) +
    (CASE WHEN onon > 0 AND ot_tokens * non_t / allt > 0
      THEN 2 * onon * ln(onon / (ot_tokens * non_t / allt)) ELSE 0 END)
    AS raw,
    CASE WHEN tf / dl >= ot / ot_tokens THEN 1 ELSE -1 END AS sgn
  FROM cells),
scored AS (
  SELECT doc_id, 'freq' AS metric, term, round(tf, 6) AS score FROM g
  UNION ALL
  SELECT doc_id, 'g', term, round(sgn * raw, 6) FROM g
  UNION ALL
  SELECT doc_id, 'freq_idf', term,
    round(tf * ln((SELECT n_docs FROM nd) / greatest(df, 1)), 6) FROM g),
ranked AS (
  SELECT doc_id, metric, term, score,
    row_number() OVER (PARTITION BY doc_id, metric
                       ORDER BY score DESC, term) AS rank
  FROM scored)
SELECT doc_id, metric, rank, term, score FROM ranked
WHERE rank <= {KW_K} ORDER BY doc_id, metric, rank
"""


def q_unknowns(sf_dir: str) -> pd.DataFrame:
    """Freqlist of lexicon-unknown forms (Unknowns CLI; French chain
    — rows-only, the chain is non-SQL)."""
    from ..ops.reports import unknowns_report

    return unknowns_report(_docs_text(sf_dir), k=200)


def q_names(sf_dir: str) -> pd.DataFrame:
    """Freqlist of maximal proper-name runs (Names CLI; French chain
    — rows-only).  Runs over the self-generated pages corpus, whose
    special fragments plant real name shapes (M. Martin,
    J.-J. Rousseau); the documents table is all-lowercase."""
    from ..corpus import pages_dataset
    from ..ops.reports import names_report

    pages = pages_dataset(2000).map_batches(
        lambda t: t.select(["text"]).append_column(
            "doc_id", pa.array(range(len(t)), pa.int64())),
        batch_format="pyarrow")
    return names_report(pages, k=200)


QUERIES.update({
    "keywords": q_keywords,
    "unknowns": q_unknowns,
    "names": q_names,
})
ORACLES.update({"keywords": SQL_KEYWORDS})


def q_balinoms(sf_dir: str) -> pd.DataFrame:
    """Person-name XML tagging over the pages corpus (Balinoms CLI;
    rows-only — French chain).  Returns per-doc name counts; the
    splice-byte-identity invariant is asserted inline."""
    import re as _re

    import numpy as _np

    from ..corpus import pages_batch
    from ..ops.reports import balinoms

    # stable ids: generate the audit slice once, driver-side (500 rows)
    t = pages_batch(_np.arange(500)).select(["text"]).append_column(
        "doc_id", pa.array(range(500), pa.int64()))
    pages = ray.data.from_arrow(t).repartition(8)
    out = balinoms(pages).to_pandas()
    src = t.to_pandas().set_index("doc_id")["text"]
    stripped = out["tagged"].map(
        lambda s: _re.sub(r"</?persName[^>]*>", "", s))
    bad = int((stripped.to_numpy()
               != src.loc[out["doc_id"]].to_numpy()).sum())
    if bad:
        raise AssertionError(
            f"{bad} rows violate Balinoms splice byte-identity")
    return (out[["doc_id", "n_names"]]
            .sort_values("doc_id").reset_index(drop=True))


QUERIES.update({"balinoms": q_balinoms})


# ---------------------------------------------------------------------
# exact distributed quantiles — histogram scan, no sort
# ---------------------------------------------------------------------

QUANTILE_QS = (0.5, 0.9, 0.99)


def q_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact rank-based quantiles of n_chars (ops/stats.py: one
    value_counts pass + tiny distinct-value groupby; pinned lower-
    quantile semantics shared with the oracle by construction)."""
    from ..ops.stats import exact_quantiles

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["n_chars"],
    ).repartition(16)
    df = exact_quantiles(docs, "n_chars", QUANTILE_QS)
    df["value"] = df["value"].astype("int64")
    df["rank"] = df["rank"].astype("int64")
    df["n"] = df["n"].astype("int64")
    return df.sort_values("q").reset_index(drop=True)


SQL_QUANTILES = """
WITH ranked AS (
  SELECT n_chars, row_number() OVER (ORDER BY n_chars) AS rn,
         count(*) OVER () AS n
  FROM documents WHERE n_chars IS NOT NULL)
SELECT q, value, rank, n FROM (
  SELECT 0.5 AS q, max(n_chars) AS value,
    ceil(0.5 * any_value(n))::BIGINT AS rank, any_value(n)::BIGINT AS n
  FROM ranked WHERE rn <= ceil(0.5 * n)
  UNION ALL
  SELECT 0.9, max(n_chars), ceil(0.9 * any_value(n))::BIGINT,
    any_value(n)::BIGINT
  FROM ranked WHERE rn <= ceil(0.9 * n)
  UNION ALL
  SELECT 0.99, max(n_chars), ceil(0.99 * any_value(n))::BIGINT,
    any_value(n)::BIGINT
  FROM ranked WHERE rn <= ceil(0.99 * n)
) ORDER BY q
"""


QUERIES.update({"quantiles": q_quantiles})
ORACLES.update({"quantiles": SQL_QUANTILES})


# ---------------------------------------------------------------------
# flagship corpus-curation pipeline — quality filter → exact dedup →
# hash split → sequence packing, one streaming composition
# ---------------------------------------------------------------------

CURATE_MIN_TOKENS = 32
CURATE_MIN_ALPHA = 0.8
CURATE_SEQ_LEN = 512


def q_curate(sf_dir: str) -> pd.DataFrame:
    """End-to-end training-data curation over documents: vectorized
    quality gate (map-side, no join), content-hash keep-first dedup,
    deterministic train split, packing offsets for the training
    stream.  Every stage is an existing oracle-checked operator; the
    composition itself is oracled as one SQL CTE chain."""
    from ..ops.packing import pack_offsets
    from .curate import curate

    split = curate(_docs_text(sf_dir), min_tokens=CURATE_MIN_TOKENS,
                   min_alpha=CURATE_MIN_ALPHA, fractions=SPLIT_FRACS)
    train = split.filter(expr="split == 'train'")
    df = pack_offsets(train, seq_len=CURATE_SEQ_LEN,
                      shard_size=100).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_CURATE = f"""
WITH arr AS (
  SELECT doc_id, text,
    len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
        x -> x <> ''))::BIGINT AS n_tokens,
    round(len(regexp_replace(text, '[^A-Za-z]', '', 'g'))::DOUBLE /
          greatest(len(text), 1), 6) AS alpha
  FROM documents),
kept AS (
  SELECT doc_id, text, n_tokens FROM arr
  WHERE n_tokens >= {CURATE_MIN_TOKENS} AND alpha >= {CURATE_MIN_ALPHA}),
firsts AS (SELECT min(doc_id) AS doc_id FROM kept GROUP BY text),
train AS (
  SELECT k.doc_id, k.n_tokens FROM kept k JOIN firsts USING (doc_id)
  WHERE md5_number_lower('split:' || k.doc_id) % 1000000 < 900000),
s AS (
  SELECT doc_id, n_tokens,
    coalesce(sum(n_tokens) OVER (ORDER BY doc_id
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT
      AS "offset"
  FROM train)
SELECT doc_id, n_tokens, "offset",
  ("offset" // {CURATE_SEQ_LEN})::BIGINT AS chunk_id,
  ("offset" % {CURATE_SEQ_LEN})::BIGINT AS chunk_pos
FROM s ORDER BY doc_id
"""


QUERIES.update({"curate": q_curate})
ORACLES.update({"curate": SQL_CURATE})


def q_expressions(sf_dir: str) -> pd.DataFrame:
    """Freqlist of 3-word open-class expression chunks (Expressions
    CLI; French chain — rows-only)."""
    from ..ops.reports import expressions_report

    return expressions_report(_docs_text(sf_dir), k=200)


QUERIES.update({"expressions": q_expressions})


# ---------------------------------------------------------------------
# cross-corpus near-dup decontamination — minhash over the union
# ---------------------------------------------------------------------


def q_cross_dedup(sf_dir: str) -> pd.DataFrame:
    """Near-dup pairs between the corpus slice and the benchmark slice
    (doc_id % 23 == 0, the decontaminate partition) — fuzzy-copy
    contamination that exact n-gram matching misses
    (ops/dedup.py minhash_cross_pairs).  Banding is 64 bands × 2 rows
    so the all-pairs SQL oracle is sound at the query threshold:
    P(miss) = (1 - J²)⁶⁴ ≤ 1e-8 for J ≥ 0.5 — fuzzy contamination
    lives exactly in the mid-Jaccard band the default 16×4 banding
    would miss with probability up to 0.36."""
    from ..ops.dedup import minhash_cross_pairs

    corpus, bench = _decon_parts(sf_dir)
    df = minhash_cross_pairs(corpus, bench, threshold=0.5,
                             num_perm=128, bands=64).to_pandas()
    df["jaccard"] = df["jaccard"].round(6)
    return (df.sort_values(["doc_id", "ref_id"])
            .reset_index(drop=True))


SQL_CROSS_DEDUP = f"""
WITH base AS (
  SELECT doc_id,
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                x -> x <> '') AS arr
  FROM documents),
tok AS (
  SELECT doc_id, unnest(arr) AS term, generate_subscripts(arr, 1) AS pos
  FROM base),
cnt AS (SELECT doc_id, count(*) AS c FROM tok GROUP BY doc_id),
sh AS (
  SELECT DISTINCT a.doc_id, a.term || ' ' || b.term || ' ' || c3.term AS s
  FROM tok a
  JOIN tok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
  JOIN tok c3 ON a.doc_id = c3.doc_id AND c3.pos = a.pos + 2
  UNION
  SELECT DISTINCT t.doc_id, t.term AS s
  FROM tok t JOIN cnt ON t.doc_id = cnt.doc_id WHERE cnt.c < 3),
sz AS (SELECT doc_id, count(*)::DOUBLE AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*)::DOUBLE AS i
  FROM sh x JOIN sh y ON x.s = y.s
  WHERE x.doc_id % {DECON_MOD} <> 0 AND y.doc_id % {DECON_MOD} = 0
  GROUP BY a, b)
SELECT inter.a AS doc_id, inter.b AS ref_id,
       round(inter.i / (sa.n + sb.n - inter.i), 6) AS jaccard
FROM inter
JOIN sz sa ON inter.a = sa.doc_id
JOIN sz sb ON inter.b = sb.doc_id
WHERE inter.i / (sa.n + sb.n - inter.i) >= 0.5
ORDER BY doc_id, ref_id
"""


QUERIES.update({"cross_dedup": q_cross_dedup})
ORACLES.update({"cross_dedup": SQL_CROSS_DEDUP})


# ---------------------------------------------------------------------
# corpus card — per (source, split) mix report
# ---------------------------------------------------------------------


def q_corpus_card(sf_dir: str) -> pd.DataFrame:
    """Training-mix report: docs / tokens / mean alpha ratio per
    (source, split) — the dataset-card numbers.  Per-batch partial
    aggregates (pandas groupby inside the batch) → one tiny keyed sum;
    nothing but (source, split, partials) rows ever shuffle."""
    from ..ops.mixing import hash_split
    from ..ops.textstats import round_half_away

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    ).repartition(32)
    split = hash_split(docs, SPLIT_FRACS)

    def partial(batch: pa.Table) -> pa.Table:
        from ..analysis import SimpleAnalyzer

        lists = SimpleAnalyzer.tokens_arrays(batch["text"])
        n_tok = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        texts = batch["text"]
        n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        alpha = pc.utf8_length(
            pc.replace_substring_regex(texts, "[^A-Za-z]", "")
        ).to_numpy(zero_copy_only=False) / np.maximum(n_chars, 1)
        # round per-doc BEFORE the partial sum (both engines): the
        # round-6 aggregate comparison is then insensitive to the
        # shuffle-dependent float summation order — the repo's
        # round-before-aggregate bit-stability convention
        alpha = round_half_away(alpha)
        g = pd.DataFrame({
            "source": batch["source"].to_pylist(),
            "split": batch["split"].to_pylist(),
            "n_docs": 1,
            "tok_sum": n_tok.astype(np.int64),
            "alpha_sum": alpha,
        }).groupby(["source", "split"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (split.map_batches(partial, batch_format="pyarrow")
           .groupby(["source", "split"])
           .sum(["n_docs", "tok_sum", "alpha_sum"]).to_pandas())
    out = pd.DataFrame({
        "source": agg["source"],
        "split": agg["split"],
        "n_docs": agg["sum(n_docs)"].astype("int64"),
        "n_tokens": agg["sum(tok_sum)"].astype("int64"),
        "mean_alpha": round_half_away(
            agg["sum(alpha_sum)"] / agg["sum(n_docs)"]),
    })
    return out.sort_values(["source", "split"]).reset_index(drop=True)


SQL_CORPUS_CARD = """
WITH s AS (
  SELECT doc_id, source,
    CASE
      WHEN md5_number_lower('split:' || doc_id) % 1000000 < 900000
        THEN 'train'
      WHEN md5_number_lower('split:' || doc_id) % 1000000 < 950000
        THEN 'val'
      ELSE 'test'
    END AS split,
    len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
        x -> x <> ''))::BIGINT AS n_tokens,
    round(len(regexp_replace(text, '[^A-Za-z]', '', 'g'))::DOUBLE /
      greatest(len(text), 1), 6) AS alpha
  FROM documents)
SELECT source, split, count(*)::BIGINT AS n_docs,
  sum(n_tokens)::BIGINT AS n_tokens,
  round(sum(alpha) / count(*), 6) AS mean_alpha
FROM s GROUP BY source, split ORDER BY source, split
"""


QUERIES.update({"corpus_card": q_corpus_card})
ORACLES.update({"corpus_card": SQL_CORPUS_CARD})


def q_pack_chunks(sf_dir: str) -> pd.DataFrame:
    """Dataloader chunk manifest: per-(doc, window) token spans
    (ops/packing.py pack_chunks — vectorized expansion over the
    distributed prefix sum)."""
    from ..ops.packing import pack_chunks

    df = pack_chunks(_docs_text(sf_dir), seq_len=PACK_SEQ_LEN,
                     shard_size=100).to_pandas()
    return (df.sort_values(["doc_id", "chunk_id"])
            .reset_index(drop=True))


SQL_PACK_CHUNKS = f"""
WITH c AS (
  SELECT doc_id,
    len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
        x -> x <> ''))::BIGINT AS n_tokens
  FROM documents),
s AS (
  SELECT doc_id, n_tokens,
    coalesce(sum(n_tokens) OVER (ORDER BY doc_id
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT
      AS o
  FROM c WHERE n_tokens > 0),
x AS (
  SELECT doc_id, n_tokens, o, unnest(generate_series(
    o // {PACK_SEQ_LEN}, (o + n_tokens - 1) // {PACK_SEQ_LEN})) AS chunk_id
  FROM s)
SELECT doc_id, chunk_id,
  greatest(0, chunk_id * {PACK_SEQ_LEN} - o)::BIGINT AS tok_start,
  least(n_tokens, (chunk_id + 1) * {PACK_SEQ_LEN} - o)::BIGINT AS tok_end
FROM x ORDER BY doc_id, chunk_id
"""


QUERIES.update({"pack_chunks": q_pack_chunks})
ORACLES.update({"pack_chunks": SQL_PACK_CHUNKS})


# ---------------------------------------------------------------------
# BPE tokenizer training — Sennrich et al. 2016 over the corpus
# ---------------------------------------------------------------------

BPE_MERGES = 60


def q_bpe_vocab(sf_dir: str) -> pd.DataFrame:
    """Learned BPE merge table + per-doc encoded token counts summary
    (ops/bpe.py: word-count precompute, merge rounds over the word
    table only; rows-only — merges are not SQL-expressible).  The
    driver/distributed engine identity and the worked-example merges
    are unit-tested (tests/test_bpe.py)."""
    from ..ops.bpe import encode_counts, train_bpe

    docs = _docs_text(sf_dir)
    merges = train_bpe(docs, n_merges=BPE_MERGES)
    total = int(encode_counts(docs, merges).sum("n_bpe"))
    out = pd.DataFrame({
        "rank": range(len(merges)),
        "left": [m[0] for m in merges],
        "right": [m[1] for m in merges],
    })
    out["total_bpe_tokens"] = total
    return out


QUERIES.update({"bpe_vocab": q_bpe_vocab})


# ---------------------------------------------------------------------
# embedding k-means (fixed-iteration Lloyd's) — full oracle
# ---------------------------------------------------------------------

KMEANS_K = 4


def q_kmeans(sf_dir: str) -> pd.DataFrame:
    """Distributed Lloyd's k-means (k=4, one centroid update, seeds =
    the 4 smallest vec_ids) over the embeddings table; output the final
    assignment + distance.  The oracle replays the identical schedule
    in SQL: seed CTE → window argmin → per-dimension AVG → final window
    argmin — tie rule (distance, cluster id) pinned on both sides."""
    from ..ops.semdedup import kmeans_assign
    from ..ops.textstats import round_half_away

    emb = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    df = kmeans_assign(emb, k=KMEANS_K, iters=1).to_pandas()
    df["vec_id"] = df["vec_id"].astype("int64")
    df["dist"] = round_half_away(df["dist"].to_numpy())
    return df.sort_values("vec_id").reset_index(drop=True)


SQL_KMEANS = f"""
WITH c0 AS (SELECT vec_id AS cluster, embedding::DOUBLE[] AS cv
            FROM embeddings WHERE vec_id < {KMEANS_K}),
d1 AS (
  SELECT e.vec_id, c0.cluster,
         row_number() OVER (PARTITION BY e.vec_id
           ORDER BY list_distance(e.embedding::DOUBLE[], c0.cv),
                    c0.cluster) AS rnk
  FROM embeddings e CROSS JOIN c0),
a1 AS (SELECT vec_id, cluster FROM d1 WHERE rnk = 1),
m AS (
  SELECT a1.cluster, u.idx, avg(u.val) AS v
  FROM a1 JOIN embeddings e ON a1.vec_id = e.vec_id,
  LATERAL (SELECT unnest(e.embedding::DOUBLE[]) AS val,
                  generate_subscripts(e.embedding, 1) AS idx) u
  GROUP BY a1.cluster, u.idx),
c1 AS (SELECT cluster, list(v ORDER BY idx) AS cv FROM m GROUP BY cluster),
d2 AS (
  SELECT e.vec_id, c1.cluster,
         round(list_distance(e.embedding::DOUBLE[], c1.cv), 6) AS dist,
         row_number() OVER (PARTITION BY e.vec_id
           ORDER BY list_distance(e.embedding::DOUBLE[], c1.cv),
                    c1.cluster) AS rnk
  FROM embeddings e CROSS JOIN c1)
SELECT vec_id, cluster::BIGINT AS cluster, dist
FROM d2 WHERE rnk = 1 ORDER BY vec_id
"""

QUERIES.update({"kmeans": q_kmeans})
ORACLES.update({"kmeans": SQL_KMEANS})


# ---------------------------------------------------------------------
# SemDeDup — within-cluster cosine prune, full oracle
# ---------------------------------------------------------------------

SEMDEDUP_TAU = 0.3


def q_semdedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023) over the embeddings table using the
    stored ``label`` as the cluster (q_kmeans is the companion that
    PRODUCES such a clustering): drop every vector with an earlier
    same-cluster neighbor at cosine ≥ τ.  Pairwise earlier-neighbor
    semantics — exactly the oracle's NOT EXISTS."""
    from ..ops.semdedup import semdedup_prune

    emb = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    df = semdedup_prune(emb, tau=SEMDEDUP_TAU).to_pandas()
    df["vec_id"] = df["vec_id"].astype("int64")
    return df.sort_values("vec_id").reset_index(drop=True)


SQL_SEMDEDUP = f"""
SELECT e.vec_id, e.label::BIGINT AS cluster,
  NOT EXISTS (
    SELECT 1 FROM embeddings b
    WHERE b.label = e.label AND b.vec_id < e.vec_id
      AND list_cosine_similarity(e.embedding::DOUBLE[],
                                 b.embedding::DOUBLE[]) >= {SEMDEDUP_TAU}
  ) AS kept
FROM embeddings e ORDER BY vec_id
"""

QUERIES.update({"semdedup": q_semdedup})
ORACLES.update({"semdedup": SQL_SEMDEDUP})


# ---------------------------------------------------------------------
# blocklist (bad-words) filter — full oracle
# ---------------------------------------------------------------------

from ..ops.cleaning import blocklist_regex as _blocklist_regex

BLOCKLIST = ("dup", "big data")
_BLOCKLIST_RX = _blocklist_regex(BLOCKLIST)
# the RX is embedded in a single-quoted SQL literal; real LDNOOBW
# lists contain apostrophes (contractions), so escape ' as '' for the
# oracle side — the Ray side consumes the raw pattern unchanged
_BLOCKLIST_RX_SQL = _BLOCKLIST_RX.replace("'", "''")


def q_blocklist(sf_dir: str) -> pd.DataFrame:
    """C4-style bad-word gate: per-doc blocklist match count + keep
    flag; the RE2 pattern is shared verbatim with the oracle."""
    from ..ops.cleaning import blocklist_filter

    df = blocklist_filter(_docs_text(sf_dir), BLOCKLIST).to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_BLOCKLIST = f"""
SELECT doc_id,
  len(regexp_extract_all(lower(coalesce(text, '')),
      '{_BLOCKLIST_RX_SQL}'))::BIGINT AS n_bad,
  len(regexp_extract_all(lower(coalesce(text, '')),
      '{_BLOCKLIST_RX_SQL}')) = 0 AS kept
FROM documents ORDER BY doc_id
"""

QUERIES.update({"blocklist": q_blocklist})
ORACLES.update({"blocklist": SQL_BLOCKLIST})


# ---------------------------------------------------------------------
# near-dup cluster representative election — full oracle
# ---------------------------------------------------------------------


def q_cluster_reps(sf_dir: str) -> pd.DataFrame:
    """The step after near-dup clustering: per cluster keep the member
    with the most characters (ties → lowest doc id).  Pipeline =
    minhash pairs → connected components → quality-join → election;
    oracle = the recursive-CTE closure + one window."""
    from ..ops.dedup import (cluster_representatives, connected_components,
                             minhash_lsh_pairs)

    pairs = minhash_lsh_pairs(_docs_text(sf_dir), threshold=0.5)
    labels = connected_components(pairs)
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"])
    df = cluster_representatives(labels, docs).to_pandas()
    for c in ("cluster_id", "rep_doc_id", "n_docs"):
        df[c] = df[c].astype("int64")
    return df.sort_values("cluster_id").reset_index(drop=True)


SQL_CLUSTER_REPS = f"""
WITH RECURSIVE pairs AS (
  {SQL_MINHASH_PAIRS.replace("ORDER BY doc_a, doc_b", "")}),
edges AS (
  SELECT doc_a AS u, doc_b AS v FROM pairs
  UNION SELECT doc_b, doc_a FROM pairs),
reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u),
labels AS (
  SELECT u AS doc_id, least(u, min(v)) AS cluster_id
  FROM reach GROUP BY u),
ranked AS (
  SELECT l.cluster_id, l.doc_id,
         row_number() OVER (PARTITION BY l.cluster_id
           ORDER BY d.n_chars DESC, l.doc_id) AS rnk,
         count(*) OVER (PARTITION BY l.cluster_id) AS n
  FROM labels l JOIN documents d ON l.doc_id = d.doc_id)
SELECT cluster_id::BIGINT AS cluster_id, doc_id::BIGINT AS rep_doc_id,
       n::BIGINT AS n_docs
FROM ranked WHERE rnk = 1 ORDER BY cluster_id
"""

QUERIES.update({"cluster_reps": q_cluster_reps})
ORACLES.update({"cluster_reps": SQL_CLUSTER_REPS})


# ---------------------------------------------------------------------
# sparse all-pairs tf-idf cosine — full oracle
# ---------------------------------------------------------------------

TFIDF_PAIR_THRESHOLD = 0.5
TFIDF_DF_CAP = 100


def q_tfidf_pairs(sf_dir: str) -> pd.DataFrame:
    """Lexical near-dup pairs by tf-idf cosine over distinctive terms
    (df ≤ cap) — the DISCO shape: four slim shuffles, no broadcast.
    Oracle = the identical weight formula as plain SQL joins."""
    from ..ops.similarity import tfidf_cosine_pairs
    from ..ops.textstats import round_half_away

    n = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    cap = max(TFIDF_DF_CAP, n // 5)  # mirrors the oracle's greatest()
    df = tfidf_cosine_pairs(_docs_text(sf_dir),
                            threshold=TFIDF_PAIR_THRESHOLD,
                            df_cap=cap).to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                             "doc_b": pd.Series(dtype="int64"),
                             "cosine": pd.Series(dtype="float64")})
    df["doc_a"] = df["doc_a"].astype("int64")
    df["doc_b"] = df["doc_b"].astype("int64")
    df["cosine"] = round_half_away(df["cosine"].to_numpy())
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


SQL_TFIDF_PAIRS = f"""
WITH toks AS ({TOKS}),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
       FROM toks GROUP BY doc_id, term),
dft AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
n AS (SELECT count(*)::DOUBLE AS n FROM documents),
w AS (SELECT tf.doc_id, tf.term,
             ln(1 + tf.tf) * ln((n.n + 1) / (dft.df + 1)) AS w
      FROM tf JOIN dft USING (term) CROSS JOIN n
      WHERE dft.df <= greatest({TFIDF_DF_CAP}, n.n // 5)),
nrm AS (SELECT doc_id, sqrt(sum(w * w)) AS nn FROM w GROUP BY doc_id),
wn AS (SELECT w.doc_id, w.term, w.w / nrm.nn AS w
       FROM w JOIN nrm USING (doc_id)),
p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, sum(a.w * b.w) AS c
      FROM wn a JOIN wn b ON a.term = b.term AND a.doc_id < b.doc_id
      GROUP BY doc_a, doc_b)
SELECT doc_a, doc_b, round(c, 6) AS cosine FROM p
WHERE c >= {TFIDF_PAIR_THRESHOLD} ORDER BY doc_a, doc_b
"""

QUERIES.update({"tfidf_pairs": q_tfidf_pairs})
ORACLES.update({"tfidf_pairs": SQL_TFIDF_PAIRS})


# ---------------------------------------------------------------------
# PQ-compressed ANN — rows-only (ADC has no SQL form), driver-replay
# bit-identity asserted inline
# ---------------------------------------------------------------------


def q_ann_pq(sf_dir: str) -> pd.DataFrame:
    """Product-quantized ADC top-k (the ANN shape whose index fits in
    memory at 10^12 vectors: 8 uint8 codes per 64-dim vector).  No SQL
    oracle exists for quantized distances, so the check is stronger
    than rows-only alone: a single-process numpy replay of the exact
    same codec/tables must produce the IDENTICAL result frame (the
    distributed run is deterministic and partition-independent by
    construction) — any divergence raises."""
    from ..ops.similarity import PqCodec, _normalize, pq_topk
    from ..ops.textstats import round_half_away

    emb = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    t = t.sort_values("vec_id").reset_index(drop=True)
    if len(t) > 50_000:
        raise ValueError("driver-replay audit guarded to 50k vectors")
    Q = np.array(t[t["vec_id"] < ANN_QUERIES]["embedding"].tolist(),
                 np.float64)
    df = pq_topk(emb, Q, k=ANN_K, m=8, k_sub=16, train_n=2048)

    # single-process replay of the identical schedule
    Qn = _normalize(Q)
    V = _normalize(np.array(t["embedding"].tolist(), np.float64))
    ids = t["vec_id"].to_numpy(np.int64)
    codec = PqCodec(m=8, k_sub=16).fit(_normalize(
        np.array(t["embedding"].head(2048).tolist(), np.float64)))
    T = codec.adc_table(Qn)
    codes = codec.encode(V)
    D = np.zeros((len(Qn), len(V)))
    for s in range(codes.shape[1]):
        D += T[:, s, codes[:, s]]
    rows = []
    for qi in range(len(Qn)):
        order = np.lexsort((ids, D[qi]))[:ANN_K]
        for v in order:
            rows.append((qi, ids[v], D[qi, v]))
    want = pd.DataFrame(rows, columns=["query_id", "vec_id", "dist"])
    got = df[["query_id", "vec_id", "dist"]].reset_index(drop=True)
    if not (got["query_id"].tolist() == want["query_id"].tolist()
            and got["vec_id"].tolist() == want["vec_id"].tolist()
            and np.allclose(got["dist"], want["dist"], atol=1e-12)):
        raise AssertionError("PQ distributed run diverged from the "
                             "single-process replay")
    out = got.copy()
    out["dist"] = round_half_away(out["dist"].to_numpy())
    return out


QUERIES.update({"ann_pq": q_ann_pq})


# ---------------------------------------------------------------------
# per-source stratified quantiles — full oracle
# ---------------------------------------------------------------------


def q_quantiles_by_source(sf_dir: str) -> pd.DataFrame:
    """Exact n_chars quantiles PER SOURCE (the per-domain keep-bar
    primitive); same pinned lower-quantile semantics as `quantiles`,
    stratified via one multi-key (source, value) count shuffle."""
    from ..ops.stats import grouped_quantiles

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "n_chars"]).repartition(16)
    df = grouped_quantiles(docs, "source", "n_chars", QUANTILE_QS)
    df["value"] = df["value"].astype("int64")
    df["rank"] = df["rank"].astype("int64")
    df["n"] = df["n"].astype("int64")
    return df.sort_values(["source", "q"]).reset_index(drop=True)


SQL_QUANTILES_BY_SOURCE = """
WITH ranked AS (
  SELECT source, n_chars,
         row_number() OVER (PARTITION BY source ORDER BY n_chars) AS rn,
         count(*) OVER (PARTITION BY source) AS n
  FROM documents WHERE n_chars IS NOT NULL)
SELECT source, q, value, rank, n FROM (
  SELECT source, 0.5 AS q, max(n_chars) AS value,
    greatest(1, ceil(0.5 * any_value(n)))::BIGINT AS rank,
    any_value(n)::BIGINT AS n
  FROM ranked WHERE rn <= greatest(1, ceil(0.5 * n)) GROUP BY source
  UNION ALL
  SELECT source, 0.9, max(n_chars),
    greatest(1, ceil(0.9 * any_value(n)))::BIGINT, any_value(n)::BIGINT
  FROM ranked WHERE rn <= greatest(1, ceil(0.9 * n)) GROUP BY source
  UNION ALL
  SELECT source, 0.99, max(n_chars),
    greatest(1, ceil(0.99 * any_value(n)))::BIGINT, any_value(n)::BIGINT
  FROM ranked WHERE rn <= greatest(1, ceil(0.99 * n)) GROUP BY source
) ORDER BY source, q
"""

QUERIES.update({"quantiles_by_source": q_quantiles_by_source})
ORACLES.update({"quantiles_by_source": SQL_QUANTILES_BY_SOURCE})


# ---------------------------------------------------------------------
# crawl snapshot diff — full oracle
# ---------------------------------------------------------------------


def q_crawl_diff(sf_dir: str) -> pd.DataFrame:
    """Two deterministic snapshot views of the documents table (old =
    doc_id%3≠0, new = doc_id%5≠0 with every %7==0 text edited) diffed
    into new/deleted/changed/same per url key (ops/crawl.py:
    snapshot_diff — only (key, side, md5-hash) rows shuffle)."""
    from ..ops.crawl import snapshot_diff

    docs = _docs_text(sf_dir)

    def keep_mod(m: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % m != 0))
        return fn

    old = docs.map_batches(keep_mod(3), batch_format="pyarrow")

    def edit(batch: pa.Table) -> pa.Table:
        batch = keep_mod(5)(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        txt = batch["text"].to_pylist()
        out = [t + " [edited v2]" if i % 7 == 0 else t
               for i, t in zip(ids, txt)]
        return batch.set_column(batch.schema.get_field_index("text"),
                                "text", pa.array(out, pa.string()))

    new = docs.map_batches(edit, batch_format="pyarrow")
    df = snapshot_diff(old, new).to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


SQL_CRAWL_DIFF = """
WITH a AS (
  SELECT doc_id, md5_number_lower(text) AS h
  FROM documents WHERE doc_id % 3 <> 0),
b AS (
  SELECT doc_id,
         md5_number_lower(text || CASE WHEN doc_id % 7 = 0
                                       THEN ' [edited v2]' ELSE '' END) AS h
  FROM documents WHERE doc_id % 5 <> 0)
SELECT COALESCE(a.doc_id, b.doc_id)::BIGINT AS doc_id,
       CASE WHEN a.doc_id IS NULL THEN 'new'
            WHEN b.doc_id IS NULL THEN 'deleted'
            WHEN a.h <> b.h THEN 'changed'
            ELSE 'same' END AS status
FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
ORDER BY doc_id
"""

QUERIES.update({"crawl_diff": q_crawl_diff})
ORACLES.update({"crawl_diff": SQL_CRAWL_DIFF})


# ---------------------------------------------------------------------
# url canonicalization + per-domain stats — full oracle
# ---------------------------------------------------------------------

# messy-url synthesis shared (textually) by both engines: scheme and
# port/tracking/fragment noise keyed off doc_id residues
_URL_SYNTH_SQL = """
  CASE WHEN doc_id % 2 = 0 THEN 'http://' ELSE 'https://' END
  || source || '.example.org'
  || CASE WHEN doc_id % 9 = 0 THEN ':443'
          WHEN doc_id % 11 = 0 THEN ':80' ELSE '' END
  || '/p/' || CAST(doc_id % 37 AS VARCHAR)
  || CASE WHEN doc_id % 6 = 0 THEN '/' ELSE '' END
  || CASE WHEN doc_id % 4 = 0
          THEN '?id=' || CAST(doc_id % 10 AS VARCHAR) || '&utm_source=x'
          WHEN doc_id % 13 = 0 THEN '?utm_only=1' ELSE '' END
  || CASE WHEN doc_id % 5 = 0 THEN '#s' ELSE '' END
"""


def _synth_urls(batch: pa.Table) -> pa.Table:
    """Python mirror of _URL_SYNTH_SQL (query-harness input synthesis;
    the OP's kernels are the vectorized part under test)."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    src = batch["source"].to_pylist()
    urls = []
    for i, s in zip(ids, src):
        u = ("http://" if i % 2 == 0 else "https://") + s + ".example.org"
        if i % 9 == 0:
            u += ":443"
        elif i % 11 == 0:
            u += ":80"
        u += f"/p/{i % 37}"
        if i % 6 == 0:
            u += "/"
        if i % 4 == 0:
            u += f"?id={i % 10}&utm_source=x"
        elif i % 13 == 0:
            u += "?utm_only=1"
        if i % 5 == 0:
            u += "#s"
        urls.append(u)
    return batch.append_column("url", pa.array(urls, pa.string()))


def q_domain_stats(sf_dir: str) -> pd.DataFrame:
    """URL canonicalization (five shared-RE2 passes) + per-domain page/
    distinct-url/char totals (ops/crawl.py — combine-before-shuffle
    partials, the tracking-param noise collapses under the kernel)."""
    from ..ops.crawl import domain_stats

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "n_chars"]).map_batches(
            _synth_urls, batch_format="pyarrow")
    df = domain_stats(docs).to_pandas()
    for c in ("n_pages", "n_urls", "total_chars"):
        df[c] = df[c].astype("int64")
    return df.sort_values("domain").reset_index(drop=True)


def _sql_domain_stats() -> str:
    """The oracle mirrors the op's normalization STAGES with shared
    constants: regex passes share pattern strings verbatim; the
    tracking-param drop shares the NAME-PREFIX list (split on '&',
    filter by starts_with, rejoin — an unanchored regex would corrupt
    params merely containing a tracking prefix, and RE2 has no
    lookbehind to anchor one)."""
    from ..ops.crawl import (P_DEFAULT_PORT, P_DOMAIN_SQL, P_FRAGMENT,
                             P_QUERY_TAIL, P_TRAILING_SLASH,
                             TRACKING_PREFIXES)

    drop = " OR ".join(f"starts_with(x, '{p}')" for p in TRACKING_PREFIXES)
    return f"""
WITH raw AS (
  SELECT doc_id, n_chars, ({_URL_SYNTH_SQL}) AS url FROM documents),
defrag AS (
  SELECT n_chars, regexp_replace(url, '{P_FRAGMENT}', '', 'g') AS u
  FROM raw),
dequery AS (
  SELECT n_chars,
    CASE WHEN strpos(u, '?') = 0 THEN u ELSE
      split_part(u, '?', 1) ||
      CASE WHEN kept = '' THEN '' ELSE '?' || kept END
    END AS u
  FROM (
    SELECT n_chars, u,
      COALESCE(array_to_string(list_filter(
        str_split(split_part(u, '?', 2), '&'),
        x -> NOT ({drop})), '&'), '') AS kept
    FROM defrag)),
norm AS (
  SELECT n_chars,
    regexp_replace(regexp_replace(regexp_replace(u,
      '{P_QUERY_TAIL}', '', 'g'),
      '{P_DEFAULT_PORT}', '\\1\\3', 'g'),
      '{P_TRAILING_SLASH}', '', 'g') AS url_norm
  FROM dequery)
SELECT regexp_extract(url_norm, '{P_DOMAIN_SQL}', 1) AS domain,
       count(*)::BIGINT AS n_pages,
       count(DISTINCT url_norm)::BIGINT AS n_urls,
       sum(n_chars)::BIGINT AS total_chars
FROM norm GROUP BY domain ORDER BY domain
"""


QUERIES.update({"domain_stats": q_domain_stats})
ORACLES.update({"domain_stats": _sql_domain_stats()})


# ---------------------------------------------------------------------
# pagerank — full oracle (fixed 5 iterations, chained CTEs)
# ---------------------------------------------------------------------

PR_ITER = 5
PR_DAMP = 0.85


def _mk_edges_fn(n: int, maps):
    """Deterministic synthetic link-graph builder shared by the graph
    queries: one (src=doc_id, dst=map(id)%n) edge per map per doc.
    The maps must stay byte-identical to each oracle's edges CTE —
    hence ONE home for the batch kernel (each query still picks its
    own map pair: bijective linear maps give uniform centralities, so
    hits/degree_dist deliberately use the non-bijective quadratic).
    NB the int64 square in the quadratic map overflows past
    doc_id ≈ 3e9 — the synthetic graphs are test-scale by design."""
    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        return pa.table({
            "src": pa.array(np.concatenate([ids] * len(maps))),
            "dst": pa.array(np.concatenate([m(ids) % n for m in maps])),
        })
    return fn


def _run_pagerank_query(sf_dir: str,
                        partitioned: bool = False) -> pd.DataFrame:
    """Shared harness for the two PageRank variants: the SAME
    deterministic 2-out-degree synthetic graph (src=doc_id →
    (7·id+1)%N and (13·id+3)%N — it must stay byte-identical to the
    oracle's edges CTE, hence ONE home) run through either impl."""
    from ..ops.crawl import pagerank, pagerank_partitioned
    from ..ops.textstats import round_half_away

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    n = docs.count()

    edges = docs.map_batches(
        _mk_edges_fn(n, [lambda i: i * 7 + 1, lambda i: i * 13 + 3]),
        batch_format="pyarrow")
    impl = pagerank_partitioned if partitioned else pagerank
    df = impl(edges, n, n_iter=PR_ITER, damping=PR_DAMP).to_pandas()
    df["rank"] = round_half_away(df["rank"].to_numpy())
    df["node"] = df["node"].astype("int64")
    return df.sort_values("node").reset_index(drop=True)


def q_pagerank(sf_dir: str) -> pd.DataFrame:
    """Link-graph PageRank over a deterministic 2-out-degree synthetic
    graph (src=doc_id → (7·id+1)%N and (13·id+3)%N).  Fixed-iteration
    broadcast-rank shape (ops/crawl.py:pagerank); round-before-
    aggregate at 12/9 decimals makes the result partition-order
    independent, mirrored exactly by the chained-CTE oracle."""
    return _run_pagerank_query(sf_dir)


def _sql_pagerank() -> str:
    head = f"""
WITH consts AS (SELECT count(*)::DOUBLE AS n FROM documents),
edges AS (
  SELECT doc_id AS src, (doc_id * 7 + 1) % (SELECT count(*) FROM documents) AS dst FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * 13 + 3) % (SELECT count(*) FROM documents) FROM documents),
deg AS (SELECT src, count(*)::DOUBLE AS cnt FROM edges GROUP BY src),
r0 AS (SELECT doc_id AS id, round(1.0 / c.n, 9) AS r
       FROM documents CROSS JOIN consts c)"""
    its = []
    for k in range(1, PR_ITER + 1):
        its.append(f""",
r{k} AS (
  SELECT d.doc_id AS id,
         round((1 - {PR_DAMP}) / c.n + {PR_DAMP} * COALESCE(s.contrib, 0), 9) AS r
  FROM documents d CROSS JOIN consts c
  LEFT JOIN (
    SELECT e.dst AS id, sum(round(p.r / g.cnt, 12)) AS contrib
    FROM edges e JOIN r{k - 1} p ON p.id = e.src
    JOIN deg g ON g.src = e.src
    GROUP BY e.dst) s ON s.id = d.doc_id)""")
    return (head + "".join(its) +
            f"\nSELECT id::BIGINT AS node, round(r, 6) AS rank "
            f"FROM r{PR_ITER} ORDER BY node")


QUERIES.update({"pagerank": q_pagerank})
ORACLES.update({"pagerank": _sql_pagerank()})


def q_pagerank_dist(sf_dir: str) -> pd.DataFrame:
    """The beyond-broadcast PageRank (`pagerank_partitioned`: ranks as
    a hash-partitioned table, two slim shuffles per iteration, nothing
    O(n_nodes) anywhere).  Bit-equal to the broadcast path by the
    shared round-before-aggregate schedule, so it earns the SAME
    chained-CTE oracle."""
    return _run_pagerank_query(sf_dir, partitioned=True)


QUERIES.update({"pagerank_dist": q_pagerank_dist})
ORACLES.update({"pagerank_dist": _sql_pagerank()})


# ---------------------------------------------------------------------
# anchor-text aggregation — full oracle
# ---------------------------------------------------------------------

ANCHOR_TOP_K = 3
ANCHOR_CHARS = 40


def q_anchor_terms(sf_dir: str) -> pd.DataFrame:
    """Per-target top-k anchor terms over the deterministic pagerank
    link graph (src=doc_id → (7·id+1)%N and (13·id+3)%N), each link's
    anchor = the first 40 chars of the SOURCE page's text
    (ops/crawl.py:anchor_terms — combine-before-shuffle partials, two
    slim exchanges, per-target rows bounded by anchor vocabulary)."""
    from ..ops.crawl import anchor_terms

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
    n = docs.count()

    def mk_links(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        anchor = pc.utf8_slice_codeunits(
            pc.cast(batch["text"], pa.string()), 0, ANCHOR_CHARS)
        return pa.table({
            "dst": pa.array(np.concatenate(
                [(ids * 7 + 1) % n, (ids * 13 + 3) % n])),
            "anchor": pa.concat_arrays(
                [anchor.combine_chunks()] * 2),
        })

    links = docs.map_batches(mk_links, batch_format="pyarrow")
    df = anchor_terms(links, k=ANCHOR_TOP_K).to_pandas()
    df["dst"] = df["dst"].astype("int64")
    df["n"] = df["n"].astype("int64")
    return df.sort_values(["dst", "n", "term"],
                          ascending=[True, False, True]).reset_index(
                              drop=True)


SQL_ANCHOR_TERMS = f"""
WITH edges AS (
  SELECT doc_id AS src,
         (doc_id * 7 + 1) % (SELECT count(*) FROM documents) AS dst
  FROM documents
  UNION ALL
  SELECT doc_id,
         (doc_id * 13 + 3) % (SELECT count(*) FROM documents)
  FROM documents),
anchors AS (
  SELECT e.dst,
         unnest(list_filter(regexp_split_to_array(
             lower(substr(d.text, 1, {ANCHOR_CHARS})), '[^a-z0-9]+'),
             x -> x <> '')) AS term
  FROM edges e JOIN documents d ON d.doc_id = e.src),
counts AS (
  SELECT dst, term, count(*)::BIGINT AS n
  FROM anchors GROUP BY dst, term),
ranked AS (
  SELECT dst, term, n,
         row_number() OVER (PARTITION BY dst
                            ORDER BY n DESC, term) AS rk
  FROM counts)
SELECT dst::BIGINT AS dst, term, n FROM ranked
WHERE rk <= {ANCHOR_TOP_K}
ORDER BY dst, n DESC, term
"""


QUERIES.update({"anchor_terms": q_anchor_terms})
ORACLES.update({"anchor_terms": SQL_ANCHOR_TERMS})


# ---------------------------------------------------------------------
# HITS hubs / authorities — full oracle (chained per-sweep CTEs)
# ---------------------------------------------------------------------

HITS_ITER = 4


def q_hits(sf_dir: str) -> pd.DataFrame:
    """Fixed-iteration HITS hubs/authorities over a deterministic
    NON-regular link graph (src=doc_id → (7·id+1)%N and (id²+3)%N —
    the quadratic map is non-bijective, so in-degrees genuinely vary;
    the pagerank graph's two linear maps are both bijections mod N,
    which makes every centrality EXACTLY uniform and the oracle
    non-discriminative).  Broadcast-sweep shape (ops/crawl.py:hits —
    sparse per-batch partials, L1 normalization each sweep);
    round-before-aggregate at 9 decimals makes the result
    partition-order independent, mirrored exactly by the chained-CTE
    oracle (one authority + one hub CTE pair per iteration)."""
    from ..ops.crawl import hits
    from ..ops.textstats import round_half_away

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    n = docs.count()

    edges = docs.map_batches(
        _mk_edges_fn(n, [lambda i: i * 7 + 1, lambda i: i * i + 3]),
        batch_format="pyarrow")
    df = hits(edges, n, n_iter=HITS_ITER).to_pandas()
    df["hub"] = round_half_away(df["hub"].to_numpy())
    df["auth"] = round_half_away(df["auth"].to_numpy())
    df["node"] = df["node"].astype("int64")
    return df.sort_values("node").reset_index(drop=True)


def _sql_hits() -> str:
    head = """
WITH edges AS (
  SELECT doc_id AS src, (doc_id * 7 + 1) % (SELECT count(*) FROM documents) AS dst FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * doc_id + 3) % (SELECT count(*) FROM documents) FROM documents),
h0 AS (SELECT doc_id AS id,
              round(1.0 / (SELECT count(*) FROM documents), 9) AS s
       FROM documents)"""
    # each CTE is referenced EXACTLY once downstream (the L1
    # normalizer is a sum() OVER () window inside the same CTE, not a
    # second scalar-subquery reference) — a prior draft referenced
    # each level twice and DuckDB's CTE inlining made the plan grow
    # 2^(2·iters): it hung on 600 rows
    its = []
    for k in range(1, HITS_ITER + 1):
        its.append(f""",
a{k}r AS (SELECT e.dst AS id, sum(p.s) AS s,
                 sum(sum(p.s)) OVER () AS z
          FROM edges e JOIN h{k - 1} p ON p.id = e.src GROUP BY e.dst),
a{k} AS (SELECT d.doc_id AS id,
                round(COALESCE(r.s / r.z, 0), 9) AS s
         FROM documents d LEFT JOIN a{k}r r ON r.id = d.doc_id),
h{k}r AS (SELECT e.src AS id, sum(p.s) AS s,
                 sum(sum(p.s)) OVER () AS z
          FROM edges e JOIN a{k} p ON p.id = e.dst GROUP BY e.src),
h{k} AS (SELECT d.doc_id AS id,
                round(COALESCE(r.s / r.z, 0), 9) AS s
         FROM documents d LEFT JOIN h{k}r r ON r.id = d.doc_id)""")
    return (head + "".join(its) + f"""
SELECT h.id::BIGINT AS node, round(h.s, 6) AS hub, round(a.s, 6) AS auth
FROM h{HITS_ITER} h JOIN a{HITS_ITER} a ON a.id = h.id
ORDER BY node""")


QUERIES.update({"hits": q_hits})
ORACLES.update({"hits": _sql_hits()})


# ---------------------------------------------------------------------
# degree distribution — full oracle
# ---------------------------------------------------------------------


def q_degree_dist(sf_dir: str) -> pd.DataFrame:
    """Out-/in-degree histogram of the deterministic NON-regular link
    graph (src=doc_id → (7·id+1)%N and (id²+3)%N — the quadratic map
    gives a genuine in-degree spread; see q_hits)
    (ops/crawl.py:degree_distribution — per-batch sparse endpoint
    partials → exact per-node degrees → per-batch histogram partials;
    the second exchange is O(distinct degrees), never ∝ nodes)."""
    from ..ops.crawl import degree_distribution

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    n = docs.count()

    edges = docs.map_batches(
        _mk_edges_fn(n, [lambda i: i * 7 + 1, lambda i: i * i + 3]),
        batch_format="pyarrow")
    df = degree_distribution(edges).to_pandas()
    df["degree"] = df["degree"].astype("int64")
    df["n_nodes"] = df["n_nodes"].astype("int64")
    return df.sort_values(["direction", "degree"]).reset_index(drop=True)


SQL_DEGREE_DIST = """
WITH edges AS (
  SELECT doc_id AS src, (doc_id * 7 + 1) % (SELECT count(*) FROM documents) AS dst FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * doc_id + 3) % (SELECT count(*) FROM documents) FROM documents),
outd AS (SELECT src AS id, count(*)::BIGINT AS deg FROM edges GROUP BY src),
ind  AS (SELECT dst AS id, count(*)::BIGINT AS deg FROM edges GROUP BY dst),
both_d AS (
  SELECT 'out' AS direction, deg FROM outd
  UNION ALL
  SELECT 'in', deg FROM ind)
SELECT direction, deg::BIGINT AS degree, count(*)::BIGINT AS n_nodes
FROM both_d GROUP BY direction, deg
ORDER BY direction, degree
"""


QUERIES.update({"degree_dist": q_degree_dist})
ORACLES.update({"degree_dist": SQL_DEGREE_DIST})


# ---------------------------------------------------------------------
# host-level link graph — full oracle
# ---------------------------------------------------------------------


def q_host_graph(sf_dir: str) -> pd.DataFrame:
    """Collapse the deterministic page link graph to the host level
    (host = the documents table's ``source`` column), one
    (src_host, dst_host, n_links) row per ordered pair
    (ops/crawl.py:host_link_graph — broadcast-dictionary join of the
    node→host mapping, in-batch arrow group_by partials, ONE coarse
    hash-pair exchange)."""
    from ..ops.crawl import host_link_graph

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"])
    mapping = docs.to_pandas()
    n = len(mapping)
    hosts = np.empty(n, dtype=object)
    hosts[mapping["doc_id"].to_numpy(np.int64)] = \
        mapping["source"].to_numpy(object)

    edges = docs.map_batches(
        _mk_edges_fn(n, [lambda i: i * 7 + 1, lambda i: i * 13 + 3]),
        batch_format="pyarrow")
    df = host_link_graph(edges, hosts).to_pandas()
    df["n_links"] = df["n_links"].astype("int64")
    return df.sort_values(["src_host", "dst_host"]).reset_index(
        drop=True)


SQL_HOST_GRAPH = """
WITH edges AS (
  SELECT doc_id AS src, (doc_id * 7 + 1) % (SELECT count(*) FROM documents) AS dst FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * 13 + 3) % (SELECT count(*) FROM documents) FROM documents),
hg AS (
  SELECT ds.source AS src_host, dd.source AS dst_host
  FROM edges e
  JOIN documents ds ON ds.doc_id = e.src
  JOIN documents dd ON dd.doc_id = e.dst)
SELECT src_host, dst_host, count(*)::BIGINT AS n_links
FROM hg GROUP BY src_host, dst_host
ORDER BY src_host, dst_host
"""


QUERIES.update({"host_graph": q_host_graph})
ORACLES.update({"host_graph": SQL_HOST_GRAPH})


# ---------------------------------------------------------------------
# recrawl schedule — full oracle
# ---------------------------------------------------------------------


def q_crawl_schedule(sf_dir: str) -> pd.DataFrame:
    """End-to-end recrawl wave: the crawl_diff snapshot statuses ×
    a deterministic per-page rank × the documents' source as host,
    top-10 per host by priority = rank × status weight
    (ops/crawl.py:crawl_schedule — broadcast rank/host dictionaries,
    per-batch per-host top-quota pre-prune, ONE hash(host) exchange;
    'deleted' never leaves the map task).  Ranks are synthesized as
    ((37·id+11) % 1000)/1000 + 0.001 — the same double expression in
    both engines — rather than chaining the 5-iteration pagerank CTE
    under a diff and a window (the composition is exercised at the op
    level; the oracle stays tractable)."""
    from ..ops.crawl import crawl_schedule, snapshot_diff
    from ..ops.textstats import round_half_away

    docs = _docs_text(sf_dir)

    def keep_mod(m: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % m != 0))
        return fn

    old = docs.map_batches(keep_mod(3), batch_format="pyarrow")

    def edit(batch: pa.Table) -> pa.Table:
        batch = keep_mod(5)(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        txt = batch["text"].to_pylist()
        out = [t + " [edited v2]" if i % 7 == 0 else t
               for i, t in zip(ids, txt)]
        return batch.set_column(batch.schema.get_field_index("text"),
                                "text", pa.array(out, pa.string()))

    new = docs.map_batches(edit, batch_format="pyarrow")
    statuses = snapshot_diff(old, new)

    mapping = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"]).to_pandas()
    n = len(mapping)
    hosts = np.empty(n, dtype=object)
    hosts[mapping["doc_id"].to_numpy(np.int64)] = \
        mapping["source"].to_numpy(object)
    ids = np.arange(n, dtype=np.int64)
    ranks = ((ids * 37 + 11) % 1000) / 1000.0 + 0.001

    df = crawl_schedule(statuses, ranks, hosts, quota=10).to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    df["priority"] = round_half_away(df["priority"].to_numpy())
    return df.sort_values(["domain", "priority", "doc_id"],
                          ascending=[True, False, True]).reset_index(
        drop=True)


SQL_CRAWL_SCHEDULE = """
WITH a AS (
  SELECT doc_id, md5_number_lower(text) AS h
  FROM documents WHERE doc_id % 3 <> 0),
b AS (
  SELECT doc_id,
         md5_number_lower(text || CASE WHEN doc_id % 7 = 0
                                       THEN ' [edited v2]' ELSE '' END) AS h
  FROM documents WHERE doc_id % 5 <> 0),
st AS (
  SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
         CASE WHEN a.doc_id IS NULL THEN 'new'
              WHEN b.doc_id IS NULL THEN 'deleted'
              WHEN a.h <> b.h THEN 'changed'
              ELSE 'same' END AS status
  FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id),
pri AS (
  SELECT d.source AS domain, st.doc_id, st.status,
         round((((st.doc_id * 37 + 11) % 1000) / 1000.0 + 0.001)
               * CASE st.status WHEN 'new' THEN 1.0
                                WHEN 'changed' THEN 0.7
                                WHEN 'same' THEN 0.1
                                ELSE 0.0 END, 9) AS priority
  FROM st JOIN documents d ON d.doc_id = st.doc_id
  WHERE st.status <> 'deleted'),
rk AS (
  SELECT *, row_number() OVER (PARTITION BY domain
                               ORDER BY priority DESC, doc_id) AS rn
  FROM pri)
SELECT domain, doc_id::BIGINT AS doc_id, status,
       round(priority, 6) AS priority
FROM rk WHERE rn <= 10
ORDER BY domain, priority DESC, doc_id
"""

QUERIES.update({"crawl_schedule": q_crawl_schedule})
ORACLES.update({"crawl_schedule": SQL_CRAWL_SCHEDULE})


# ---------------------------------------------------------------------
# connected components — full oracle
# ---------------------------------------------------------------------

CC_K = 7          # number of components (node residue classes mod K)
CC_SQL_LEVELS = 14  # ≥ graph diameter at every test sf (≤10 at sf0.1);
#                     min-propagation is idempotent past convergence,
#                     so extra CTE levels are exact no-ops


def q_components(sf_dir: str) -> pd.DataFrame:
    """Undirected connected components over a deterministic
    multi-component graph: K=7 components (doc_id residue classes),
    each wired as a binary tree (i — (i%K) + K·((i//K)//2)) PLUS an
    intra-class chain (i — i+K) so min-label propagation needs
    genuinely multi-hop convergence (~log2(N/K) rounds) but the
    fixpoint arrives well under the oracle's fixed CTE depth
    (ops/crawl.py:connected_components — pagerank-broadcast exchange
    plan, sparse per-batch int64 minima, driver fixpoint test;
    integer labels mean parity is exact with no rounding schedule)."""
    return _run_components_query(sf_dir)


def _run_components_query(sf_dir: str,
                          partitioned: bool = False) -> pd.DataFrame:
    from ..ops.crawl import (connected_components,
                             connected_components_partitioned)

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    n = docs.count()

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        tree = ids[ids >= CC_K]
        parent = (tree % CC_K) + CC_K * ((tree // CC_K) // 2)
        chain = ids[ids + CC_K < n]
        return pa.table({
            "src": pa.array(np.concatenate([tree, chain])),
            "dst": pa.array(np.concatenate([parent, chain + CC_K])),
        })

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    fn = connected_components_partitioned if partitioned \
        else connected_components
    df = fn(edges, n).to_pandas()
    df["node"] = df["node"].astype("int64")
    df["component"] = df["component"].astype("int64")
    return df.sort_values("node").reset_index(drop=True)


def _sql_components() -> str:
    head = f"""
WITH consts AS (SELECT count(*) AS n FROM documents),
e0 AS (
  SELECT doc_id AS a,
         (doc_id % {CC_K}) + {CC_K} * ((doc_id // {CC_K}) // 2) AS b
  FROM documents WHERE doc_id >= {CC_K}
  UNION ALL
  SELECT doc_id, doc_id + {CC_K}
  FROM documents WHERE doc_id + {CC_K} < (SELECT n FROM consts)),
se AS (SELECT a, b FROM e0
       UNION ALL SELECT b, a FROM e0
       UNION ALL SELECT doc_id, doc_id FROM documents),
l0 AS (SELECT doc_id AS id, doc_id AS lbl FROM documents)"""
    its = []
    for k in range(1, CC_SQL_LEVELS + 1):
        its.append(f""",
l{k} AS (SELECT se.a AS id, min(l.lbl) AS lbl
         FROM se JOIN l{k - 1} l ON l.id = se.b GROUP BY se.a)""")
    return (head + "".join(its) + f"""
SELECT id::BIGINT AS node, lbl::BIGINT AS component
FROM l{CC_SQL_LEVELS} ORDER BY node""")


QUERIES.update({"components": q_components})
ORACLES.update({"components": _sql_components()})


def q_components_dist(sf_dir: str) -> pd.DataFrame:
    """The beyond-broadcast connected components
    (`connected_components_partitioned`: labels as a hash-partitioned
    table, two slim shuffles per round, nothing O(n_nodes) anywhere).
    Integer min-propagation is bit-equal to the broadcast path by
    construction, so it earns the SAME fixed-depth CTE oracle."""
    return _run_components_query(sf_dir, partitioned=True)


QUERIES.update({"components_dist": q_components_dist})
ORACLES.update({"components_dist": _sql_components()})


# ---------------------------------------------------------------------
# fuzzy term search — full oracle
# ---------------------------------------------------------------------

FUZZY_QUERY = "sow"     # matches 'row' (sub) and 'slow' (insert)
FUZZY_MAX_EDITS = 1


def q_fuzzy(sf_dir: str) -> pd.DataFrame:
    """Lucene FuzzyQuery analog: expand the (misspelled) query term
    against the index vocabulary within ``FUZZY_MAX_EDITS`` Levenshtein
    edits (index/engine.py:fuzzy_terms — vectorized length-band +
    prefix prune over the lexicon's Arrow buffers, banded early-exit
    DP on survivors; the expansion is O(vocab), corpus-size
    independent), then BM25-OR over the expansion with per-term df
    (the rewrite-to-BooleanQuery shape, FuzzyQuery.java).  The edit
    distance is unit-cost Levenshtein == DuckDB ``levenshtein``, so
    the whole pipeline holds an exact SQL oracle."""
    from ..ops.textstats import round_half_away

    ix = _index(sf_dir)
    res = ix.search_fuzzy(FUZZY_QUERY, 10, max_edits=FUZZY_MAX_EDITS)
    return pd.DataFrame({
        "doc_id": [d for d, _ in res],
        "score": round_half_away([s for _, s in res]),
    })


SQL_FUZZY = _sql_bm25(
    (), 10,
    term_pred="term IN (SELECT term FROM fterms)",
    extra_cte=f"""
fterms AS (SELECT DISTINCT term FROM toks
           WHERE levenshtein(term, '{FUZZY_QUERY}') <= {FUZZY_MAX_EDITS}),""")

QUERIES.update({"fuzzy": q_fuzzy})
ORACLES.update({"fuzzy": SQL_FUZZY})


# ---------------------------------------------------------------------
# regexp term search — full oracle
# ---------------------------------------------------------------------

# RE2 pattern shared VERBATIM between pyarrow match_substring_regex
# (anchored) and DuckDB regexp_full_match — parity by construction
REGEX_PATTERN = "s[a-z]+"


def q_regex(sf_dir: str) -> pd.DataFrame:
    """Lucene RegexpQuery analog: whole-term RE2 match over the index
    vocabulary (index/engine.py:regex_terms — one vectorized Arrow
    pass, O(vocab), corpus-size independent), then BM25-OR with
    per-term df (rewrite-to-BooleanQuery, MultiTermQuery.java)."""
    from ..ops.textstats import round_half_away

    ix = _index(sf_dir)
    res = ix.search_regex(REGEX_PATTERN, 10)
    return pd.DataFrame({
        "doc_id": [d for d, _ in res],
        "score": round_half_away([s for _, s in res]),
    })


SQL_REGEX = _sql_bm25(
    (), 10,
    term_pred="term IN (SELECT term FROM rterms)",
    extra_cte=f"""
rterms AS (SELECT DISTINCT term FROM toks
           WHERE regexp_full_match(term, '{REGEX_PATTERN}')),""")

QUERIES.update({"regex": q_regex})
ORACLES.update({"regex": SQL_REGEX})


# ---------------------------------------------------------------------
# term-range search — full oracle
# ---------------------------------------------------------------------

RANGE_LO, RANGE_HI = "sc", "so"   # [lo, hi): scan, slow, small


def q_term_range(sf_dir: str) -> pd.DataFrame:
    """Lucene TermRangeQuery analog: vocabulary terms in the
    lexicographic interval [lo, hi) — two binary searches + a slice
    on the sorted lexicon, O(log vocab), the only MultiTermQuery
    rewrite that never scans the dictionary
    (index/engine.py:range_terms) — then BM25-OR with per-term df."""
    from ..ops.textstats import round_half_away

    ix = _index(sf_dir)
    res = ix.search_term_range(RANGE_LO, RANGE_HI, 10)
    return pd.DataFrame({
        "doc_id": [d for d, _ in res],
        "score": round_half_away([s for _, s in res]),
    })


SQL_TERM_RANGE = _sql_bm25(
    (), 10,
    term_pred=f"term >= '{RANGE_LO}' AND term < '{RANGE_HI}'")

QUERIES.update({"term_range": q_term_range})
ORACLES.update({"term_range": SQL_TERM_RANGE})


# ---------------------------------------------------------------------
# more-like-this — full oracle
# ---------------------------------------------------------------------

MLT_DOC = 7
MLT_N_TERMS = 3


def q_more_like_this(sf_dir: str) -> pd.DataFrame:
    """MoreLikeThis over the seed doc: interesting-term selection =
    theme_terms with a single-doc focus (BM25 mode: corpus idf × the
    doc's BM25 tf-part — "high tf here, rare elsewhere"), then BM25-OR
    over the selection with the seed dropped from the hits
    (index/engine.py:more_like_this).  Both halves are closed-form:
    the selection is the theme-terms oracle specialised to one focus
    doc, the search is the shared BM25 oracle body — chained in one
    SQL statement."""
    from ..ops.textstats import round_half_away

    ix = _index(sf_dir)
    res = ix.more_like_this(MLT_DOC, 10, n_terms=MLT_N_TERMS)
    return pd.DataFrame({
        "doc_id": [d for d, _ in res],
        "score": round_half_away([s for _, s in res]),
    })


SQL_MLT = _sql_bm25(
    (), 10,
    term_pred="term IN (SELECT term FROM mterms)",
    extra_cte=f"""
mcorpus AS (SELECT count(*)::DOUBLE AS n FROM documents),
mdl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY doc_id),
mavg AS (SELECT sum(dl) / (SELECT n FROM mcorpus) AS avgdl FROM mdl),
mftf AS (SELECT term, count(*)::DOUBLE AS tf FROM toks
         WHERE doc_id = {MLT_DOC} GROUP BY term),
mdf AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM toks
        GROUP BY term),
mterms AS (
  SELECT f.term
  FROM mftf f JOIN mdf d USING (term)
  ORDER BY
    pow(ln(1 + ((SELECT n FROM mcorpus) - d.df + 0.5) / (d.df + 0.5)),
        {IDF_EXP})
    * f.tf * ({K1} + 1)
    / (f.tf + {K1} * (1 - {B} + {B}
       * (SELECT dl FROM mdl WHERE doc_id = {MLT_DOC})
       / (SELECT avgdl FROM mavg))) DESC,
    f.term
  LIMIT {MLT_N_TERMS}),""",
    final_where=f"WHERE doc_id <> {MLT_DOC}")

QUERIES.update({"more_like_this": q_more_like_this})
ORACLES.update({"more_like_this": SQL_MLT})


# ---------------------------------------------------------------------
# deep paging + result-set facets — full oracles
# ---------------------------------------------------------------------


def q_search_page2(sf_dir: str) -> pd.DataFrame:
    """Lucene searchAfter deep paging: page 2 (hits 11-20) of the
    standard BM25 query, fetched with the page-1 tail as the cursor
    (index/engine.py:search_after — filters the full exact ranking
    to the hits after the cursor; oracle = the same ordered list with
    LIMIT/OFFSET)."""
    from ..ops.textstats import round_half_away

    ix = _index(sf_dir)
    page1 = ix.search_exact(list(BM25_QUERY_TERMS), 10)
    res = [] if not page1 else \
        ix.search_after(list(BM25_QUERY_TERMS), after=page1[-1], k=10)
    return pd.DataFrame({
        "doc_id": [d for d, _ in res],
        "score": round_half_away([s for _, s in res]),
    })


SQL_SEARCH_PAGE2 = _sql_bm25(BM25_QUERY_TERMS, 10, offset=10)


def q_search_facets(sf_dir: str) -> pd.DataFrame:
    """Result-set faceting (Lucene facets module): docs matching ANY
    of the standard BM25 query terms, counted per source label
    (index/engine.py:search_facet_counts — one boolean sweep of the
    query terms' postings against a broadcast label dictionary;
    integer counts, no rounding schedule)."""
    import pyarrow.parquet as _pq

    ix = _index(sf_dir)
    full = _pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "source"]).to_pandas()
    labels = np.empty(ix.n_slots, dtype=object)
    labels[full["doc_id"].to_numpy(np.int64)] = \
        full["source"].to_numpy(object)
    res = ix.search_facet_counts(list(BM25_QUERY_TERMS), labels)
    return pd.DataFrame({
        "label": [v for v, _ in res],
        "n_docs": np.array([n for _, n in res], np.int64),
    })


_FACET_TLIST = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
SQL_SEARCH_FACETS = f"""
WITH toks AS ({TOKS}),
m AS (SELECT DISTINCT doc_id FROM toks WHERE term IN ({_FACET_TLIST}))
SELECT d.source AS label, count(*)::BIGINT AS n_docs
FROM m JOIN documents d USING (doc_id)
GROUP BY d.source ORDER BY n_docs DESC, label
"""

QUERIES.update({"search_page2": q_search_page2,
                "search_facets": q_search_facets})
ORACLES.update({"search_page2": SQL_SEARCH_PAGE2,
                "search_facets": SQL_SEARCH_FACETS})


# ---------------------------------------------------------------------
# bulk query scoring (actor-pool serving stage) — full oracle
# ---------------------------------------------------------------------

BULK_N_QUERIES = 20
BULK_K = 3


def q_bulk_queries(sf_dir: str) -> pd.DataFrame:
    """Offline bulk scoring: the 20 highest-cf vocabulary terms as a
    query-log dataset, streamed through an ACTOR POOL of frozen index
    replicas (index/serve.py:BulkScorer — the callable-class
    map_batches shape: BM25Index opened + warmed once per actor in
    __init__, batches scored in __call__; 10^8-query replay streams
    through concurrency×replicas with the artifacts read once per
    actor).  Top-3 per query in the TopArray order."""
    ix = _index(sf_dir)
    stats = q_term_stats(sf_dir)
    terms = (stats.sort_values(["cf", "term"], ascending=[False, True])
             .head(BULK_N_QUERIES)["term"].tolist())
    queries = ray.data.from_arrow(
        pa.table({"query": pa.array(terms, pa.string())}))
    from ..index.serve import bulk_search
    from ..ops.textstats import round_half_away

    df = (bulk_search(queries.repartition(4), ix.dir, k=BULK_K)
          .to_pandas())
    df["rank"] = df["rank"].astype("int64")
    df["doc_id"] = df["doc_id"].astype("int64")
    df["score"] = round_half_away(df["score"].to_numpy())
    return df.sort_values(["query", "rank"]).reset_index(drop=True)


SQL_BULK_QUERIES = f"""
WITH toks AS ({TOKS}),
corpus AS (SELECT count(*)::DOUBLE AS n FROM documents),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY doc_id),
avg_dl AS (SELECT sum(dl.dl) / corpus.n AS avgdl FROM dl, corpus GROUP BY corpus.n),
qsel AS (SELECT term FROM (
  SELECT term, count(*) AS cf FROM toks
  GROUP BY term ORDER BY cf DESC, term LIMIT {BULK_N_QUERIES})),
df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM toks
       WHERE term IN (SELECT term FROM qsel) GROUP BY term),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks
       WHERE term IN (SELECT term FROM qsel) GROUP BY doc_id, term),
scored AS (
  SELECT tf.term AS query, tf.doc_id,
    pow(ln(1 + (corpus.n - df.df + 0.5) / (df.df + 0.5)), {IDF_EXP}) *
    tf.tf * ({K1} + 1) /
    (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / avg_dl.avgdl)) AS score
  FROM tf
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN corpus CROSS JOIN avg_dl),
ranked AS (
  SELECT query, doc_id, score,
         row_number() OVER (PARTITION BY query
                            ORDER BY score DESC, doc_id) AS rn
  FROM scored)
SELECT query, rn::BIGINT AS rank, doc_id, round(score, 6) AS score
FROM ranked WHERE rn <= {BULK_K}
ORDER BY query, rank
"""

QUERIES.update({"bulk_queries": q_bulk_queries})
ORACLES.update({"bulk_queries": SQL_BULK_QUERIES})


# ---------------------------------------------------------------------
# wildcard term search — full oracle
# ---------------------------------------------------------------------

WILDCARD_PATTERN = "s?a*"      # scan, small, spark ...
_WILDCARD_LIKE = WILDCARD_PATTERN.replace("*", "%").replace("?", "_")


def q_wildcard(sf_dir: str) -> pd.DataFrame:
    """Lucene WildcardQuery analog: `*`/`?` whole-term pattern over
    the vocabulary (index/engine.py:wildcard_terms — compiled to an
    anchored RE2, one vectorized Arrow pass), then BM25-OR.  The
    pattern maps 1:1 onto SQL LIKE (`*`→`%`, `?`→`_`), giving the
    exact oracle."""
    from ..ops.textstats import round_half_away

    ix = _index(sf_dir)
    res = ix.search_wildcard(WILDCARD_PATTERN, 10)
    return pd.DataFrame({
        "doc_id": [d for d, _ in res],
        "score": round_half_away([s for _, s in res]),
    })


SQL_WILDCARD = _sql_bm25(
    (), 10,
    term_pred="term IN (SELECT term FROM wterms)",
    extra_cte=f"""
wterms AS (SELECT DISTINCT term FROM toks
           WHERE term LIKE '{_WILDCARD_LIKE}'),""")

QUERIES.update({"wildcard": q_wildcard})
ORACLES.update({"wildcard": SQL_WILDCARD})


# ---------------------------------------------------------------------
# triangle counts — full oracle
# ---------------------------------------------------------------------


def q_triangles(sf_dir: str) -> pd.DataFrame:
    """Per-node triangle participation over a deterministic
    triangle-rich irregular graph (ring i—i+1, half-chords i—i+2 for
    even i, quadratic map i—(i²+3)%N; per-node counts spread 1-4 at
    test scale, so the check discriminates)
    (ops/crawl.py:triangle_counts — canonical edge keys folded once
    and broadcast, wedge enumeration distributed over the node range,
    one vectorized searchsorted membership pass per batch; integer
    counts, no rounding schedule)."""
    from ..ops.crawl import triangle_counts

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    n = docs.count()

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        ev = ids[ids % 2 == 0]
        return pa.table({
            "src": pa.array(np.concatenate([ids, ev, ids])),
            "dst": pa.array(np.concatenate(
                [(ids + 1) % n, (ev + 2) % n, (ids * ids + 3) % n])),
        })

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    df = triangle_counts(edges, n).to_pandas()
    df["node"] = df["node"].astype("int64")
    df["triangles"] = df["triangles"].astype("int64")
    df["degree"] = df["degree"].astype("int64")
    return df.sort_values("node").reset_index(drop=True)


SQL_TRIANGLES = """
WITH raw AS (
  SELECT doc_id AS src, (doc_id + 1) % (SELECT count(*) FROM documents) AS dst FROM documents
  UNION ALL
  SELECT doc_id, (doc_id + 2) % (SELECT count(*) FROM documents) FROM documents WHERE doc_id % 2 = 0
  UNION ALL
  SELECT doc_id, (doc_id * doc_id + 3) % (SELECT count(*) FROM documents) FROM documents),
e0 AS (SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
       FROM raw WHERE src <> dst),
sym AS (SELECT a, b FROM e0 UNION ALL SELECT b, a FROM e0),
wed AS (SELECT s1.a AS v, s1.b AS u, s2.b AS w
        FROM sym s1 JOIN sym s2 ON s1.a = s2.a AND s1.b < s2.b),
tri AS (SELECT v, count(*) AS t
        FROM wed JOIN e0 e ON e.a = wed.u AND e.b = wed.w GROUP BY v),
deg AS (SELECT a AS v, count(*) AS d FROM sym GROUP BY a)
SELECT d.doc_id::BIGINT AS node, coalesce(t.t, 0)::BIGINT AS triangles,
       coalesce(g.d, 0)::BIGINT AS degree
FROM documents d LEFT JOIN tri t ON t.v = d.doc_id
LEFT JOIN deg g ON g.v = d.doc_id
ORDER BY node
"""

QUERIES.update({"triangles": q_triangles})
ORACLES.update({"triangles": SQL_TRIANGLES})


def q_clustering(sf_dir: str) -> pd.DataFrame:
    """Local clustering coefficient c(v) = 2·tri(v)/(d(v)·(d(v)−1))
    (Watts–Strogatz 1998) over the same triangle-rich graph — the
    per-page "spamminess of the neighborhood" scalar; both factors
    come from ONE triangle_counts pass (the degree rides the CSR for
    free)."""
    from ..ops.textstats import round_half_away

    df = q_triangles(sf_dir)
    d = df["degree"].to_numpy(np.float64)
    t = df["triangles"].to_numpy(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(d >= 2, 2.0 * t / (d * (d - 1.0)), 0.0)
    return pd.DataFrame({
        "node": df["node"],
        "coeff": round_half_away(c),
    })


SQL_CLUSTERING = SQL_TRIANGLES.replace(
    """SELECT d.doc_id::BIGINT AS node, coalesce(t.t, 0)::BIGINT AS triangles,
       coalesce(g.d, 0)::BIGINT AS degree
FROM documents d LEFT JOIN tri t ON t.v = d.doc_id
LEFT JOIN deg g ON g.v = d.doc_id
ORDER BY node""",
    """SELECT d.doc_id::BIGINT AS node,
       round(CASE WHEN coalesce(g.d, 0) >= 2
             THEN 2.0 * coalesce(t.t, 0) / (g.d * (g.d - 1.0))
             ELSE 0.0 END, 6) AS coeff
FROM documents d LEFT JOIN tri t ON t.v = d.doc_id
LEFT JOIN deg g ON g.v = d.doc_id
ORDER BY node""")
assert SQL_CLUSTERING != SQL_TRIANGLES

QUERIES.update({"clustering": q_clustering})
ORACLES.update({"clustering": SQL_CLUSTERING})


# ---------------------------------------------------------------------
# global graph stats — full oracle
# ---------------------------------------------------------------------


def q_graph_stats(sf_dir: str) -> pd.DataFrame:
    """Global panel of the ring+quadratic graph (i→i+1, i→(i²+3)%N):
    edge counts, distinct pairs, reciprocal pairs, and Newman (2002)
    degree assortativity (ops/crawl.py:graph_stats).  The parity
    trick: every Pearson term is an INTEGER sum of integer degrees —
    exact in any combination order across engines/partitions — so the
    only float op is the final division, rounded once; no
    round-before-aggregate schedule anywhere."""
    from ..ops.crawl import graph_stats

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    n = docs.count()
    edges = docs.map_batches(
        _mk_edges_fn(n, [lambda i: i + 1, lambda i: i * i + 3]),
        batch_format="pyarrow")
    df = graph_stats(edges, n).to_pandas()
    for c in ("n_edges", "n_distinct", "n_reciprocal"):
        df[c] = df[c].astype("int64")
    return df.reset_index(drop=True)


SQL_GRAPH_STATS = """
WITH e AS (
  SELECT doc_id AS src, (doc_id + 1) % (SELECT count(*) FROM documents) AS dst FROM documents
  UNION ALL
  SELECT doc_id, (doc_id * doc_id + 3) % (SELECT count(*) FROM documents) FROM documents),
deg AS (SELECT id, count(*)::BIGINT AS d FROM (
          SELECT src AS id FROM e UNION ALL SELECT dst FROM e)
        GROUP BY id),
dk AS (SELECT DISTINCT src, dst FROM e WHERE src <> dst),
sums AS (
  SELECT count(*)::BIGINT AS e_cnt,
         sum(ds.d)::BIGINT AS sx, sum(dd.d)::BIGINT AS sy,
         sum(ds.d * dd.d)::BIGINT AS sxy,
         sum(ds.d * ds.d)::BIGINT AS sxx,
         sum(dd.d * dd.d)::BIGINT AS syy
  FROM e JOIN deg ds ON ds.id = e.src JOIN deg dd ON dd.id = e.dst)
SELECT e_cnt AS n_edges,
       (SELECT count(*) FROM dk)::BIGINT AS n_distinct,
       (SELECT count(*) FROM dk a JOIN dk b
        ON a.src = b.dst AND a.dst = b.src)::BIGINT AS n_reciprocal,
       CASE WHEN (e_cnt * sxx - sx * sx)
                 * (e_cnt * syy - sy * sy) > 0
            THEN round((e_cnt * sxy - sx * sy)
                       / sqrt((e_cnt * sxx - sx * sx)::DOUBLE
                              * (e_cnt * syy - sy * sy)::DOUBLE), 6)
            ELSE 0.0 END AS assortativity
FROM sums
"""

QUERIES.update({"graph_stats": q_graph_stats})
ORACLES.update({"graph_stats": SQL_GRAPH_STATS})


# ---------------------------------------------------------------------
# robots compliance filter — full oracle
# ---------------------------------------------------------------------

# every third source domain disallows the /p/1* and /p/2* path families
ROBOTS_RULES = {f"src{j}.example.org": ["/p/1", "/p/2"]
                for j in range(0, 20, 3)}


def q_robots(sf_dir: str) -> pd.DataFrame:
    """Robots-exclusion gate over the synthetic messy URLs
    (ops/crawl.py:robots_filter — broadcast rule table, one RE2
    domain extract + one authority strip per batch with the SAME
    pattern strings as the oracle's regexp_extract/regexp_replace,
    one vectorized starts_with per rule).  Returns the ALLOWED rows;
    /p/1 also blocks /p/10..19 — robots prefix semantics, by
    design."""
    from ..ops.crawl import robots_filter

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"])
    pages = docs.map_batches(_synth_urls, batch_format="pyarrow")
    df = (robots_filter(pages, ROBOTS_RULES)
          .to_pandas()[["doc_id", "url"]])
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


def _sql_robots() -> str:
    from ..ops.crawl import P_AUTHORITY, P_DOMAIN_SQL

    vals = ", ".join(f"('{d}', '{p}')"
                     for d, ps in sorted(ROBOTS_RULES.items())
                     for p in ps)
    return f"""
WITH urls AS (SELECT doc_id, ({_URL_SYNTH_SQL}) AS url FROM documents),
rules AS (SELECT * FROM (VALUES {vals}) AS t(domain, pfx)),
x AS (SELECT doc_id, url,
             regexp_extract(url, '{P_DOMAIN_SQL}', 1) AS dom,
             regexp_replace(url, '{P_AUTHORITY}', '') AS path
      FROM urls)
SELECT doc_id, url FROM x
WHERE NOT EXISTS (SELECT 1 FROM rules r
                  WHERE r.domain = x.dom AND r.pfx <> ''
                    AND starts_with(x.path, r.pfx))
ORDER BY doc_id
"""


QUERIES.update({"robots": q_robots})
ORACLES.update({"robots": _sql_robots()})


# ---------------------------------------------------------------------
# k-core decomposition — full oracle
# ---------------------------------------------------------------------

CORE_SQL_LEVELS = 32  # ≥ h-index convergence rounds at every test sf
#                       (measured 25 at sf0.01, 23 at sf0.1 — the
#                       h-index iteration converges in ~O(core-depth ·
#                       propagation distance), slower than components);
#                       the operator is idempotent at the fixpoint, so
#                       extra CTE levels are exact no-ops


def q_coreness(sf_dir: str) -> pd.DataFrame:
    """k-core decomposition over an irregular graph (partial ring
    i%7≠0, sparse chords i%4==0, quadratic map i%3≠0 — true core
    numbers spread over {1,2,3} at sf0.01, so the check
    discriminates) via the iterated H-index operator (Lü 2016), run to the
    FIXPOINT (ops/crawl.py:coreness — canonical symmetric adjacency
    materialized once, one slim (node, neighbor-value) exchange +
    vectorized in-group Hirsch rank per round, O(n) driver fold;
    integer-exact, so the fixed-depth CTE oracle is exact with spare
    levels as no-ops)."""
    from ..ops.crawl import coreness

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    n = docs.count()

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        ring = ids[ids % 7 != 0]
        chord = ids[ids % 4 == 0]
        quad = ids[ids % 3 != 0]
        return pa.table({
            "src": pa.array(np.concatenate([ring, chord, quad])),
            "dst": pa.array(np.concatenate(
                [(ring + 1) % n, (chord + 2) % n,
                 (quad * quad + 3) % n])),
        })

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    # max_iter pinned to the oracle's CTE depth: a graph needing more
    # rounds RAISES (naming the constant) instead of silently
    # hash-mismatching against an under-iterated h32
    df = coreness(edges, n, max_iter=CORE_SQL_LEVELS).to_pandas()
    df["node"] = df["node"].astype("int64")
    df["coreness"] = df["coreness"].astype("int64")
    return df.sort_values("node").reset_index(drop=True)


def _sql_coreness() -> str:
    # every CTE is MATERIALIZED: the chain is single-reference, yet
    # DuckDB 1.0 still plans it with a ~2x-per-level inlining blowup
    # (measured: 8 levels 0.2 s, 16 levels 20 s, 20+ levels minutes;
    # materialized, 32 levels run in 0.2 s).  The HITS oracle's
    # reference-once discipline is NOT sufficient for window+join
    # chains this deep.
    head = """
WITH raw AS MATERIALIZED (
  SELECT doc_id AS src, (doc_id + 1) % (SELECT count(*) FROM documents) AS dst FROM documents WHERE doc_id % 7 <> 0
  UNION ALL
  SELECT doc_id, (doc_id + 2) % (SELECT count(*) FROM documents) FROM documents WHERE doc_id % 4 = 0
  UNION ALL
  SELECT doc_id, (doc_id * doc_id + 3) % (SELECT count(*) FROM documents) FROM documents WHERE doc_id % 3 <> 0),
e0 AS MATERIALIZED (SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
       FROM raw WHERE src <> dst),
sym AS MATERIALIZED (SELECT a, b FROM e0 UNION ALL SELECT b, a FROM e0),
h0 AS MATERIALIZED (SELECT d.doc_id AS id, coalesce(g.dg, 0) AS val
       FROM documents d LEFT JOIN (
         SELECT a, count(*) AS dg FROM sym GROUP BY a) g
       ON g.a = d.doc_id)"""
    its = []
    for k in range(1, CORE_SQL_LEVELS + 1):
        its.append(f""",
n{k} AS MATERIALIZED (SELECT s.a AS v, l.val,
                row_number() OVER (PARTITION BY s.a
                                   ORDER BY l.val DESC) AS rn
         FROM sym s JOIN h{k - 1} l ON l.id = s.b),
h{k} AS MATERIALIZED (SELECT d.doc_id AS id, coalesce(m.h, 0) AS val
         FROM documents d LEFT JOIN (
           SELECT v, max(CASE WHEN val >= rn THEN rn ELSE 0 END) AS h
           FROM n{k} GROUP BY v) m ON m.v = d.doc_id)""")
    return (head + "".join(its) + f"""
SELECT id::BIGINT AS node, val::BIGINT AS coreness
FROM h{CORE_SQL_LEVELS} ORDER BY node""")


QUERIES.update({"coreness": q_coreness})
ORACLES.update({"coreness": _sql_coreness()})


# ---------------------------------------------------------------------
# percolation (standing-query monitor) — full oracle
# ---------------------------------------------------------------------

PERCOLATE_QUERIES = {
    "scan_and_join": ["scan", "join"],
    "hash_only": ["hash"],
    "triple": ["vector", "window", "merge"],
}


def q_percolate(sf_dir: str) -> pd.DataFrame:
    """The inverse of search: standing conjunctive queries matched
    against the streaming documents (index/monitor.py:Percolator —
    registry compiled once per actor, registry-prefiltered token
    sets, one vectorized merge + groupby per batch; the crawl
    ALERTING shape — thousands of standing queries vs billions of
    streamed docs, zero shuffle)."""
    from ..index.monitor import percolate

    docs = _docs(sf_dir, ["doc_id", "text"])
    df = (percolate(docs, PERCOLATE_QUERIES).to_pandas())
    df["doc_id"] = df["doc_id"].astype("int64")
    return df.sort_values(["doc_id", "query"]).reset_index(drop=True)


def _sql_percolate() -> str:
    vals = ", ".join(f"('{q}', '{t}')"
                     for q, ts in sorted(PERCOLATE_QUERIES.items())
                     for t in sorted(set(ts)))
    return f"""
WITH toks AS (SELECT DISTINCT doc_id, term FROM ({TOKS})),
q(query, term) AS (SELECT * FROM (VALUES {vals})),
qn AS (SELECT query, count(*) AS n FROM q GROUP BY query),
m AS (SELECT t.doc_id, q.query, count(DISTINCT t.term) AS c
      FROM toks t JOIN q ON q.term = t.term
      GROUP BY t.doc_id, q.query)
SELECT m.doc_id, m.query
FROM m JOIN qn USING (query) WHERE m.c = qn.n
ORDER BY doc_id, query
"""


QUERIES.update({"percolate": q_percolate})
ORACLES.update({"percolate": _sql_percolate()})


# ---------------------------------------------------------------------
# spellcheck (did-you-mean) — full oracle
# ---------------------------------------------------------------------

SPELL_QUERY = "dat"   # 5 candidates at <=2 edits (data at 1)
SPELL_MAX_EDITS = 2
SPELL_K = 5


def q_spellcheck(sf_dir: str) -> pd.DataFrame:
    """Did-you-mean: vocabulary candidates within 2 edits of the
    misspelling, ranked by corpus evidence (cf desc, then distance
    asc, then term — Lucene DirectSpellChecker's frequency-first mode
    over the same banded-DP expansion as `fuzzy`)."""
    ix = _index(sf_dir)
    cands = ix.fuzzy_terms(SPELL_QUERY, max_edits=SPELL_MAX_EDITS)
    from ..index.engine import _lev_leq

    def dist(t: str) -> int:
        if t == SPELL_QUERY:
            return 0
        return 1 if _lev_leq(SPELL_QUERY, t, 1) else SPELL_MAX_EDITS

    rows = sorted(((t, int(ix.cf[t]), dist(t)) for t in cands),
                  key=lambda r: (-r[1], r[2], r[0]))[:SPELL_K]
    return pd.DataFrame({
        "term": [r[0] for r in rows],
        "cf": np.array([r[1] for r in rows], np.int64),
        "distance": np.array([r[2] for r in rows], np.int64),
    })


SQL_SPELLCHECK = f"""
WITH toks AS ({TOKS}),
stats AS (SELECT term, count(*)::BIGINT AS cf FROM toks GROUP BY term),
cand AS (SELECT term, cf,
                CASE WHEN term = '{SPELL_QUERY}' THEN 0
                     WHEN levenshtein(term, '{SPELL_QUERY}') <= 1
                     THEN 1 ELSE {SPELL_MAX_EDITS} END AS distance
         FROM stats
         WHERE levenshtein(term, '{SPELL_QUERY}') <= {SPELL_MAX_EDITS})
SELECT term, cf, distance::BIGINT AS distance
FROM cand ORDER BY cf DESC, distance, term LIMIT {SPELL_K}
"""

QUERIES.update({"spellcheck": q_spellcheck})
ORACLES.update({"spellcheck": SQL_SPELLCHECK})


# ---------------------------------------------------------------------
# HyperLogLog distinct sketch — full oracle
# ---------------------------------------------------------------------


def q_hll(sf_dir: str) -> pd.DataFrame:
    """Per-source HyperLogLog distinct-text estimate
    (ops/sketches.py:hll_distinct — p=10, 1024 registers, max-merged
    partials: associative/commutative/idempotent, so registers are
    bit-identical across engines and partitionings; rho comes from
    exact integer bit-compares, NOT floor(log2), in BOTH engines).
    The output exposes n_zero and the integer register sum alongside
    the estimate, so the oracle discriminates on register content."""
    from ..ops.sketches import hll_distinct

    ds = _docs(sf_dir, ["text", "source"])
    df = hll_distinct(ds, "text", "source").to_pandas()
    df["n_zero"] = df["n_zero"].astype("int64")
    df["sum_rho"] = df["sum_rho"].astype("int64")
    return df.sort_values("group").reset_index(drop=True)


def _sql_hll() -> str:
    from ..ops.sketches import HLL_P, HLL_Q

    m = 1 << HLL_P
    qmod = 1 << HLL_Q
    branches = "\n".join(
        f"   WHEN w >= {1 << (HLL_Q - k)} THEN {k}"
        for k in range(1, HLL_Q + 1))
    return f"""
WITH h AS (SELECT source AS g, md5_number_lower(text) AS hv
           FROM documents
           WHERE text IS NOT NULL AND source IS NOT NULL),
b AS (SELECT g, (hv % {m})::BIGINT AS bk,
             ((hv // {m}) % {qmod}) AS w FROM h),
rh AS (SELECT g, bk, CASE
{branches}
   ELSE {HLL_Q + 1} END AS rho FROM b),
regs AS (SELECT g, bk, max(rho) AS r FROM rh GROUP BY g, bk),
agg AS (SELECT g, count(*) AS present, sum(r)::BIGINT AS sum_rho,
               sum(pow(2.0, -r)) AS sp FROM regs GROUP BY g),
fin AS (SELECT g, {m} - present AS n_zero, sum_rho,
               (0.7213 / (1 + 1.079 / {m})) * {m} * {m}
                 / (sp + ({m} - present)) AS e_raw
        FROM agg)
SELECT g AS "group",
       round(CASE WHEN e_raw <= {2.5 * m} AND n_zero > 0
                  THEN {m} * ln({m}.0 / n_zero)
                  ELSE e_raw END, 6) AS est,
       n_zero::BIGINT AS n_zero, sum_rho
FROM fin ORDER BY "group"
"""


QUERIES.update({"hll": q_hll})
ORACLES.update({"hll": _sql_hll()})


# ---------------------------------------------------------------------
# Count-Min heavy hitters — full oracle
# ---------------------------------------------------------------------

CMS_PHI = 0.01


def q_cms_hh(sf_dir: str) -> pd.DataFrame:
    """Approximate heavy hitters by Count-Min sketch over the token
    stream (ops/sketches.py:cms_heavy_hitters — d×w sum-merged
    integer counters: exact under any combination order, so both
    engines hold bit-identical counters and the approximate operator
    is fully oracle-checkable; estimates only ever over-count, so the
    result is a guaranteed superset of the true φ-heavy set)."""
    from ..ops.sketches import cms_heavy_hitters

    docs = _docs(sf_dir, ["text"])

    def toks(batch: pa.Table) -> pa.Table:
        import re

        out = []
        for t in batch["text"].to_pylist():
            out.extend(re.findall(r"[a-z0-9]+", (t or "").lower()))
        return pa.table({"term": pa.array(out, pa.string())})

    stream = docs.map_batches(toks, batch_format="pyarrow")
    df = cms_heavy_hitters(stream, "term", phi=CMS_PHI).to_pandas()
    df["est"] = df["est"].astype("int64")
    return df.sort_values(["est", "key"],
                          ascending=[False, True]).reset_index(
        drop=True)


def _sql_cms_hh() -> str:
    from ..ops.sketches import CMS_D, CMS_W

    jvals = ", ".join(f"({j})" for j in range(CMS_D))
    return f"""
WITH toks AS ({TOKS}),
n AS (SELECT count(*)::DOUBLE AS c FROM toks),
js(j) AS (SELECT * FROM (VALUES {jvals})),
cms AS (SELECT js.j,
               (md5_number_lower(term || '#' || js.j::VARCHAR)
                % {CMS_W})::BIGINT AS col,
               count(*)::BIGINT AS cnt
        FROM toks CROSS JOIN js GROUP BY js.j, col),
cand AS (SELECT DISTINCT term FROM toks),
est AS (SELECT c.term, min(m.cnt) AS est
        FROM cand c CROSS JOIN js
        JOIN cms m ON m.j = js.j
         AND m.col = (md5_number_lower(c.term || '#' || js.j::VARCHAR)
                      % {CMS_W})::BIGINT
        GROUP BY c.term)
SELECT term AS key, est
FROM est, n WHERE est >= {CMS_PHI} * n.c
ORDER BY est DESC, key
"""


QUERIES.update({"cms_hh": q_cms_hh})
ORACLES.update({"cms_hh": _sql_cms_hh()})


# ---------------------------------------------------------------------
# filtered + conjunctive BM25 — full oracles
# ---------------------------------------------------------------------

FILTER_LANG = "en"


def q_bm25_filtered(sf_dir: str) -> pd.DataFrame:
    """filterQuery conjunction (Op.java yearQuery/typeQuery shape):
    BM25 over the standard query with a lang='en' doc mask — docs
    outside the filter never score, df/idf stay CORPUS-wide (Lucene
    filter semantics: the filter restricts candidates, it does not
    reweight — pinned identically in the oracle, which keeps the df
    CTE unfiltered)."""
    import pyarrow.parquet as _pq

    from ..ops.textstats import round_half_away
    from ..query.filters import type_mask

    ix = _index(sf_dir)
    full = _pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "lang"]).to_pandas()
    langs = np.empty(ix.n_slots, dtype=object)
    langs[full["doc_id"].to_numpy(np.int64)] = \
        full["lang"].to_numpy(object)
    mask = type_mask(langs, FILTER_LANG)
    res = ix.search_exact(list(BM25_QUERY_TERMS), 10,
                          filter_mask=mask)
    return pd.DataFrame({
        "doc_id": [d for d, _ in res],
        "score": round_half_away([s for _, s in res]),
    })


SQL_BM25_FILTERED = _sql_bm25(
    BM25_QUERY_TERMS, 10,
    final_where=("WHERE doc_id IN (SELECT doc_id FROM documents "
                 f"WHERE lang = '{FILTER_LANG}')"))


def q_bm25_and(sf_dir: str) -> pd.DataFrame:
    """Conjunctive BM25 (mode='and'): only docs containing EVERY
    query term score (BooleanQuery MUST semantics); scores are the
    same OR-mode sums, restricted."""
    from ..ops.textstats import round_half_away

    ix = _index(sf_dir)
    res = ix.search_exact(list(BM25_QUERY_TERMS), 10, mode="and")
    return pd.DataFrame({
        "doc_id": [d for d, _ in res],
        "score": round_half_away([s for _, s in res]),
    })


_AND_TLIST = ", ".join(f"'{t}'" for t in BM25_QUERY_TERMS)
SQL_BM25_AND = _sql_bm25(
    BM25_QUERY_TERMS, 10,
    final_where=f"""WHERE doc_id IN (
  SELECT doc_id FROM (
    SELECT doc_id, count(DISTINCT term) AS nt
    FROM (SELECT doc_id,
                 unnest(list_filter(regexp_split_to_array(lower(text),
                        '[^a-z0-9]+'), x -> x <> '')) AS term
          FROM documents)
    WHERE term IN ({_AND_TLIST}) GROUP BY doc_id)
  WHERE nt = {len(BM25_QUERY_TERMS)})""")

QUERIES.update({"bm25_filtered": q_bm25_filtered,
                "bm25_and": q_bm25_and})
ORACLES.update({"bm25_filtered": SQL_BM25_FILTERED,
                "bm25_and": SQL_BM25_AND})
