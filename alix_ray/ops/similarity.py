"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (``ray.put`` once, read per actor/batch).
Scale path: LSH-bucketed variant (random hyperplane signs partition the
corpus; only matching buckets are scanned — recall/eff trade-off
documented per bucket count).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data


def _normalize(M: np.ndarray) -> np.ndarray:
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Exact cosine top-k per query row.

    Per-batch partial top-k (matmul + argpartition) → tiny driver-side
    merge of (num_batches × k) candidates.  Returns a pandas DataFrame
    (query_id, vec_id, score) ordered by score desc, vec_id asc.
    """
    Q = _normalize(np.asarray(queries, np.float64))
    qref = ray.put(Q)

    def partial(batch: pa.Table) -> pa.Table:
        Qm = ray.get(qref)
        ids = np.asarray(batch[id_col].to_pylist(), np.int64)
        V = _normalize(np.array(batch[vec_col].to_pylist(), np.float64))
        S = Qm @ V.T  # (nq, nb)
        kk = min(k, S.shape[1])
        out_q, out_id, out_s = [], [], []
        for qi in range(S.shape[0]):
            # tie-safe partial cutoff: keep EVERY candidate scoring >=
            # the kth value, so an exact-score tie at the boundary can't
            # drop a smaller-id vector before the global merge (the
            # merge breaks ties by vec_id asc, matching the SQL oracle)
            part = np.argpartition(-S[qi], kk - 1)[:kk]
            theta = S[qi, part].min()
            idx = np.nonzero(S[qi] >= theta)[0]
            out_q.extend([qi] * len(idx))
            out_id.extend(ids[idx].tolist())
            out_s.extend(S[qi, idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                id_col: pa.array(out_id, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )

    cand = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(
        ["query_id", "score", id_col], ascending=[True, False, True]
    )
    return cand.groupby("query_id", as_index=False).head(k).reset_index(drop=True)


class IvfIndexedSearch:
    """IVF-flat approximate cosine top-k: a seeded k-means coarse
    quantizer partitions the corpus; queries scan only the ``n_probe``
    nearest partitions.

    The centroid fit runs on a driver-side sample (seeded, deterministic);
    assignment is a vectorized ``map_batches``; the bucketed corpus can
    be written as partitioned Parquet so a query touches only its probed
    partitions' files — the disk-resident scale path.
    """

    def __init__(self, n_lists: int = 16, seed: int = 42, iters: int = 10):
        self.n_lists = n_lists
        self.seed = seed
        self.iters = iters
        self.centroids: np.ndarray | None = None

    def fit(self, sample: np.ndarray):
        """Seeded Lloyd iterations on (normalized) sample vectors."""
        X = _normalize(np.asarray(sample, np.float64))
        rng = np.random.default_rng(self.seed)
        k = min(self.n_lists, len(X))
        C = X[rng.choice(len(X), k, replace=False)]
        for _ in range(self.iters):
            assign = np.argmax(X @ C.T, axis=1)
            for j in range(k):
                m = assign == j
                if m.any():
                    v = X[m].mean(axis=0)
                    n = np.linalg.norm(v)
                    if n > 1e-12:
                        C[j] = v / n
        self.centroids = C
        return self

    def add_buckets(self, ds: ray.data.Dataset, vec_col="embedding"):
        C = self.centroids

        def tag(batch: pa.Table) -> pa.Table:
            V = _normalize(np.array(batch[vec_col].to_pylist(), np.float64))
            lists = np.argmax(V @ C.T, axis=1)
            return batch.append_column("ivf_list", pa.array(lists.astype(np.int64)))

        return ds.map_batches(tag, batch_format="pyarrow")

    def search(self, bucketed: ray.data.Dataset, queries: np.ndarray,
               k: int = 10, n_probe: int = 4, vec_col="embedding",
               id_col="vec_id"):
        Q = _normalize(np.asarray(queries, np.float64))
        sims = Q @ self.centroids.T
        probe = set()
        for row in sims:
            probe.update(np.argsort(-row)[:n_probe].tolist())
        probe_list = sorted(int(p) for p in probe)
        sub = bucketed.filter(expr=f"ivf_list in {probe_list}")
        return brute_force_topk(sub, Q, k, vec_col=vec_col, id_col=id_col)


class LshIndexedSearch:
    """Random-hyperplane LSH bucketing for approximate cosine top-k.

    ``n_planes`` sign bits → bucket id; queries probe their own bucket
    plus ``n_probe``-bit-flip neighbors.  Bucketing is a plain Ray Data
    groupby — the bucketed corpus can be written as partitioned Parquet
    and only matching partitions scanned at query time.
    """

    def __init__(self, dim: int, n_planes: int = 8, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_planes, dim))
        self.n_planes = n_planes

    def bucket_of(self, M: np.ndarray) -> np.ndarray:
        signs = (M @ self.planes.T) > 0
        return (signs.astype(np.int64) << np.arange(self.n_planes)).sum(axis=1)

    def add_buckets(self, ds: ray.data.Dataset, vec_col="embedding"):
        def tag(batch: pa.Table) -> pa.Table:
            V = np.array(batch[vec_col].to_pylist(), np.float64)
            return batch.append_column(
                "bucket", pa.array(self.bucket_of(V), pa.int64())
            )

        return ds.map_batches(tag, batch_format="pyarrow")

    def search(self, bucketed: ray.data.Dataset, queries: np.ndarray,
               k: int = 10, n_probe: int = 1, vec_col="embedding",
               id_col="vec_id"):
        """Scan only buckets within n_probe bit flips of each query."""
        Q = _normalize(np.asarray(queries, np.float64))
        qb = self.bucket_of(Q)
        probe: set[int] = set()
        for b in qb.tolist():
            probe.add(b)
            if n_probe >= 1:
                for i in range(self.n_planes):
                    probe.add(b ^ (1 << i))
        probe_list = sorted(probe)
        sub = bucketed.filter(
            expr=f"bucket in {probe_list}"
        )
        return brute_force_topk(sub, Q, k, vec_col=vec_col, id_col=id_col)


# ---------------------------------------------------------------------
# sparse all-pairs tf-idf cosine (the DISCO / prefix-filter shape)
# ---------------------------------------------------------------------


def tfidf_cosine_pairs(ds: ray.data.Dataset, threshold: float = 0.5,
                       df_cap: int = 100, text_col: str = "text",
                       id_col: str = "doc_id",
                       _prefilter: bool = True) -> ray.data.Dataset:
    """All document pairs with tf-idf cosine ≥ ``threshold`` — sparse
    lexical near-dup/similarity over DISTINCTIVE vocabulary (terms with
    df ≤ ``df_cap``; dropping ubiquitous terms is the classic
    DISCO/prefix-filter pruning, and it is also what bounds the
    quadratic per-term pair fan-out to df_cap²/2).

    Weights: ``ln(1+tf) · ln((N+1)/(df+1))``, L2-normalized per doc;
    cosine = Σ over shared terms of the normalized weight products.

    Fully distributed; the hot-term prune runs BEFORE any heavy
    shuffle (the DISCO prefix-filter order):

    0. combine-before-shuffle partial df counts (per-batch term
       groupby → slim (term, c) rows, the ``term_stats`` shape), a
       vocab-sized global sum, and a broadcast of the small df>cap
       hot-term set — Zipf-head stop terms are filtered MAP-SIDE, so
       no downstream group ever receives a stop term's ~corpus-sized
       row set (``idf_join`` enforces this with a hard assert);
    1. term exchange over survivors: df per term (all of a term's
       rows share a partition, so the local count IS the global df),
       idf attach;
    2. doc exchange: per-doc L2 norm, normalize;
    3. term exchange: per-term pairwise partial products
       (vectorized self-merge);
    4. doc_a exchange: sum partials per pair, threshold.

    Every shuffled row is (ids, term, one float) — token payloads never
    move; text leaves a worker only as per-(doc,term) counts.  The
    term routing key (tpk) is :func:`md5_lower64` of the term."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..analysis import SimpleAnalyzer
    from ._util import broadcast_cached
    from .dedup import md5_lower64
    from .exchange import exchange

    n_docs = float(ds.count())

    def tf_rows(batch: pa.Table) -> pa.Table:
        lists = SimpleAnalyzer.tokens_arrays(batch[text_col])
        lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        t = pa.table({
            "doc_id": pa.array(np.repeat(ids, lengths), pa.int64()),
            "term": lists.flatten(),
        })
        g = t.group_by(["doc_id", "term"]).aggregate([("term", "count")])
        terms = g["term"].to_pylist()
        return pa.table({
            "doc_id": g["doc_id"],
            "term": g["term"],
            "tf": pc.cast(g["term_count"], pa.float64()),
            "tpk": pa.array(md5_lower64(terms)),
        })

    # the slim (doc,term,tf) counts table is read twice (stage-0 df
    # pass + the main pipeline); materialize it once so tokenization
    # runs once — it is a fraction of corpus size (counts, no text)
    # and the object store spills it rather than holding it in heap
    tf = ds.map_batches(tf_rows, batch_format="pyarrow").materialize()

    # stage 0 — df discovery WITHOUT moving the (doc,term) table:
    # per-batch partial counts (slim, ≤ batch-distinct-terms rows),
    # one vocab-sized sum, then only the df>cap Zipf head (small by
    # Zipf's law) comes back to the driver for broadcast.
    def df_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("term").aggregate([("doc_id", "count")])
        return pa.table({"term": g["term"],
                         "c": pc.cast(g["doc_id_count"], pa.int64())})

    def only_hot(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater(batch["sum(c)"], int(df_cap))).select(["term"])

    hot_rows = [] if not _prefilter else (
        tf.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term").sum("c")
        .map_batches(only_hot, batch_format="pyarrow").take_all())
    hot_ref = None
    if hot_rows:
        hot_ref = ray.put(pa.array(sorted(r["term"] for r in hot_rows),
                                   pa.string()))

        def drop_hot(batch: pa.Table) -> pa.Table:
            hot = broadcast_cached(hot_ref)
            return batch.filter(pc.invert(pc.is_in(batch["term"],
                                                   value_set=hot)))

        tf = tf.map_batches(drop_hot, batch_format="pyarrow")

    def idf_join(g: pd.DataFrame) -> pd.DataFrame:
        # the partition holds EVERY row of each of its (surviving)
        # terms → the per-term row count IS the global df
        df = g.groupby("term")["doc_id"].transform("size")
        if len(df) and int(df.max()) > df_cap:
            # stop terms were removed map-side in stage 0; a group
            # seeing more than df_cap rows of one term means the
            # prefix-filter prune failed — fail loudly, don't OOM
            raise AssertionError(
                f"term with df={int(df.max())} > df_cap={df_cap} "
                "reached a tpk group; stage-0 hot-term prune broken")
        g = g[df <= df_cap].copy()
        dfk = df[df <= df_cap]
        g["w"] = np.log1p(g["tf"].to_numpy()) * np.log(
            (n_docs + 1.0) / (dfk.to_numpy() + 1.0))
        return g[["doc_id", "term", "w", "tpk"]]

    w = exchange(tf, idf_join, "tpk")

    def normalize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["w2"] = g["w"].to_numpy() ** 2
        nn = np.sqrt(g.groupby("doc_id")["w2"].transform("sum").to_numpy())
        g["w"] = g["w"].to_numpy() / nn
        return g[["doc_id", "term", "w", "tpk"]]

    wn = exchange(w, normalize, "doc_id")

    def pair_partials(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="term")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if m.empty:
            return pd.DataFrame({
                "doc_a": pd.Series(dtype="int64"),
                "doc_b": pd.Series(dtype="int64"),
                "p": pd.Series(dtype="float64"),
            })
        return pd.DataFrame({
            "doc_a": m["doc_id_x"].to_numpy(),
            "doc_b": m["doc_id_y"].to_numpy(),
            "p": m["w_x"].to_numpy() * m["w_y"].to_numpy(),
        })

    parts = exchange(wn, pair_partials, "tpk")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["doc_a", "doc_b"])["p"].sum().reset_index()
        s = s[s["p"] >= threshold]
        return pd.DataFrame({
            "doc_a": s["doc_a"].astype("int64"),
            "doc_b": s["doc_b"].astype("int64"),
            "cosine": s["p"].astype("float64"),
        })

    return exchange(parts, fold, "doc_a")


# ---------------------------------------------------------------------
# product quantization (PQ) — compressed ANN, the memory-at-1e12 path
# ---------------------------------------------------------------------


class PqCodec:
    """Product quantizer (Jégou et al. 2011): the vector is split into
    ``m`` subspaces with ``k_sub`` seeded-Lloyd centroids each; a
    vector compresses to m uint8 codes (64-dim float32 256 B → 8 B at
    m=8), which is what lets a 10^12-corpus ANN index live in worker
    memory.  Training runs on a small driver-side sample; everything
    downstream is deterministic, so the distributed search is
    bit-identical to a single-process replay (asserted in q_ann_pq)."""

    def __init__(self, m: int = 8, k_sub: int = 16, seed: int = 42,
                 iters: int = 10):
        self.m, self.k_sub, self.seed, self.iters = m, k_sub, seed, iters
        self.cent: np.ndarray | None = None  # (m, k_sub, d/m)

    def fit(self, sample: np.ndarray) -> "PqCodec":
        X = np.asarray(sample, np.float64)
        n, d = X.shape
        if d % self.m:
            raise ValueError(f"dim {d} not divisible by m={self.m}")
        if n < self.k_sub:
            raise ValueError(f"sample {n} < k_sub={self.k_sub}")
        sub = d // self.m
        rng = np.random.default_rng(self.seed)
        self.cent = np.empty((self.m, self.k_sub, sub))
        for s in range(self.m):
            Xs = X[:, s * sub:(s + 1) * sub]
            C = Xs[rng.choice(n, self.k_sub, replace=False)].copy()
            for _ in range(self.iters):
                d2 = ((Xs[:, None, :] - C[None, :, :]) ** 2).sum(-1)
                a = d2.argmin(1)
                for j in range(self.k_sub):
                    if (a == j).any():
                        C[j] = Xs[a == j].mean(0)
            self.cent[s] = C
        return self

    def encode(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M, np.float64)
        sub = self.cent.shape[2]
        codes = np.empty((len(M), self.m), np.uint8)
        for s in range(self.m):
            Xs = M[:, s * sub:(s + 1) * sub]
            d2 = ((Xs[:, None, :] - self.cent[s][None, :, :]) ** 2).sum(-1)
            codes[:, s] = d2.argmin(1)
        return codes

    def adc_table(self, Q: np.ndarray) -> np.ndarray:
        """(nq, m, k_sub) squared-L2 sub-distances — ADC lookup."""
        Q = np.asarray(Q, np.float64)
        sub = self.cent.shape[2]
        T = np.empty((len(Q), self.m, self.k_sub))
        for s in range(self.m):
            Qs = Q[:, s * sub:(s + 1) * sub]
            T[:, s, :] = ((Qs[:, None, :]
                           - self.cent[s][None, :, :]) ** 2).sum(-1)
        return T


def pq_topk(ds: ray.data.Dataset, queries: np.ndarray, k: int = 10,
            m: int = 8, k_sub: int = 16, train_n: int = 2048,
            vec_col: str = "embedding", id_col: str = "vec_id"):
    """Approximate cosine top-k via PQ + asymmetric distance (ADC):
    per batch, encode the (normalized) vectors to m codes and sum the
    broadcast per-query lookup tables — no full-precision corpus read
    at query time in a real deployment (codes are 32× smaller).
    Tie-safe partial top-k per batch (keep everything ≤ the kth
    distance), driver merge by (dist asc, id asc) — so results are
    independent of partitioning.  Returns (query_id, vec_id, dist)."""
    from ._util import broadcast_cached, smallest_id_rows

    Q = _normalize(np.asarray(queries, np.float64))
    codec = PqCodec(m=m, k_sub=k_sub).fit(
        _normalize(smallest_id_rows(ds, train_n, id_col, vec_col)))
    T = codec.adc_table(Q)
    ref = ray.put((codec.cent, T))

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:  # empty block (filter/over-partition)
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "dist": pa.array([], pa.float64())})
        cent, Tw = broadcast_cached(ref)
        c = PqCodec(m=cent.shape[0], k_sub=cent.shape[1])
        c.cent = cent
        ids = np.asarray(batch[id_col].to_pylist(), np.int64)
        V = _normalize(np.array(batch[vec_col].to_pylist(), np.float64))
        codes = c.encode(V)
        D = np.zeros((len(Tw), len(V)))
        for s in range(codes.shape[1]):
            D += Tw[:, s, codes[:, s]]
        kk = min(k, D.shape[1])
        out_q, out_id, out_d = [], [], []
        for qi in range(D.shape[0]):
            part = np.argpartition(D[qi], kk - 1)[:kk]
            theta = D[qi, part].max()
            idx = np.nonzero(D[qi] <= theta)[0]
            out_q.extend([qi] * len(idx))
            out_id.extend(ids[idx].tolist())
            out_d.extend(D[qi, idx].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            id_col: pa.array(out_id, pa.int64()),
            "dist": pa.array(out_d, pa.float64()),
        })

    cand = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(["query_id", "dist", id_col],
                            ascending=[True, True, True])
    return cand.groupby("query_id", as_index=False).head(k) \
        .reset_index(drop=True)
