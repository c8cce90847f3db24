"""Unit tests: kmeans_assign, semdedup_prune, blocklist_filter,
cluster_representatives."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _emb_ds(ray, E, labels=None):
    import ray.data

    n = len(E)
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in E],
                              pa.list_(pa.float32())),
        "label": pa.array(
            (labels if labels is not None else np.zeros(n)).astype(np.int32)),
    })
    return ray.data.from_arrow(t).repartition(3)


def _kmeans_mirror(E, k, iters):
    E = E.astype(np.float64)
    C = E[:k].copy()
    for _ in range(iters):
        d2 = ((E[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        a = d2.argmin(1)
        for j in range(k):
            if (a == j).any():
                C[j] = E[a == j].mean(0)
    d2 = ((E[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    return d2.argmin(1), np.sqrt(d2.min(1))


@pytest.mark.parametrize("iters", [1, 2])
def test_kmeans_matches_numpy(ray_session, iters):
    from alix_ray.ops.semdedup import kmeans_assign

    rng = np.random.default_rng(7)
    E = rng.normal(size=(60, 8)).astype(np.float32)
    df = kmeans_assign(_emb_ds(ray_session, E), k=3, iters=iters) \
        .to_pandas().sort_values("vec_id")
    a, d = _kmeans_mirror(E, 3, iters)
    assert (df["cluster"].to_numpy() == a).all()
    assert np.allclose(df["dist"].to_numpy(), d)


def test_kmeans_empty_cluster_keeps_seed(ray_session):
    # two identical seed vectors: the tie goes to cluster 0, cluster 1
    # empties at the update and must keep its seed centroid
    from alix_ray.ops.semdedup import kmeans_assign

    E = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 0.0], [4.1, 0.0]],
                 np.float32)
    df = kmeans_assign(_emb_ds(ray_session, E), k=2, iters=1) \
        .to_pandas().sort_values("vec_id")
    # all rows tie/fall to cluster 0 at the update, cluster 1 empties
    # and keeps its seed (0,0) — so rows 0/1 land on cluster 1 finally
    assert list(df["cluster"]) == [1, 1, 0, 0]
    a, d = _kmeans_mirror_keep_empty(E, 2)
    assert (df["cluster"].to_numpy() == a).all()
    assert np.allclose(df["dist"].to_numpy(), d)


def _kmeans_mirror_keep_empty(E, k):
    E = E.astype(np.float64)
    C = E[:k].copy()
    d2 = ((E[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    a = d2.argmin(1)
    for j in range(k):
        if (a == j).any():
            C[j] = E[a == j].mean(0)
    d2 = ((E[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    return d2.argmin(1), np.sqrt(d2.min(1))


def test_semdedup_pairwise_rule(ray_session):
    from alix_ray.ops.semdedup import semdedup_prune

    v = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    # cluster 0: rows 0,1 identical (drop 1), row 2 orthogonal (keep)
    # cluster 1: row 3 identical to row 0 but OTHER cluster → kept
    E = np.stack([v, v, w, v]).astype(np.float32)
    labels = np.array([0, 0, 0, 1])
    df = semdedup_prune(_emb_ds(ray_session, E, labels), tau=0.9) \
        .to_pandas().sort_values("vec_id")
    assert list(df["kept"]) == [True, False, True, True]
    assert list(df["cluster"]) == [0, 0, 0, 1]


def test_semdedup_blocked_equals_unblocked(ray_session):
    from alix_ray.ops.semdedup import semdedup_prune

    rng = np.random.default_rng(3)
    E = rng.normal(size=(50, 4)).astype(np.float32)
    labels = (np.arange(50) % 2).astype(np.int64)
    a = semdedup_prune(_emb_ds(ray_session, E, labels), tau=0.5, block=4) \
        .to_pandas().sort_values("vec_id")
    b = semdedup_prune(_emb_ds(ray_session, E, labels), tau=0.5, block=512) \
        .to_pandas().sort_values("vec_id")
    assert list(a["kept"]) == list(b["kept"])


def test_semdedup_max_group_guard(ray_session):
    from alix_ray.ops.semdedup import semdedup_prune

    E = np.zeros((5, 2), np.float32)
    with pytest.raises(Exception, match="max_group"):
        semdedup_prune(_emb_ds(ray_session, E), tau=0.5,
                       max_group=3).to_pandas()


def test_blocklist_word_boundaries(ray_session):
    import ray.data

    from alix_ray.ops.cleaning import blocklist_filter

    ds = ray.data.from_items([
        {"doc_id": 0, "text": "a dup here and dup there"},
        {"doc_id": 1, "text": "dupx is not a match"},
        {"doc_id": 2, "text": "Big Data is flagged case-insensitively"},
        {"doc_id": 3, "text": None},
    ])
    df = blocklist_filter(ds, ("dup", "big data")).to_pandas() \
        .sort_values("doc_id")
    assert list(df["n_bad"]) == [2, 0, 1, 0]
    assert list(df["kept"]) == [False, True, False, True]


@pytest.mark.parametrize("broadcast_max", [5_000_000, 0])
def test_cluster_representatives(ray_session, monkeypatch, broadcast_max):
    import ray.data

    from alix_ray.ops import dedup
    from alix_ray.ops.dedup import cluster_representatives

    monkeypatch.setattr(dedup, "CLUSTER_REPS_BROADCAST_MAX", broadcast_max)

    labels = ray.data.from_items([
        {"doc_id": 1, "cluster_id": 1}, {"doc_id": 2, "cluster_id": 1},
        {"doc_id": 5, "cluster_id": 1},
        {"doc_id": 7, "cluster_id": 7}, {"doc_id": 9, "cluster_id": 7},
    ])
    docs = ray.data.from_items([
        {"doc_id": i, "n_chars": c}
        for i, c in [(1, 10), (2, 99), (3, 1), (5, 99), (7, 4), (9, 4)]
    ])
    df = cluster_representatives(labels, docs) \
        .to_pandas().sort_values("cluster_id")
    # cluster 1: 2 and 5 tie at 99 chars → lowest id 2; cluster 7: tie → 7
    assert list(df["cluster_id"]) == [1, 7]
    assert list(df["rep_doc_id"]) == [2, 7]
    assert list(df["n_docs"]) == [3, 2]


def test_tfidf_cosine_pairs(ray_session):
    import ray.data

    from alix_ray.ops.similarity import tfidf_cosine_pairs

    docs = [
        {"doc_id": 0, "text": "apple banana cherry"},
        {"doc_id": 1, "text": "apple banana cherry"},      # exact dup of 0
        {"doc_id": 2, "text": "apple banana melon"},       # partial overlap
        {"doc_id": 3, "text": "xylo zulu"},                # disjoint
    ]
    ds = ray.data.from_items(docs).repartition(2)
    df = tfidf_cosine_pairs(ds, threshold=0.2, df_cap=100) \
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    # numpy mirror of the exact formula
    import numpy as np
    from collections import Counter
    toks = [d["text"].split() for d in docs]
    vocab = sorted({t for ts in toks for t in ts})
    dfs = {v: sum(v in set(ts) for ts in toks) for v in vocab}
    n = float(len(docs))
    W = np.zeros((len(docs), len(vocab)))
    for i, ts in enumerate(toks):
        for t, c in Counter(ts).items():
            W[i, vocab.index(t)] = np.log1p(c) * np.log((n + 1) / (dfs[t] + 1))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    S = W @ W.T
    want = sorted((a, b, S[a, b]) for a in range(4) for b in range(a + 1, 4)
                  if S[a, b] >= 0.2)
    got = list(zip(df["doc_a"], df["doc_b"], df["cosine"]))
    assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
    assert np.allclose([c for *_, c in got], [c for *_, c in want])
    # the exact dup pair scores 1.0
    assert any(a == 0 and b == 1 and abs(c - 1.0) < 1e-9 for a, b, c in got)


def test_tfidf_df_cap_prunes_hot_terms(ray_session):
    import ray.data

    from alix_ray.ops.similarity import tfidf_cosine_pairs

    # "the" appears in all 3 docs; with df_cap=2 it cannot create pairs
    docs = [
        {"doc_id": 0, "text": "the unique0"},
        {"doc_id": 1, "text": "the unique1"},
        {"doc_id": 2, "text": "the unique2"},
    ]
    ds = ray.data.from_items(docs)
    df = tfidf_cosine_pairs(ds, threshold=0.0, df_cap=2).to_pandas()
    assert len(df) == 0


def test_tfidf_stop_term_never_reaches_a_group(ray_session):
    """r3-verdict directive 1: a term with df == n_docs (a Zipf-head
    stop term) must be pruned MAP-SIDE by the stage-0 broadcast
    blocklist — ``idf_join`` hard-asserts that no tpk group ever sees
    more than df_cap rows of one term, so (a) the pipeline completing
    IS the bounded-group-size assertion, and (b) with the prefilter
    disabled the same corpus must trip that assert."""
    import ray.data

    from alix_ray.ops.similarity import tfidf_cosine_pairs

    n = 30
    docs = [{"doc_id": i, "text": f"the shared{i % 2} unique{i}"}
            for i in range(n)]  # "the": df=30; "shared0/1": df=15
    ds = ray.data.from_items(docs).repartition(4)

    out = tfidf_cosine_pairs(ds, threshold=0.05, df_cap=20).to_pandas()
    # "the" (df=30 > 20) contributes nothing; "shared{0,1}" (df=15)
    # pair up docs of equal parity only
    assert len(out) > 0
    for a, b in zip(out["doc_a"], out["doc_b"]):
        assert a % 2 == b % 2

    # same corpus, prefilter off → the stop term's full row set lands
    # in one group and the guard must fail loudly (not OOM silently)
    with pytest.raises(Exception, match="df_cap"):
        tfidf_cosine_pairs(ds, threshold=0.05, df_cap=20,
                           _prefilter=False).to_pandas()


def test_kmeans_assign_tiled_bit_identical_under_memory_bound(monkeypatch):
    """r3-verdict directive 2: k=1024, dim=256, batch=2048 with the
    distance intermediate capped at 64 MB (tile = 16 centroids →
    2048·16·256·8 B = 64 MB; the untiled kernel would need 4.3 GB).
    The tiled result must be BIT-identical to a row-chunked untiled
    reference (same per-pair summation order, first-min tie rule)."""
    from alix_ray.ops import semdedup

    k, dim, batch = 1024, 256, 2048
    bound = 64 * 2**20
    monkeypatch.setattr(semdedup, "_ASSIGN_TILE_BYTES", bound)
    tile = max(1, min(k, bound // (batch * dim * 8)))
    assert batch * tile * dim * 8 <= bound  # the stated memory bound

    rng = np.random.default_rng(3)
    E = rng.normal(size=(batch, dim))
    C = rng.normal(size=(k, dim))
    # duplicate some centroids and plant exact-copy rows so the
    # first-min tie rule is exercised across tile boundaries
    C[500] = C[7]
    C[1023] = C[0]
    E[:5] = C[7]   # dist 0 to both 7 and 500 → must pick 7
    E[5:10] = C[0]  # dist 0 to both 0 and 1023 → must pick 0

    a, d = semdedup._assign(E, C)

    # row-chunked untiled reference: identical per-pair arithmetic,
    # global argmin per row — small chunks keep the reference in RAM
    for r0 in range(0, batch, 128):
        Er = E[r0:r0 + 128]
        d2 = ((Er[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        ar = d2.argmin(1)
        assert (a[r0:r0 + 128] == ar).all()
        assert (d[r0:r0 + 128] == np.sqrt(
            d2[np.arange(len(Er)), ar])).all()
    assert (a[:5] == 7).all() and (a[5:10] == 0).all()  # ties → low id
    assert (a == 500).sum() == 0 and (a == 1023).sum() == 0


def test_kmeans_reduce_is_k_dim_bounded(ray_session):
    """r4-verdict directive 1: with FORCED multi-batch input (12 blocks
    over 60 rows) the driver-side reduce frame of every iteration must
    hold at most k·dim rows — the distributed groupby pre-reduce, not
    the driver, folds the per-batch partials.  Results must still match
    the single-process mirror."""
    import ray.data

    from alix_ray.ops import semdedup

    rng = np.random.default_rng(13)
    k, dim, n = 5, 8, 60
    E = rng.normal(size=(n, dim)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in E],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(t).repartition(12)
    df = semdedup.kmeans_assign(ds, k=k, iters=2) \
        .to_pandas().sort_values("vec_id")
    assert 0 < semdedup._LAST_REDUCE_ROWS <= k * dim
    a, d = _kmeans_mirror(E, k, 2)
    assert (df["cluster"].to_numpy() == a).all()
    assert np.allclose(df["dist"].to_numpy(), d)


def test_smallest_id_rows_driver_bounded(ray_session, monkeypatch):
    """r4-verdict directive 2: the driver receives EXACTLY n rows from
    the seed/training-sample selection, never the O(n_batches·n)
    candidate pool — the distributed sort+limit reduces first."""
    import ray.data

    from alix_ray.ops._util import smallest_id_rows

    rng = np.random.default_rng(5)
    n_rows, dim, n = 200, 4, 7
    ids = rng.permutation(n_rows).astype(np.int64)
    E = rng.normal(size=(n_rows, dim))
    t = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([list(map(float, r)) for r in E],
                              pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(t).repartition(16)

    seen = []
    orig = ray.data.Dataset.take_all

    def counting_take_all(self, *a, **kw):
        rows = orig(self, *a, **kw)
        seen.append(len(rows))
        return rows

    monkeypatch.setattr(ray.data.Dataset, "take_all", counting_take_all)
    M = smallest_id_rows(ds, n, "vec_id", "embedding")
    assert seen == [n]  # one driver pull, exactly n rows
    want = E[np.argsort(ids)[:n]]
    assert np.array_equal(M, want)


def test_pq_topk_partition_independent(ray_session):
    import ray.data

    from alix_ray.ops.similarity import pq_topk

    rng = np.random.default_rng(11)
    E = rng.normal(size=(120, 16)).astype(np.float32)
    Q = E[:3].astype(np.float64)

    def run(parts):
        ds = _emb_ds(ray_session, E).repartition(parts)
        return pq_topk(ds, Q, k=5, m=4, k_sub=8, train_n=64) \
            .reset_index(drop=True)

    a, b = run(2), run(7)
    assert a["vec_id"].tolist() == b["vec_id"].tolist()
    assert np.allclose(a["dist"], b["dist"])
    # a query identical to a stored vector retrieves that vector first:
    # codes(v) minimize every per-subspace distance to q=v, so no other
    # code combination can beat it, and ties break by id asc
    for qi in range(3):
        assert int(a[a["query_id"] == qi].iloc[0]["vec_id"]) == qi


def test_pq_codec_prefers_own_centroid():
    from alix_ray.ops.similarity import PqCodec

    rng = np.random.default_rng(5)
    X = rng.normal(size=(64, 8))
    codec = PqCodec(m=2, k_sub=4).fit(X)
    # encoding a centroid-concatenation yields exactly those codes
    v = np.concatenate([codec.cent[0][2], codec.cent[1][3]])[None, :]
    codes = codec.encode(v)
    assert codes[0, 0] == 2 and codes[0, 1] == 3
    # ADC distance of that vector to itself as query is ~0
    T = codec.adc_table(v)
    d = T[0, 0, codes[0, 0]] + T[0, 1, codes[0, 1]]
    assert d < 1e-20


def test_grouped_quantiles_matches_per_group(ray_session):
    import ray.data

    from alix_ray.ops.stats import exact_quantiles, grouped_quantiles

    rng = np.random.default_rng(9)
    rows = [{"g": ["a", "b", "c"][i % 3], "v": int(rng.integers(0, 40))}
            for i in range(300)]
    ds = ray.data.from_items(rows).repartition(5)
    got = grouped_quantiles(ds, "g", "v", (0.5, 0.9)) \
        .sort_values(["g", "q"]).reset_index(drop=True)
    for g in ("a", "b", "c"):
        sub = ray.data.from_items([r for r in rows if r["g"] == g])
        want = exact_quantiles(sub, "v", (0.5, 0.9))
        mine = got[got["g"] == g].reset_index(drop=True)
        assert mine["value"].tolist() == want["value"].tolist()
        assert mine["rank"].tolist() == want["rank"].tolist()
        assert mine["n"].tolist() == want["n"].tolist()


def test_blocklist_escapes_metacharacters(ray_session):
    import ray.data

    from alix_ray.ops.cleaning import blocklist_filter, blocklist_regex

    ds = ray.data.from_items([
        {"doc_id": 0, "text": "watch your a$$ mister"},
        {"doc_id": 1, "text": "ass assonance as"},          # no literal a$$
        {"doc_id": 2, "text": "c.o.c.k spelled out"},
        {"doc_id": 3, "text": "cxoxcxk must not match"},    # dots are literal
    ])
    df = blocklist_filter(ds, ("a$$", "c.o.c.k")).to_pandas() \
        .sort_values("doc_id")
    assert list(df["n_bad"]) == [1, 0, 1, 0]

    import pytest as _pytest
    with _pytest.raises(ValueError, match="empty blocklist"):
        blocklist_regex(())


def test_grouped_quantiles_null_group(ray_session):
    import ray.data

    from alix_ray.ops.stats import grouped_quantiles

    rows = ([{"g": "a", "v": i} for i in range(1, 11)]
            + [{"g": None, "v": i} for i in (5, 6, 7)])
    ds = ray.data.from_items(rows).repartition(3)
    got = grouped_quantiles(ds, "g", "v", (0.5,))
    # the NULL stratum is a group of its own (SQL GROUP BY semantics)
    a = got[got["g"] == "a"].iloc[0]
    nul = got[got["g"].isna()].iloc[0]
    assert (a["value"], a["rank"], a["n"]) == (5, 5, 10)
    assert (nul["value"], nul["rank"], nul["n"]) == (6, 2, 3)


def test_kmeans_append_keeps_input_columns(ray_session):
    from alix_ray.ops.semdedup import kmeans_assign

    rng = np.random.default_rng(2)
    E = rng.normal(size=(30, 4)).astype(np.float32)
    ds = _emb_ds(ray_session, E)
    slim = kmeans_assign(ds, k=2, iters=1).to_pandas().sort_values("vec_id")
    full = kmeans_assign(ds, k=2, iters=1, append=True) \
        .to_pandas().sort_values("vec_id")
    assert {"vec_id", "embedding", "label", "cluster", "dist"} \
        <= set(full.columns)
    assert slim["cluster"].tolist() == full["cluster"].tolist()


def test_cli_semdedup(ray_session, tmp_path, capsys):
    import json

    import pyarrow.parquet as pq_

    from alix_ray.__main__ import main

    rng = np.random.default_rng(4)
    E = rng.normal(size=(40, 8)).astype(np.float32)
    E[1] = E[0]  # one exact duplicate pair
    t = pa.table({
        "vec_id": pa.array(np.arange(40, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in E],
                              pa.list_(pa.float32())),
    })
    src = tmp_path / "emb.parquet"
    pq_.write_table(t, src)
    out = str(tmp_path / "kept")
    assert main(["semdedup", "--input", str(src), "--out", out,
                 "--tau", "0.99", "--k", "4", "--iters", "1"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["total"] == 40
    # the duplicate of vec 0 lands in the same cluster (identical
    # vector -> identical assignment) and is dropped
    assert res["dropped"] >= 1 and res["kept"] == 40 - res["dropped"]
