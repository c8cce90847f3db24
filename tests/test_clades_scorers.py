"""Tests for correspondence analysis (clades) and pluggable doc scorers."""

import numpy as np
import pytest


class TestClades:
    def test_contingency_and_coords(self, ray_session):
        import ray.data

        from alix_ray.ops.clades import contingency, correspondence_coords

        rows = []
        for i in range(40):
            cat = "A" if i % 2 == 0 else "B"
            word = "alpha" if cat == "A" else "beta"
            rows.append({"doc_id": i, "cat": cat,
                         "text": f"{word} {word} common word"})
        ds = ray.data.from_items(rows)
        cont = contingency(ds, "cat")
        # alpha only under A, beta only under B
        a = cont[(cont["term"] == "alpha")]
        assert set(a["category"]) == {"A"}
        terms_df, cats_df = correspondence_coords(cont, top_terms=10)
        # discriminating terms separate along dim1 with their categories
        ta = terms_df[terms_df["label"] == "alpha"]["dim1"].iloc[0]
        tb = terms_df[terms_df["label"] == "beta"]["dim1"].iloc[0]
        ca = cats_df[cats_df["label"] == "A"]["dim1"].iloc[0]
        cb = cats_df[cats_df["label"] == "B"]["dim1"].iloc[0]
        assert np.sign(ta) == np.sign(ca)
        assert np.sign(tb) == np.sign(cb)
        assert np.sign(ta) != np.sign(tb)


class TestDocScorers:
    @pytest.fixture(scope="class")
    def index(self, ray_session, tmp_path_factory):
        import ray.data

        from alix_ray.index.engine import BM25Index
        from alix_ray.stages.build import IndexBuilder

        out = str(tmp_path_factory.mktemp("scoreridx"))
        rows = [
            {"doc_id": 0, "text": "cat cat cat dog"},
            {"doc_id": 1, "text": "cat dog bird fish mouse"},
            {"doc_id": 2, "text": "bird bird bird bird"},
        ]
        b = IndexBuilder(out, analyzer="simple")
        b.build(ray.data.from_items(rows), input_kind="documents",
                fingerprint="scorers")
        return BM25Index(out)

    def test_freq_scorer_is_tf(self, index):
        res = index.search_exact(["cat"], 5, scorer="freq")
        assert res == [(0, 3.0), (1, 1.0)]

    def test_chi2_scorer_sign(self, index):
        # SimilarityChi2.java:52-68: expected = cf*dl/total
        res = dict(index.search_exact(["cat"], 5, scorer="chi2"))
        # doc0: tf=3, dl=4, cf=4, total=13 → e=1.23, over-represented → +
        assert res[0] > 0

    def test_gtest_runs(self, index):
        res = index.search_exact(["bird"], 5, scorer="gtest")
        assert res and res[0][0] == 2  # bird-heaviest doc first

    def test_bm25_default_unchanged(self, index):
        r1 = index.search_exact(["cat", "dog"], 5)
        r2 = index.search_terms(["cat", "dog"], 5)
        assert r1 == r2


class TestRound2Scorers:
    """Round-2 scorer additions: LL-residual, Chi2inv/Gsimple doc sims,
    PMI association family, Hellinger/chord distances."""

    def test_loglikelihood_residual_hand(self):
        import numpy as np

        from alix_ray.ops.analytics import part_loglikelihood_residual

        # focus part: 1000 tokens of 10000 total; term: 30 total, 10 in focus
        # E1 = 1000*30/10000 = 3; O1=10, O0=990, E0=997
        e1, o1, o0, e0 = 3.0, 10.0, 990.0, 997.0
        g2 = 2 * o1 * np.log(o1 / e1) + 2 * o0 * np.log(o0 / e0)
        want = np.sign(o1 - e1) * np.sqrt(g2)
        got = part_loglikelihood_residual(
            np.array([10.0]), 1000.0, np.array([30.0]), 10000.0
        )
        assert got[0] == pytest.approx(want)
        # under-representation flips the sign
        got2 = part_loglikelihood_residual(
            np.array([5.0]), 5000.0, np.array([30.0]), 10000.0,
            min_focus_term_freq=0,
        )
        assert got2[0] < 0
        # floor → NaN
        got3 = part_loglikelihood_residual(
            np.array([2.0]), 1000.0, np.array([30.0]), 10000.0
        )
        assert np.isnan(got3[0])

    def test_chi2inv_gsimple_contrib(self, ray_session, tmp_path):
        import numpy as np
        import ray.data

        from alix_ray.index.engine import BM25Index
        from alix_ray.stages.build import IndexBuilder

        rows = [{"doc_id": i,
                 "text": " ".join(["tok"] * (i + 1) + [f"w{i}"] * 3)}
                for i in range(8)]
        b = IndexBuilder(str(tmp_path / "ix"), analyzer="simple")
        b.build(ray.data.from_items(rows), input_kind="documents",
                fingerprint="t")
        ix = BM25Index(str(tmp_path / "ix"))
        term = max(ix.cf, key=lambda t: ix.cf[t])
        d, c = ix._term_contrib(term, "chi2inv")
        # chi2inv is only nonzero where observed <= expected, never negative
        assert (np.asarray(c) >= 0).all()
        dg, cg = ix._term_contrib(term, "gsimple")
        # gsimple mirrors SimilarityGsimple.java:51-70 exactly:
        # measure = tf·ln(tf/E0), negated when tf < E0 (so the returned
        # value is |measure| — the code's behavior, not its comment)
        tf = ix.postings[term].decode()[1].astype(float)
        expected = float(ix.cf[term]) * ix.doc_tokens[dg] / ix.cfg["total_tokens"]
        measure = tf * np.log(tf / expected)
        want = np.where(tf < expected, -measure, measure)
        assert cg == pytest.approx(want)
        # both rank through search_exact without error
        assert isinstance(ix.search_exact([term], 5, scorer="chi2inv"), list)
        assert isinstance(ix.search_exact([term], 5, scorer="gsimple"), list)

    def test_association_measures_hand(self):
        import numpy as np

        from alix_ray.ops.association import (
            logdice, loglikelihood, npmi, pearson, ppmi,
        )

        # f(a,b)=8, f(a)=16, f(b)=16, N=64 → PMI = log2(8*64/256) = 1
        assert ppmi([8], [16], [16], 64)[0] == pytest.approx(1.0)
        # independence → PMI 0
        assert ppmi([4], [16], [16], 64)[0] == pytest.approx(0.0)
        # npmi: perfect association f(a,b)=f(a)=f(b)=N → 1
        assert npmi([5], [5], [5], 5)[0] == pytest.approx(1.0)
        assert npmi([0], [5], [5], 100)[0] == -1.0
        # logdice peak at 14
        assert logdice([10], [10], [10])[0] == pytest.approx(14.0)
        assert logdice([0], [10], [10])[0] == -np.inf
        # pearson residual: (o-e)/sqrt(e), e = 16*16/64 = 4
        assert pearson([8], [16], [16], 64)[0] == pytest.approx((8 - 4) / 2)
        # loglikelihood sign
        assert loglikelihood([8], [16], [16], 64)[0] > 0
        assert loglikelihood([1], [16], [16], 64)[0] < 0
        # NaN on negative input
        assert np.isnan(ppmi([-1], [4], [4], 16)[0])

    def test_hellinger_hand(self):
        import numpy as np

        from alix_ray.ops.clades import hellinger_distances

        # identical profiles → 0; orthogonal profiles → sqrt(2)
        counts = np.array([[4, 0], [8, 0], [0, 3]])
        d = hellinger_distances(counts)
        assert d[0, 1] == pytest.approx(0.0)
        assert d[0, 2] == pytest.approx(np.sqrt(2.0))
        assert d[2, 0] == d[0, 2]
        with pytest.raises(ValueError):
            hellinger_distances(np.array([[0, 0], [1, 2]]))

    def test_positive_keyness_chord(self):
        import numpy as np

        from alix_ray.ops.clades import positive_keyness_chord

        counts = np.array([[30, 5, 5], [5, 30, 5], [28, 6, 6]])
        d = positive_keyness_chord(counts)
        assert d.shape == (3, 3)
        assert np.allclose(d, d.T)
        assert (np.diag(d) == 0).all()
        # row 0 and row 2 share their over-represented column → closer
        assert d[0, 2] < d[0, 1]

    def test_score_cooc_matrix(self, ray_session):
        import ray.data

        from alix_ray.ops.analytics import cooc_matrix
        from alix_ray.ops.association import score_cooc_matrix

        ds = ray.data.from_items(
            [{"doc_id": 0, "text": "a b a b a b c"},
             {"doc_id": 1, "text": "a b x y z z"}]
        )
        pairs = cooc_matrix(ds, ["a"], ["b", "c", "z"], window=1).to_pandas()
        scored = score_cooc_matrix(pairs, "ppmi")
        assert "score" in scored.columns
        ab = scored[(scored["row"] == "a") & (scored["col"] == "b")]
        assert len(ab) == 1 and ab["score"].iloc[0] >= 0


class TestRandomizedSvd:
    def test_matches_exact_svd_on_decaying_spectrum(self):
        import numpy as np

        from alix_ray.ops.clades import randomized_svd

        rng = np.random.default_rng(7)
        # low-rank + noise: spectrum decays, the HMT regime
        A = (rng.standard_normal((120, 40)) @ np.diag(
            np.concatenate([np.array([50, 20, 10, 5.0]), np.full(36, 0.01)])
        ))
        U, S, Vt = randomized_svd(A, 4)
        S_exact = np.linalg.svd(A, compute_uv=False)[:4]
        assert S == pytest.approx(S_exact, rel=1e-6)
        # reconstruction error bounded by the next singular value
        err = np.linalg.norm(A - (U * S) @ Vt, 2)
        assert err <= np.linalg.svd(A, compute_uv=False)[4] * 1.5

    def test_deterministic(self):
        import numpy as np

        from alix_ray.ops.clades import randomized_svd

        A = np.arange(200, dtype=float).reshape(20, 10)
        _, s1, _ = randomized_svd(A, 3)
        _, s2, _ = randomized_svd(A, 3)
        assert np.array_equal(s1, s2)

    def test_validation(self):
        import numpy as np

        from alix_ray.ops.clades import randomized_svd

        with pytest.raises(ValueError):
            randomized_svd(np.zeros((3, 3)), 0)
        with pytest.raises(ValueError):
            randomized_svd(np.zeros(3), 2)
