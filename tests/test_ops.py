"""Unit tests for analytics / dedup / similarity / textstats / multimodal ops."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


class TestKeyness:
    def test_chi2_sign_and_value(self):
        from alix_ray.ops.analytics import keyness_chi2

        # hand 2×2: fo=10/100, ot=5/200 → over-represented in focus
        v = keyness_chi2(np.array([10.0]), 100.0, np.array([5.0]), 200.0)
        assert v[0] > 0
        # swap → symmetric negative
        v2 = keyness_chi2(np.array([5.0]), 200.0, np.array([10.0]), 100.0)
        assert v2[0] == pytest.approx(-v[0])

    def test_g2_zero_when_proportional(self):
        from alix_ray.ops.analytics import keyness_g2

        v = keyness_g2(np.array([10.0]), 100.0, np.array([20.0]), 200.0)
        assert v[0] == pytest.approx(0.0, abs=1e-9)

    def test_logdice(self):
        from alix_ray.ops.analytics import keyness_logdice

        v = keyness_logdice(np.array([8.0]), 100.0, np.array([8.0]))
        assert v[0] == pytest.approx(14 + np.log2(16 / 116))

    def test_logratio_reference_formula(self):
        """log2(relFocus/relOther)·ln(focusCount) (KeynessScorer.java
        LogRatio:212-226), 0 where either count is 0 (no ratio, no
        log): over-, under- and equally represented terms, a single
        focus occurrence (ln 1 = 0) and both zero cases."""
        import warnings

        from alix_ray.ops.analytics import keyness_logratio

        fo = np.array([8.0, 2.0, 10.0, 1.0, 0.0, 5.0, 0.0])
        ot = np.array([2.0, 16.0, 20.0, 9.0, 4.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = keyness_logratio(fo, 100.0, ot, 200.0)
        want = [3 * np.log(8.0),          # rel 0.08/0.01 = 8
                -2 * np.log(2.0),         # rel 0.02/0.08 = 1/4
                0.0,                      # same rate: log2 1 = 0
                0.0,                      # one focus hit: ln 1 = 0
                0.0, 0.0, 0.0]            # a zero count
        assert v == pytest.approx(want)
        for f, o, got in zip(fo, ot, v):
            if f and o:
                ref = np.log2((f / 100.0) / (o / 200.0)) * np.log(f)
                assert got == pytest.approx(ref)


class TestHashStability:
    def test_token_hashes_stable(self):
        from alix_ray.ops.dedup import _token_hashes

        a = _token_hashes(["chat", "chien"])
        b = _token_hashes(["chat", "chien"])
        assert np.array_equal(a, b)
        assert a[0] != a[1]

    def test_minhash_similarity_estimate(self):
        from alix_ray.ops.dedup import MinHasher

        mh = MinHasher(num_perm=128)
        base = [f"w{i}" for i in range(100)]
        near = base[:90] + [f"x{i}" for i in range(10)]
        far = [f"y{i}" for i in range(100)]
        s0, s1, s2 = mh.signature(base), mh.signature(near), mh.signature(far)
        est_near = (s0 == s1).mean()
        est_far = (s0 == s2).mean()
        assert est_near > 0.6
        assert est_far < 0.2

    def test_simhash_near_vs_far(self):
        from alix_ray.ops.dedup import simhash64

        base = [f"w{i}" for i in range(200)]
        near = base[:195] + [f"x{i}" for i in range(5)]
        far = [f"y{i}" for i in range(200)]
        h0, h1, h2 = simhash64(base), simhash64(near), simhash64(far)
        d_near = bin(h0 ^ h1).count("1")
        d_far = bin(h0 ^ h2).count("1")
        assert d_near < d_far

    def test_fingerprint_deterministic_and_content_sensitive(self):
        from alix_ray.ops.textstats import round_half_away

        assert round_half_away(np.array([0.8203125]))[0] == 0.820313
        assert round_half_away(np.array([-0.8203125]))[0] == -0.820313


class TestRayOps:
    def test_exact_dedup(self, ray_session):
        import ray.data

        from alix_ray.ops.dedup import exact_dedup

        ds = ray.data.from_items(
            [
                {"doc_id": 3, "text": "aaa"},
                {"doc_id": 1, "text": "aaa"},
                {"doc_id": 2, "text": "bbb"},
            ]
        )
        out = exact_dedup(ds).to_pandas().sort_values("doc_id")
        assert out["doc_id"].tolist() == [1, 2]

    def test_minhash_finds_planted_dup(self, ray_session, monkeypatch):
        import ray.data

        from alix_ray.ops import dedup
        from alix_ray.ops.dedup import minhash_lsh_pairs

        words = [f"w{i}" for i in range(60)]
        rows = [{"doc_id": i, "text": " ".join(np.roll(words, i * 13).tolist())}
                for i in range(10)]
        rows.append({"doc_id": 99, "text": rows[0]["text"] + " extra"})
        ds = ray.data.from_items(rows)
        pairs = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
        assert ((pairs["doc_a"] == 0) & (pairs["doc_b"] == 99)).any()
        # the >LSH_DRIVER_MAX_PAIRS distributed verify join returns the
        # identical pair set (a gate of 0 forces it)
        monkeypatch.setattr(dedup, "LSH_DRIVER_MAX_PAIRS", 0)
        dist = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
        key = ["doc_a", "doc_b", "jaccard"]
        assert (pairs[key].sort_values(key).values.tolist()
                == dist[key].sort_values(key).values.tolist())

    def test_brute_force_topk_matches_numpy(self, ray_session):
        import ray.data

        from alix_ray.ops.similarity import brute_force_topk

        rng = np.random.default_rng(3)
        V = rng.standard_normal((50, 8)).astype(np.float32)
        ds = ray.data.from_arrow(
            pa.table({"vec_id": pa.array(range(50), pa.int64()),
                      "embedding": pa.array(V.tolist(), pa.list_(pa.float32()))}))
        Q = V[:2].astype(np.float64)
        res = brute_force_topk(ds, Q, 5)
        # oracle
        Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
        Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
        S = Qn @ Vn.T
        for qi in range(2):
            want = np.argsort(-S[qi])[:5].tolist()
            got = res[res["query_id"] == qi]["vec_id"].tolist()
            assert got == want
        # self-match first
        assert res[res["query_id"] == 0].iloc[0]["vec_id"] == 0

    def test_lsh_bucketed_search_recall(self, ray_session):
        import ray.data

        from alix_ray.ops.similarity import LshIndexedSearch, brute_force_topk

        rng = np.random.default_rng(4)
        V = rng.standard_normal((200, 16))
        ds = ray.data.from_arrow(
            pa.table({"vec_id": pa.array(range(200), pa.int64()),
                      "embedding": pa.array(V.tolist(), pa.list_(pa.float64()))}))
        lsh = LshIndexedSearch(dim=16, n_planes=4)
        bucketed = lsh.add_buckets(ds).materialize()
        Q = V[:3]
        approx = lsh.search(bucketed, Q, k=5, n_probe=1)
        exact = brute_force_topk(ds, Q, 5)
        # top-1 self-hit must survive bucketing (same bucket by definition)
        for qi in range(3):
            assert approx[approx["query_id"] == qi].iloc[0]["vec_id"] == qi
        # recall@5 reasonable
        hits = 0
        for qi in range(3):
            a = set(approx[approx["query_id"] == qi]["vec_id"])
            e = set(exact[exact["query_id"] == qi]["vec_id"])
            hits += len(a & e)
        assert hits >= 6

    def test_langid(self, ray_session):
        from alix_ray.ops.textstats import LangId

        li = LangId()
        assert li.guess("the cat is on the mat and it is happy") == "en"
        assert li.guess("le chat est sur le tapis et il est content") == "fr"
        assert li.guess("") == "und"

    def test_token_counts(self, ray_session):
        import duckdb
        import ray.data

        from alix_ray.ops.textstats import token_counts

        texts = [
            "Hello, world! It's 2026.",
            "  multi   space\ttabs\nnewlines  ",
            "",
            None,
            "l'état & Co. #42 café — naïve…",
            "日本語テキスト test 漢字123",
        ]
        ds = ray.data.from_pandas(
            pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        )
        got = token_counts(ds).to_pandas().sort_values("doc_id")
        # known values: "Hello, world! It's 2026." → 4 ws runs; BPE-ish
        # splits Hello|,|world|!|It|'s|2026|. = 8
        assert got["ws_tokens"].tolist()[0] == 4
        assert got["bpe_tokens"].tolist()[0] == 8
        assert got["ws_tokens"].tolist()[2:4] == [0, 0]  # empty + null
        # cross-check every row against the DuckDB oracle regexes
        from alix_ray.pipelines.queries import SQL_TOKEN_COUNTS

        con = duckdb.connect()
        con.register(
            "documents",
            pd.DataFrame({"doc_id": range(len(texts)), "text": texts}),
        )
        want = con.execute(SQL_TOKEN_COUNTS).df()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want, check_dtype=False
        )

    def test_heavy_hitters_exact(self, ray_session):
        import ray.data

        from alix_ray.ops.textstats import heavy_hitters

        # Zipf-ish corpus: token t<i> appears (60-i) times
        texts = []
        for i in range(40):
            texts.extend([f"t{i:02d}"] * (60 - i))
        rng = __import__("random").Random(7)
        rng.shuffle(texts)
        docs = [" ".join(texts[j::8]) for j in range(8)]
        ds = ray.data.from_pandas(
            pd.DataFrame({"doc_id": range(8), "text": docs})
        ).repartition(4)
        got = heavy_hitters(ds, k=10, candidates=64)
        assert got["term"].tolist() == [f"t{i:02d}" for i in range(10)]
        assert got["cf"].tolist() == [60 - i for i in range(10)]
        # unprovable bound → raises instead of silently returning
        with pytest.raises(ValueError):
            heavy_hitters(ds, k=10, candidates=2)

    def test_quota_cap(self, ray_session):
        import ray.data

        from alix_ray.ops.mixing import quota_cap

        df = pd.DataFrame({
            "doc_id": range(12),
            "source": ["a"] * 6 + ["b"] * 4 + ["c"] * 2,
            "n_chars": [5, 9, 9, 1, 7, 3, 8, 8, 2, 6, 4, 4],
        })
        ds = ray.data.from_pandas(df).repartition(5)
        got = quota_cap(ds, key_col="source", n=2).to_pandas()
        got = got.sort_values(["source", "doc_id"]).reset_index(drop=True)
        # a: n_chars 9 (doc 1 wins tie over doc 2 by id), 9 → docs 1,2
        # b: 8 (doc 6), 8 (doc 7); c: both rows survive (n=2 ≥ group)
        assert got["doc_id"].tolist() == [1, 2, 6, 7, 10, 11]

    def test_mix_sample_deterministic(self, ray_session):
        import ray.data

        from alix_ray.ops.mixing import mix_sample

        df = pd.DataFrame({
            "doc_id": range(200),
            "source": ["a", "b", "c", "d"] * 50,
        })
        w = {"a": 0.0, "b": 1.0, "c": 0.5}  # d missing → keep all
        ds = ray.data.from_pandas(df).repartition(7)
        got = mix_sample(ds, w).to_pandas().sort_values("doc_id")
        assert not (got["source"] == "a").any()
        assert (got["source"] == "b").sum() == 50
        assert (got["source"] == "d").sum() == 50
        c = (got["source"] == "c").sum()
        assert 10 < c < 40  # ~half, hash-determined
        # membership is a pure function of the id — identical under a
        # different partitioning
        got2 = mix_sample(
            ray.data.from_pandas(df).repartition(3), w
        ).to_pandas().sort_values("doc_id")
        assert got["doc_id"].tolist() == got2["doc_id"].tolist()

    def test_multimodal_plumbing(self, ray_session):
        import ray.data

        from alix_ray.ops.multimodal import media_pipeline

        rows = [{"media_id": i, "kind": "image", "payload": bytes([i] * 64),
                 "mime": "image/fake", "meta": "{}"} for i in range(8)]
        ds = ray.data.from_items(rows)
        out = media_pipeline(ds, "image", concurrency=2, batch_size=4).to_pandas()
        assert len(out) == 8
        assert all(len(f) == 16 for f in out["features"])
        # deterministic across runs
        out2 = media_pipeline(ray.data.from_items(rows), "image",
                              concurrency=2, batch_size=2).to_pandas()
        pd.testing.assert_frame_equal(
            out.sort_values("media_id").reset_index(drop=True),
            out2.sort_values("media_id").reset_index(drop=True))

    def test_multimodal_strict_raises(self, ray_session):
        from alix_ray.ops import multimodal
        from alix_ray.ops.multimodal import ImageFeatures

        if multimodal._pil_image() is not None:
            pytest.skip("PIL present — strict mode decodes for real")
        with pytest.raises(NotImplementedError):
            ImageFeatures(strict=True)(
                pa.table({"media_id": pa.array([1], pa.int64()),
                          "payload": pa.array([b"x"], pa.binary())}))

    def test_multimodal_real_decoders_when_importable(self):
        """Skipped-if-absent: with PIL/soundfile installed the
        decoders return real pixels/samples under the SAME schema."""
        import numpy as np

        from alix_ray.ops import multimodal

        Image = pytest.importorskip("PIL.Image")
        import io as _io
        buf = _io.BytesIO()
        Image.fromarray(np.full((4, 6), 9, np.uint8)).save(buf, "PNG")
        img = multimodal._decode_image(buf.getvalue(), strict=True)
        assert img.shape == (4, 6) and (img == 9).all()

        sf = pytest.importorskip("soundfile")
        buf = _io.BytesIO()
        sf.write(buf, np.zeros(32, np.float32), 16000, format="WAV")
        wav = multimodal._decode_audio(buf.getvalue(), strict=True)
        assert wav.dtype == np.float32 and len(wav) == 32

    def test_multimodal_real_path_plumbing(self, monkeypatch):
        """Drives the lib-present code path WITHOUT the libs: a fake
        PIL/soundfile module pair proves the real branch produces the
        same output schema as the stub branch."""
        import numpy as np

        from alix_ray.ops import multimodal
        from alix_ray.ops.multimodal import AudioFrames, ImageFeatures

        class _Img:
            def __init__(self, arr):
                self._a = arr

            def convert(self, mode):
                return self

            def __array__(self, dtype=None, copy=None):
                return self._a

            def __enter__(self):
                return self

            def __exit__(self, *e):
                return False

        class FakePIL:
            @staticmethod
            def open(bio):
                return _Img(np.arange(32, dtype=np.uint8).reshape(4, 8))

        class FakeSF:
            @staticmethod
            def read(bio, dtype="float32"):
                return np.ones((16, 2), np.float32), 16000

        monkeypatch.setattr(multimodal, "_pil_image", lambda: FakePIL)
        monkeypatch.setattr(multimodal, "_soundfile", lambda: FakeSF)
        t = pa.table({"media_id": pa.array([1], pa.int64()),
                      "payload": pa.array([b"zz"], pa.binary())})
        out = ImageFeatures(strict=True)(t)
        assert out.column_names == ["media_id", "features", "decoded"]
        assert out["decoded"].to_pylist() == [True]
        assert len(out["features"][0].as_py()) == 16
        wav = AudioFrames(strict=True, hop=4)(t)
        # stereo downmixed to mono: 16 samples / hop 4 → 4 frames,
        # RMS of all-ones is 1
        assert wav["frame_rms"][0].as_py() == pytest.approx([1.0] * 4)

    def test_multimodal_corrupt_payload_quarantined(self, monkeypatch):
        """With real decoders present, a corrupt payload must NOT
        abort a non-strict pipeline (Ray would retry a deterministic
        failure forever) — it falls back to the digest stub / zeroed
        row; strict mode propagates the decoder error."""
        import numpy as np

        from alix_ray.ops import multimodal
        from alix_ray.ops.multimodal import AudioFrames, ImageFeatures

        class RaisingPIL:
            @staticmethod
            def open(bio):
                raise ValueError("truncated JPEG")

        class RaisingSF:
            @staticmethod
            def read(bio, dtype="float32"):
                raise RuntimeError("not a sound file")

        monkeypatch.setattr(multimodal, "_pil_image", lambda: RaisingPIL)
        monkeypatch.setattr(multimodal, "_soundfile", lambda: RaisingSF)
        t = pa.table({"media_id": pa.array([1], pa.int64()),
                      "payload": pa.array([b"junk"], pa.binary())})
        out = ImageFeatures(strict=False)(t)  # must not raise
        assert out["decoded"].to_pylist() == [False]
        wav = AudioFrames(strict=False, hop=4)(t)  # digest-stub fallback
        assert len(wav) == 1 and len(wav["frame_rms"][0].as_py()) > 0
        with pytest.raises(ValueError):
            ImageFeatures(strict=True)(t)
        with pytest.raises(RuntimeError):
            AudioFrames(strict=True)(t)
        # video: corrupt container quarantines under the same contract
        class RaisingAV:
            @staticmethod
            def open(bio):
                raise OSError("moov atom not found")

        monkeypatch.setattr(multimodal, "_pyav", lambda: RaisingAV)
        n, fps = multimodal._probe_video(b"junk", strict=False)
        assert n > 0 and fps > 0
        with pytest.raises(OSError):
            multimodal._probe_video(b"junk", strict=True)


class TestMoreScorers:
    def test_simplemaths(self):
        import numpy as np

        from alix_ray.ops.analytics import keyness_simplemaths

        v = keyness_simplemaths(np.array([10.0]), 1000.0, np.array([5.0]), 2000.0)
        assert v[0] == pytest.approx((10000 + 1) / (2500 + 1))

    def test_part_pearson(self):
        import numpy as np

        from alix_ray.ops.analytics import part_pearson

        # focus 100 of 1000 total tokens; term 20 total, 10 in focus
        z = part_pearson(np.array([10.0]), 100.0, np.array([20.0]), 1000.0)
        e = 100 * 20 / 1000
        var = e * (1 - 0.1) * (1 - 0.02)
        assert z[0] == pytest.approx((10 - e) / var**0.5)

    def test_rate_ratio(self):
        from alix_ray.ops.analytics import part_rate_ratio

        # focus rate 10/100; strongest other part rate 5/100
        v = part_rate_ratio(10, 100, [10, 5, 2], [100, 100, 100], 0, alpha=0.3)
        expect = np.log2((10.3 / 100.3) / (5.3 / 100.3))
        assert v == pytest.approx(expect)

    def test_specificity_sign_and_magnitude(self):
        from alix_ray.ops.analytics import part_specificity

        # over-represented: 20 of 100 focus tokens vs 30 of 1000 total
        over = part_specificity(20, 100, 30, 1000)
        assert over > 2  # highly specific
        # exactly expected → small magnitude
        near = part_specificity(3, 100, 30, 1000)
        assert abs(near) < abs(over)
        # under-represented → negative
        under = part_specificity(0, 100, 30, 1000)
        assert under < 0

    def test_specificity_matches_exact_hypergeom(self):
        from math import comb

        from alix_ray.ops.analytics import part_specificity

        N, K, n, k = 60, 12, 15, 7
        p_ge = sum(comb(K, x) * comb(N - K, n - x) for x in range(k, min(n, K) + 1)) / comb(N, n)
        got = part_specificity(k, n, K, N)
        assert got == pytest.approx(-np.log10(p_ge), rel=1e-6)


class TestIvf:
    def test_ivf_recall_and_determinism(self, ray_session):
        import ray.data

        from alix_ray.ops.similarity import IvfIndexedSearch, brute_force_topk

        rng = np.random.default_rng(11)
        # 4 well-separated clusters
        centers = rng.standard_normal((4, 16)) * 5
        V = np.concatenate([centers[i % 4] + rng.standard_normal(16) * 0.3
                            for i in range(200)]).reshape(200, 16)
        ds = ray.data.from_arrow(
            pa.table({"vec_id": pa.array(range(200), pa.int64()),
                      "embedding": pa.array(V.tolist(), pa.list_(pa.float64()))}))
        ivf = IvfIndexedSearch(n_lists=8).fit(V)
        bucketed = ivf.add_buckets(ds).materialize()
        Q = V[:3]
        approx = ivf.search(bucketed, Q, k=5, n_probe=3)
        exact = brute_force_topk(ds, Q, 5)
        hits = 0
        for qi in range(3):
            a = set(approx[approx["query_id"] == qi]["vec_id"])
            e = set(exact[exact["query_id"] == qi]["vec_id"])
            hits += len(a & e)
        assert hits >= 12  # high recall on separated clusters
        # deterministic fit
        ivf2 = IvfIndexedSearch(n_lists=8).fit(V)
        assert np.allclose(ivf.centroids, ivf2.centroids)

    def test_part_loglikelihood_strict_min(self):
        from alix_ray.ops.analytics import keyness_g2, part_loglikelihood

        counts = [20, 5, 18]   # focus part 0
        tokens = [100, 100, 100]
        got = part_loglikelihood(counts, tokens, 0, focus_term_docs=5,
                                 focus_docs=10, dispersion_exponent=0.3,
                                 min_focus_term_docs=3)
        g_vs1 = keyness_g2(np.array([20.0]), 100.0, np.array([5.0]), 100.0)[0]
        g_vs2 = keyness_g2(np.array([20.0]), 100.0, np.array([18.0]), 100.0)[0]
        expect = min(g_vs1, g_vs2) * (5 / 10) ** 0.3
        assert got == pytest.approx(expect)

    def test_part_loglikelihood_tail_and_floor(self):
        from alix_ray.ops.analytics import part_loglikelihood

        counts = [20, 5, 18, 1]
        tokens = [100, 100, 100, 100]
        tail = part_loglikelihood(counts, tokens, 0, 5, 10,
                                  tail_fraction=0.5)
        strict = part_loglikelihood(counts, tokens, 0, 5, 10)
        assert tail >= strict  # mean of lowest half >= min
        # min_focus_term_docs floor
        import math
        assert math.isnan(part_loglikelihood(counts, tokens, 0, 2, 10))


class TestConnectedComponents:
    def test_chain_and_separate_components(self, ray_session):
        import ray.data

        from alix_ray.ops.dedup import connected_components

        # chain 1-2-3-4 (diameter 3) + pair 10-11
        pairs = ray.data.from_items(
            [{"doc_a": 1, "doc_b": 2}, {"doc_a": 2, "doc_b": 3},
             {"doc_a": 3, "doc_b": 4}, {"doc_a": 10, "doc_b": 11}]
        )
        out = connected_components(pairs).to_pandas()
        got = dict(zip(out["doc_id"].astype(int),
                       out["cluster_id"].astype(int)))
        assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}

    def test_representatives(self, ray_session):
        import ray.data

        from alix_ray.ops.dedup import connected_components

        pairs = ray.data.from_items([{"doc_a": 5, "doc_b": 7},
                                     {"doc_a": 7, "doc_b": 6}])
        out = connected_components(pairs).to_pandas()
        reps = out[out["doc_id"] == out["cluster_id"]]["doc_id"].tolist()
        assert reps == [5]

    def test_scale_path_matches_union_find(self, ray_session, monkeypatch):
        """Past the pair gate the partitioned min-label rounds give the
        union-find's labels — also for ids >= 2^60, where float64 would
        merge neighbouring ids (its spacing there is 256)."""
        import ray.data

        from alix_ray.ops import dedup

        def labels(rows):
            out = dedup.connected_components(
                ray.data.from_items(rows)).to_pandas()
            return dict(zip(out["doc_id"].tolist(),
                            out["cluster_id"].tolist()))

        base = 1 << 60
        chain = [(1, 2), (2, 3), (3, 4), (10, 11)]
        cases = [[{"doc_a": a + off, "doc_b": b + off} for a, b in chain]
                 for off in (0, base)]
        want = [labels(rows) for rows in cases]
        assert want[0] == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}
        monkeypatch.setattr(dedup, "CLUSTER_DRIVER_MAX_PAIRS", 0)
        assert [labels(rows) for rows in cases] == want
        assert want[1][base + 4] == base + 1

    def test_scale_path_fails_fast(self, ray_session, monkeypatch):
        """A chain longer than max_iter rounds must raise, not return
        clusters split across ids."""
        import ray.data

        from alix_ray.ops import dedup

        monkeypatch.setattr(dedup, "CLUSTER_DRIVER_MAX_PAIRS", 0)
        pairs = ray.data.from_items(
            [{"doc_a": i, "doc_b": i + 1} for i in range(20)])
        with pytest.raises(RuntimeError, match="fixpoint"):
            dedup.connected_components(pairs, max_iter=3)


class TestVideoFrames:
    def test_stride_sampling_plumbing(self, ray_session):
        import ray.data

        from alix_ray.ops.multimodal import media_pipeline

        rows = [{"media_id": i, "kind": "video",
                 "payload": bytes([i]) * 64, "mime": "video/mp4",
                 "meta": "{}"} for i in range(4)]
        out = media_pipeline(
            ray.data.from_items(rows), "video", concurrency=2, batch_size=2
        ).to_pandas()
        # one row per SAMPLED frame; stride = every_sec * fps = 48
        assert set(out["media_id"]) == {0, 1, 2, 3}
        one = out[out["media_id"] == 0].sort_values("frame_index")
        assert one["frame_index"].iloc[0] == 0
        if len(one) > 1:
            assert one["frame_index"].iloc[1] == 48
        assert (one["ts_sec"] == one["frame_index"] / 24.0).all()
        assert all(len(f) == 16 for f in out["features"])
        # deterministic across runs
        out2 = media_pipeline(
            ray.data.from_items(rows), "video", concurrency=1, batch_size=4
        ).to_pandas()
        a = out.sort_values(["media_id", "frame_index"]).reset_index(drop=True)
        b = out2.sort_values(["media_id", "frame_index"]).reset_index(drop=True)
        assert a["features"].map(tuple).equals(b["features"].map(tuple))

    def test_strict_raises(self):
        import pytest

        from alix_ray.ops.multimodal import VideoFrameSample

        import pyarrow as pa

        with pytest.raises(NotImplementedError):
            VideoFrameSample(strict=True)(
                pa.table({"media_id": pa.array([1], pa.int64()),
                          "payload": pa.array([b"x"], pa.binary())})
            )


class TestBigramLM:
    def _docs(self):
        return pd.DataFrame({
            "doc_id": [1, 2, 3, 4],
            "text": [
                "the cat sat on the mat",
                "the cat sat on the cat",
                "zebra quark flux",   # rare grams → high ppl
                "x",                  # single token → no bigrams
            ],
        })

    def test_counts_and_hand_probability(self, ray_session):
        import ray.data

        from alix_ray.ops.lm import perplexity, train_bigram_counts

        ds = ray.data.from_pandas(self._docs()).repartition(3)
        counts = counts_df = train_bigram_counts(ds).to_pandas()
        uni = counts_df[counts_df["order"] == 1].set_index("gram")["cnt"]
        bi = counts_df[counts_df["order"] == 2].set_index("gram")["cnt"]
        assert uni["the"] == 4 and uni["cat"] == 3
        assert bi["the cat"] == 3 and bi["cat sat"] == 2
        v = (counts_df["order"] == 1).sum()
        got = perplexity(ds, add_k=0.5).to_pandas()
        got = got.set_index("doc_id")
        # doc 4 has one token → excluded
        assert 4 not in got.index and len(got) == 3
        # hand-check doc 1: bigrams the-cat cat-sat sat-on on-the the-mat
        logs = [
            np.log((bi["the cat"] + 0.5) / (uni["the"] + 0.5 * v)),
            np.log((bi["cat sat"] + 0.5) / (uni["cat"] + 0.5 * v)),
            np.log((bi["sat on"] + 0.5) / (uni["sat"] + 0.5 * v)),
            np.log((bi["on the"] + 0.5) / (uni["on"] + 0.5 * v)),
            np.log((bi["the mat"] + 0.5) / (uni["the"] + 0.5 * v)),
        ]
        avg = float(np.mean(logs))
        assert got.loc[1, "avg_logprob"] == pytest.approx(avg, abs=1e-6)
        assert got.loc[1, "ppl"] == pytest.approx(np.exp(-avg), rel=1e-6)
        # repeated common bigrams beat the rare-gram doc
        assert got.loc[2, "ppl"] < got.loc[3, "ppl"]

    def test_join_path_matches_broadcast(self, ray_session, monkeypatch):
        import ray.data

        from alix_ray.ops import lm
        from alix_ray.ops.lm import perplexity, train_bigram_counts

        ds = ray.data.from_pandas(self._docs()).repartition(3)
        counts = train_bigram_counts(ds).materialize()
        b = (perplexity(ds, counts=counts).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
        # a gate of -1 sends every count table down the join path
        monkeypatch.setattr(lm, "PPL_BROADCAST_MAX_GRAMS", -1)
        j = (perplexity(ds, counts=counts).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(b, j[b.columns], check_dtype=False)

    def test_foreign_lm_unseen_grams(self, ray_session):
        import ray.data

        from alix_ray.ops.lm import perplexity, train_bigram_counts

        train = ray.data.from_pandas(self._docs())
        counts = train_bigram_counts(train).materialize()
        score = ray.data.from_pandas(pd.DataFrame({
            "doc_id": [9], "text": ["wholly novel tokens here"]}))
        got = perplexity(score, counts=counts).to_pandas()
        # every gram unseen → P = k / (0 + k·V) = 1/V per bigram
        v = counts.to_pandas().pipe(lambda d: (d["order"] == 1).sum())
        assert got["ppl"].iloc[0] == pytest.approx(float(v), rel=1e-6)


class TestDsir:
    def test_target_affinity_and_partition_invariance(self, ray_session):
        import ray.data

        from alix_ray.ops.dsir import dsir_weights

        df = pd.DataFrame({
            "doc_id": range(8),
            "text": (["the quick brown fox jumps the fence"] * 3
                     + ["le chat noir dort sur le tapis"] * 3
                     + ["the quick cat", "le brown fox"]),
            "lang": ["en"] * 3 + ["fr"] * 3 + ["xx", "xx"],
        })
        ds = ray.data.from_pandas(df).repartition(4)
        got = dsir_weights(ds, buckets=512).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert len(got) == 8
        # doc 6 shares grams with the en target, doc 7 with the fr
        # non-target docs → target-affine doc scores strictly higher
        w = got.set_index("doc_id")["logw"]
        assert w[6] > w[7]
        assert all(w[i] > w[j] for i in (0, 1, 2) for j in (3, 4, 5))
        # pure function of content — identical under another partitioning
        got2 = dsir_weights(ray.data.from_pandas(df).repartition(2),
                            buckets=512).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, got2)


class TestPacking:
    def test_offsets_exact_and_partition_invariant(self, ray_session):
        import ray.data

        from alix_ray.ops.packing import pack_offsets

        df = pd.DataFrame({
            "doc_id": [0, 1, 2, 3, 4],
            "text": ["a b c", "", "d e", "f g h i j", "k"],
        })
        got = pack_offsets(ray.data.from_pandas(df).repartition(3),
                           seq_len=4, shard_size=2).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert got["n_tokens"].tolist() == [3, 0, 2, 5, 1]
        assert got["offset"].tolist() == [0, 3, 3, 5, 10]
        assert got["chunk_id"].tolist() == [0, 0, 0, 1, 2]
        assert got["chunk_pos"].tolist() == [0, 3, 3, 1, 2]
        # scan is deterministic under any partitioning / shard size
        got2 = pack_offsets(ray.data.from_pandas(df).repartition(5),
                            seq_len=4, shard_size=1000).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, got2)


class TestHashSplit:
    def test_partition_and_proportions(self, ray_session):
        import ray.data

        from alix_ray.ops.mixing import hash_split

        df = pd.DataFrame({"doc_id": range(2000)})
        got = hash_split(ray.data.from_pandas(df).repartition(7),
                         {"train": 0.8, "val": 0.1, "test": 0.1}) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        frac = got["split"].value_counts(normalize=True)
        assert 0.75 < frac["train"] < 0.85
        assert 0.06 < frac["val"] < 0.14
        assert 0.06 < frac["test"] < 0.14
        # every row in exactly one split; invariant under partitioning
        got2 = hash_split(ray.data.from_pandas(df).repartition(2),
                          {"train": 0.8, "val": 0.1, "test": 0.1}) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert got["split"].tolist() == got2["split"].tolist()
        with pytest.raises(ValueError):
            hash_split(ray.data.from_pandas(df), {"a": 0.5, "b": 0.4})


class TestVocabReports:
    def test_keywords_hand_check(self, ray_session):
        import ray.data

        from alix_ray.ops.reports import keywords_report

        df = pd.DataFrame({
            "doc_id": [1, 2, 3],
            "text": ["zebra zebra zebra apple",
                     "apple banana apple banana cherry",
                     "the the the of of zebra"],
        })
        got = keywords_report(ray.data.from_pandas(df), k=2) \
            .to_pandas()
        freq1 = got[(got["doc_id"] == 1) & (got["metric"] == "freq")]
        assert freq1["term"].tolist() == ["zebra", "apple"]
        assert freq1["score"].tolist() == [3.0, 1.0]
        # stop words (en profile) never appear
        assert not got["term"].isin(["the", "of"]).any()
        # G promotes the doc-distinctive term
        g2_doc2 = got[(got["doc_id"] == 2) & (got["metric"] == "g")]
        assert g2_doc2["term"].iloc[0] in ("banana", "apple")
        # freq_idf: df(zebra)=2, df(cherry)=1 → cherry has higher idf
        fi2 = got[(got["doc_id"] == 2) & (got["metric"] == "freq_idf")]
        assert "cherry" in fi2["term"].tolist()

    def test_names_and_unknowns_rules(self, ray_session):
        import ray.data

        from alix_ray.ops.reports import (
            expressions_report,
            names_report,
            unknowns_report,
        )

        df = pd.DataFrame({
            "doc_id": [1, 2],
            # "reste" is lexicon-known (break); "rencontre" is NOT in
            # the mini-lexicon (pass-through, run persists across it
            # — Names.java:157-186: only punct/math/digit-initial/
            # known words break); "et" is a STOP token (break)
            "text": ["Jean Valjean reste. Jean Valjean et "
                     "Cosette rencontre Fantine",
                     "le blorptag du flumzor reste un blorptag xyzq123"],
        })
        ds = ray.data.from_pandas(df)
        names = names_report(ds, k=10)
        by_form = dict(zip(names["form"], names["n"]))
        assert by_form["Jean Valjean"] == 2
        # the unknown lowercase word does NOT flush the run:
        # "Cosette … Fantine" joins across "rencontre"
        assert by_form.get("Cosette Fantine") == 1
        assert "Cosette" not in by_form
        unk = unknowns_report(ds, k=10)
        forms = unk["form"].tolist()
        assert "blorptag" in forms and "flumzor" in forms
        # digit-final and <3-char forms excluded (Unknowns.java rules)
        assert "xyzq123" not in forms
        expr = expressions_report(ds, k=10, width=2)
        assert (expr["n"] > 0).all() if len(expr) else True


class TestBalinoms:
    def test_tagging_and_byte_identity(self, ray_session):
        import re

        import ray.data

        from alix_ray.ops.reports import balinoms

        df = pd.DataFrame({
            "doc_id": [1, 2],
            "text": ["<p>Selon M. Martin et Cosette, la table.</p>",
                     "le chat dort sur la table"],
        })
        got = balinoms(ray.data.from_pandas(df)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert got["n_names"].tolist() == [2, 0]
        assert '<persName key="M. Martin">M. Martin</persName>' \
            in got["tagged"].iloc[0]
        for i in range(2):
            assert re.sub(r"</?persName[^>]*>", "",
                          got["tagged"].iloc[i]) == df["text"].iloc[i]


class TestCrossDedup:
    def test_planted_cross_duplicate(self, ray_session):
        import ray.data

        from alix_ray.ops.dedup import minhash_cross_pairs

        words = [f"w{i}" for i in range(60)]
        base = " ".join(words)
        corpus = ray.data.from_items([
            {"doc_id": 0, "text": base},                     # fuzzy copy
            {"doc_id": 1, "text": " ".join(reversed(words))},
            {"doc_id": 2, "text": "totally different words here"},
        ])
        ref = ray.data.from_items([
            {"doc_id": 0, "text": base + " extra"},          # eval doc
            {"doc_id": 1, "text": "unrelated benchmark row"},
        ])
        got = minhash_cross_pairs(corpus, ref, threshold=0.5).to_pandas()
        assert len(got) == 1
        assert got.iloc[0]["doc_id"] == 0 and got.iloc[0]["ref_id"] == 0
        assert got.iloc[0]["jaccard"] > 0.9


class TestPackChunks:
    def test_spans_reassemble_windows(self, ray_session):
        import ray.data

        from alix_ray.ops.packing import pack_chunks

        df = pd.DataFrame({
            "doc_id": [0, 1, 2, 3],
            "text": ["a b c", "", "d e f g h i j", "k l"],
        })
        got = pack_chunks(ray.data.from_pandas(df).repartition(2),
                          seq_len=4, shard_size=2).to_pandas() \
            .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
        # offsets: doc0 @0 (3 toks), doc1 empty, doc2 @3 (7), doc3 @10 (2)
        rows = got.to_records(index=False).tolist()
        assert rows == [
            (0, 0, 0, 3),          # doc0 fully in window 0
            (2, 0, 0, 1),          # doc2 tokens 0:1 fill window 0
            (2, 1, 1, 5),          # tokens 1:5 fill window 1
            (2, 2, 5, 7),          # tokens 5:7 start window 2
            (3, 2, 0, 2),          # doc3 completes window 2
        ]
        # spans tile each window exactly: per chunk, span lengths sum
        # to seq_len (except the final partial window)
        per_chunk = got.assign(w=got["tok_end"] - got["tok_start"]) \
            .groupby("chunk_id")["w"].sum()
        assert per_chunk.loc[0] == 4 and per_chunk.loc[1] == 4
        assert per_chunk.loc[2] == 4  # 2 from doc2 + 2 from doc3
