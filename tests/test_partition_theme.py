"""Tests: year partitioner (Partition.build semantics), theme terms,
cooc profile/matrix."""

import numpy as np
import pytest


class TestYearParts:
    def test_focus_is_one_part(self):
        from alix_ray.ops.partition import year_parts

        years = np.array([1900, 1905, 1950, 1951, 1952, 1980, 1999])
        ids, parts = year_parts(years, 1950, 1952, period=10)
        focus = [i for i, p in enumerate(parts) if p[2]]
        assert len(focus) == 1
        fid = focus[0]
        assert parts[fid][:2] == (1950, 1952)
        assert set(ids[(years >= 1950) & (years <= 1952)]) == {fid}

    def test_thin_periods_merge_not_across_focus(self):
        from alix_ray.ops.partition import year_parts

        # one doc in 1900s, dense 1990s; thin pre-focus decade must
        # merge with its neighbor on the SAME side of the focus
        years = np.array([1901] + [1991] * 5 + [1955] * 3)
        ids, parts = year_parts(years, 1950, 1959, period=10, min_docs=2)
        for lo, hi, is_focus in parts:
            if not is_focus:
                assert not (lo <= 1950 <= hi or lo <= 1959 <= hi)
        # 1901 ended up in some non-focus part covering it
        p1901 = ids[0]
        assert p1901 >= 0 and not parts[p1901][2]

    def test_every_doc_partitioned(self):
        from alix_ray.ops.partition import year_parts

        years = np.arange(1800, 2000)
        ids, parts = year_parts(years, 1880, 1899, period=20)
        assert (ids >= 0).all()
        # parts tile the range without overlap
        spans = sorted((p[0], p[1]) for p in parts)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b < c


class TestThemeTerms:
    @pytest.fixture(scope="class")
    def ix(self, ray_session, tmp_path_factory):
        import ray.data

        from alix_ray.index.engine import BM25Index
        from alix_ray.stages.build import IndexBuilder

        out = str(tmp_path_factory.mktemp("theme"))
        rows = []
        for i in range(20):
            word = "focusword" if i < 10 else "restword"
            rows.append({"doc_id": i,
                         "text": f"{word} shared common {word} filler{i}"})
        b = IndexBuilder(out, analyzer="simple")
        b.build(ray.data.from_items(rows), input_kind="documents",
                fingerprint="theme")
        return BM25Index(out)

    @pytest.mark.parametrize("mode", ["BM25", "MINUS", "WEIGHTED", "IRDF",
                                      "RSJ", "FACTOR"])
    def test_focus_term_ranks_first(self, ix, mode):
        mask = np.zeros(20, bool)
        mask[:10] = True
        top = ix.theme_terms(mask, k=3, mode=mode)
        assert top[0][0] == "focusword", (mode, top)

    def test_deterministic(self, ix):
        mask = np.zeros(20, bool)
        mask[:10] = True
        assert ix.theme_terms(mask, k=5) == ix.theme_terms(mask, k=5)
    @pytest.mark.parametrize("mode", ["BM25", "MINUS", "WEIGHTED", "IRDF",
                                      "RSJ", "FACTOR", "DKL"])
    def test_distributed_path_matches(self, ix, mode, monkeypatch):
        """The term_stats-style Ray job over the postings artifact (forced
        by a -1 size gate) must agree with the in-process stream at the
        oracle's round-6 tolerance, every mode."""
        mask = np.zeros(20, bool)
        mask[:10] = True
        assert ix.postings.total_bytes <= ix.THEME_DISTRIBUTED_MIN_BYTES
        a = ix.theme_terms(mask, k=8, mode=mode)
        monkeypatch.setattr(ix, "THEME_DISTRIBUTED_MIN_BYTES", -1)
        b = ix.theme_terms(mask, k=8, mode=mode)
        assert [t for t, _ in a] == [t for t, _ in b]
        np.testing.assert_allclose([s for _, s in a], [s for _, s in b],
                                   rtol=1e-9, atol=1e-12)

    def test_theme_sweep_caches_stay_bounded(self, ix):
        """A full-vocabulary theme sweep must not pin the decoded index
        in replica memory: the shard memo evicts at its LRU cap, and
        the contrib cache is likewise bounded."""
        ix.postings._SHARDS_CACHE_MAX = 8
        ix.postings._shards.clear()
        mask = np.zeros(20, bool)
        mask[5:12] = True  # distinct mask → no _theme_cache hit
        assert ix.postings.total_bytes <= ix.THEME_DISTRIBUTED_MIN_BYTES
        ix.theme_terms(mask, k=5)
        assert len(ix.postings) > 8  # sweep touched > cap terms
        assert len(ix.postings._shards) <= 8
        # decoded arrays on evicted shards are garbage — only the
        # cached tail may hold them
        ix._CONTRIB_CACHE_MAX = 3
        ix._contrib_cache.clear()
        for t in list(ix.postings)[:10]:
            ix._term_contrib(t, "bm25")
        assert len(ix._contrib_cache) <= 3
        # hot entry survives: re-touch keeps it at the LRU tail
        hot = next(iter(ix._contrib_cache))
        ix._term_contrib(hot, "bm25")
        ix._term_contrib(list(ix.postings)[11], "bm25")
        assert hot in ix._contrib_cache

    def test_dkl_requires_both_parts(self, ix):
        # DklContrast returns NaN (→ excluded) for terms absent from
        # either part (IdfTermScorer.java termScore guards) — the
        # focus-only 'focusword' must NOT appear under DKL
        mask = np.zeros(20, bool)
        mask[:10] = True
        top = ix.theme_terms(mask, k=5, mode="DKL")
        assert "focusword" not in [t for t, _ in top]
        assert top  # cross-part terms are scored



class TestCooc:
    def test_profile_distances(self, ray_session):
        import ray.data

        from alix_ray.ops.analytics import cooc_profile

        ds = ray.data.from_items([{"doc_id": 0, "text": "a p b p c"}])
        df = cooc_profile(ds, "p", radius=2).to_pandas()
        got = {(r.coterm, r.distance): r.n for r in df.itertuples()}
        # p@1: a d1, b d1, c... positions: a0 p1 b2 p3 c4
        assert got[("a", 1)] == 1
        assert got[("b", 1)] == 2  # from both pivots
        assert got[("p", 2)] == 2  # pivots see each other (both ways)

    def test_matrix(self, ray_session):
        import ray.data

        from alix_ray.ops.analytics import cooc_matrix

        ds = ray.data.from_items([{"doc_id": 0, "text": "x y z x y"}])
        df = cooc_matrix(ds, ["x"], ["y", "z"], window=1).to_pandas()
        got = {(r.row, r.col): r.n for r in df.itertuples()}
        assert got[("x", "y")] == 2
        assert got[("x", "z")] == 1

class TestThemeTermsDs:
    def test_matches_engine_all_modes(self, ray_session, tmp_path):
        """The distributed theme-terms job agrees with the engine's
        streaming version on every mode (same formulas, different
        execution shape)."""
        import numpy as np
        import pyarrow.parquet as pq
        import ray.data

        from alix_ray.index.engine import BM25Index
        from alix_ray.ops.analytics import theme_terms_ds
        from alix_ray.stages.build import IndexBuilder

        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(40)]
        rows = []
        for i in range(60):
            lang = "en" if i % 3 == 0 else "fr"
            k = int(rng.integers(5, 40))
            words = [vocab[int(x)] for x in rng.integers(0, 40, k)]
            if lang == "en":
                words += ["special"] * int(rng.integers(1, 4))
            rows.append({"doc_id": i, "lang": lang, "text": " ".join(words)})
        ds = ray.data.from_items(rows)
        b = IndexBuilder(str(tmp_path / "ix"), analyzer="simple")
        b.build(ray.data.from_items(
            [{"doc_id": r["doc_id"], "text": r["text"]} for r in rows]
        ), input_kind="documents", fingerprint="tt")
        ix = BM25Index(str(tmp_path / "ix"))
        mask = np.zeros(60, bool)
        mask[[r["doc_id"] for r in rows if r["lang"] == "en"]] = True
        for mode in ("BM25", "MINUS", "WEIGHTED", "IRDF", "RSJ",
                     "FACTOR", "DKL"):
            eng = ix.theme_terms(mask, k=10, mode=mode)
            dist = theme_terms_ds(ds, "lang", "en", mode=mode, k=10)
            assert [t for t, _ in eng] == dist["term"].tolist(), mode
            for (_, se), sd in zip(eng, dist["score"]):
                assert abs(se - sd) < 1e-9, mode
