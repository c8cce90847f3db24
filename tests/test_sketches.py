"""HyperLogLog sketch tests."""

import numpy as np
import pandas as pd


def _ds(rows):
    import ray.data

    return ray.data.from_pandas(pd.DataFrame(rows))


def test_rho_exact_bit_semantics():
    from alix_ray.ops.sketches import HLL_Q, _rho40

    w = np.array([0, 1, 2, 3, (1 << 39), (1 << 39) - 1,
                  (1 << 40) - 1], np.uint64)
    got = _rho40(w)
    # w=0 -> 41; w=1 -> 40 leading zeros above it -> rho 40; top bit -> 1
    assert got.tolist() == [HLL_Q + 1, 40, 39, 39, 1, 2, 1]


def test_estimate_accuracy_and_merge_invariance(ray_session):
    from alix_ray.ops.sketches import hll_distinct

    rng = np.random.RandomState(41)
    # two groups with known distinct counts, keys repeated 3x shuffled
    ka = [f"url-a-{i}" for i in range(400)]
    kb = [f"url-b-{i}" for i in range(90)]
    keys = (ka + kb) * 3
    grps = (["A"] * 400 + ["B"] * 90) * 3
    order = rng.permutation(len(keys))
    ds = _ds({"k": [keys[i] for i in order],
              "g": [grps[i] for i in order]})
    est = hll_distinct(ds, "k", "g").to_pandas().set_index("group")
    # HLL at p=10 has ~3.25% stderr; allow 4 sigma
    assert abs(est.loc["A", "est"] - 400) < 400 * 0.13
    assert abs(est.loc["B", "est"] - 90) < 90 * 0.13
    # register max-merge is order/partition independent: bit-equal
    est2 = hll_distinct(ds.repartition(7), "k", "g").to_pandas() \
        .set_index("group")
    pd.testing.assert_frame_equal(est, est2)


def test_cms_superset_and_merge_invariance(ray_session):
    from alix_ray.ops.sketches import cms_heavy_hitters

    rng = np.random.RandomState(43)
    # zipfy stream: 'hot' 500x, 'warm' 120x, 60 cold keys 1-5x
    keys = ["hot"] * 500 + ["warm"] * 120
    for i in range(60):
        keys += [f"cold{i}"] * int(rng.randint(1, 6))
    rng.shuffle(keys)
    ds = _ds({"k": keys})
    n = len(keys)
    got = (cms_heavy_hitters(ds, "k", phi=0.1).to_pandas()
           .sort_values("key").reset_index(drop=True))
    # superset guarantee: every true heavy hitter is present, and CMS
    # never under-counts
    assert "hot" in set(got["key"])
    assert "warm" in set(got["key"])
    est = got.set_index("key")["est"]
    assert est["hot"] >= 500
    assert est["warm"] >= 120
    # sum-merge is partition-order independent: bit-equal
    got2 = (cms_heavy_hitters(ds.repartition(9), "k", phi=0.1)
            .to_pandas().sort_values("key").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, got2)


def test_cms_local_candidates_keep_true_heavies(ray_session):
    from alix_ray.ops.sketches import cms_heavy_hitters

    rng = np.random.RandomState(47)
    keys = ["hot"] * 400 + [f"cold{i}" for i in range(200)] * 2
    rng.shuffle(keys)
    ds = _ds({"k": keys}).repartition(6)
    full = cms_heavy_hitters(ds, "k", phi=0.2).to_pandas()
    loc = cms_heavy_hitters(ds, "k", phi=0.2,
                            candidates="local").to_pandas()
    # the pruned candidate set keeps every true heavy hitter and is a
    # subset of the distinct-candidate output
    assert "hot" in set(loc["key"])
    assert set(loc["key"]) <= set(full["key"])
