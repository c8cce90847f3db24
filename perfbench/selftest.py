"""Self-test of the benchmark's own machinery (no Ray session needed).

    python3 perfbench/selftest.py      # from the repository root

Checks that the same seed gives identical inputs and different seeds
give different ones, that BENCHMARK.json matches the metric catalogue,
and that the tracer's self time and the reference computations behave.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import sys
import time
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402
import pandas as pd  # noqa: E402

from alix_ray.corpus import DUP_EVERY  # noqa: E402
from perfbench import checks, inputs, metrics, workloads  # noqa: E402
from perfbench.common import REF_NOMINAL_S, HostReference  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


class FakeIndex:
    """Just what the query-mix generator reads: a lexicon and cf."""

    def __init__(self, n_terms: int = 500):
        self.lexicon = [f"t{i:04d}" for i in range(n_terms)]
        self.cf = {t: 10_000 // (i + 1) + 1 for i, t in enumerate(self.lexicon)}


def all_inputs(seed: int) -> dict:
    ix = FakeIndex()
    start = inputs.window_start(seed)
    src, dst = inputs.component_edges(seed, 300)
    return {
        "window": start,
        "pages": inputs.table_digest(inputs.pages(start, 40)),
        "documents": inputs.table_digest(inputs.documents(seed, 40)),
        "edges": (src.tobytes(), dst.tobytes()),
        "queries": inputs.query_mix(ix, seed, 200),
        "deletes": inputs.rng_for(seed, "deletes").choice(1000, 50).tolist(),
    }


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(all_inputs(7), all_inputs(7))

    def test_different_seeds_differ(self):
        a, b = all_inputs(7), all_inputs(8)
        for key in a:
            self.assertNotEqual(a[key], b[key], key)

    def test_query_mix_covers_every_kind(self):
        qs = inputs.query_mix(FakeIndex(), 3, 400)
        kinds = {q[0] for q in qs}
        widths = {len(q[1]) for q in qs if q[0] == "terms"}
        self.assertEqual(kinds, {"terms", "parsed"})
        self.assertTrue({1, 2, 3, 4} <= widths)
        self.assertEqual({q[2] for q in qs}, {10, 100})

    def test_windows_keep_duplicate_pairs_together(self):
        # ingest adds a base and then deltas laid end to end; a url
        # repeated across two of them would be indexed twice
        sizes = [workloads.INGEST_BASE_PAGES, workloads.INGEST_DELTA_PAGES,
                 workloads.BUILD_PAGES, workloads.SERVE_PAGES]
        self.assertEqual([n % DUP_EVERY for n in sizes], [0] * len(sizes))
        for seed in range(200):
            self.assertEqual(inputs.window_start(seed) % DUP_EVERY, 0, seed)

        def shared_urls(start):
            a = inputs.pages(start, 2 * DUP_EVERY)
            b = inputs.pages(start + 2 * DUP_EVERY, DUP_EVERY)
            return inputs.distinct_urls(a) & inputs.distinct_urls(b)

        self.assertEqual(shared_urls(inputs.window_start(3)), set())
        # a start with start % DUP_EVERY == 1 splits a pair
        self.assertEqual(len(shared_urls(10 * DUP_EVERY + 1)), 1)

    def test_near_duplicates_planted(self):
        docs = inputs.documents(5, 30).to_pydict()
        for j in range(inputs.NEAR_DUP_EVERY - 1, 30, inputs.NEAR_DUP_EVERY):
            self.assertTrue(docs["text"][j].startswith(docs["text"][j - 1]))


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_matches_catalogue(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]],
            [tuple(m) for m in metrics.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [m[:3] for m in metrics.LAYER_METRICS])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(metrics.E2E_MEANING))


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = Tracer()

        def child():
            time.sleep(0.02)

        def parent():
            tr.call("child", child)
            time.sleep(0.01)

        tr.new_request()
        tr.call("parent", parent)
        self.assertAlmostEqual(tr.self_time("parent"), 0.01, delta=0.008)
        self.assertGreaterEqual(tr.total("parent"), 0.03)
        p, c = {s["name"]: s for s in tr.spans}["parent"], \
            {s["name"]: s for s in tr.spans}["child"]
        self.assertEqual(c["parent"], p["id"])
        self.assertEqual(c["request"], p["request"])

    def test_wrap_and_restore(self):
        class Box:
            def f(self, x):
                return x + 1

        tr = Tracer()
        tr.wrap(Box, "f", "box.f")
        self.assertEqual(Box().f(1), 2)
        with tr.pause():
            Box().f(1)
        tr.restore()
        Box().f(1)
        self.assertEqual(tr.calls("box.f"), 1)


class OracleTest(unittest.TestCase):
    def test_components_union_find(self):
        src = np.array([0, 2, 5], np.int64)
        dst = np.array([1, 3, 2], np.int64)
        want = checks.components_expected(6, src, dst)
        self.assertEqual(want.tolist(), [0, 0, 2, 2, 4, 2])
        df = pd.DataFrame({"node": range(6), "component": want})
        self.assertEqual(checks.components_mismatches(df, 6, src, dst), 0)
        df.loc[5, "component"] = 5
        self.assertEqual(checks.components_mismatches(df, 6, src, dst), 1)

    def test_snapshot_rule(self):
        st = checks.snapshot_status(16)
        self.assertNotIn(0, st)          # in neither snapshot
        self.assertEqual(st[3], "new")   # dropped from old only
        self.assertEqual(st[5], "deleted")
        self.assertEqual(st[7], "changed")
        self.assertEqual(st[1], "same")



class HostReferenceTest(unittest.TestCase):
    def test_slowdown_is_median_over_nominal(self):
        ref = HostReference()
        ref.sample(3)
        self.assertEqual([len(v) for v in ref.samples.values()], [3, 3, 3])
        self.assertGreater(ref.slowdown(), 0.0)
        ref.samples = {k: [v, 2 * v, 3 * v] for k, v in REF_NOMINAL_S.items()}
        self.assertEqual(ref.mark(), 3)
        self.assertAlmostEqual(ref.slowdown(), 2.0)
        self.assertAlmostEqual(ref.slowdown(2, 3), 3.0)
        # the geometric mean over the parts
        ref.samples["numpy"] = [4 * REF_NOMINAL_S["numpy"]] * 3
        self.assertAlmostEqual(ref.slowdown(), (2.0 * 4.0 * 2.0) ** (1 / 3))


if __name__ == "__main__":
    unittest.main()
