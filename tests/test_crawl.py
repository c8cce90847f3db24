"""Unit tests for the crawl lifecycle ops (snapshot diff, url
canonicalization, domain stats, pagerank)."""

import numpy as np
import pandas as pd
import pytest
import pyarrow as pa


def _ds(rows):
    import ray.data

    return ray.data.from_pandas(pd.DataFrame(rows))


class TestSnapshotDiff:
    def test_statuses(self, ray_session):
        from alix_ray.ops.crawl import snapshot_diff

        old = _ds({"doc_id": [1, 2, 3, 4], "text": ["a", "b", "c", "d"]})
        new = _ds({"doc_id": [2, 3, 5], "text": ["b", "C!", "e"]})
        got = snapshot_diff(old, new).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        want = pd.DataFrame({
            "doc_id": [1, 2, 3, 4, 5],
            "status": ["deleted", "same", "changed", "deleted", "new"]})
        pd.testing.assert_frame_equal(got, want)

    def test_partition_independence(self, ray_session):
        from alix_ray.ops.crawl import snapshot_diff

        n = 300
        old = _ds({"doc_id": list(range(n)),
                   "text": [f"t{i}" for i in range(n)]})
        new_rows = {"doc_id": [i for i in range(n + 50) if i % 3],
                    "text": [f"t{i}" if i % 7 else f"e{i}"
                             for i in range(n + 50) if i % 3]}
        a = snapshot_diff(old, _ds(new_rows)).to_pandas()
        b = snapshot_diff(old.repartition(7),
                          _ds(new_rows).repartition(3)).to_pandas()
        key = lambda d: d.sort_values("doc_id").reset_index(drop=True)  # noqa: E731
        pd.testing.assert_frame_equal(key(a), key(b))
        assert len(a) == len(set(old.to_pandas()["doc_id"])
                             | set(new_rows["doc_id"]))

    def test_duplicate_keys_fold_to_min_hash(self, ray_session):
        from alix_ray.ops.crawl import snapshot_diff

        old = _ds({"doc_id": [1, 1], "text": ["x", "y"]})
        new = _ds({"doc_id": [1], "text": ["x"]})
        got = snapshot_diff(old, new).to_pandas()
        assert len(got) == 1
        assert got["status"].iloc[0] in ("same", "changed")  # deterministic
        again = snapshot_diff(old, new).to_pandas()
        assert got["status"].iloc[0] == again["status"].iloc[0]


class TestUrlNormalize:
    CASES = {
        "https://a.org/p/1": "https://a.org/p/1",
        "https://a.org:443/p/2?id=3&utm_source=x#f": "https://a.org/p/2?id=3",
        "http://b.org:80/p/4/": "http://b.org/p/4",
        "https://c.org/p?utm_a=1&utm_b=2": "https://c.org/p",
        "https://c.org/p?id=7&fbclid=zz&x=1": "https://c.org/p?id=7&x=1",
        "https://d.org/": "https://d.org",
        # params CONTAINING a tracking prefix are NOT tracking params
        "https://a.org/p?myutm_x=1": "https://a.org/p?myutm_x=1",
        # default port directly before the query string
        "https://a.org:443?x=1": "https://a.org?x=1",
        # consecutive tracking params all drop
        "https://h.org/p?utm_a=1&b=2&utm_c=3&d=4": "https://h.org/p?b=2&d=4",
        "https://g.org/p?": "https://g.org/p",
        "notaurl": "notaurl",
    }

    def test_normalize_batch(self):
        from alix_ray.ops.crawl import normalize_batch

        u, dom = normalize_batch(pa.array(list(self.CASES)))
        assert u.to_pylist() == list(self.CASES.values())
        assert dom.to_pylist() == ["a.org", "a.org", "b.org", "c.org",
                                   "c.org", "d.org", "a.org", "a.org",
                                   "h.org", "g.org", ""]

    def test_domain_stats(self, ray_session):
        from alix_ray.ops.crawl import domain_stats

        urls = (["https://a.org/x", "https://a.org/x?utm_s=1",
                 "https://a.org/y"] + ["https://b.org/1"] * 2)
        ds = _ds({"url": urls, "n_chars": [10, 20, 30, 5, 5]})
        got = domain_stats(ds).to_pandas().sort_values(
            "domain").reset_index(drop=True)
        want = pd.DataFrame({
            "domain": ["a.org", "b.org"],
            "n_pages": [3, 2], "n_urls": [2, 1],
            "total_chars": [60, 10]})
        pd.testing.assert_frame_equal(got, want)
        # partial-combine correctness: tiny batches, same answer
        got2 = domain_stats(ds.repartition(5)).to_pandas().sort_values(
            "domain").reset_index(drop=True)
        pd.testing.assert_frame_equal(got2, want)


def _reference_pagerank(edges, n, n_iter=5, d=0.85, rd=9):
    from alix_ray.ops.textstats import round_half_away

    outdeg = np.zeros(n)
    np.add.at(outdeg, edges[:, 0], 1)
    r = round_half_away(np.full(n, 1.0 / n), rd)
    dangling = outdeg == 0
    for _ in range(n_iter):
        acc = np.zeros(n)
        w = round_half_away(
            r[edges[:, 0]] / outdeg[edges[:, 0]], rd + 3)
        np.add.at(acc, edges[:, 1], w)
        r = round_half_away(
            (1 - d) / n + d * (acc + r[dangling].sum() / n), rd)
    return r


class TestPagerank:
    def test_matches_dense_reference(self, ray_session):
        from alix_ray.ops.crawl import pagerank

        n = 50
        rng = np.random.default_rng(3)
        edges = rng.integers(0, n, (400, 2))
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        got = pagerank(ds, n).to_pandas().sort_values("node")
        want = _reference_pagerank(edges, n)
        np.testing.assert_allclose(got["rank"].to_numpy(), want,
                                   rtol=0, atol=2e-9)
        # probability mass is conserved (no dangling loss)
        assert got["rank"].sum() == pytest.approx(1.0, abs=1e-6)

    def test_dangling_nodes_and_partitions(self, ray_session):
        from alix_ray.ops.crawl import pagerank

        # node 3 has no out-edges: its mass redistributes uniformly
        edges = np.array([[0, 1], [1, 2], [2, 3], [2, 0]])
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        got = pagerank(ds, 4).to_pandas().sort_values("node")
        want = _reference_pagerank(edges, 4)
        np.testing.assert_allclose(got["rank"].to_numpy(), want, atol=2e-9)
        got2 = pagerank(ds.repartition(4), 4).to_pandas().sort_values(
            "node")
        assert got["rank"].tolist() == got2["rank"].tolist()

    def test_broadcast_bound_raises(self, ray_session):
        from alix_ray.ops.crawl import pagerank

        with pytest.raises(ValueError):
            pagerank(_ds({"src": [0], "dst": [1]}), 10,
                     max_broadcast_nodes=5)

    def test_partitioned_variant_bit_equal(self, ray_session):
        """The distributed-ranks variant (two slim shuffles/iter,
        nothing O(n_nodes) anywhere) must be bit-equal to the
        broadcast path — same rounding schedule, different summation
        grouping.  Covers a dangling node and repartitioned edges."""
        from alix_ray.ops.crawl import pagerank, pagerank_partitioned

        n = 60
        rng = np.random.default_rng(11)
        edges = rng.integers(0, n, (300, 2))
        edges = edges[edges[:, 0] != 7]  # node 7 dangles
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        a = pagerank(ds, n).to_pandas().sort_values("node")
        b = pagerank_partitioned(ds.repartition(5), n).to_pandas() \
            .sort_values("node")
        assert a["node"].tolist() == b["node"].tolist()
        assert a["rank"].tolist() == b["rank"].tolist()


class TestAnchorTerms:
    def test_counts_and_tie_rule(self, ray_session):
        from alix_ray.ops.crawl import anchor_terms

        links = _ds({
            "dst": [1, 1, 1, 2, 2],
            "anchor": ["Home Page!", "home sweet home", "page",
                       "About Us", "about"]})
        got = anchor_terms(links, k=2).to_pandas().sort_values(
            ["dst", "n", "term"],
            ascending=[True, False, True]).reset_index(drop=True)
        # dst 1: home×3, page×2, sweet×1 → top-2 home/page;
        # dst 2: about×2, us×1
        want = pd.DataFrame({"dst": [1, 1, 2, 2],
                             "term": ["home", "page", "about", "us"],
                             "n": [3, 2, 2, 1]})
        pd.testing.assert_frame_equal(got, want)

    def test_partition_independence(self, ray_session):
        from alix_ray.ops.crawl import anchor_terms

        rows = {"dst": [i % 7 for i in range(200)],
                "anchor": [f"word{i % 11} shared tail{i % 3}"
                           for i in range(200)]}
        key = lambda d: d.sort_values(  # noqa: E731
            list(d.columns)).reset_index(drop=True)
        a = anchor_terms(_ds(rows), k=3).to_pandas()
        b = anchor_terms(_ds(rows).repartition(9), k=3).to_pandas()
        pd.testing.assert_frame_equal(key(a), key(b))
        assert set(a["dst"]) == set(range(7))
        assert (a.groupby("dst").size() <= 3).all()


class TestReviewRegressions:
    def test_snapshot_diff_string_keys(self, ray_session):
        from alix_ray.ops.crawl import snapshot_diff

        old = _ds({"url": ["a", "b", "c"], "text": ["1", "2", "3"]})
        new = _ds({"url": ["b", "c", "d"], "text": ["2", "X", "4"]})
        got = snapshot_diff(old, new, key_col="url").to_pandas() \
            .sort_values("url").reset_index(drop=True)
        want = pd.DataFrame({"url": ["a", "b", "c", "d"],
                             "status": ["deleted", "same", "changed",
                                        "new"]})
        pd.testing.assert_frame_equal(got, want)

    def test_batch_composition_identical_outputs(self, ray_session):
        """snapshot_diff and domain_stats give the same tables whether
        the rows arrive as one block or as five: a row's hash must not
        depend on its batch-mates.  Texts and urls mix lengths below
        and above 256 bytes."""
        from alix_ray.ops.crawl import domain_stats, snapshot_diff

        def text(i, tag):
            return f"{tag}{i}" * (1 if i % 3 else 60)  # 300+ B every 3rd

        old_rows = {"url": [f"u{i}" for i in range(40)],
                    "text": [text(i, "t") for i in range(40)]}
        new_rows = {"url": [f"u{i}" for i in range(5, 45)],
                    "text": [text(i, "t") if i % 4 else text(i, "X")
                             for i in range(5, 45)]}
        key = lambda d: d.sort_values(  # noqa: E731
            list(d.columns)).reset_index(drop=True)

        def diff(parts):
            return key(snapshot_diff(
                _ds(old_rows).repartition(parts),
                _ds(new_rows).repartition(parts),
                key_col="url").to_pandas())

        a, b = diff(1), diff(5)
        pd.testing.assert_frame_equal(a, b)
        assert set(a["status"]) == {"new", "deleted", "changed", "same"}

        long_path = "/p" + "x" * 300
        urls = (["https://a.org/x", "https://a.org/x?utm_s=1",
                 "https://a.org/y", "https://a.org" + long_path,
                 "https://a.org" + long_path + "/"]
                + ["https://b.org/1"] * 2
                + [f"https://c.org/{i}" for i in range(8)])
        ds = _ds({"url": urls, "n_chars": list(range(len(urls)))})
        c = key(domain_stats(ds.repartition(1)).to_pandas())
        d = key(domain_stats(ds.repartition(5)).to_pandas())
        pd.testing.assert_frame_equal(c, d)
        assert c.set_index("domain")["n_urls"].to_dict() == {
            "a.org": 3, "b.org": 1, "c.org": 8}

    def test_domain_stats_malformed_url_consistent(self, ray_session):
        """A row whose domain can't extract groups under '' with its
        page/char counts INTACT (previously the stats partial silently
        dropped the null-domain group while the distinct-url row
        survived)."""
        from alix_ray.ops.crawl import domain_stats

        ds = _ds({"url": ["https://a.org/x", "notaurl"],
                  "n_chars": [1, 2]})
        got = domain_stats(ds).to_pandas().sort_values(
            "domain").reset_index(drop=True)
        want = pd.DataFrame({
            "domain": ["", "a.org"],
            "n_pages": [1, 1], "n_urls": [1, 1],
            "total_chars": [2, 1]})
        pd.testing.assert_frame_equal(got, want)


def _reference_hits(edges, n, n_iter=4, rd=9):
    from alix_ray.ops.textstats import round_half_away

    h = round_half_away(np.full(n, 1.0 / n), rd)
    a = np.zeros(n)
    for _ in range(n_iter):
        a = np.zeros(n)
        np.add.at(a, edges[:, 1], h[edges[:, 0]])
        z = a.sum()
        a = round_half_away(a / z if z > 0 else a, rd)
        h = np.zeros(n)
        np.add.at(h, edges[:, 0], a[edges[:, 1]])
        z = h.sum()
        h = round_half_away(h / z if z > 0 else h, rd)
    return h, a


class TestHits:
    def test_matches_dense_reference(self, ray_session):
        from alix_ray.ops.crawl import hits

        n = 50
        rng = np.random.default_rng(7)
        edges = rng.integers(0, n, (400, 2))
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        got = hits(ds, n).to_pandas().sort_values("node")
        h, a = _reference_hits(edges, n)
        np.testing.assert_allclose(got["hub"].to_numpy(), h,
                                   rtol=0, atol=2e-9)
        np.testing.assert_allclose(got["auth"].to_numpy(), a,
                                   rtol=0, atol=2e-9)
        # both vectors are L1-normalized each sweep
        assert got["hub"].sum() == pytest.approx(1.0, abs=1e-6)
        assert got["auth"].sum() == pytest.approx(1.0, abs=1e-6)

    def test_partition_independence(self, ray_session):
        from alix_ray.ops.crawl import hits

        edges = np.array([[0, 1], [0, 2], [1, 2], [3, 2], [2, 0]])
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        got = hits(ds, 4).to_pandas().sort_values("node")
        got2 = hits(ds.repartition(4), 4).to_pandas().sort_values("node")
        assert got["hub"].tolist() == got2["hub"].tolist()
        assert got["auth"].tolist() == got2["auth"].tolist()
        # node 2 is the authority of this graph; node 0 the best hub
        assert got["auth"].idxmax() == 2
        assert got["hub"].idxmax() == 0

    def test_broadcast_bound_raises(self, ray_session):
        from alix_ray.ops.crawl import hits

        with pytest.raises(ValueError):
            hits(_ds({"src": [0], "dst": [1]}), 10,
                 max_broadcast_nodes=5)


class TestDegreeDistribution:
    def test_known_graph(self, ray_session):
        from alix_ray.ops.crawl import degree_distribution

        # out-degrees: 0→2, 1→1, 3→1 ; in-degrees: 1→1, 2→3
        edges = np.array([[0, 1], [0, 2], [1, 2], [3, 2]])
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        got = degree_distribution(ds).to_pandas().sort_values(
            ["direction", "degree"]).reset_index(drop=True)
        want = pd.DataFrame({
            "direction": ["in", "in", "out", "out"],
            "degree": [1, 3, 1, 2],
            "n_nodes": [1, 1, 2, 1]})
        pd.testing.assert_frame_equal(got, want)
        # partial-combine correctness: tiny batches, same answer
        got2 = degree_distribution(ds.repartition(4)).to_pandas() \
            .sort_values(["direction", "degree"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got2, want)


class TestHostLinkGraph:
    def test_known_pairs(self, ray_session):
        from alix_ray.ops.crawl import host_link_graph

        hosts = np.array(["a.com", "a.com", "b.org", "c.net"],
                         dtype=object)
        edges = np.array([[0, 1], [0, 2], [1, 2], [3, 2], [2, 0]])
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        got = host_link_graph(ds, hosts).to_pandas().sort_values(
            ["src_host", "dst_host"]).reset_index(drop=True)
        want = pd.DataFrame({
            "src_host": ["a.com", "a.com", "b.org", "c.net"],
            "dst_host": ["a.com", "b.org", "a.com", "b.org"],
            "n_links": [1, 2, 1, 1]})
        pd.testing.assert_frame_equal(got, want)
        got2 = host_link_graph(ds.repartition(5), hosts).to_pandas() \
            .sort_values(["src_host", "dst_host"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got2, want)

    def test_broadcast_bound_raises(self, ray_session):
        from alix_ray.ops.crawl import host_link_graph

        with pytest.raises(ValueError):
            host_link_graph(_ds({"src": [0], "dst": [1]}),
                            np.array(["a", "b"], dtype=object),
                            max_broadcast_nodes=1)


class TestCrawlSchedule:
    def test_known_schedule(self, ray_session):
        from alix_ray.ops.crawl import crawl_schedule

        hosts = np.array(["a", "a", "a", "a", "b", "b", "b",
                          "c", "c", "c"], dtype=object)
        ranks = np.array([.9, .8, .7, .6, .5, .9, .4, .3, .2, .1])
        statuses = _ds({
            "doc_id": list(range(10)),
            "status": ["new", "same", "changed", "new", "same",
                       "deleted", "new", "changed", "same", "new"]})
        got = (crawl_schedule(statuses, ranks, hosts, quota=2)
               .to_pandas()
               .sort_values(["domain", "priority", "doc_id"],
                            ascending=[True, False, True])
               .reset_index(drop=True))
        want = pd.DataFrame({
            "domain": ["a", "a", "b", "b", "c", "c"],
            "doc_id": [0, 3, 6, 4, 7, 9],
            "status": ["new", "new", "new", "same", "changed", "new"],
            "priority": [0.9, 0.6, 0.4, 0.05, 0.21, 0.1]})
        pd.testing.assert_frame_equal(got, want)
        # 'deleted' (weight 0) never leaves the map task
        assert 5 not in set(got["doc_id"])

    def test_partition_independence(self, ray_session):
        from alix_ray.ops.crawl import crawl_schedule

        rng = np.random.RandomState(7)
        n = 60
        hosts = np.array([f"h{i % 4}" for i in range(n)], dtype=object)
        ranks = rng.rand(n)
        st = np.array(["new", "changed", "same", "deleted"])[
            np.arange(n) % 4]
        statuses = _ds({"doc_id": np.arange(n), "status": st})
        key = ["domain", "priority", "doc_id"]
        a = (crawl_schedule(statuses, ranks, hosts, quota=3)
             .to_pandas().sort_values(key).reset_index(drop=True))
        b = (crawl_schedule(statuses.repartition(7), ranks, hosts,
                            quota=3)
             .to_pandas().sort_values(key).reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        # per-host cap holds
        assert a.groupby("domain").size().max() <= 3

    def test_broadcast_bound_raises(self, ray_session):
        from alix_ray.ops.crawl import crawl_schedule

        with pytest.raises(ValueError):
            crawl_schedule(_ds({"doc_id": [0], "status": ["new"]}),
                           np.array([1.0]),
                           np.array(["a"], dtype=object),
                           max_broadcast_nodes=0)


class TestConnectedComponents:
    def test_known_components(self, ray_session):
        from alix_ray.ops.crawl import connected_components

        # components: {0,1,2,3} (path), {4,5,6} (triangle), {7} isolated
        edges = np.array([[0, 1], [1, 2], [2, 3],
                          [4, 5], [5, 6], [6, 4]])
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        got = connected_components(ds, 8).to_pandas()
        want = pd.DataFrame({
            "node": np.arange(8, dtype=np.int64),
            "component": np.array([0, 0, 0, 0, 4, 4, 4, 7],
                                  dtype=np.int64)})
        pd.testing.assert_frame_equal(got, want)

    def test_deep_chain_converges(self, ray_session):
        from alix_ray.ops.crawl import connected_components

        # a 30-node path needs 29 propagation rounds; plus a 2-node
        # island to keep the fixpoint non-trivial
        n = 32
        edges = np.array([[i, i + 1] for i in range(29)] + [[30, 31]])
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        got = connected_components(ds, n).to_pandas()
        assert (got["component"].to_numpy()[:30] == 0).all()
        assert (got["component"].to_numpy()[30:] == 30).all()

    def test_partition_independence(self, ray_session):
        from alix_ray.ops.crawl import connected_components

        rng = np.random.RandomState(11)
        n = 80
        src = rng.randint(0, n, 120)
        dst = rng.randint(0, n, 120)
        ds = _ds({"src": src, "dst": dst})
        a = connected_components(ds, n).to_pandas()
        b = connected_components(ds.repartition(9), n).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        # labels are canonical: each component's label is its min node
        for comp, grp in a.groupby("component"):
            assert comp == grp["node"].min()

    def test_broadcast_bound_raises(self, ray_session):
        from alix_ray.ops.crawl import connected_components

        with pytest.raises(ValueError):
            connected_components(_ds({"src": [0], "dst": [1]}), 2,
                                 max_broadcast_nodes=1)


class TestConnectedComponentsPartitioned:
    def test_bit_equal_to_broadcast(self, ray_session):
        from alix_ray.ops.crawl import (connected_components,
                                        connected_components_partitioned)

        rng = np.random.RandomState(3)
        n = 70
        src = rng.randint(0, n, 90)
        dst = rng.randint(0, n, 90)
        ds = _ds({"src": src, "dst": dst})
        a = (connected_components(ds, n).to_pandas()
             .sort_values("node").reset_index(drop=True))
        b = (connected_components_partitioned(ds.repartition(6), n)
             .to_pandas().sort_values("node").reset_index(drop=True))
        b["node"] = b["node"].astype(a["node"].dtype)
        b["component"] = b["component"].astype(a["component"].dtype)
        pd.testing.assert_frame_equal(a, b)

    def test_deep_chain_fixpoint(self, ray_session):
        from alix_ray.ops.crawl import connected_components_partitioned

        n = 24
        edges = np.array([[i, i + 1] for i in range(21)] + [[22, 23]])
        ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
        got = (connected_components_partitioned(ds, n).to_pandas()
               .sort_values("node").reset_index(drop=True))
        comp = got["component"].to_numpy()
        assert (comp[:22] == 0).all()
        assert (comp[22:] == 22).all()


class TestTriangleCounts:
    def test_hub_wedges_bounded_memory(self):
        """A degree-3,000 hub has ~4.5M wedges.  Under a small pool cap
        the per-batch kernel probes them in slices — the hub's rows
        split across flushes — with bit-equal counts and a memory peak
        far below pooling every wedge at once (>100 MB)."""
        import tracemalloc

        from alix_ray.ops.crawl import _edge_key_csr, _triangle_batch

        n = 3001
        star = [(0, v) for v in range(1, n)]
        clique = [(u, v) for u in range(1, 41) for v in range(u + 1, 41)]
        e = np.array(star + clique, np.int64)
        keys = np.unique(e[:, 0] * n + e[:, 1])
        indptr, tails = _edge_key_csr(keys, n)
        nodes = np.arange(n, dtype=np.int64)

        tracemalloc.start()
        try:
            tri, deg = _triangle_batch(nodes, keys, indptr, tails, n,
                                       cap=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # hub: C(40,2) clique edges close; clique node: C(39,2) + 39
        want = np.zeros(n, np.int64)
        want[:41] = 780
        assert np.array_equal(tri, want)
        assert deg[0] == 3000 and (deg[1:41] == 40).all()
        assert peak < 20 << 20, peak
        tri2, _ = _triangle_batch(nodes, keys, indptr, tails, n, cap=2999)
        assert np.array_equal(tri2, want)

    def test_batch_kernel_matches_triu_reference(self):
        """Any pool cap gives the counts of closing every
        ``np.triu_indices`` wedge of each apex at once."""
        from alix_ray.ops.crawl import _edge_key_csr, _triangle_batch

        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            s, d = rng.integers(0, n, (2, int(rng.integers(0, 300))))
            keep = s != d
            keys = np.unique(np.minimum(s, d)[keep] * n
                             + np.maximum(s, d)[keep])
            indptr, tails = _edge_key_csr(keys, n)
            lo = int(rng.integers(0, n))
            nodes = np.arange(lo, n, dtype=np.int64)
            want = np.zeros(len(nodes), np.int64)
            for x, v in enumerate(nodes):
                nb = tails[indptr[v]:indptr[v + 1]]
                i, j = np.triu_indices(len(nb), k=1)
                want[x] = np.isin(nb[i] * n + nb[j], keys).sum()
            for cap in (1, 5, 64, 10_000_000):
                tri, deg = _triangle_batch(nodes, keys, indptr, tails, n,
                                           cap=cap)
                assert np.array_equal(tri, want), cap
                assert np.array_equal(deg, np.diff(indptr)[lo:])

    def test_known_graphs(self, ray_session):
        from alix_ray.ops.crawl import triangle_counts

        # one triangle {0,1,2} plus a pendant edge 2-3
        ds = _ds({"src": [0, 1, 2, 2], "dst": [1, 2, 0, 3]})
        got = triangle_counts(ds, 4).to_pandas().sort_values(
            "node").reset_index(drop=True)
        assert got["triangles"].tolist() == [1, 1, 1, 0]
        # two triangles sharing edge 1-2; self-loops, dups and
        # reversed edges collapse in canonicalization
        ds2 = _ds({"src": [0, 1, 2, 1, 2, 3, 0, 1, 2],
                   "dst": [1, 2, 0, 3, 3, 3, 1, 0, 2]})
        got2 = triangle_counts(ds2, 4).to_pandas().sort_values(
            "node").reset_index(drop=True)
        assert got2["triangles"].tolist() == [1, 2, 2, 1]
        # column sums to 3x the global triangle count
        assert got2["triangles"].sum() == 3 * 2

    def test_partition_independence(self, ray_session):
        from alix_ray.ops.crawl import triangle_counts

        rng = np.random.RandomState(13)
        n = 40
        src = rng.randint(0, n, 200)
        dst = rng.randint(0, n, 200)
        ds = _ds({"src": src, "dst": dst})
        a = triangle_counts(ds, n).to_pandas().sort_values(
            "node").reset_index(drop=True)
        b = triangle_counts(ds.repartition(7), n).to_pandas() \
            .sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
        assert a["triangles"].sum() % 3 == 0

    def test_broadcast_bound_raises(self, ray_session):
        from alix_ray.ops.crawl import triangle_counts

        with pytest.raises(ValueError):
            triangle_counts(_ds({"src": [0, 1], "dst": [1, 2]}), 3,
                            max_broadcast_edges=1)


def test_components_max_iter_exhaustion_raises(ray_session):
    from alix_ray.ops.crawl import (connected_components,
                                    connected_components_partitioned)

    # 10-node path needs 9 rounds; max_iter=3 cannot converge
    edges = np.array([[i, i + 1] for i in range(9)])
    ds = _ds({"src": edges[:, 0], "dst": edges[:, 1]})
    with pytest.raises(RuntimeError, match="fixpoint"):
        connected_components(ds, 10, max_iter=3)
    with pytest.raises(RuntimeError, match="fixpoint"):
        connected_components_partitioned(ds, 10, max_iter=3)


class TestGraphStats:
    def test_known_values(self, ray_session):
        from alix_ray.ops.crawl import graph_stats

        # edges: 0->1, 1->0 (reciprocal pair), 1->2, 2->2 (self), dup 0->1
        ds = _ds({"src": [0, 1, 1, 2, 0], "dst": [1, 0, 2, 2, 1]})
        got = graph_stats(ds, 3).to_pandas().iloc[0]
        assert got["n_edges"] == 5
        assert got["n_distinct"] == 3        # 0->1, 1->0, 1->2
        assert got["n_reciprocal"] == 2      # both members of the pair
        # assortativity: manual pearson over endpoint total degrees
        deg = np.zeros(3, np.int64)
        for s, d in [(0, 1), (1, 0), (1, 2), (2, 2), (0, 1)]:
            deg[s] += 1
            deg[d] += 1
        x = deg[[0, 1, 1, 2, 0]].astype(float)
        y = deg[[1, 0, 2, 2, 1]].astype(float)
        want = np.corrcoef(x, y)[0, 1]
        assert abs(got["assortativity"] - round(want, 6)) < 2e-6

    def test_partition_independence_exact(self, ray_session):
        from alix_ray.ops.crawl import graph_stats

        rng = np.random.RandomState(17)
        n = 50
        ds = _ds({"src": rng.randint(0, n, 300),
                  "dst": rng.randint(0, n, 300)})
        a = graph_stats(ds, n).to_pandas()
        b = graph_stats(ds.repartition(11), n).to_pandas()
        # integer partials combine exactly -> bit-equal, any partitioning
        pd.testing.assert_frame_equal(a, b)


class TestRobotsFilter:
    def test_prefix_semantics(self, ray_session):
        from alix_ray.ops.crawl import robots_filter

        urls = [
            "http://a.com/p/1",          # blocked: /p/1 prefix
            "http://a.com/p/10?x=1",     # blocked: prefix matches /p/10
            "http://a.com/p/2",          # allowed on a.com
            "https://b.org/p/1",         # allowed: rule is a.com only
            "http://a.com:80/p/1",       # blocked: port in authority,
                                         # path target still /p/1... no:
                                         # authority strip removes :80
            "not-a-url",                 # malformed: never blocked
            "http://a.com/q#/p/1",       # allowed: path is /q#/p/1
        ]
        ds = _ds({"doc_id": list(range(len(urls))), "url": urls})
        got = robots_filter(ds, {"a.com": ["/p/1"]}).to_pandas()
        assert sorted(got["doc_id"]) == [2, 3, 5, 6]

    def test_query_in_match_target(self, ray_session):
        from alix_ray.ops.crawl import robots_filter

        ds = _ds({"doc_id": [0, 1],
                  "url": ["http://a.com/s?q=x", "http://a.com/s"]})
        got = robots_filter(ds, {"a.com": ["/s?q"]}).to_pandas()
        assert sorted(got["doc_id"]) == [1]

    def test_empty_prefix_allows(self, ray_session):
        """An empty Disallow means allow (RFC 9309): it blocks nothing
        and does not change what the other prefixes block."""
        from alix_ray.ops.crawl import robots_filter

        urls = ["http://a.com/p/1", "http://a.com/p/2", "http://a.com/",
                "http://b.org/p/1"]
        ds = _ds({"doc_id": list(range(len(urls))), "url": urls})

        def kept(rules):
            return sorted(robots_filter(ds, rules).to_pandas()["doc_id"])

        assert kept({"a.com": [""]}) == [0, 1, 2, 3]
        assert kept({"a.com": ["", "/p/1"]}) == kept({"a.com": ["/p/1"]}) \
            == [1, 2, 3]


class TestCoreness:
    def test_known_graphs(self, ray_session):
        from alix_ray.ops.crawl import coreness

        # triangle {0,1,2} with tail 2-3: core numbers 2,2,2,1
        ds = _ds({"src": [0, 1, 2, 2], "dst": [1, 2, 0, 3]})
        got = coreness(ds, 4).to_pandas()
        assert got["coreness"].tolist() == [2, 2, 2, 1]
        # 4-clique + pendant; dup/reversed/self edges collapse
        cl = [(a, b) for a in range(4) for b in range(4) if a < b]
        edges = cl + [(3, 4), (1, 0), (2, 2)] + cl[:2]
        ds2 = _ds({"src": [e[0] for e in edges],
                   "dst": [e[1] for e in edges]})
        got2 = coreness(ds2, 5).to_pandas()
        assert got2["coreness"].tolist() == [3, 3, 3, 3, 1]
        # star: hub degree 5 but coreness 1 everywhere
        ds3 = _ds({"src": [0] * 5, "dst": [1, 2, 3, 4, 5]})
        got3 = coreness(ds3, 6).to_pandas()
        assert got3["coreness"].tolist() == [1, 1, 1, 1, 1, 1]

    def test_partition_independence(self, ray_session):
        from alix_ray.ops.crawl import coreness

        rng = np.random.RandomState(23)
        n = 60
        src = rng.randint(0, n, 250)
        dst = rng.randint(0, n, 250)
        ds = _ds({"src": src, "dst": dst})
        a = coreness(ds, n).to_pandas()
        b = coreness(ds.repartition(9), n).to_pandas()
        pd.testing.assert_frame_equal(a, b)
        # coreness never exceeds the simple-graph degree
        deg = np.zeros(n, np.int64)
        for s_, d_ in {(min(x, y), max(x, y))
                       for x, y in zip(src, dst) if x != y}:
            deg[s_] += 1
            deg[d_] += 1
        assert (a["coreness"].to_numpy() <= deg).all()
        assert (a["coreness"] >= 0).all()


def test_robots_null_urls_never_blocked(ray_session):
    from alix_ray.ops.crawl import robots_filter

    ds = _ds({"doc_id": [0, 1, 2],
              "url": ["http://a.com/p/1", None, "http://a.com/q"]})
    got = robots_filter(ds, {"a.com": ["/p/1"]}).to_pandas()
    assert sorted(got["doc_id"]) == [1, 2]
