"""Reference computations the benchmark checks outputs against.

Each function returns the number of wrong operations it found; every
one counts as a failed operation of the run.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def topk_mismatches(got: list, want: list) -> int:
    """Rank- and score-identical: same docs in the same order with
    bit-equal float scores."""
    return 0 if list(got) == list(want) else 1


def tombstone_hits(results, deleted: np.ndarray) -> int:
    """Results (each a list of (doc, score)) that return a deleted doc."""
    if not len(deleted):
        return 0
    dead = set(int(d) for d in deleted)
    return sum(1 for r in results if any(d in dead for d, _ in r))


# -- ops battery ---------------------------------------------------------

def snapshot_status(n: int) -> dict:
    """Expected per-doc status of the snapshot pair the ops battery
    diffs: old keeps ids % 3 != 0, new keeps ids % 5 != 0 and
    edits every id % 7 == 0."""
    out = {}
    for i in range(n):
        a, b = i % 3 != 0, i % 5 != 0
        if a and b:
            out[i] = "changed" if i % 7 == 0 else "same"
        elif b:
            out[i] = "new"
        elif a:
            out[i] = "deleted"
    return out


def snapshot_mismatches(df: pd.DataFrame, n: int) -> int:
    want = snapshot_status(n)
    got = dict(zip(df["doc_id"].astype("int64").tolist(), df["status"].tolist()))
    keys = set(want) | set(got)
    return sum(1 for k in keys if want.get(k) != got.get(k))


def components_expected(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Union-find; each node's label is the smallest id in its component."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(src.tolist(), dst.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(i) for i in range(n)], np.int64)
    low = np.full(n, n, np.int64)
    np.minimum.at(low, roots, np.arange(n, dtype=np.int64))
    return low[roots]


def components_mismatches(df: pd.DataFrame, n: int, src, dst) -> int:
    want = components_expected(n, src, dst)
    got = np.full(n, -1, np.int64)
    nodes = df["node"].to_numpy(np.int64)
    if len(nodes) != n or len(np.unique(nodes)) != n:
        return max(1, abs(len(nodes) - n))
    got[nodes] = df["component"].to_numpy(np.int64)
    return int((got != want).sum())


def tfidf_expected(docs: pa.Table, threshold: float, df_cap: int) -> dict:
    """(doc_a, doc_b) -> cosine, by the op's documented weighting:
    w = ln(1+tf) * ln((N+1)/(df+1)) over terms with df <= df_cap,
    L2-normalised per doc, cosine = sum over shared terms."""
    from alix_ray.analysis import SimpleAnalyzer

    lists = SimpleAnalyzer.tokens_arrays(docs["text"]).to_pylist()
    ids = docs["doc_id"].to_pylist()
    tfs = []
    df: dict = {}
    for toks in lists:
        c: dict = {}
        for t in toks or []:
            c[t] = c.get(t, 0) + 1
        tfs.append(c)
        for t in c:
            df[t] = df.get(t, 0) + 1
    n = float(len(ids))
    vecs = []
    for c in tfs:
        w = {t: np.log1p(tf) * np.log((n + 1.0) / (df[t] + 1.0))
             for t, tf in c.items() if df[t] <= df_cap}
        norm = np.sqrt(sum(x * x for x in w.values()))
        vecs.append({t: x / norm for t, x in w.items()} if norm > 0 else {})
    postings: dict = {}
    for i, v in zip(ids, vecs):
        for t, x in v.items():
            postings.setdefault(t, []).append((i, x))
    acc: dict = {}
    for plist in postings.values():
        for ai, (a, xa) in enumerate(plist):
            for b, xb in plist[ai + 1:]:
                key = (a, b) if a < b else (b, a)
                acc[key] = acc.get(key, 0.0) + xa * xb
    return {k: v for k, v in acc.items() if v >= threshold}


def tfidf_mismatches(df: pd.DataFrame, want: dict, threshold: float) -> int:
    """Pairs missing or extra, or with a cosine off by more than 1e-9
    (the op sums in another order).  Pairs within 1e-9 of the
    threshold may fall either side and are not counted."""
    got = {(int(a), int(b)): float(c)
           for a, b, c in zip(df["doc_a"], df["doc_b"], df["cosine"])}
    bad = 0
    for key in set(got) | set(want):
        g, w = got.get(key), want.get(key)
        if g is not None and w is not None:
            bad += abs(g - w) > 1e-9
        else:
            v = g if g is not None else w
            bad += abs(v - threshold) > 1e-9
    return int(bad)
