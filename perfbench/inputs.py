"""Seeded benchmark inputs.

Every input is a pure function of the workload seed:

- the seed picks a row-index window of the synthetic pages corpus
  (``alix_ray.corpus.make_page(i)`` is a pure function of ``i``), so
  different seeds index different pages;
- the seed drives the query mix, the delete sets of the ingest cycles,
  the ops battery's documents' near-duplicate plants and the component
  graph's node labelling.

Nothing here is timed: generation is set-up work.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

# the seed picks window starts from [0, WINDOW_SPAN); windows of one
# run are laid end to end from that start, so they never overlap
WINDOW_SPAN = 40_000_000


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """Independent, reproducible stream per (seed, purpose)."""
    tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:8], "little")
    return np.random.default_rng([int(seed), tag])


def window_start(seed: int) -> int:
    """First row of the seed's window: a multiple of the corpus'
    ``DUP_EVERY``.  Row i with i % DUP_EVERY == 1 repeats row i-1's url,
    so windows that start (and, being multiples of it long, end) on such
    a boundary never split a duplicate pair between two tables added
    one after another."""
    from alix_ray.corpus import DUP_EVERY

    slot = rng_for(seed, "window").integers(0, WINDOW_SPAN // DUP_EVERY)
    return int(slot) * DUP_EVERY


def pages(start: int, n: int) -> pa.Table:
    """Pages rows ``start .. start+n-1`` of the synthetic corpus."""
    from alix_ray.corpus import pages_batch

    return pages_batch(np.arange(start, start + n, dtype=np.int64))


def distinct_urls(*tables: pa.Table) -> set:
    out: set = set()
    for t in tables:
        out.update(t["url"].to_pylist())
    return out


def table_digest(t: pa.Table) -> str:
    """Content digest of a table (schema + every column's values)."""
    h = hashlib.sha256(str(t.schema).encode())
    for name in t.column_names:
        col = t[name].combine_chunks()
        for buf in col.buffers():
            if buf is not None:
                h.update(memoryview(buf))
    return h.hexdigest()[:16]


# -- serve / ingest query mix --------------------------------------------

def term_tiers(ix) -> dict:
    """Lexicon split by collection frequency: hot head, mid body, rare tail."""
    by_cf = sorted(ix.lexicon, key=lambda t: (-int(ix.cf[t]), t))
    n = len(by_cf)
    return {
        "hot": by_cf[: max(8, n // 100)],
        "mid": by_cf[n // 10: n // 2] or by_cf,
        "rare": by_cf[-max(8, n // 10):],
    }


def query_mix(ix, seed: int, n: int, purpose: str = "queries") -> list:
    """``n`` queries as ``(kind, payload, k)``.

    kind ``terms``: payload is a list of index terms for the serving
    path ``search_terms``; kind ``parsed``: payload is a query string
    for ``search``.  The shape of the mix is fixed: queries cycle
    through single hot terms, 2-4-term OR queries over mid terms,
    rare+mid pairs and parsed strings (with and without a group), and
    one query in four asks for k=100 instead of 10.  The seed picks
    the terms."""
    rng = rng_for(seed, purpose)
    tiers = term_tiers(ix)

    def pick(tier: str) -> str:
        pool = tiers[tier]
        return pool[int(rng.integers(len(pool)))]

    out = []
    for i in range(n):
        kind, turn = i % 4, i // 4
        k = 100 if turn % 4 == 3 else 10
        if kind == 0:
            out.append(("terms", [pick("hot")], k))
        elif kind == 1:
            out.append(("terms", [pick("mid") for _ in range(2 + turn % 3)], k))
        elif kind == 2:
            out.append(("terms", [pick("rare"), pick("mid")], k))
        else:
            words = [pick("hot"), pick("mid")]
            if turn % 2:
                words.append(f"({pick('rare')} {pick('mid')})")
            out.append(("parsed", " ".join(words), k))
    return out


# -- ops battery documents and graph -------------------------------------

NEAR_DUP_EVERY = 10  # doc j with j % 10 == 9 copies doc j-1 plus a tail


def documents(seed: int, n: int) -> pa.Table:
    """(doc_id, text) documents from the seed's page window, with a
    planted near-duplicate every ``NEAR_DUP_EVERY`` docs so the tf-idf
    pair op has true positives to find."""
    start = window_start(seed)
    texts = pages(start, n)["text"].to_pylist()
    rng = rng_for(seed, "near-dups")
    for j in range(NEAR_DUP_EVERY - 1, n, NEAR_DUP_EVERY):
        tail = " ".join(f"w{int(x)}" for x in rng.integers(0, 1000, 2))
        texts[j] = texts[j - 1] + " " + tail
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    })


def component_edges(seed: int, n: int, k: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Edges of ``k`` components over ``n`` nodes: per residue class a
    binary tree plus a chain (multi-hop convergence, diameter
    O(log n)).  The seed relabels the nodes, keeping the order of ids
    inside each component, so min-label propagation takes the same
    number of rounds for every seed."""
    rng = rng_for(seed, "graph")
    pos = np.arange(n, dtype=np.int64)
    tree = pos[pos >= k]
    parent = (tree % k) + k * ((tree // k) // 2)
    chain = pos[pos + k < n]
    src = np.concatenate([tree, chain])
    dst = np.concatenate([parent, chain + k])
    comp = pos % k
    slots = rng.permutation(comp)
    perm = np.empty(n, np.int64)
    for c in range(k):
        perm[pos[comp == c]] = np.flatnonzero(slots == c)
    return perm[src], perm[dst]
