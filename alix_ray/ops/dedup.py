"""Deduplication operators (training-data-pipeline extensions).

The reference has **no dedup operator** (SURVEY.md §2.8) — these are
the web-corpus additions: exact (content-hash groupby keep-first),
MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine near-dup.

All hashing is seeded/stable (blake2b or fixed-multiplier mixing), so
results are identical across runs and parallelism levels.  The LSH
pipelines follow the shingle → minhash → band → bucket-groupby shape
from the ray_guide: sketches are computed vectorized per batch, only
slim (doc_id, band, band_hash) rows shuffle through the bucket
groupby, and exact candidate verification joins each candidate doc's
shingle set by doc_id (one corpus pass, shipped once — not once per
band).

Hashing is FNV-1a over utf-8 bytes + splitmix64 finalizer, run
COLUMN-WISE: all tokens of a batch are laid into one (n_tokens,
max_len) byte layout and the sequential ``h = (h ^ byte) * prime``
recurrence advances one byte *position* per numpy op instead of one
byte per Python op.  Values are bit-identical to the scalar loop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..analysis import SimpleAnalyzer
from .exchange import _mix64, exchange

_MIX = np.uint64(0x9E3779B97F4A7C15)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _token_hashes(tokens: list[str]) -> np.ndarray:
    """Stable per-token 64-bit hashes (FNV-1a over utf-8, then mixed).

    Vectorized column-wise: one numpy pass per byte POSITION across all
    tokens (max token length iterations), not per byte.  Unsigned numpy
    arithmetic wraps silently, so no overflow warnings — and the values
    are bit-identical to the per-byte scalar recurrence.
    """
    n = len(tokens)
    h = np.full(n, _FNV_OFFSET, np.uint64)
    if n == 0:
        return h
    enc = [t.encode("utf-8") for t in tokens]
    lens = np.fromiter(map(len, enc), np.int64, n)
    total = int(lens.sum())
    if total:
        buf = np.frombuffer(b"".join(enc), np.uint8)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        for j in range(int(lens.max())):
            live = lens > j
            h[live] = (h[live] ^ buf[starts[live] + j].astype(np.uint64)) * _FNV_PRIME
    return _mix64(h)


def _shingles_from(th: np.ndarray, k: int = 3) -> np.ndarray:
    """Hashes of word k-shingles from precomputed token hashes."""
    if len(th) < k:
        return _mix64(th) if len(th) else th
    acc = th[: len(th) - k + 1].copy()
    for j in range(1, k):
        acc = _mix64(acc * _MIX + th[j : len(th) - k + 1 + j])
    return acc


def _shingle_hashes(tokens: list[str], k: int = 3) -> np.ndarray:
    """Hashes of word k-shingles (rolling combination of token hashes)."""
    return _shingles_from(_token_hashes(tokens), k)


def md5_lower64(strings: list[str]) -> np.ndarray:
    """Per-string 64-bit hash = LOWER half of the MD5 digest,
    little-endian — bit-identical to DuckDB's ``md5_number_lower``, so
    operators hashed this way get an exact SQL oracle.  Each distinct
    string is hashed once (md5 itself is not vectorizable; the cost is
    bounded by distinct strings per batch)."""
    import hashlib

    out = np.empty(len(strings), np.uint64)
    memo: dict[str, int] = {}
    for i, s in enumerate(strings):
        h = memo.get(s)
        if h is None:
            h = int.from_bytes(
                hashlib.md5(s.encode("utf-8")).digest()[8:16], "little"
            )
            memo[s] = h
        out[i] = h
    return out


def _batch_md5_token_hashes(texts: list, analyzer) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`_batch_token_hashes` but with the SQL-mirrorable
    md5_number_lower hash (see :func:`md5_lower64`)."""
    tok_lists = [analyzer.terms(t or "") for t in texts]
    counts = np.fromiter(map(len, tok_lists), np.int64, len(tok_lists))
    flat = [t for lst in tok_lists for t in lst]
    offs = np.concatenate(([0], np.cumsum(counts)))
    return md5_lower64(flat), offs


def _batch_token_hashes(texts: list, analyzer) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize + hash a whole batch in one vectorized pass.

    Returns (flat token-hash array, offsets) — doc i's hashes are
    ``flat[offs[i]:offs[i+1]]``.  Tokenization stays per-doc (regex),
    hashing is one columnar pass over every token in the batch.
    """
    tok_lists = [analyzer.terms(t or "") for t in texts]
    counts = np.fromiter(map(len, tok_lists), np.int64, len(tok_lists))
    flat = [t for lst in tok_lists for t in lst]
    offs = np.concatenate(([0], np.cumsum(counts)))
    return _token_hashes(flat), offs


# ---------------------------------------------------------------------
# Exact dedup: content hash → groupby → keep first
# ---------------------------------------------------------------------


def exact_dedup(ds: ray.data.Dataset, key_col="text", id_col="doc_id"):
    """Keep the min-id row per distinct key value (hash-partitioned).

    Groups by a coarse partition of the content hash (not the raw
    hash — per-group dispatch over millions of mostly-singleton hash
    groups is the expensive shape); the per-partition reduction is one
    vectorized pandas groupby-idxmin."""

    def add_hash(batch: pa.Table) -> pa.Table:
        import hashlib

        texts = batch[key_col].to_pylist()
        hs = [
            hashlib.blake2b((v or "").encode("utf-8"), digest_size=16)
            .digest()
            for v in texts
        ]
        # routing hash straight from the first 8 digest bytes — no
        # hex round-trip (blake2b itself is C-speed; the digest list
        # is the only per-row Python left and is I/O-bound)
        pk = (np.frombuffer(b"".join(h[:8] for h in hs), np.int64)
              if hs else np.empty(0, np.int64))
        return batch.append_column(
            "content_hash", pa.array(hs, pa.binary(16))
        ).append_column("pkey", pa.array(pk))

    def keep_first(g):
        idx = g.groupby("content_hash")[id_col].idxmin()
        return g.loc[idx.to_numpy()].drop(columns="pkey")

    return exchange(ds.map_batches(add_hash, batch_format="pyarrow"),
                    keep_first, "pkey")


# ---------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------


class MinHasher:
    """Vectorized num_perm-permutation MinHash over word shingles."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, 2**63, num_perm, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, 2**63, num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_k = shingle_k

    def signature_from(self, sh: np.ndarray) -> np.ndarray:
        if len(sh) == 0:
            return np.full(self.num_perm, np.uint64(2**64 - 1), np.uint64)
        # (num_perm, n_shingles) universal-hash family, min over shingles
        vals = self.a[:, None] * sh[None, :] + self.b[:, None]
        return vals.min(axis=1)

    def signature(self, tokens: list[str]) -> np.ndarray:
        return self.signature_from(_shingle_hashes(tokens, self.shingle_k))


# Candidate-pair count up to which minhash_lsh_pairs verifies on the
# driver; past it the verify is a distributed doc_id join.
LSH_DRIVER_MAX_PAIRS = 100_000


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    text_col="text",
    id_col="doc_id",
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.5,
    shingle_k: int = 3,
) -> ray.data.Dataset:
    """Near-duplicate pairs via MinHash banding + exact Jaccard verify.

    Shuffle discipline (the 100-TB shape):

    1. ONE corpus pass computes per-doc (shingle set, signature, band
       hashes); its output (`sigs`) is a compact derivative (~shingle
       hashes, far smaller than html) checkpointed once — at production
       scale this is partitioned Parquet, here an object-store
       materialize.
    2. Only slim ``(doc_id, band, band_hash)`` rows enter the bucket
       groupby — shuffle bytes per doc are 16×20 B, NOT 16× the shingle
       set.
    3. Exact verification joins each CANDIDATE doc's shingle set by
       doc_id (repartition join: shingles union candidate sides →
       groupby doc_id → groupby pair).  Duplicate candidate sides (a
       pair surfaced by several bands) are deduped INSIDE the doc_id
       partition — every copy lands there — so each doc's shingles
       cross the wire at most once per distinct pair partner, and only
       pairs surfaced by some band are scored.

    Every shuffle is an :func:`~alix_ray.ops.exchange.exchange`: rows
    group by a COARSE partition of a routing hash, not by the raw key —
    Ray's map_groups pays a per-group pandas dispatch (~0.1 ms), so
    millions of tiny LSH buckets as groups would cost minutes.  Each
    partition function re-finds the real buckets vectorized (lexsort +
    run detection / pandas merge), which keeps function calls
    O(partitions) while staying deterministic and fully distributed.
    Up to ``LSH_DRIVER_MAX_PAIRS`` candidate pairs the verify runs on
    the driver instead (same output).

    Returns rows (doc_a, doc_b, jaccard) with doc_a < doc_b, exact
    shingle-set Jaccard ≥ threshold — value-identical to the all-pairs
    oracle restricted to LSH candidates.
    """
    rows_per_band = num_perm // bands
    hasher = MinHasher(num_perm, shingle_k)

    def doc_sigs(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        sa = SimpleAnalyzer()
        th, offs = _batch_token_hashes(batch[text_col].to_pylist(), sa)
        sh_bytes, band_hashes = [], []
        for i in range(len(ids)):
            sh = np.unique(_shingles_from(th[offs[i] : offs[i + 1]], shingle_k))
            sig = hasher.signature_from(sh)
            bh = (
                _mix64(sig).reshape(bands, rows_per_band).sum(axis=1)
                & np.uint64(2**63 - 1)
            ).astype(np.int64)
            sh_bytes.append(sh.astype(np.int64).tobytes())
            band_hashes.append(bh)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "shingles": pa.array(sh_bytes, pa.large_binary()),
                "band_hashes": pa.array(
                    [b.tolist() for b in band_hashes], pa.list_(pa.int64())
                ),
            }
        )

    # one tokenize+hash pass, reused by both the banding and the verify
    # sides (a lazy Dataset re-executes lineage per consumer otherwise)
    sigs = ds.map_batches(doc_sigs, batch_format="pyarrow").materialize()

    def explode_bands(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_pylist(), np.int64)
        bh = np.asarray(batch["band_hashes"].to_pylist(), np.int64)
        n = len(ids)
        band_no = np.tile(np.arange(bands, dtype=np.int64), n)
        flat_bh = bh.reshape(-1)
        pkey = flat_bh.astype(np.uint64) + np.uint64(0x9E37) * band_no.astype(np.uint64)
        return pa.table(
            {
                id_col: pa.array(np.repeat(ids, bands)),
                "band": pa.array(band_no.astype(np.int32)),
                "band_hash": pa.array(flat_bh),
                "pkey": pa.array(pkey),
            }
        )

    banded = sigs.select_columns([id_col, "band_hashes"]).map_batches(
        explode_bands, batch_format="pyarrow"
    )

    def part_bucket_pairs(g):
        import pandas as pd

        band = g["band"].to_numpy(np.int64)
        bh = g["band_hash"].to_numpy(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        order = np.lexsort((ids, bh, band))
        band, bh, ids = band[order], bh[order], ids[order]
        new_run = np.empty(len(ids), bool)
        new_run[0] = True
        new_run[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
        starts = np.flatnonzero(new_run)
        ends = np.append(starts[1:], len(ids))
        out_a, out_b = [], []
        for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
            u = np.unique(ids[s:e])
            if len(u) < 2:
                continue
            ia, ib = np.triu_indices(len(u), k=1)
            out_a.append(u[ia])
            out_b.append(u[ib])
        if not out_a:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"),
                 "doc_b": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b)}
        )

    # candidate pairs, possibly repeated across bands — deduped inside
    # the attach stage's doc_id partition (all copies co-locate there).
    # Materialized: the pair set is tiny relative to the corpus by LSH
    # construction and both verify strategies consume it.
    cand = exchange(banded, part_bucket_pairs, "pkey").materialize()

    # ---- small-pair-set fast path (the connected_components /
    # docids auto-select precedent): up to LSH_DRIVER_MAX_PAIRS the verify
    # runs on the driver — one filtered pass over sigs fetches the
    # involved docs' shingle sets (pc.is_in against a broadcast id
    # set), skipping the union + two groupby exchanges entirely.
    # Identical output by construction; the distributed join below is
    # the >LSH_DRIVER_MAX_PAIRS path.
    if cand.count() <= LSH_DRIVER_MAX_PAIRS:
        import pandas as pd

        pairs = cand.to_pandas()
        if len(pairs) == 0:
            return ray.data.from_pandas(pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"),
                 "doc_b": pd.Series([], dtype="int64"),
                 "jaccard": pd.Series([], dtype="float64")}))
        pairs = pairs.drop_duplicates(["doc_a", "doc_b"])
        involved = np.unique(
            np.concatenate([pairs["doc_a"].to_numpy(np.int64),
                            pairs["doc_b"].to_numpy(np.int64)]))
        inv_ref = ray.put(pa.array(involved, pa.int64()))

        def pick(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.is_in(batch[id_col], value_set=ray.get(inv_ref)))

        sh = sigs.select_columns([id_col, "shingles"]).map_batches(
            pick, batch_format="pyarrow").to_pandas()
        lut = dict(zip(sh[id_col].to_numpy(np.int64), sh["shingles"]))
        out_a, out_b, out_j = [], [], []
        for a_, b_ in zip(pairs["doc_a"].to_numpy(np.int64),
                          pairs["doc_b"].to_numpy(np.int64)):
            sa_ = np.frombuffer(lut.get(a_) or b"", np.int64)
            sb_ = np.frombuffer(lut.get(b_) or b"", np.int64)
            if not (len(sa_) or len(sb_)):
                continue
            inter = len(np.intersect1d(sa_, sb_, assume_unique=True))
            union = len(sa_) + len(sb_) - inter
            j = inter / union if union else 0.0
            if j >= threshold:
                out_a.append(a_)
                out_b.append(b_)
                out_j.append(j)
        return ray.data.from_pandas(pd.DataFrame(
            {"doc_a": pd.Series(out_a, dtype="int64"),
             "doc_b": pd.Series(out_b, dtype="int64"),
             "jaccard": pd.Series(out_j, dtype="float64")}))

    # ---- exact verify via repartition join on doc_id ----------------
    def pair_sides(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["doc_a"].to_pylist(), np.int64)
        b = np.asarray(batch["doc_b"].to_pylist(), np.int64)
        doc = np.concatenate([a, b])
        return pa.table(
            {
                id_col: pa.array(doc),
                "doc_a": pa.array(np.concatenate([a, a])),
                "doc_b": pa.array(np.concatenate([b, b])),
                "shingles": pa.array([None] * (2 * len(a)), pa.large_binary()),
            }
        )

    def shingle_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                id_col: batch[id_col],
                "doc_a": pa.array(np.full(n, -1, np.int64)),
                "doc_b": pa.array(np.full(n, -1, np.int64)),
                "shingles": batch["shingles"],
            }
        )

    unioned = sigs.select_columns([id_col, "shingles"]).map_batches(
        shingle_side, batch_format="pyarrow"
    ).union(cand.map_batches(pair_sides, batch_format="pyarrow"))

    _ATTACH_SCHEMA = pa.schema(
        [(id_col, pa.int64()), ("doc_a", pa.int64()), ("doc_b", pa.int64()),
         ("shingles", pa.large_binary())]
    )

    def part_attach(g):
        src = g[g["doc_a"] < 0][[id_col, "shingles"]]
        # distinct pair partners needing each doc's shingles (the same
        # pair may arrive once per agreeing band — dedup here is global
        # per side because every copy partitions by the same doc_id)
        need = g[g["doc_a"] >= 0].drop_duplicates([id_col, "doc_a", "doc_b"])
        if len(src) == 0 or len(need) == 0:
            return _ATTACH_SCHEMA.empty_table()
        out = need.drop(columns="shingles").merge(src, on=id_col)
        # explicit Arrow schema: a zero-row pandas object column breaks
        # Ray's block size estimation and schema unification
        return pa.table(
            {
                id_col: pa.array(out[id_col].to_numpy(np.int64)),
                "doc_a": pa.array(out["doc_a"].to_numpy(np.int64)),
                "doc_b": pa.array(out["doc_b"].to_numpy(np.int64)),
                "shingles": pa.array(list(out["shingles"]), pa.large_binary()),
            }
        )

    def part_verify(g):
        import pandas as pd

        a = g["doc_a"].to_numpy(np.int64)
        b = g["doc_b"].to_numpy(np.int64)
        order = np.lexsort((g[id_col].to_numpy(np.int64), b, a))
        sh = g["shingles"].to_numpy()[order]
        a, b = a[order], b[order]
        out_a, out_b, out_j = [], [], []
        i = 0
        while i < len(a):
            if i + 1 < len(a) and a[i] == a[i + 1] and b[i] == b[i + 1]:
                sa_ = np.frombuffer(sh[i] or b"", np.int64)
                sb_ = np.frombuffer(sh[i + 1] or b"", np.int64)
                if len(sa_) or len(sb_):
                    inter = len(np.intersect1d(sa_, sb_, assume_unique=True))
                    union = len(sa_) + len(sb_) - inter
                    j = inter / union if union else 0.0
                    if j >= threshold:
                        out_a.append(a[i])
                        out_b.append(b[i])
                        out_j.append(j)
                i += 2
            else:  # partner side missing (doc absent from corpus) — skip
                i += 1
        return pd.DataFrame(
            {"doc_a": pd.Series(out_a, dtype="int64"),
             "doc_b": pd.Series(out_b, dtype="int64"),
             "jaccard": pd.Series(out_j, dtype="float64")}
        )

    # both sides of a pair meet under its doc_a
    return exchange(exchange(unioned, part_attach, id_col),
                    part_verify, "doc_a")


# ---------------------------------------------------------------------
# Near-dup clustering: connected components over a pair set
# ---------------------------------------------------------------------


# Pair count up to which connected_components labels on the driver
# (union-find); past it the partitioned min-label rounds take over.
CLUSTER_DRIVER_MAX_PAIRS = 5_000_000


def connected_components(pairs: ray.data.Dataset, a_col="doc_a",
                         b_col="doc_b", max_iter: int = 30):
    """Cluster near-dup pairs into components; cluster id = min doc id.

    Strategy auto-selects on pair count (the docids precedent): the
    pair set is tiny relative to the corpus by LSH construction, so up
    to ``CLUSTER_DRIVER_MAX_PAIRS`` a path-compressed union-find on the
    driver labels everything in milliseconds (this is what production
    dedup pipelines do); past it, the distributed min-label rounds of
    :mod:`alix_ray.ops.crawl` (``_min_labels`` on the ``_vertex_rounds``
    kernel, shared with ``connected_components_partitioned``) take
    over — identical labels by construction, exact int64 for any doc
    id.  Their state starts from the distinct pair endpoints; rounds
    needed = the largest component's diameter (near-dup clusters are
    shallow), and more than ``max_iter`` raises ``RuntimeError`` rather
    than return split clusters.  Nothing lands on the driver except
    the per-round changed-label count.  This is the step after
    :func:`minhash_lsh_pairs` in a dedup pipeline: keep
    ``doc_id == cluster_id`` rows to retain one representative per
    cluster.

    Returns a Dataset of ``(doc_id, cluster_id)`` for every doc that
    appears in some pair.
    """
    pairs = pairs.materialize()  # count + reuse without re-executing
    n_pairs = pairs.count()
    if n_pairs <= CLUSTER_DRIVER_MAX_PAIRS:
        # blocks may have heterogeneous schemas (empty map_groups
        # outputs) — take just the two pair columns from non-empty ones
        blocks = [
            t.select([a_col, b_col])
            for t in ray.get(pairs.to_arrow_refs())
            if t.num_rows and a_col in t.column_names
        ]
        if not blocks:
            return ray.data.from_arrow(pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "cluster_id": pa.array([], pa.int64())}))
        tbl = pa.concat_tables(blocks)
        a = tbl[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = tbl[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]  # path halving
                x = parent[x]
            return x

        for x, y in zip(a.tolist(), b.tolist()):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
        nodes = np.array(sorted(parent), np.int64)
        roots = np.array([find(int(n)) for n in nodes], np.int64)
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array(nodes),
                      "cluster_id": pa.array(roots)})
        )

    from .crawl import _min_labels

    labels = _min_labels(pairs, a_col, b_col, 2 * n_pairs, max_iter,
                         "connected_components", dense=False)
    return labels.map_batches(
        lambda b: pa.table({"doc_id": b["id"], "cluster_id": b["lbl"]}),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------


def _simhash_from(th: np.ndarray) -> int:
    """64-bit SimHash from precomputed token hashes, weighted by tf."""
    if len(th) == 0:
        return 0
    uniq, counts = np.unique(th, return_counts=True)
    bits = ((uniq[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    )
    acc = ((bits * 2 - 1) * counts[:, None]).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def simhash64(tokens: list[str]) -> int:
    """64-bit SimHash over token hashes weighted by tf."""
    return _simhash_from(_token_hashes(tokens))


def _drop_dup_pairs(g: pd.DataFrame) -> pd.DataFrame:
    return g.drop_duplicates(["doc_a", "doc_b"])


def simhash_pairs(ds: ray.data.Dataset, text_col="text", id_col="doc_id",
                  max_hamming: int = 3) -> ray.data.Dataset:
    """Near-dup pairs with hamming(simhash) ≤ max_hamming via 4-block
    banding (a pair within distance 3 shares at least one of 4 blocks
    — pigeonhole, so the band pass is COMPLETE at the default 3).
    Band rows are slim: (doc_id, block, key, 8-byte sig).

    Token hash is md5_number_lower (:func:`md5_lower64`), so the pair
    set has an exact DuckDB oracle (recompute signatures in SQL, keep
    ``bit_count(xor()) <= max_hamming`` over all pairs)."""

    def sigs(batch: pa.Table) -> pa.Table:
        sa = SimpleAnalyzer()
        ids = batch[id_col].to_pylist()
        th, offs = _batch_md5_token_hashes(batch[text_col].to_pylist(), sa)
        hs = np.fromiter(
            (_simhash_from(th[offs[i] : offs[i + 1]]) for i in range(len(ids))),
            np.uint64,
            len(ids),
        )
        n = len(ids)
        blocks = np.tile(np.arange(4, dtype=np.int64), n)
        rep = np.repeat(hs, 4)
        keys = (rep >> (blocks.astype(np.uint64) * np.uint64(16))) & np.uint64(0xFFFF)
        pkey = keys + np.uint64(0x10000) * blocks.astype(np.uint64)
        return pa.table(
            {
                id_col: pa.array(np.repeat(np.asarray(ids, np.int64), 4)),
                "block": pa.array(blocks.astype(np.int32)),
                "key": pa.array(keys.astype(np.int64)),
                "sig": pa.array(rep.astype(np.int64)),
                "pkey": pa.array(pkey),
            }
        )

    def part_bucket_pairs(g):
        import pandas as pd

        block = g["block"].to_numpy(np.int64)
        key = g["key"].to_numpy(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        s = g["sig"].to_numpy().astype(np.uint64)
        order = np.lexsort((ids, key, block))
        block, key, ids, s = block[order], key[order], ids[order], s[order]
        new_run = np.empty(len(ids), bool)
        new_run[0] = True
        new_run[1:] = (block[1:] != block[:-1]) | (key[1:] != key[:-1])
        starts = np.flatnonzero(new_run)
        ends = np.append(starts[1:], len(ids))
        out_a, out_b, out_d = [], [], []
        for st, en in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
            u_ids, u_s = ids[st:en], s[st:en]
            ia, ib = np.triu_indices(en - st, k=1)
            x = u_s[ia] ^ u_s[ib]
            d = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
            keep = d <= max_hamming
            out_a.append(u_ids[ia[keep]])
            out_b.append(u_ids[ib[keep]])
            out_d.append(d[keep].astype(np.int64))
        if not out_a:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"),
                 "doc_b": pd.Series([], dtype="int64"),
                 "hamming": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b),
             "hamming": np.concatenate(out_d)}
        )

    pairs = exchange(ds.map_batches(sigs, batch_format="pyarrow"),
                     part_bucket_pairs, "pkey")
    # same pair can surface from several blocks; all copies share doc_a
    return exchange(pairs, _drop_dup_pairs, "doc_a")


# ---------------------------------------------------------------------
# Exact n-gram Jaccard pairs (verification oracle; O(n²) — small inputs)
# ---------------------------------------------------------------------


def jaccard_pairs_exact(ds: ray.data.Dataset, threshold: float,
                        text_col="text", id_col="doc_id",
                        max_docs: int = 20_000):
    """All-pairs token-set Jaccard ≥ threshold.  The SQL-checkable
    oracle for the LSH pipelines; the scale path is minhash_lsh_pairs.
    Guarded: refuses inputs past max_docs so a larger sf run fails fast
    instead of OOMing the driver on the O(n²) loop."""
    tbl = pa.concat_tables(ray.get(ds.materialize().to_arrow_refs()))
    if tbl.num_rows > max_docs:
        raise ValueError(
            f"jaccard_pairs_exact is an O(n²) driver-side oracle; got "
            f"{tbl.num_rows} docs > max_docs={max_docs}. Use "
            f"minhash_lsh_pairs for large inputs."
        )
    sa = SimpleAnalyzer()
    ids = tbl[id_col].to_pylist()
    sets = [set(sa.terms(t or "")) for t in tbl[text_col].to_pylist()]
    order = np.argsort(ids)
    rows = []
    for xi in range(len(order)):
        for yi in range(xi + 1, len(order)):
            x, y = order[xi], order[yi]
            a, b = sets[x], sets[y]
            if not a and not b:
                continue
            inter = len(a & b)
            j = inter / (len(a) + len(b) - inter)
            if j >= threshold:
                rows.append((ids[x], ids[y], float(np.sign(j) * np.floor(abs(j) * 1e6 + 0.5) / 1e6)))
    import pandas as pd

    return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])


# ---------------------------------------------------------------------
# Embedding-cosine near-dup
# ---------------------------------------------------------------------


def embedding_dup_pairs_ivf(ds: ray.data.Dataset, threshold: float = 0.95,
                            vec_col="embedding", id_col="vec_id",
                            n_lists: int = 8, n_probe: int = 4,
                            seed: int = 42, fit_sample: int = 4096):
    """Embedding near-dup pairs via an IVF partition join — the scale
    path for :func:`embedding_dup_pairs`.

    Shape: a seeded k-means coarse quantizer (fit on a bounded sample)
    assigns every vector to a list; each vector emits one MEMBER row
    for its own list and PROBE rows for its ``n_probe`` nearest lists;
    a coarse-partitioned groupby co-locates each list's members with
    its probers, where an exact float64 matmul scores probe × member
    and keeps cosine ≥ threshold.  Nothing corpus-sized ever lands on
    the driver; shuffle volume is (n_probe+1) × vectors.  Recall
    depends on (n_lists, n_probe) — with n_probe = n_lists/2 on the
    test corpus the pair set is empirically identical to the exact
    all-pairs oracle (the driver check enforces it)."""
    from .similarity import IvfIndexedSearch, _normalize

    sample = ds.limit(fit_sample).to_pandas()
    ivf = IvfIndexedSearch(n_lists=n_lists, seed=seed).fit(
        np.array(sample[vec_col].tolist(), np.float64)
    )
    C = ivf.centroids
    c_ref = ray.put(C)

    def emit(batch: pa.Table) -> pa.Table:
        Cm = ray.get(c_ref)
        ids = np.asarray(batch[id_col].to_pylist(), np.int64)
        V = _normalize(np.array(batch[vec_col].to_pylist(), np.float64))
        sims = V @ Cm.T
        own = np.argmax(sims, axis=1)
        probes = np.argsort(-sims, axis=1)[:, :n_probe]
        out_id, out_list, out_role, out_vec = [], [], [], []
        for r in range(len(ids)):
            out_id.append(ids[r])
            out_list.append(int(own[r]))
            out_role.append(0)  # member of its own list
            out_vec.append(V[r].tobytes())
            for p in probes[r]:
                out_id.append(ids[r])
                out_list.append(int(p))
                out_role.append(1)  # prober
                out_vec.append(V[r].tobytes())
        lists = np.asarray(out_list, np.int64)
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "ivf_list": pa.array(lists),
                "role": pa.array(out_role, pa.int32()),
                "vec": pa.array(out_vec, pa.large_binary()),
            }
        )

    def part_pairs(g):
        import pandas as pd

        out_a, out_b, out_s = [], [], []
        for _, grp in g.groupby("ivf_list"):
            mem = grp[grp["role"] == 0]
            prb = grp[grp["role"] == 1]
            if len(mem) == 0 or len(prb) == 0:
                continue
            M = np.stack([np.frombuffer(v, np.float64) for v in mem["vec"]])
            P = np.stack([np.frombuffer(v, np.float64) for v in prb["vec"]])
            mids = mem[id_col].to_numpy(np.int64)
            pids = prb[id_col].to_numpy(np.int64)
            S = P @ M.T
            # canonicalize (min, max): a pair may only surface in one
            # probe direction, so keep any orientation then order it
            pi, mi = np.nonzero(
                (S >= threshold) & (pids[:, None] != mids[None, :])
            )
            out_a.append(np.minimum(pids[pi], mids[mi]))
            out_b.append(np.maximum(pids[pi], mids[mi]))
            out_s.append(S[pi, mi])
        if not out_a:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"),
                 "doc_b": pd.Series([], dtype="int64"),
                 "cosine": pd.Series([], dtype="float64")}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(out_a), "doc_b": np.concatenate(out_b),
             "cosine": np.concatenate(out_s)}
        )

    pairs = exchange(ds.map_batches(emit, batch_format="pyarrow"),
                     part_pairs, "ivf_list")
    # a pair can surface from several (prober, list) combinations
    return exchange(pairs, _drop_dup_pairs, "doc_a")


def embedding_dup_pairs(ds: ray.data.Dataset, threshold: float = 0.95,
                        vec_col="embedding", id_col="vec_id"):
    """Pairs with cosine ≥ threshold: batches scored against the full
    (broadcast) normalized matrix — ray.put once, matmul per batch.
    Exact-oracle variant; the corpus-scale path is
    :func:`embedding_dup_pairs_ivf` (IVF partition join)."""
    mat_tbl = pa.concat_tables(ray.get(ds.materialize().to_arrow_refs()))
    ids = np.asarray(mat_tbl[id_col].to_pylist(), np.int64)
    V = np.array(mat_tbl[vec_col].to_pylist(), np.float64)
    V /= np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids, V))

    def score(batch: pa.Table) -> pa.Table:
        all_ids, allV = ray.get(ref)
        bids = np.asarray(batch[id_col].to_pylist(), np.int64)
        B = np.array(batch[vec_col].to_pylist(), np.float64)
        B /= np.maximum(np.linalg.norm(B, axis=1, keepdims=True), 1e-12)
        S = B @ allV.T
        out_a, out_b, out_s = [], [], []
        for r in range(len(bids)):
            hits = np.nonzero(S[r] >= threshold)[0]
            for h in hits:
                if bids[r] < all_ids[h]:
                    out_a.append(int(bids[r]))
                    out_b.append(int(all_ids[h]))
                    out_s.append(float(S[r, h]))
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def minhash_cross_pairs(corpus: ray.data.Dataset, ref: ray.data.Dataset,
                        text_col="text", id_col="doc_id",
                        offset: int | None = None,
                        **kw) -> ray.data.Dataset:
    """Near-dup pairs ACROSS two corpora — the near-duplicate form of
    benchmark decontamination (a training doc that is a fuzzy copy of
    an eval doc escapes exact n-gram matching; LSH banding over the
    UNION catches it).  Returns ``(doc_id, ref_id, jaccard)`` with the
    exact verified Jaccard ≥ threshold.

    Composition: ref ids shift above the corpus id range (id-disjoint
    union), one :func:`minhash_lsh_pairs` run over the union — the
    banding, slim shuffle, and verify paths are shared, costing the
    same as near-dup over the combined corpus — then only
    cross-boundary pairs survive.  ``offset`` defaults to
    ``max(corpus.doc_id) + 1`` (one tiny aggregate)."""
    if offset is None:
        mx = corpus.max(id_col)  # None when the corpus side is empty
        offset = 0 if mx is None else int(mx) + 1

    def shift(batch: pa.Table) -> pa.Table:
        ids = pc.add(batch[id_col].cast(pa.int64()), offset)
        return pa.table({id_col: ids, text_col: batch[text_col]})

    both = corpus.select_columns([id_col, text_col]).union(
        ref.map_batches(shift, batch_format="pyarrow"))
    pairs = minhash_lsh_pairs(both, text_col=text_col, id_col=id_col,
                              **kw)

    def cross_only(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_b"].to_numpy(zero_copy_only=False)
        m = (a < offset) & (b >= offset)  # doc_a<doc_b ⇒ ref is b
        return pa.table({
            id_col: pa.array(a[m], pa.int64()),
            "ref_id": pa.array(b[m] - offset, pa.int64()),
            "jaccard": batch["jaccard"].filter(pa.array(m)),
        })

    return pairs.map_batches(cross_only, batch_format="pyarrow")


# ---------------------------------------------------------------------
# cluster representative selection (the "which dup to keep" step)
# ---------------------------------------------------------------------


# Label count up to which cluster_representatives broadcasts the
# doc → cluster map; past it the quality join is a doc_id exchange.
CLUSTER_REPS_BROADCAST_MAX = 5_000_000


def cluster_representatives(labels: ray.data.Dataset,
                            docs: ray.data.Dataset,
                            quality_col: str = "n_chars",
                            id_col: str = "doc_id",
                            ) -> ray.data.Dataset:
    """Elect one representative per near-dup cluster: the member with
    the highest ``quality_col``, ties to the lowest id — the step after
    :func:`connected_components` that decides WHICH duplicate survives
    (quality-aware keep, not keep-first).

    ``labels`` is (doc_id, cluster_id) — by construction only docs that
    appear in a near-dup pair, i.e. a small fraction of the corpus.
    The quality join auto-selects by label count (the docids/minhash
    convention): a broadcast doc→cluster map up to
    ``CLUSTER_REPS_BROADCAST_MAX`` labels (corpus streams, zero
    shuffles), else a doc_id exchange join.  Either way the final election is one groupby over the
    LABELED rows only — never corpus-wide.  Quality values ride as
    float64 in the distributed union (both sides must share one
    schema); ints beyond 2^53 would lose ordering precision there —
    quality metrics are small by nature.  Output
    ``(cluster_id, rep_doc_id, n_docs)``."""
    from ._util import broadcast_cached

    def elect(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([quality_col, id_col], ascending=[False, True])
        return g.groupby("cluster_id", sort=True).agg(
            rep_doc_id=(id_col, "first"), n_docs=(id_col, "size"),
        ).reset_index()

    labels = labels.materialize()  # consumed twice (count + join input)
    n = labels.count()
    if n <= CLUSTER_REPS_BROADCAST_MAX:
        lab = labels.to_pandas().sort_values(id_col)
        # sorted (keys, values) arrays — int64 end-to-end, no dict and
        # no float64 detour that would corrupt ids above 2^53
        ref = ray.put((lab[id_col].to_numpy(np.int64),
                       lab["cluster_id"].to_numpy(np.int64)))

        def tag(batch: pa.Table) -> pa.Table:
            keys, vals = broadcast_cached(ref)
            ids = _coln(batch, id_col).astype(np.int64)
            pos = np.searchsorted(keys, ids)
            pos[pos >= len(keys)] = 0
            keep = keys[pos] == ids if len(keys) else np.zeros(len(ids), bool)
            cl = vals[pos[keep]]
            return pa.table({
                id_col: pa.array(ids[keep], pa.int64()),
                "cluster_id": pa.array(cl),
                quality_col: _coln(batch, quality_col)[keep],
            })

        tagged = docs.select_columns([id_col, quality_col]).map_batches(
            tag, batch_format="pyarrow")
    else:
        # distributed: doc_id union join (minhash-verify shape);
        # one shared schema — quality as float64 on both sides
        def side(is_label: bool):
            def f(batch: pa.Table) -> pa.Table:
                ids = _coln(batch, id_col).astype(np.int64)
                return pa.table({
                    id_col: pa.array(ids, pa.int64()),
                    "cluster_id": batch["cluster_id"].cast(pa.int64())
                    if is_label else pa.array(
                        np.full(len(ids), -1, np.int64)),
                    quality_col: pa.array(
                        np.full(len(ids), np.nan)) if is_label
                    else pa.array(_coln(batch, quality_col)
                                  .astype(np.float64)),
                })
            return f

        both = labels.map_batches(side(True), batch_format="pyarrow").union(
            docs.select_columns([id_col, quality_col]).map_batches(
                side(False), batch_format="pyarrow"))

        def join(g: pd.DataFrame) -> pd.DataFrame:
            lab = g[g["cluster_id"] >= 0][[id_col, "cluster_id"]]
            qual = g[g["cluster_id"] < 0][[id_col, quality_col]]
            return lab.merge(qual, on=id_col, how="inner")

        tagged = exchange(both, join, id_col)

    return exchange(tagged, elect, "cluster_id")


def _coln(batch: pa.Table, col: str) -> np.ndarray:
    return batch[col].to_numpy(zero_copy_only=False)
