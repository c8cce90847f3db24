"""Web-crawl lifecycle operators: snapshot diffing, URL
canonicalization, per-domain statistics, and link-graph PageRank.

The reference indexes a static corpus (one TEI glob → one index); a
recurring web crawl additionally needs to know *what changed between
snapshots* (recrawl scheduling, incremental index deltas), *which URLs
are the same resource* (tracking-param noise inflates exact-dedup
keys), *how the corpus distributes over registered domains* (quota and
abuse policy), and *which pages matter* (link-graph centrality for
crawl prioritization).  These four operators supply that layer over
plain Arrow columns — no crawler coupling.

Scale shapes (10^12 rows):

- ``snapshot_diff`` ships only (key, side, 64-bit hash) rows — 17
  bytes/row — through ONE :func:`~alix_ray.ops.exchange.exchange`;
  payload text never shuffles.  Output is one row per url in either snapshot.
- ``normalize_urls`` is zero-shuffle: five RE2 passes per batch
  (pyarrow ``replace_substring_regex`` — the SAME RE2 patterns run in
  the DuckDB oracle via ``regexp_replace``, so parity is by
  construction, not by reimplementation).
- ``domain_stats`` combines BEFORE the shuffle for pages/chars (one
  partial row per (domain, batch)); the exact distinct-url count
  additionally ships one slim (domain, bucket, 8 B hash) row per
  DISTINCT url per batch — O(distinct urls), the price of exactness —
  but routing url rows by hash(domain, url) keeps every reducer group
  bounded even for a Zipf-head domain.
- ``pagerank`` keeps the edge table in place and iterates:
  map-side contribution partials (np.add.at over each batch's dst
  ids) → per-batch sparse (dst, partial) rows → one small groupby →
  the driver folds the k·1 rank vector and re-broadcasts via
  ``ray.put``.  With out-degrees known, nothing but (dst, float)
  rows moves per iteration.  Beyond ~5e8 nodes the broadcast rank
  vector stops fitting (8 B/node); :func:`pagerank_partitioned` is
  the shipped fallback — ranks as a hash-partitioned TABLE, two slim
  shuffles per iteration, nothing O(n_nodes) anywhere, bit-equal to
  the broadcast path by test.  ``MAX_BROADCAST_NODES`` fails fast
  toward it rather than silently degrading.
- The partitioned graph fixpoints — :func:`pagerank_partitioned`,
  :func:`connected_components_partitioned` and dedup's near-dup
  clustering past its pair gate — are programs on ONE round kernel,
  :func:`_vertex_rounds`: edges materialized once; per round
  state ∪ edges → exchange by node id → per-target messages,
  state ∪ messages → exchange by node id → new state plus a per-row
  scalar; one materialize and one scalar sum per round.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .dedup import _token_hashes, md5_lower64
from .exchange import _mix64, exchange


# RE2 patterns shared VERBATIM with the SQL oracles (DuckDB regexp_*
# is RE2 too — one pattern string, two engines, provable parity).
# Tracking params are NOT a regex: an unanchored pattern corrupts any
# param merely CONTAINING a tracking prefix, and RE2 has no
# lookbehind to anchor one — both engines instead split the query on
# '&' and drop params whose NAME starts with a tracking prefix
# (pyarrow list kernels here; str_split + list_filter in the oracle).
P_FRAGMENT = r"#.*$"
TRACKING_PREFIXES = ("utm_", "fbclid=", "gclid=")
P_QUERY_TAIL = r"[?&]+$"
P_DEFAULT_PORT = r"^(https?://[^/:]+):(80|443)(/|\?|$)"
P_TRAILING_SLASH = r"/+$"
P_DOMAIN = r"^https?://(?P<d>[^/:?#]+)"
P_AUTHORITY = r"^https?://[^/?#]+"  # strip to the robots match target
P_DOMAIN_SQL = r"^https?://([^/:?#]+)"  # DuckDB wants a numbered group

# Broadcast bounds of the driver-vector graph ops: past them an op
# raises ValueError instead of shipping the vector (8 B/node, 8 B/edge)
# to every task.  Module constants, read at call time.
MAX_BROADCAST_NODES = 100_000_000
MAX_BROADCAST_EDGES = 500_000_000


# ---------------------------------------------------------------------
# snapshot diff
# ---------------------------------------------------------------------


def snapshot_diff(old: ray.data.Dataset, new: ray.data.Dataset,
                  key_col: str = "doc_id",
                  text_col: str = "text") -> ray.data.Dataset:
    """Per-key change status between two crawl snapshots:
    ``new`` (only in the new snapshot) / ``deleted`` (only in the
    old) / ``changed`` (both, content hash differs) / ``same``.

    Contract: each snapshot is key-unique (crawl frontier semantics —
    one row per url per snapshot); duplicate keys within a side fold
    to their min hash, making the op deterministic under violations.
    Keys may be integers (partitioned by value hash) or strings (url
    keys — partitioned by content hash).  Content and string keys
    hash with :func:`md5_lower64`, so the status column has an exact
    DuckDB oracle (``md5_number_lower``).  Only (key, side, hash) rows
    ever shuffle.
    """

    def slim(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            karr = batch[key_col]
            if pa.types.is_integer(karr.type):
                keys = pa.array(karr.to_numpy(
                    zero_copy_only=False).astype(np.int64))
                kh = keys.to_numpy(zero_copy_only=False).astype(
                    np.uint64)
            else:  # string url keys: partition by content hash
                keys = pc.cast(karr, pa.string()).combine_chunks()
                kh = md5_lower64(keys.to_pylist())
            h = md5_lower64(batch[text_col].to_pylist()).view(np.int64)
            return pa.table({
                key_col: keys,
                "side": pa.array(np.full(len(batch), side, np.int8)),
                "h": pa.array(h),
                "pkey": pa.array(kh),
            })
        return fn

    unioned = old.map_batches(slim(0), batch_format="pyarrow").union(
        new.map_batches(slim(1), batch_format="pyarrow"))

    sch = old.schema()  # Ray Schema wrapper: parallel names/types
    ktype = dict(zip(sch.names, sch.types))[key_col]
    if isinstance(ktype, pa.DataType):
        key_is_int = pa.types.is_integer(ktype)
    else:  # pandas-block datasets report numpy/python types
        try:
            key_is_int = np.issubdtype(np.dtype(ktype), np.integer)
        except TypeError:
            key_is_int = False
    key_pa_type = pa.int64() if key_is_int else pa.string()
    _SCHEMA = pa.schema([(key_col, key_pa_type), ("status", pa.string())])

    def classify(g: pd.DataFrame) -> pa.Table:
        # nullable Int64 keeps 64-bit hash precision through the outer
        # merge (float64 NaN coercion would silently drop low bits and
        # mark distinct texts 'same')
        a = g[g["side"] == 0].groupby(key_col, as_index=False)["h"].min()
        b = g[g["side"] == 1].groupby(key_col, as_index=False)["h"].min()
        a["h"] = a["h"].astype("Int64")
        b["h"] = b["h"].astype("Int64")
        m = a.merge(b, on=key_col, how="outer", suffixes=("_a", "_b"))
        if len(m) == 0:
            return _SCHEMA.empty_table()
        # fillna before np.where: a nullable-Boolean mask with pd.NA
        # cannot convert to numpy; the NA rows are already claimed by
        # the new/deleted branches
        neq = (m["h_a"] != m["h_b"]).fillna(False).to_numpy(np.bool_)
        status = np.where(
            m["h_a"].isna().to_numpy(np.bool_), "new",
            np.where(m["h_b"].isna().to_numpy(np.bool_), "deleted",
                     np.where(neq, "changed", "same")))
        keys_out = (pa.array(m[key_col].to_numpy(np.int64))
                    if key_is_int
                    else pa.array(m[key_col].astype(object), pa.string()))
        return pa.table({
            key_col: keys_out,
            "status": pa.array(status.astype(object), pa.string()),
        })

    return exchange(unioned, classify, "pkey")


# ---------------------------------------------------------------------
# url canonicalization + domain stats
# ---------------------------------------------------------------------


def normalize_batch(urls: pa.Array) -> tuple[pa.Array, pa.Array]:
    """(canonical url, registered domain): strip fragment → drop
    tracking params by NAME prefix (split query on ``&``, filter,
    rejoin — fully vectorized arrow list kernels) → clean dangling
    ``?``/``&`` → strip default :80/:443 port → strip trailing
    slashes.  A url with no extractable domain gets ``""`` (matching
    DuckDB ``regexp_extract``'s no-match value, so the oracle and the
    op agree on malformed rows)."""
    u = pc.replace_substring_regex(urls, P_FRAGMENT, "")
    parts = pc.split_pattern(u, "?", max_splits=1)
    base = pc.list_element(parts, 0)
    has_q = pc.equal(pc.list_value_length(parts), 2)
    query = pc.binary_join(pc.list_slice(parts, 1, 2), "")
    params = pc.split_pattern(query, "&")
    flat = (params.combine_chunks()
            if isinstance(params, pa.ChunkedArray) else params)
    vals = flat.values
    bad = pc.starts_with(vals, TRACKING_PREFIXES[0])
    for p in TRACKING_PREFIXES[1:]:
        bad = pc.or_(bad, pc.starts_with(vals, p))
    keep = pc.invert(bad).to_numpy(zero_copy_only=False)
    offs = flat.offsets.to_numpy().astype(np.int64)
    csum = np.concatenate(([0], np.cumsum(keep.astype(np.int64))))
    new_list = pa.ListArray.from_arrays(
        pa.array(csum[offs].astype(np.int32), pa.int32()),
        vals.filter(pa.array(keep)))
    joined = pc.binary_join(new_list, "&")
    u = pc.if_else(pc.and_(has_q, pc.not_equal(joined, "")),
                   pc.binary_join_element_wise(base, joined, "?"), base)
    u = pc.replace_substring_regex(u, P_QUERY_TAIL, "")
    u = pc.replace_substring_regex(u, P_DEFAULT_PORT, r"\1\3")
    u = pc.replace_substring_regex(u, P_TRAILING_SLASH, "")
    dom = pc.fill_null(
        pc.struct_field(pc.extract_regex(u, P_DOMAIN), "d"), "")
    return u, dom


def normalize_urls(ds: ray.data.Dataset,
                   url_col: str = "url") -> ray.data.Dataset:
    """Append ``url_norm`` and ``domain`` columns (zero shuffle)."""
    def fn(batch: pa.Table) -> pa.Table:
        u, dom = normalize_batch(batch[url_col].combine_chunks())
        return batch.append_column("url_norm", u).append_column(
            "domain", dom)

    return ds.map_batches(fn, batch_format="pyarrow")


def domain_stats(ds: ray.data.Dataset, url_col: str = "url",
                 chars_col: str | None = "n_chars") -> ray.data.Dataset:
    """Per registered domain: page count, distinct canonical urls,
    total chars.  Combine-before-shuffle: each batch emits one partial
    row per domain (pages/chars) plus one row per distinct url.  The
    exact-distinct count is TWO exchanges so a Zipf-head domain (half
    the web under one host) can never concentrate its url rows in a
    single reducer: the first routes url rows by their url hash, so
    every copy of a url meets once and per-partition distinct counts
    are globally disjoint; the second routes by domain hash and sums.
    Both move partial rows, never one row per page, and each fold
    regroups by the real key vectorized.

    The partial stays columnar end-to-end (``pa.Table.group_by`` for
    the per-domain fold and the distinct (domain, url) pairs); only
    the distinct urls — already deduplicated — cross into Python for
    :func:`md5_lower64` hashing (the oracle's ``md5_number_lower``)."""
    sums = ["n_pages", "n_urls", "chars"]

    def partial(batch: pa.Table) -> pa.Table:
        u, dom = normalize_batch(batch[url_col].combine_chunks())
        if chars_col is not None and chars_col in batch.schema.names:
            # safe=False keeps the old pandas-path tolerance for
            # float chars columns (fractional values truncate instead
            # of failing the whole job)
            chars = pc.cast(batch[chars_col], pa.int64(), safe=False)
        else:
            chars = pa.array(np.zeros(len(batch), np.int64))
        t = pa.table({"domain": dom, "url_norm": u, "chars": chars})
        g = t.group_by("domain").aggregate(
            [("url_norm", "count"), ("chars", "sum")])
        d2 = t.group_by(["domain", "url_norm"]).aggregate([])
        n, m = len(g), len(d2)
        uh = md5_lower64(d2["url_norm"].to_pylist())
        dom_all = pa.concat_arrays([
            pc.cast(g["domain"], pa.string()).combine_chunks(),
            pc.cast(d2["domain"], pa.string()).combine_chunks()])
        dh = md5_lower64(dom_all.to_pylist())
        zeros = np.zeros(m, np.int64)
        return pa.table({
            "domain": dom_all,
            "dh": pa.array(dh),
            "key": pa.array(np.concatenate([dh[:n], uh])),
            "uh": pa.array(np.concatenate([np.zeros(n, np.uint64), uh])),
            "n_pages": pa.concat_arrays([pc.cast(
                g["url_norm_count"], pa.int64()).combine_chunks(),
                pa.array(zeros)]),
            "n_urls": pa.array(np.concatenate([np.zeros(n, np.int64),
                                               np.ones(m, np.int64)])),
            "chars": pa.concat_arrays([pc.fill_null(pc.cast(
                g["chars_sum"], pa.int64()), 0).combine_chunks(),
                pa.array(zeros)]),
        })

    def url_fold(g: pd.DataFrame) -> pd.DataFrame:
        # every copy of a url is in this partition: count it once
        dup = g.duplicated(["domain", "uh", "n_urls"]).to_numpy() & (
            g["n_urls"].to_numpy() > 0)
        return g[~dup].groupby(["domain", "dh"], as_index=False,
                               sort=False)[sums].sum()

    def domain_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("domain", as_index=False, sort=False)[sums].sum()
        return out.rename(columns={"chars": "total_chars"})

    lvl1 = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    url_fold, "key")
    return exchange(lvl1, domain_fold, "dh")


# ---------------------------------------------------------------------
# anchor-text aggregation
# ---------------------------------------------------------------------


def anchor_terms(links: ray.data.Dataset, k: int = 5,
                 dst_col: str = "dst",
                 anchor_col: str = "anchor") -> ray.data.Dataset:
    """Per-target top-k anchor terms from the inlink anchor texts —
    the classic web-index ranking signal (anchor text describes the
    TARGET page better than its own body; Brin & Page 1998 §2.2 use it
    as a dedicated index field).  Output: ``(dst, term, n)`` rows, the
    top-k terms per target under the (count desc, term asc) tie rule.

    Scale shape (three levels, nothing ∝ inlinks ever groups):
    each batch tokenizes its anchors vectorized (the SimpleAnalyzer
    ``[a-z0-9]+`` arrow kernel — SQL-mirrorable) and pre-aggregates
    (dst, term) counts with an in-batch arrow ``group_by``
    (combine-before-shuffle: one slim row per distinct (dst, term) per
    batch leaves the task, never a row per token); level 1 exchanges
    by hash(dst, term) — disjoint keys, so per-pair sums are global —
    and level 2 exchanges by dst to take the vectorized per-target
    top-k.  A Zipf-head target (half the web links to one homepage)
    reaches level 2 as one row per distinct anchor term, bounded by
    vocabulary, not by its 10^9 inlinks."""
    from ..analysis import SimpleAnalyzer

    _EMPTY = pa.schema([(dst_col, pa.int64()), ("term", pa.string()),
                        ("n", pa.int64()), ("pk1", pa.uint64())])

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _EMPTY.empty_table()
        lists = SimpleAnalyzer.tokens_arrays(batch[anchor_col])
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(lens)), lens)
        t = pa.table({
            dst_col: pc.cast(batch[dst_col], pa.int64()).take(
                pa.array(owner)),
            "term": lists.flatten(),
        })
        g = t.group_by([dst_col, "term"]).aggregate([("term", "count")])
        dsts = g[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        th = _token_hashes(g["term"].to_pylist())
        pk1 = th ^ dsts.view(np.uint64)
        return pa.table({
            dst_col: pa.array(dsts),
            "term": pc.cast(g["term"], pa.string()),
            "n": pc.cast(g["term_count"], pa.int64()),
            "pk1": pa.array(pk1),
        })

    def fold_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby([dst_col, "term"], as_index=False)["n"].sum()

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.sort_values([dst_col, "n", "term"],
                             ascending=[True, False, True],
                             kind="mergesort")
               .groupby(dst_col, as_index=False).head(k))
        return out[[dst_col, "term", "n"]]

    pairs = exchange(links.map_batches(partial, batch_format="pyarrow"),
                     fold_pairs, "pk1")
    return exchange(pairs, topk, dst_col)


# ---------------------------------------------------------------------
# pagerank
# ---------------------------------------------------------------------


def _deg_partial_fn(src_col: str):
    """Per-batch sparse out-degree partial — single home for the
    degree semantics, shared by both PageRank variants (a divergence
    would break their bit-equality contract)."""
    def fn(batch: pa.Table) -> pa.Table:
        src = batch[src_col].to_numpy(zero_copy_only=False)
        ids, cnt = np.unique(src, return_counts=True)
        return pa.table({"id": pa.array(ids.astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})
    return fn


def _combine(ids: np.ndarray, vals: np.ndarray, ufunc: np.ufunc
             ) -> tuple[np.ndarray, np.ndarray]:
    """(distinct ids, ``ufunc``-reduced vals per id) — the sparse
    per-batch / per-group combine of every graph op here (stable
    argsort + ``reduceat``: memory O(rows), never O(n_nodes))."""
    order = np.argsort(ids, kind="stable")
    si, sv = ids[order], vals[order]
    uids, starts = np.unique(si, return_index=True)
    return uids, (ufunc.reduceat(sv, starts) if len(sv) else sv)


# ---------------------------------------------------------------------
# partitioned vertex rounds (the beyond-broadcast graph fixpoints)
# ---------------------------------------------------------------------

# Row kinds of the round tables: one int8 column says what a row is —
# never a sentinel value in a payload column, nor block metadata
# (Ray duplicates that across splits).
_EDGE, _STATE, _MSG = 0, 1, 2
# Leading columns of every round table; a program appends its message
# column ``m``, its per-row scalar ``s`` and then its state columns.
_ROUND_FIELDS = [("kind", pa.int8()), ("id", pa.int64()),
                 ("dst", pa.int64())]


def _vertex_table(schema: pa.Schema, kind: int, ids: np.ndarray,
                  **cols) -> pa.Table:
    """``kind`` rows of a round table, exchanged by ``id``; columns not
    given are zero."""
    n = len(ids)
    cols.update(kind=np.full(n, kind, np.int8), id=ids)
    return pa.table([pa.array(cols[f.name], f.type) if f.name in cols
                     else pa.array(np.zeros(n, f.type.to_pandas_dtype()))
                     for f in schema], schema=schema)


def _keyed_edges(edges: ray.data.Dataset, src_col: str, dst_col: str,
                 schema: pa.Schema,
                 symmetric: bool = False) -> ray.data.Dataset:
    """The edge rows of a round table (``id`` = src), materialized
    once; ``symmetric`` adds every edge's reverse."""
    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty blocks may lack the columns
            return schema.empty_table()
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if symmetric:
            s, d = np.concatenate([s, d]), np.concatenate([d, s])
        return _vertex_table(schema, _EDGE, s, dst=d)

    return edges.map_batches(fn, batch_format="pyarrow").materialize()


def _vertex_rounds(edges: ray.data.Dataset, state: ray.data.Dataset,
                   schema: pa.Schema, send, combine: np.ufunc, fold,
                   max_iter: int, n_nodes: int,
                   fixpoint: str | None = None) -> ray.data.Dataset:
    """The one round loop of the partitioned graph fixpoints
    (:func:`pagerank_partitioned`, :func:`connected_components_partitioned`
    and :func:`alix_ray.ops.dedup.connected_components` past its pair
    gate).  State lives as a table hash-partitioned by node id, so
    nothing is O(n_nodes) on the driver or in one task.

    ``edges`` (from :func:`_keyed_edges`) and ``state`` (one ``_STATE``
    row per node, at most ``n_nodes`` of them) are ``schema`` tables.
    Each round is two slim shuffles and one materialize:

    1. state ∪ edges, exchanged by id: each edge joins its source's state
       row, ``send(joined)`` gives one message value per edge, and the
       group emits them ``combine``-reduced per target — a Zipf-head
       target receives one row per group, never one per edge;
    2. state ∪ messages, exchanged by id: messages ``combine`` per node
       into ``inbox`` (``has`` marks nodes that got one) and
       ``fold(state_rows, inbox, has, total)`` returns the new state
       columns and the per-row scalar ``s``.

    ``total`` is the sum of ``s`` over the state the round starts
    from: one aggregate per round.  With ``fixpoint`` (the op's name)
    the loop stops at the first round whose sum is 0 and raises
    ``RuntimeError`` if ``max_iter`` rounds pass first; such a
    program's first round gets ``total=0``.  Without it the loop runs
    exactly ``max_iter`` rounds and never sums the last state.

    Block counts: each round's groupby inherits its input's block
    count and map_groups adds per-group blocks, so an unbounded loop
    snowballs blocks (measured: 14→603 over 5 PageRank rounds for a
    60-row table, wall doubling per round); the state is re-bounded to
    ~3M rows per block (≈128 MB of 40 B rows) before each
    materialize."""
    n_blocks = max(1, -(-n_nodes // 3_000_000))
    state_cols = ["id"] + schema.names[len(_ROUND_FIELDS) + 2:]

    def src_side(g: pd.DataFrame) -> pa.Table:
        kind = g["kind"].to_numpy()
        joined = g.loc[kind == _EDGE, ["id", "dst"]].merge(
            g.loc[kind == _STATE, state_cols], on="id")
        ids, vals = _combine(joined["dst"].to_numpy(np.int64),
                             send(joined), combine)
        return _vertex_table(schema, _MSG, ids, m=vals)

    def dst_side_at(total):
        def dst_side(g: pd.DataFrame) -> pa.Table:
            kind = g["kind"].to_numpy()
            st, msg = g[kind == _STATE], g[kind == _MSG]
            mids, mvals = _combine(msg["id"].to_numpy(np.int64),
                                   msg["m"].to_numpy(), combine)
            ids = st["id"].to_numpy(np.int64)
            pos = np.searchsorted(mids, ids)
            has = pos < len(mids)
            has[has] = mids[pos[has]] == ids[has]
            inbox = np.zeros(len(ids), mvals.dtype)
            inbox[has] = mvals[pos[has]]
            cols, s = fold(st, inbox, has, total)
            return _vertex_table(schema, _STATE, ids, s=s, **cols)
        return dst_side

    state = state.repartition(n_blocks).materialize()
    total = 0 if fixpoint else state.sum("s")
    for i in range(max_iter):
        msgs = exchange(state.union(edges), src_side, "id")
        state = exchange(state.union(msgs), dst_side_at(total),
                         "id").repartition(n_blocks).materialize()
        if not fixpoint and i + 1 == max_iter:
            break
        total = state.sum("s")
        if fixpoint and not total:
            return state
    if fixpoint:
        # partial labels would silently split components — rounds
        # needed = graph diameter, so a long chain (paginated site) can
        # legitimately exceed the default
        raise RuntimeError(
            f"{fixpoint} did not reach the fixpoint in {max_iter} rounds "
            "(graph diameter exceeds max_iter); raise max_iter")
    return state


def pagerank(edges: ray.data.Dataset, n_nodes: int,
             n_iter: int = 5, damping: float = 0.85,
             src_col: str = "src", dst_col: str = "dst",
             round_decimals: int | None = 9) -> ray.data.Dataset:
    """Fixed-iteration PageRank over an edge table (Page et al. 1999).

    Dense node ids in ``[0, n_nodes)``; dangling nodes (out-degree 0)
    redistribute their mass uniformly (the standard stochastic fix).
    Per iteration: one pass over edges computing per-batch sparse
    contribution partials, one driver fold of the k-vector, one
    ``ray.put`` re-broadcast.  Ranks are rounded to ``round_decimals``
    BETWEEN iterations on both engines (the repo's round-before-
    aggregate convention) so the result is independent of partition
    summation order — required for the exact SQL oracle and for
    cluster-size-independent output.

    ``MAX_BROADCAST_NODES`` bounds the broadcast vector (8 B/node);
    past it, raise rather than silently thrash — the scale fallback is
    :func:`pagerank_partitioned` (bit-equal by test).
    """
    if n_nodes > MAX_BROADCAST_NODES:
        raise ValueError(
            f"pagerank broadcast path holds 8 B × {n_nodes} nodes; "
            "beyond MAX_BROADCAST_NODES use pagerank_partitioned "
            "(bit-equal distributed-ranks variant)")

    # materialize the slim (src, dst) projection ONCE — the degree
    # pass plus every iteration reads it; leaving the input lazy would
    # re-execute the upstream lineage n_iter+1 times
    edges = edges.select_columns([src_col, dst_col]).materialize()
    deg_rows = edges.map_batches(
        _deg_partial_fn(src_col), batch_format="pyarrow").groupby(
            "id").sum("n")
    outdeg = np.zeros(n_nodes, np.float64)
    for b in deg_rows.iter_batches(batch_format="pyarrow"):
        outdeg[b["id"].to_numpy(zero_copy_only=False)] = \
            b["sum(n)"].to_numpy(zero_copy_only=False)

    ranks = np.full(n_nodes, 1.0 / n_nodes)
    if round_decimals is not None:
        from .textstats import round_half_away

        ranks = round_half_away(ranks, round_decimals)
    dangling = outdeg == 0
    base = (1.0 - damping) / n_nodes

    # both vectors travel via the object store (a closure-captured
    # numpy array would re-serialize into EVERY task's function blob)
    outdeg_ref = ray.put(outdeg)

    def contrib_partial_fn(ranks_ref):
        def fn(batch: pa.Table) -> pa.Table:
            r = ray.get(ranks_ref)
            od = ray.get(outdeg_ref)
            src = batch[src_col].to_numpy(zero_copy_only=False)
            dst = batch[dst_col].to_numpy(zero_copy_only=False)
            w = r[src] / od[src]
            if round_decimals is not None:
                # round-before-aggregate (repo convention): per-edge
                # contributions rounded 3 digits below the rank
                # rounding make the cross-partition sum order-
                # insensitive in practice, mirrored in the oracle SQL
                from .textstats import round_half_away

                w = round_half_away(w, round_decimals + 3)
            ids, c = _combine(dst, w, np.add)
            return pa.table({"id": pa.array(ids.astype(np.int64)),
                             "c": pa.array(c)})
        return fn

    for _ in range(n_iter):
        ranks_ref = ray.put(ranks)
        parts = edges.map_batches(
            contrib_partial_fn(ranks_ref), batch_format="pyarrow"
        ).groupby("id").sum("c")
        acc = np.zeros(n_nodes, np.float64)
        for b in parts.iter_batches(batch_format="pyarrow"):
            acc[b["id"].to_numpy(zero_copy_only=False)] = \
                b["sum(c)"].to_numpy(zero_copy_only=False)
        dmass = float(ranks[dangling].sum()) / n_nodes
        if round_decimals is not None:
            from .textstats import round_half_away

            # dmass rounded like the per-edge contributions so the
            # partitioned variant (different summation order) is
            # bit-equal
            dmass = float(round_half_away(dmass, round_decimals + 3))
        ranks = base + damping * (acc + dmass)
        if round_decimals is not None:
            from .textstats import round_half_away

            ranks = round_half_away(ranks, round_decimals)

    out = pa.table({"node": pa.array(np.arange(n_nodes, dtype=np.int64)),
                    "rank": pa.array(ranks)})
    return ray.data.from_arrow(out)


def pagerank_partitioned(edges: ray.data.Dataset, n_nodes: int,
                         n_iter: int = 5, damping: float = 0.85,
                         src_col: str = "src", dst_col: str = "dst",
                         round_decimals: int | None = 9
                         ) -> ray.data.Dataset:
    """The beyond-broadcast PageRank: ranks live as a DISTRIBUTED
    (id, rank, outdeg) table hash-partitioned by node id — nothing is
    ever O(n_nodes) on the driver or in a single task, so 10^12 nodes
    is rows, not RAM.

    One :func:`_vertex_rounds` program, ``n_iter`` rounds: each node
    sends ``rank / outdeg`` along its out-edges (summed per target
    within each group), then folds ``base + d·(inbox + dangling)``.
    The fold's per-row scalar is the node's rank when it dangles, so
    the round's one sum is the next round's dangling mass.

    The rounding schedule is IDENTICAL to :func:`pagerank`'s broadcast
    path, so the two variants are bit-equal (asserted by test) — the
    broadcast path is the fast small-graph implementation, this is the
    shape you ship at crawl-graph scale.
    """
    from .textstats import round_half_away

    def _round(x, dec):
        return round_half_away(x, dec) if round_decimals is not None \
            else x

    schema = pa.schema(_ROUND_FIELDS + [
        ("m", pa.float64()), ("s", pa.float64()),
        ("r", pa.float64()), ("od", pa.int64())])
    ekeyed = _keyed_edges(edges, src_col, dst_col, schema)
    # degrees from the MATERIALIZED edge rows (their src column is
    # "id"), not the lazy input — avoids re-executing upstream lineage
    deg = ekeyed.map_batches(
        _deg_partial_fn("id"), batch_format="pyarrow").groupby(
            "id").sum("n")
    r0 = float(_round(1.0 / n_nodes, round_decimals))

    def deg_rows(batch: pa.Table) -> pa.Table:
        return _vertex_table(
            schema, _STATE, batch["id"].to_numpy(zero_copy_only=False),
            od=batch["sum(n)"].to_numpy(zero_copy_only=False))

    def range_rows(batch) -> pa.Table:
        return _vertex_table(schema, _STATE, batch["id"].astype(np.int64))

    def init(g: pd.DataFrame) -> pa.Table:
        # the dense-id contract adds the out-degree-0 nodes from a
        # range (it streams: no O(n) driver list); degree rows win
        od = g.groupby("id")["od"].max()
        return _vertex_table(schema, _STATE, od.index.to_numpy(np.int64),
                             r=np.full(len(od), r0),
                             od=od.to_numpy(np.int64),
                             s=np.where(od.to_numpy() == 0, r0, 0.0))

    state = exchange(ray.data.range(n_nodes).map_batches(
        range_rows, batch_format="numpy").union(
            deg.map_batches(deg_rows, batch_format="pyarrow")), init, "id")

    base = (1.0 - damping) / n_nodes
    dec = (round_decimals or 0) + 3

    def send(joined: pd.DataFrame) -> np.ndarray:
        return _round(joined["r"].to_numpy() / joined["od"].to_numpy(),
                      dec)

    def fold(st: pd.DataFrame, inbox, has, total):
        dmass = float(_round(total / n_nodes, dec))
        r = _round(base + damping * (inbox + dmass), round_decimals)
        od = st["od"].to_numpy(np.int64)
        return {"r": r, "od": od}, np.where(od == 0, r, 0.0)

    ranks = _vertex_rounds(ekeyed, state, schema, send, np.add, fold,
                           n_iter, n_nodes)

    def out_rows(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["id"], "rank": t["r"]})

    return ranks.map_batches(out_rows, batch_format="pyarrow")


# ---------------------------------------------------------------------
# HITS hubs / authorities
# ---------------------------------------------------------------------


def hits(edges: ray.data.Dataset, n_nodes: int, n_iter: int = 4,
         src_col: str = "src", dst_col: str = "dst",
         round_decimals: int | None = 9) -> ray.data.Dataset:
    """Fixed-iteration HITS hubs-and-authorities (Kleinberg 1999,
    JACM 46(5)) over an edge table — the query-independent variant
    run over the whole crawl graph, the classic complement to
    PageRank for crawl prioritization (a good HUB is worth
    recrawling: it points at many good authorities).

    Dense node ids in ``[0, n_nodes)``.  Per iteration two edge
    sweeps: ``auth[v] = Σ_{(u,v)} hub[u]`` then ``hub[u] =
    Σ_{(u,v)} auth[v]``, each L1-normalized (divide by the sweep's
    total mass) and rounded to ``round_decimals`` — the repo's
    round-before-aggregate convention, making the result independent
    of partition summation order and therefore exactly mirrorable by
    chained SQL CTEs.

    Scale shape: identical to :func:`pagerank`'s broadcast path —
    the edge table stays in place (materialized once); each sweep is
    one ``map_batches`` pass emitting SPARSE per-batch partials
    (argsort + ``np.add.reduceat``, memory O(batch) never O(nodes)),
    one small groupby of partials, one driver fold of the 8 B/node
    vector, one ``ray.put`` re-broadcast.  ``MAX_BROADCAST_NODES``
    fails fast past the broadcast bound; the beyond-broadcast
    extension would be a :func:`_vertex_rounds` program like
    :func:`pagerank_partitioned` (scores as a hash-partitioned table,
    two slim shuffles per sweep) — not shipped."""
    from .textstats import round_half_away

    if n_nodes > MAX_BROADCAST_NODES:
        raise ValueError(
            f"hits broadcast path holds 8 B × {n_nodes} nodes; beyond "
            "MAX_BROADCAST_NODES shard the score vector with the "
            "pagerank_partitioned exchange plan")

    def _round(x):
        return round_half_away(x, round_decimals) \
            if round_decimals is not None else x

    # slim projection, materialized ONCE — 2·n_iter sweeps read it
    edges = edges.select_columns([src_col, dst_col]).materialize()

    def _sweep(vec: np.ndarray, from_col: str, to_col: str) -> np.ndarray:
        vec_ref = ray.put(vec)

        def fn(batch: pa.Table) -> pa.Table:
            v = ray.get(vec_ref)
            frm = batch[from_col].to_numpy(zero_copy_only=False)
            to = batch[to_col].to_numpy(zero_copy_only=False)
            ids, c = _combine(to, v[frm], np.add)
            return pa.table({"id": pa.array(ids.astype(np.int64)),
                             "c": pa.array(c)})

        acc = np.zeros(n_nodes, np.float64)
        parts = edges.map_batches(fn, batch_format="pyarrow").groupby(
            "id").sum("c")
        for b in parts.iter_batches(batch_format="pyarrow"):
            acc[b["id"].to_numpy(zero_copy_only=False)] = \
                b["sum(c)"].to_numpy(zero_copy_only=False)
        z = float(acc.sum())
        if z > 0.0:
            acc /= z
        return _round(acc)

    hub = _round(np.full(n_nodes, 1.0 / n_nodes))
    auth = np.zeros(n_nodes, np.float64)
    for _ in range(n_iter):
        auth = _sweep(hub, src_col, dst_col)
        hub = _sweep(auth, dst_col, src_col)

    out = pa.table({
        "node": pa.array(np.arange(n_nodes, dtype=np.int64)),
        "hub": pa.array(hub), "auth": pa.array(auth)})
    return ray.data.from_arrow(out)


# ---------------------------------------------------------------------
# degree distribution
# ---------------------------------------------------------------------


def degree_distribution(edges: ray.data.Dataset,
                        src_col: str = "src",
                        dst_col: str = "dst") -> ray.data.Dataset:
    """Out- and in-degree distribution of the link graph: one
    ``(direction, degree, n_nodes)`` row per observed degree value —
    the crawl-health histogram (a healthy web graph is Zipf in both
    directions; a scraper trap shows up as a mass spike at one
    out-degree).  Nodes absent from a direction's endpoint column
    don't contribute a degree-0 row (the distribution is over
    OBSERVED endpoints, so no ``n_nodes`` contract is needed).

    Scale shape: per direction, per-batch sparse endpoint-count
    partials (one ``(id, n)`` row per distinct endpoint per batch)
    → one groupby folding exact per-node degrees → per-batch
    histogram partials over the degree values (one row per distinct
    degree per batch — hundreds for a Zipf graph, never ∝ nodes)
    → one tiny groupby.  The second exchange is O(distinct degrees);
    only the first is O(nodes) rows, and they're 16 B each."""
    def _one(col: str, label: str) -> ray.data.Dataset:
        deg = edges.map_batches(
            _deg_partial_fn(col), batch_format="pyarrow").groupby(
                "id").sum("n")

        def hist(batch: pa.Table) -> pa.Table:
            d = batch["sum(n)"].to_numpy(zero_copy_only=False)
            vals, cnt = np.unique(d, return_counts=True)
            return pa.table({
                "direction": pa.array([label] * len(vals)),
                "degree": pa.array(vals.astype(np.int64)),
                "n": pa.array(cnt.astype(np.int64)),
            })

        return deg.map_batches(hist, batch_format="pyarrow")

    both = _one(src_col, "out").union(_one(dst_col, "in"))
    folded = both.groupby(["direction", "degree"]).sum("n")

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "direction": batch["direction"],
            "degree": batch["degree"],
            "n_nodes": batch["sum(n)"],
        })

    return folded.map_batches(rename, batch_format="pyarrow")


# ---------------------------------------------------------------------
# host-level link graph
# ---------------------------------------------------------------------


def host_link_graph(edges: ray.data.Dataset, hosts: np.ndarray,
                    src_col: str = "src", dst_col: str = "dst"
                    ) -> ray.data.Dataset:
    """Collapse the page-level link graph to the host (domain) level:
    one ``(src_host, dst_host, n_links)`` row per ordered host pair —
    the graph crawl schedulers and spam classifiers actually operate
    on (host-level PageRank feeds politeness quotas; dense off-host
    reciprocation is the classic link-farm signature).  Self-pairs
    (intra-host links) are kept; callers filter.

    ``hosts`` is the dense node-id → host-name array, broadcast ONCE
    via ``ray.put`` (the repo's broadcast-dictionary-join pattern —
    the small side ships to the object store once, not per batch).
    Each batch maps both endpoints vectorized and pre-aggregates with
    an in-batch arrow ``group_by`` (combine-before-shuffle: one slim
    row per distinct host pair per batch, never per link); the single
    exchange folds pair partials routed by hash(src_host, dst_host) —
    disjoint keys, so per-pair sums are global.
    Beyond ``MAX_BROADCAST_NODES`` the mapping no longer broadcasts;
    the fallback is the :func:`pagerank_partitioned` exchange plan
    (node→host as a hash-partitioned table, src-side then dst-side
    join) — fail fast rather than thrash."""
    if len(hosts) > MAX_BROADCAST_NODES:
        raise ValueError(
            f"host_link_graph broadcasts {len(hosts)} host names; "
            "beyond MAX_BROADCAST_NODES route the mapping through the "
            "pagerank_partitioned-style partitioned join instead")

    hosts_arr = pa.array(np.asarray(hosts, dtype=object),
                         type=pa.string())
    hosts_ref = ray.put(hosts_arr)

    def partial(batch: pa.Table) -> pa.Table:
        h = ray.get(hosts_ref)
        src = batch[src_col].to_numpy(zero_copy_only=False)
        dst = batch[dst_col].to_numpy(zero_copy_only=False)
        t = pa.table({
            "src_host": h.take(pa.array(src.astype(np.int64))),
            "dst_host": h.take(pa.array(dst.astype(np.int64))),
        })
        g = t.group_by(["src_host", "dst_host"]).aggregate(
            [("src_host", "count")])
        sh = _token_hashes(g["src_host"].to_pylist())
        dh = _token_hashes(g["dst_host"].to_pylist())
        pk = sh ^ _mix64(dh)
        return pa.table({
            "src_host": g["src_host"], "dst_host": g["dst_host"],
            "n": pc.cast(g["src_host_count"], pa.int64()),
            "pk": pa.array(pk),
        })

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["src_host", "dst_host"], as_index=False)[
            "n"].sum()
        out = out.rename(columns={"n": "n_links"})
        return out[["src_host", "dst_host", "n_links"]]

    return exchange(edges.map_batches(partial, batch_format="pyarrow"),
                    fold, "pk")


# ---------------------------------------------------------------------
# recrawl scheduling
# ---------------------------------------------------------------------


def crawl_schedule(statuses: ray.data.Dataset, ranks: np.ndarray,
                   hosts: np.ndarray, quota: int = 10,
                   weights: dict[str, float] | None = None,
                   id_col: str = "doc_id", status_col: str = "status",
                   round_decimals: int = 9) -> ray.data.Dataset:
    """Recrawl scheduler: combine the snapshot-diff status, the page's
    link-graph centrality and a per-host politeness quota into the
    next crawl wave — ``priority = rank × status_weight``, top
    ``quota`` pages per host.  This is the composition the three
    upstream ops exist for (diff says what MIGHT need fetching,
    centrality says what it's WORTH, the quota keeps any one host
    polite).

    ``ranks`` (float64 per dense node id) and ``hosts`` (host name per
    node id) are broadcast ONCE via ``ray.put`` — the same
    broadcast-dictionary-join bound as :func:`hits` /
    :func:`host_link_graph`, fail-fast past ``MAX_BROADCAST_NODES``
    (beyond it both become hash-partitioned tables and the assembly
    runs as the pagerank_partitioned-style two-sided join).

    Scale shape: zero-shuffle assembly (status rows map to
    (host, id, priority) in place), then a per-batch PRE-PRUNE — each
    batch keeps only its own per-host top-``quota`` before the
    exchange, a valid superset of the global answer since the global
    per-host top-k is contained in the union of per-batch top-ks — so
    a Zipf-head host crosses the single hash(host) exchange as
    O(quota · batches) rows, never O(pages).  Status weights default
    to new=1.0 / changed=0.7 / same=0.1; deleted (or any weight-0
    status) never leaves the map task."""
    from .textstats import round_half_away

    if len(hosts) > MAX_BROADCAST_NODES:
        raise ValueError(
            f"crawl_schedule broadcasts {len(hosts)} node mappings; "
            "beyond MAX_BROADCAST_NODES route ranks/hosts through a "
            "partitioned join instead")
    weights = dict(weights) if weights is not None else \
        {"new": 1.0, "changed": 0.7, "same": 0.1}

    ranks_ref = ray.put(np.asarray(ranks, np.float64))
    hosts_ref = ray.put(pa.array(np.asarray(hosts, dtype=object),
                                 type=pa.string()))
    _EMPTY = pa.schema([
        ("domain", pa.string()), (id_col, pa.int64()),
        (status_col, pa.string()), ("priority", pa.float64()),
        ("pk", pa.uint64())])

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _EMPTY.empty_table()
        r = ray.get(ranks_ref)
        h = ray.get(hosts_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        # vectorized status→weight: map the (tiny) dictionary, index
        # by code — no per-row Python
        st = pc.dictionary_encode(
            pc.cast(batch[status_col], pa.string())).combine_chunks()
        wmap = np.array([weights.get(v, 0.0)
                         for v in st.dictionary.to_pylist()])
        w = wmap[st.indices.to_numpy(zero_copy_only=False)]
        keep = w > 0.0
        if not keep.any():
            return _EMPTY.empty_table()
        ids = ids[keep]
        pri = round_half_away(r[ids] * w[keep], round_decimals)
        df = pd.DataFrame({
            "domain": h.take(pa.array(ids)).to_pandas(),
            id_col: ids,
            status_col: pc.cast(batch[status_col], pa.string())
            .to_pandas()[keep].to_numpy(),
            "priority": pri,
        })
        # per-batch pre-prune: the global per-host top-quota is inside
        # the union of per-batch top-quotas
        df = (df.sort_values(["domain", "priority", id_col],
                             ascending=[True, False, True],
                             kind="mergesort")
              .groupby("domain", as_index=False).head(quota))
        df["pk"] = _token_hashes(df["domain"].tolist())
        return pa.Table.from_pandas(df, preserve_index=False).cast(
            _EMPTY)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.sort_values(["domain", "priority", id_col],
                             ascending=[True, False, True],
                             kind="mergesort")
               .groupby("domain", as_index=False).head(quota))
        return out[["domain", id_col, status_col, "priority"]]

    return exchange(statuses.map_batches(partial, batch_format="pyarrow"),
                    fold, "pk")


# ---------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------


def connected_components(edges: ray.data.Dataset, n_nodes: int,
                         src_col: str = "src", dst_col: str = "dst",
                         max_iter: int = 64,
                         ) -> ray.data.Dataset:
    """Undirected connected components by min-label propagation:
    every node's label converges to the smallest node id reachable
    from it (label = component id).  The crawl-graph use is mirror /
    link-farm detection and per-component crawl budgeting — the
    web graph's giant component plus a long tail of disconnected
    islands is the canonical shape (Broder 2000's bow-tie).

    Dense node ids in ``[0, n_nodes)``.  Per iteration one edge-table
    pass: each batch emits SPARSE per-batch partial minima over both
    edge directions (argsort + ``np.minimum.reduceat`` — memory
    O(batch), never O(nodes)), one small groupby(min) of partials,
    then the driver folds the 8 B/node label vector, stops at the
    FIXPOINT (no label changed — min-propagation is monotone, so
    extra iterations are no-ops, which is what lets a fixed-depth
    SQL CTE chain mirror a converge-until-done loop exactly), and
    re-broadcasts via ``ray.put``.  Iterations needed = graph
    diameter; pointer-doubling variants trade more memory for fewer
    rounds but break the per-iteration oracle parity.

    Scale shape: :func:`pagerank`'s broadcast-path exchange plan
    verbatim (edge table materialized once and never moved; only
    sparse (node, min) int64 rows — 16 B/row — cross per iteration).
    ``MAX_BROADCAST_NODES`` fails fast past the 8 B/node broadcast
    bound; beyond it :func:`connected_components_partitioned` keeps the
    labels as a hash-partitioned table (same labels, same fixpoint
    test as a changed-row sum)."""
    if n_nodes > MAX_BROADCAST_NODES:
        raise ValueError(
            f"connected_components broadcasts 8 B × {n_nodes} labels; "
            "beyond MAX_BROADCAST_NODES shard the label vector with "
            "the pagerank_partitioned exchange plan")

    edges = edges.select_columns([src_col, dst_col]).materialize()
    labels = np.arange(n_nodes, dtype=np.int64)

    converged = False
    for _ in range(max_iter):
        lab_ref = ray.put(labels)

        def fn(batch: pa.Table) -> pa.Table:
            lab = ray.get(lab_ref)
            s = batch[src_col].to_numpy(zero_copy_only=False).astype(
                np.int64)
            d = batch[dst_col].to_numpy(zero_copy_only=False).astype(
                np.int64)
            u, m = _combine(np.concatenate([s, d]),
                            np.concatenate([lab[d], lab[s]]), np.minimum)
            return pa.table({"id": pa.array(u), "m": pa.array(m)})

        new = labels.copy()
        parts = edges.map_batches(fn, batch_format="pyarrow").groupby(
            "id").min("m")
        for b in parts.iter_batches(batch_format="pyarrow"):
            ids = b["id"].to_numpy(zero_copy_only=False)
            m = b["min(m)"].to_numpy(zero_copy_only=False)
            np.minimum.at(new, ids, m)
        if np.array_equal(new, labels):
            converged = True
            break
        labels = new
    if not converged:
        # silently returning partial labels would split components —
        # rounds needed = graph diameter, so a long chain (paginated
        # site) can legitimately exceed the default
        raise RuntimeError(
            f"connected_components did not reach the fixpoint in "
            f"{max_iter} rounds (graph diameter exceeds max_iter); "
            "raise max_iter")

    out = pa.table({
        "node": pa.array(np.arange(n_nodes, dtype=np.int64)),
        "component": pa.array(labels)})
    return ray.data.from_arrow(out)


def _min_labels(edges: ray.data.Dataset, src_col: str, dst_col: str,
                n_nodes: int, max_iter: int, name: str,
                dense: bool = True) -> ray.data.Dataset:
    """Min-label propagation over the undirected edges as a
    :func:`_vertex_rounds` program: ``(id, lbl)`` rows, ``lbl`` the
    smallest node id reachable.  With ``dense`` the nodes are
    ``range(n_nodes)``; otherwise they are the distinct edge endpoints
    (at most ``n_nodes`` of them) and ids may be any int64.

    Each node sends its label both ways along every edge (min-combined
    per target within each group); the fold keeps ``min(old, inbox)``
    and marks changed rows, so the round's one sum is the changed
    count and 0 is the FIXPOINT (min-propagation is monotone, so the
    test is exact, not heuristic).  Labels stay int64 throughout:
    exact for any id."""
    schema = pa.schema(_ROUND_FIELDS + [
        ("m", pa.int64()), ("s", pa.int64()), ("lbl", pa.int64())])
    ekeyed = _keyed_edges(edges, src_col, dst_col, schema, symmetric=True)

    def own_label(ids: np.ndarray) -> pa.Table:
        return _vertex_table(schema, _STATE, ids, lbl=ids)

    if dense:
        state = ray.data.range(n_nodes).map_batches(
            lambda b: own_label(b["id"].astype(np.int64)),
            batch_format="numpy")
    else:
        state = exchange(
            ekeyed, lambda g: own_label(np.unique(g["id"].to_numpy(np.int64))),
            "id")

    def send(joined: pd.DataFrame) -> np.ndarray:
        return joined["lbl"].to_numpy(np.int64)

    def fold(st: pd.DataFrame, inbox, has, total):
        old = st["lbl"].to_numpy(np.int64)
        new = np.where(has, np.minimum(old, inbox), old)
        return {"lbl": new}, (new != old).astype(np.int64)

    return _vertex_rounds(ekeyed, state, schema, send, np.minimum, fold,
                          max_iter, n_nodes, fixpoint=name)


def connected_components_partitioned(edges: ray.data.Dataset,
                                     n_nodes: int,
                                     src_col: str = "src",
                                     dst_col: str = "dst",
                                     max_iter: int = 64
                                     ) -> ray.data.Dataset:
    """The beyond-broadcast connected components: labels live as a
    DISTRIBUTED (id, label) table hash-partitioned by node id —
    nothing is ever O(n_nodes) on the driver or in a single task
    (same promotion :func:`pagerank` → :func:`pagerank_partitioned`,
    on the same :func:`_vertex_rounds` kernel via :func:`_min_labels`).
    Per round two slim shuffles, one materialize and one changed-count
    sum; raises ``RuntimeError`` when ``max_iter`` rounds pass before
    the fixpoint.

    Integer min has no rounding schedule, so this variant is
    bit-equal to the broadcast :func:`connected_components` by
    construction (asserted by test): the broadcast path is the fast
    small-graph implementation, this is the shape you ship at
    crawl-graph scale."""
    labels = _min_labels(edges, src_col, dst_col, n_nodes, max_iter,
                         "connected_components_partitioned")

    def out_rows(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["id"], "component": t["lbl"]})

    return labels.map_batches(out_rows, batch_format="pyarrow")


# ---------------------------------------------------------------------
# triangle counting
# ---------------------------------------------------------------------


TRIANGLE_WEDGE_CAP = 10_000_000  # pooled wedges per membership probe


def _edge_key_csr(keys: np.ndarray, n_nodes: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, tails): CSR adjacency in both directions of the sorted
    canonical edge keys ``a·n+b`` (a<b), neighbors sorted per node."""
    a = keys // n_nodes
    b = keys % n_nodes
    heads = np.concatenate([a, b])
    tails = np.concatenate([b, a])
    # one lexsort gives the final (head-major, neighbor-sorted) CSR
    # layout directly; indptr counts are order-independent
    order = np.lexsort((tails, heads))
    heads, tails = heads[order], tails[order]
    indptr = np.zeros(n_nodes + 1, np.int64)
    np.add.at(indptr, heads + 1, 1)
    return np.cumsum(indptr), tails


def _triangle_batch(nodes: np.ndarray, keys: np.ndarray,
                    indptr: np.ndarray, tails: np.ndarray, n_nodes: int,
                    cap: int = TRIANGLE_WEDGE_CAP
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(triangles, degree) per apex in ``nodes`` — the per-batch kernel
    of :func:`triangle_counts` over the CSR adjacency
    (``indptr``/``tails``) and the sorted canonical edge keys.

    An apex of degree d has d(d−1)/2 wedges: row r of
    ``np.triu_indices(d, 1)`` pairs neighbor r with neighbors r+1..d−1.
    Wedges pool as ``u·n+w`` keys in one buffer of ``cap`` entries
    (at least one row); each full pool closes against ``keys`` in ONE
    ``searchsorted``.  A hub's rows split across flushes, so memory is
    O(cap + max degree) however large one apex's d²/2 gets."""
    deg = indptr[nodes + 1] - indptr[nodes]
    tri = np.zeros(len(nodes), np.int64)
    n_wedges = int((deg * (deg - 1) // 2).sum())
    if n_wedges == 0:
        return tri, deg
    buf = np.empty(min(max(cap, int(deg.max()) - 1), n_wedges), np.int64)
    owners: list[int] = []  # per pooled chunk: its apex index
    sizes: list[int] = []  # and its wedge count
    fill = 0

    def flush():
        nonlocal fill
        cand = buf[:fill]
        pos = np.minimum(np.searchsorted(keys, cand), len(keys) - 1)
        hits = (keys[pos] == cand).astype(np.int64)
        starts = np.cumsum([0] + sizes[:-1])
        np.add.at(tri, owners, np.add.reduceat(hits, starts))
        owners.clear()
        sizes.clear()
        fill = 0

    for idx in np.flatnonzero(deg >= 2):
        v = nodes[idx]
        nb = tails[indptr[v]:indptr[v + 1]]
        per_row = np.arange(len(nb) - 1, 0, -1)  # wedges in row r
        done = np.cumsum(per_row)  # wedges in rows 0..r
        r = 0
        while r < len(per_row):
            base = int(done[r - 1]) if r else 0
            r1 = int(np.searchsorted(done, base + len(buf) - fill,
                                     side="right"))
            if r1 == r:  # the next row does not fit: probe the pool
                flush()
                continue
            cnt = per_row[r:r1]
            m = int(done[r1 - 1]) - base
            i = np.repeat(np.arange(r, r1), cnt)
            j = i + 1 + np.arange(m) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            cand = buf[fill:fill + m]
            np.take(nb, i, out=cand)
            cand *= n_nodes
            cand += nb[j]
            owners.append(int(idx))
            sizes.append(m)
            fill += m
            r = r1
    flush()
    return tri, deg


def triangle_counts(edges: ray.data.Dataset, n_nodes: int,
                    src_col: str = "src", dst_col: str = "dst",
                    ) -> ray.data.Dataset:
    """Per-node triangle participation counts over the undirected
    simple graph (self-loops and duplicate/reverse edges collapse in
    canonicalization).  The webgraph reading: triangles measure local
    clustering — link farms and mutual-admiration spam rings light up
    as triangle-dense cores, while organic hub pages are
    triangle-sparse (Becchetti 2008's spam-detection feature).

    Semantics: ``triangles(v)`` = closed wedges with apex ``v`` — each
    triangle {a,b,c} contributes exactly one closed wedge per member,
    so the per-node column counts the triangles CONTAINING the node
    and sums to 3× the global triangle count.  The simple-graph
    ``degree`` rides along for free (CSR indptr diff) — it is the
    denominator of the local clustering coefficient
    ``2·tri / (d·(d−1))`` (Watts–Strogatz 1998).

    Shape: the canonical edge-key set (sorted ``a·n+b`` int64, a<b)
    is folded once and broadcast via ``ray.put`` (fail-fast past
    ``MAX_BROADCAST_EDGES`` — 8 B/edge); wedge enumeration then runs
    DISTRIBUTED over the node range (``ray.data.range`` →
    ``map_batches``): per apex the neighbor pairs come from
    ``np.triu_indices`` rows (numpy per apex — the O(d²) wedge cost is
    intrinsic, not an implementation loop) and the batch's pooled
    candidate pairs close against the broadcast key set in one
    vectorized ``searchsorted`` per ``TRIANGLE_WEDGE_CAP`` pairs
    (:func:`_triangle_batch` — a hub's wedges split across probes, so
    one high-degree apex cannot hold d²/2 pairs in memory).  Beyond the broadcast bound the
    standard escalation is degree-oriented wedge-join MapReduce
    (Suri & Vassilvitskii 2011): orient edges low→high degree, ship
    wedges to the edge's hash partition — O(E^{3/2}) total work,
    nothing resident."""
    if n_nodes > np.sqrt(np.iinfo(np.int64).max):
        raise ValueError("edge keys need n_nodes^2 < 2^63")

    def canon(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        keep = s != d
        a = np.minimum(s[keep], d[keep])
        b = np.maximum(s[keep], d[keep])
        return pa.table({"k": pa.array(np.unique(a * n_nodes + b))})

    # one slim fold of distinct edge keys (8 B/edge on the wire)
    kparts = [b["k"].to_numpy(zero_copy_only=False)
              for b in edges.map_batches(canon, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")]
    keys = np.unique(np.concatenate(kparts)) if kparts else \
        np.empty(0, np.int64)
    if len(keys) > MAX_BROADCAST_EDGES:
        raise ValueError(
            f"triangle_counts broadcasts {len(keys)} edge keys; beyond "
            "MAX_BROADCAST_EDGES use the degree-oriented wedge-join "
            "(Suri & Vassilvitskii 2011) escalation")

    indptr, tails = _edge_key_csr(keys, n_nodes)
    keys_ref = ray.put(keys)
    indptr_ref = ray.put(indptr)
    tails_ref = ray.put(tails)

    def count(batch) -> pa.Table:
        nodes = batch["id"].astype(np.int64)
        tri, deg = _triangle_batch(nodes, ray.get(keys_ref),
                                   ray.get(indptr_ref), ray.get(tails_ref),
                                   n_nodes)
        return pa.table({"node": pa.array(nodes),
                         "triangles": pa.array(tri),
                         "degree": pa.array(deg)})

    return ray.data.range(n_nodes).map_batches(
        count, batch_format="numpy")


# ---------------------------------------------------------------------
# global graph statistics
# ---------------------------------------------------------------------


def graph_stats(edges: ray.data.Dataset, n_nodes: int,
                src_col: str = "src", dst_col: str = "dst",
                round_decimals: int = 6) -> ray.data.Dataset:
    """One-row global health panel of the directed link graph:
    ``n_edges`` (raw rows), ``n_distinct`` (distinct directed pairs,
    self-loops excluded), ``n_reciprocal`` (directed edges whose
    reverse also exists — link exchanges / mutual-boost rings read
    high), and ``assortativity`` (Newman 2002: Pearson correlation of
    endpoint TOTAL degrees over the directed edge list — social webs
    read positive, the web's hub-leaf structure negative).

    Exactness trick: every Pearson term (Σx, Σy, Σxy, Σx², Σy², E)
    is an INTEGER sum of integer degrees, so partial sums combine
    exactly in any order across engines and partitions — the only
    float op is the final closed-form division, rounded once.  No
    round-before-aggregate schedule needed anywhere.

    Shape: one sparse endpoint-count pass builds the degree vector
    (groupby-summed partials, broadcast via ``ray.put``, fail-fast
    past ``MAX_BROADCAST_NODES``); the distinct directed key set is
    folded once (8 B/edge, fail-fast like :func:`triangle_counts`);
    then ONE edge pass emits a single integer-partial row per batch
    and the driver folds exactly n_batches rows.  At 10^13 edges the
    int64 Σx² headroom needs degree < ~10^5 on average — past that,
    promote the partials to Python ints (object dtype) or 128-bit
    split sums."""
    deg = np.zeros(n_nodes, np.int64)
    if n_nodes > MAX_BROADCAST_NODES:
        raise ValueError(
            f"graph_stats broadcasts 8 B × {n_nodes} degrees; shard "
            "beyond MAX_BROADCAST_NODES")

    def endpoint_partial(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        ids = np.concatenate([s, d])
        u, c = np.unique(ids, return_counts=True)
        return pa.table({"id": pa.array(u), "n": pa.array(c)})

    edges = edges.select_columns([src_col, dst_col]).materialize()
    parts = edges.map_batches(endpoint_partial,
                              batch_format="pyarrow").groupby(
        "id").sum("n")
    for b in parts.iter_batches(batch_format="pyarrow"):
        deg[b["id"].to_numpy(zero_copy_only=False)] = \
            b["sum(n)"].to_numpy(zero_copy_only=False)

    def key_partial(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        keep = s != d
        return pa.table({"k": pa.array(
            np.unique(s[keep] * n_nodes + d[keep]))})

    kparts = [b["k"].to_numpy(zero_copy_only=False)
              for b in edges.map_batches(key_partial,
                                         batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")]
    keys = np.unique(np.concatenate(kparts)) if kparts else \
        np.empty(0, np.int64)
    if len(keys) > MAX_BROADCAST_EDGES:
        raise ValueError(
            f"graph_stats broadcasts {len(keys)} edge keys; beyond "
            "MAX_BROADCAST_EDGES run reciprocity as a hash-partitioned "
            "self-join")
    n_reciprocal = int(np.isin((keys % n_nodes) * n_nodes
                               + keys // n_nodes, keys).sum())

    deg_ref = ray.put(deg)

    def sums_partial(batch: pa.Table) -> pa.Table:
        dg = ray.get(deg_ref)
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        x, y = dg[s], dg[d]
        return pa.table({
            "e": pa.array([np.int64(len(s))]),
            "sx": pa.array([x.sum()]), "sy": pa.array([y.sum()]),
            "sxy": pa.array([(x * y).sum()]),
            "sxx": pa.array([(x * x).sum()]),
            "syy": pa.array([(y * y).sum()]),
        })

    tot = {"e": 0, "sx": 0, "sy": 0, "sxy": 0, "sxx": 0, "syy": 0}
    for b in edges.map_batches(sums_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for kcol in tot:
            tot[kcol] += int(b[kcol].to_numpy(
                zero_copy_only=False).sum())

    e = tot["e"]
    num = e * tot["sxy"] - tot["sx"] * tot["sy"]
    # a degree-REGULAR graph has zero variance on both sides; both
    # engines pin assortativity to 0.0 there (DuckDB's x/sqrt(0.0)
    # is NULL, so the oracle needs the same explicit CASE)
    den = np.sqrt(float(e * tot["sxx"] - tot["sx"] ** 2)
                  * float(e * tot["syy"] - tot["sy"] ** 2))
    from .textstats import round_half_away

    assort = float(round_half_away(num / den, round_decimals)) \
        if den > 0 else 0.0
    return ray.data.from_arrow(pa.table({
        "n_edges": pa.array([np.int64(e)]),
        "n_distinct": pa.array([np.int64(len(keys))]),
        "n_reciprocal": pa.array([np.int64(n_reciprocal)]),
        "assortativity": pa.array([assort]),
    }))


# ---------------------------------------------------------------------
# robots compliance filter
# ---------------------------------------------------------------------


def robots_filter(pages: ray.data.Dataset,
                  rules: dict[str, list[str]],
                  url_col: str = "url") -> ray.data.Dataset:
    """Robots-exclusion compliance gate (the C4/CommonCrawl curation
    step): drop rows whose URL path is Disallow'd for its domain.
    ``rules`` maps domain → list of disallowed PATH PREFIXES
    (robots.txt core semantics: a rule matches when the part of the
    URL after the authority STARTS WITH the prefix; the match target
    includes query and fragment, pinned identically in the SQL
    oracle).  Longest-match Allow/Disallow resolution (RFC 9309 §2.2)
    is the documented extension — Disallow-only covers the
    compliance-gating use.  An empty prefix is skipped: an empty
    ``Disallow:`` line means "allow everything" (RFC 9309 §2.2.2).

    Zero-shuffle: the (tiny) rule table broadcasts once via
    ``ray.put``; per batch, ONE RE2 domain extract + ONE authority
    strip (patterns shared VERBATIM with the oracle's
    ``regexp_extract`` / ``regexp_replace`` — both RE2), then one
    vectorized ``starts_with`` pass per (domain, prefix) rule —
    O(rules) column kernels, no Python per row."""
    rules_ref = ray.put({d: tuple(p for p in ps if p)
                         for d, ps in rules.items()})

    def fn(batch: pa.Table) -> pa.Table:
        rl = ray.get(rules_ref)
        urls = pc.cast(batch[url_col], pa.string())
        dom = pc.struct_field(
            pc.extract_regex(urls, P_DOMAIN), "d")
        path = pc.replace_substring_regex(
            urls, pattern=P_AUTHORITY, replacement="")
        # pure Arrow throughout: no per-row PyObjects, and null urls
        # (extract_regex -> null domain/path) are never blocked —
        # fill_null(False) pins that in one place
        blocked = pa.array(np.zeros(len(batch), bool))
        for d, prefixes in rl.items():
            dmask = pc.fill_null(pc.equal(dom, d), False)
            for pfx in prefixes:
                hit = pc.and_(dmask, pc.fill_null(
                    pc.starts_with(path, pattern=pfx), False))
                blocked = pc.or_(blocked, hit)
        return batch.filter(pc.invert(blocked))

    return pages.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------
# k-core decomposition (coreness)
# ---------------------------------------------------------------------


def coreness(edges: ray.data.Dataset, n_nodes: int,
             src_col: str = "src", dst_col: str = "dst",
             max_iter: int = 64,
             ) -> ray.data.Dataset:
    """Per-node coreness (k-core decomposition) of the undirected
    simple graph — the crawl-frontier quality signal (a page's core
    number survives degree-1 spam tails where raw degree does not;
    the web's k-core sizes follow the bow-tie).

    Algorithm: the iterated H-index operator (Lü et al. 2016, Nature
    Comms 7:10168): ``h₀ = degree``; ``h_{t+1}(v) = H(h_t(u) : u ∈
    N(v))`` where H is the Hirsch operator (largest h such that ≥ h
    neighbors have value ≥ h).  The sequence is monotone
    non-increasing, integer, and converges EXACTLY to coreness — and
    the fixpoint is idempotent, which (as with
    :func:`connected_components`) lets a fixed-depth SQL CTE chain
    mirror a converge-until-done loop: extra levels are no-ops.
    Classic peeling is O(E) total but inherently sequential;
    the h-index iteration is the distributable formulation.

    Shape: the canonical symmetric adjacency rows (16 B) materialize
    ONCE; the value vector (8 B/node) broadcasts per round (fail-fast
    past ``MAX_BROADCAST_NODES``); each round is one map pass emitting
    (node, neighbor-value) slim rows + one exchange by node computing
    H per node
    with vectorized rank logic (sort + cumcount — no Python per
    node), and an O(n) driver fold + fixpoint test.  H is not
    associative, so per-batch pre-combining can only compress to
    per-(node, value) counts — the in-group sort is the honest
    cost."""
    if n_nodes > MAX_BROADCAST_NODES:
        raise ValueError(
            f"coreness broadcasts 8 B × {n_nodes} values; shard the "
            "value vector beyond MAX_BROADCAST_NODES")

    def canon(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        keep = s != d
        a = np.minimum(s[keep], d[keep])
        b = np.maximum(s[keep], d[keep])
        k = np.unique(a * n_nodes + b)
        a, b = k // n_nodes, k % n_nodes
        aa = np.concatenate([a, b])
        bb = np.concatenate([b, a])
        return pa.table({"a": pa.array(aa), "b": pa.array(bb)})

    # duplicate (a,b) rows surviving ACROSS batches are removed by the
    # one-time exchange below; within-batch dups die in np.unique
    sym = exchange(edges.map_batches(canon, batch_format="pyarrow"),
                   lambda g: g.drop_duplicates(["a", "b"]),
                   "a").materialize()

    # h0 = degree over the deduped adjacency
    deg = np.zeros(n_nodes, np.int64)
    dparts = sym.map_batches(_deg_partial_fn("a"),
                             batch_format="pyarrow").groupby(
        "id").sum("n")
    for bt in dparts.iter_batches(batch_format="pyarrow"):
        deg[bt["id"].to_numpy(zero_copy_only=False)] = \
            bt["sum(n)"].to_numpy(zero_copy_only=False)

    vals = deg
    converged = False
    for _ in range(max_iter):
        vals_ref = ray.put(vals)

        def emit(batch: pa.Table) -> pa.Table:
            v = ray.get(vals_ref)
            return pa.table({
                "node": batch["a"],
                "val": pa.array(v[batch["b"].to_numpy(
                    zero_copy_only=False)]),
            })

        def h_fold(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["node", "val"],
                              ascending=[True, False],
                              kind="mergesort")
            rn = g.groupby("node").cumcount() + 1
            ok = g["val"].to_numpy() >= rn.to_numpy()
            h = pd.Series(np.where(ok, rn, 0), index=g.index) \
                .groupby(g["node"]).max()
            return pd.DataFrame({"node": h.index.to_numpy(np.int64),
                                 "h": h.to_numpy(np.int64)})

        new = np.zeros(n_nodes, np.int64)
        out = exchange(sym.map_batches(emit, batch_format="pyarrow"),
                       h_fold, "node")
        for bt in out.iter_batches(batch_format="pyarrow"):
            new[bt["node"].to_numpy(zero_copy_only=False)] = \
                bt["h"].to_numpy(zero_copy_only=False)
        if np.array_equal(new, vals):
            converged = True
            break
        vals = new
    if not converged:
        raise RuntimeError(
            f"coreness did not reach the fixpoint in {max_iter} "
            "h-index rounds; raise max_iter")

    return ray.data.from_arrow(pa.table({
        "node": pa.array(np.arange(n_nodes, dtype=np.int64)),
        "coreness": pa.array(vals)}))
