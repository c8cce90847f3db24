"""Query-layer probe: the benchmark's serve query mix over a built index.

    python scripts/bench_serve.py --index DIR [--seed 7] [--repeats 5]
        [--sessions 30]

Opens ``BM25Index(DIR)`` in this process (no Ray) and takes the 600-query
pool that the benchmark's ``serve`` workload cycles for ``--seed``
(``perfbench.inputs.query_mix``).  One untimed pass fills the handle's
caches, as the workload's does.  Then it prints one JSON line:

- ``warm_qps``: one warm pass over the pool, queries per second
  (median of ``--repeats`` passes; ``warm_qps_runs`` lists them all);
- ``us_per_query``: median µs per query of each kind over those
  passes: ``single`` (one term), ``multi`` (2-4 terms), ``parsed``
  (a query string through ``BM25Index.search``);
- ``parsed_split_us``: for the parsed queries, the mean µs spent in
  ``query.parser.parse_query`` (``parse``) and in the rest of the
  answer (``score``), from one more pass with the parser timed;
- ``cold_session_ms``: median over ``--sessions`` cold sessions, each a
  fresh handle opened and then asked 20 pool queries, as the
  workload's cold phase does;
- ``lower_bound_per_session``, ``vb_decode_per_session`` and
  ``distinct_terms_per_session``: mean ``TermLexicon.lower_bound``
  calls (the lexicon's binary search) and ``codec.vb_decode`` calls
  (posting decodes, whole lists and single blocks) per cold session,
  counted in one more round of sessions, and the mean number of
  distinct query terms those sessions hold;
- ``generations`` and ``posting_rows_per_term``: the index's live
  generations and the mean number of stored posting rows (one per
  doc-range shard per generation) of a distinct session term that has
  postings — what one term's posting list joins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

SESSION_QUERIES = 20


def answer(ix, q):
    kind, payload, k = q
    if kind == "parsed":
        return ix.search(payload, k)
    return ix.search_terms(payload, k)


def kind_of(q) -> str:
    kind, payload, _k = q
    if kind == "parsed":
        return "parsed"
    return "single" if len(set(payload)) == 1 else "multi"


def median(xs: list) -> float:
    xs = sorted(xs)
    return xs[len(xs) // 2] if xs else 0.0


def warm_passes(ix, pool, repeats: int) -> tuple[list, dict]:
    """Pass walls in seconds, and per-kind per-query times in µs."""
    clock = time.perf_counter
    walls, per_kind = [], {"single": [], "multi": [], "parsed": []}
    kinds = [kind_of(q) for q in pool]
    for _ in range(repeats):
        times = []
        t_pass = clock()
        for q in pool:
            t0 = clock()
            answer(ix, q)
            times.append(clock() - t0)
        walls.append(clock() - t_pass)
        for kind, t in zip(kinds, times):
            per_kind[kind].append(t * 1e6)
    return walls, {k: round(median(v), 1) for k, v in per_kind.items()}


def parsed_split(ix, pool) -> dict:
    """Mean µs per parsed query in the parser and in the rest."""
    from alix_ray.query import parser

    parse = parser.parse_query
    spent = [0.0]

    def timed(*a, **kw):
        t0 = time.perf_counter()
        try:
            return parse(*a, **kw)
        finally:
            spent[0] += time.perf_counter() - t0

    parsed = [q for q in pool if q[0] == "parsed"]
    parser.parse_query = timed
    try:
        t0 = time.perf_counter()
        for q in parsed:
            answer(ix, q)
        total = time.perf_counter() - t0
    finally:
        parser.parse_query = parse
    n = max(len(parsed), 1)
    return {"parse": round(spent[0] * 1e6 / n, 1),
            "score": round((total - spent[0]) * 1e6 / n, 1)}


def session_ids(s: int, n: int) -> list[int]:
    base = (s * SESSION_QUERIES) % n
    return [(base + j) % n for j in range(SESSION_QUERIES)]


def cold_sessions(index: str, pool, sessions: int) -> list:
    from alix_ray.index.engine import BM25Index

    walls = []
    for s in range(sessions):
        t0 = time.perf_counter()
        h = BM25Index(index)
        for i in session_ids(s, len(pool)):
            answer(h, pool[i])
        walls.append(time.perf_counter() - t0)
    return walls


def session_counts(index: str, pool, terms: list, sessions: int
                   ) -> tuple[dict, list]:
    """Mean lexicon binary searches and posting decodes per cold
    session, and each session's distinct query terms; ``terms[i]`` is
    the index terms of ``pool[i]``."""
    from alix_ray import codec
    from alix_ray.index import engine

    calls = {"lower_bound": 0, "vb_decode": 0}
    lower_bound, vb_decode = engine.TermLexicon.lower_bound, codec.vb_decode

    def counted_lower_bound(self, term):
        calls["lower_bound"] += 1
        return lower_bound(self, term)

    def counted_vb_decode(buf):
        calls["vb_decode"] += 1
        return vb_decode(buf)

    seen = []
    engine.TermLexicon.lower_bound = counted_lower_bound
    # the engine calls its own import; the codec's block decoders the
    # module's
    codec.vb_decode = engine.vb_decode = counted_vb_decode
    try:
        for s in range(sessions):
            h = engine.BM25Index(index)
            seen.append(set())
            for i in session_ids(s, len(pool)):
                answer(h, pool[i])
                seen[-1].update(terms[i])
    finally:
        engine.TermLexicon.lower_bound = lower_bound
        codec.vb_decode = engine.vb_decode = vb_decode
    return {k: v / sessions for k, v in calls.items()}, seen


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--index", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--sessions", type=int, default=30)
    args = p.parse_args(argv)

    from alix_ray.index.engine import BM25Index
    from alix_ray.query import parser
    from perfbench.inputs import query_mix

    ix = BM25Index(args.index)
    pool = query_mix(ix, args.seed, 600)
    terms = [parser.parse_query(payload, ix.analyzer(), ix.lexicon)
             if kind == "parsed" else payload for kind, payload, _k in pool]
    for q in pool:
        answer(ix, q)
    walls, per_kind = warm_passes(ix, pool, args.repeats)
    split = parsed_split(ix, pool)
    cold = cold_sessions(args.index, pool, args.sessions)
    counts, seen = session_counts(args.index, pool, terms,
                                  min(args.sessions, 10))
    # stored rows per term, from the postings directory (no fetch)
    runs = [ix.postings._run(ix.lexicon.index(t)) for s in seen for t in s]
    rows = [hi - lo for lo, hi in filter(None, runs)]
    qps = [len(pool) / w for w in walls]
    print(json.dumps({
        "seed": args.seed,
        "docs": int(ix.n_docs),
        "vocabulary": len(ix.lexicon),
        "queries": len(pool),
        "warm_qps": round(median(qps), 1),
        "warm_qps_runs": [round(x, 1) for x in qps],
        "us_per_query": per_kind,
        "parsed_split_us": split,
        "cold_session_ms": round(median(cold) * 1000, 2),
        "lower_bound_per_session": round(counts["lower_bound"], 1),
        "vb_decode_per_session": round(counts["vb_decode"], 1),
        "distinct_terms_per_session": round(
            sum(map(len, seen)) / len(seen), 1),
        "generations": len(ix.gen_dirs),
        "posting_rows_per_term": round(sum(rows) / max(len(rows), 1), 2),
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
