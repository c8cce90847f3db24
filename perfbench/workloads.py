"""The three benchmark workloads.

Each workload is a function ``fn(run)`` that does its set-up, its timed
phase and its output checks against a :class:`Run`.  Load comes from
one client in a closed loop: the next request is sent only when the
previous one has returned, with no think time.

End-to-end metrics (every workload reports each of them; the query
figures, serve's two and ingest's latency, are scaled to the nominal
host speed, see ``common.HostReference``):

======================  ==================================================
``setup_s``             ``ray.init`` plus the median of the set-up repeats
                        (input generation and any index built before timing)
``latency_ms``          the workload's request latency
``throughput_per_s``    the workload's work items per second
``peak_rss_mb``         peak RSS of this process
======================  ==================================================

What latency and throughput stand for on each workload:

- build:     latency = median ``IndexBuilder.build``; throughput = docs
             indexed per second over every build of the run.  A build is
             the only request, so the two differ only where one build
             runs slower than the others.
- serve:     latency = median cold session (fresh ``BM25Index`` handle,
             open to the 20th answer); throughput = warm-phase queries
             per second on one handle.
- ingest:    latency = mean read latency over all 1200 queries (between
             writes and after compact); throughput = delta docs per
             second over every ``add_documents`` call.

The ``ops`` battery (``snapshot_diff``, ``tfidf_cosine_pairs``,
``connected_components_partitioned``) runs in traced build runs only,
for its per-layer figures: it is bound by the fixed cost of each
Dataset execution, which on a shared host swings by up to two times
from one minute to the next, more than any bound may allow.

Per-query medians and p99s, ``cold_session_ms``, ``compact_s`` and the
other named figures are reported unscaled in the run record.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from . import checks, inputs
from .common import Deadline, deadline, median, percentile

SETUP_REPEATS = 3
OP_DEADLINE_S = 90.0       # any single build / add / compact / op call
QUERY_LIMIT_S = 2.0        # a query slower than this counts as timed out
REF_PER_SLICE = 2          # host reference samples after a query slice
KEEP_EVERY = 20            # warm-phase answers kept for checking, after
                           # the first pass over the pool

BUILD_PAGES = 2000
MIN_BUILDS = 3
SERVE_PAGES = 2000
SERVE_POOL = 600           # distinct queries cycled by the warm phase
SESSION_QUERIES = 20
WARM_SHARE = 0.4           # of the window; the cold sessions get the rest
WARM_SLICES = 8            # warm phase is cut in slices, with a host
                           # reference sample after each
REF_EVERY_SESSIONS = 10    # cold sessions between reference samples
MIN_SESSIONS = 8
INGEST_BASE_PAGES = 1000
# a 1,000-page add is about half fixed cost per Dataset execution, the
# part whose time swings most on a shared host; a 2,000-page delta puts
# more of each add into per-document work
INGEST_DELTA_PAGES = 2000
INGEST_CYCLES = 3
INGEST_DELETES = 100
INGEST_BATCH = 300         # queries per batch; 4 batches -> 1200 per run
OPS_DOCS = 200             # documents of the traced ops battery
OPS_FILES = 8
TFIDF_THRESHOLD = 0.5


class Run:
    """State of one workload run: inputs, counts, metrics, tracer."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 work_dir: str, ref, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work_dir
        self.ref = ref  # common.HostReference
        self.slowdown: dict = {}  # scaled gated metric -> host slowdown
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_parts: dict = {}
        self.e2e: dict = {}
        self.named: dict = {}
        self.layers: dict = {}
        self.input: dict = {"seed": seed}

    @property
    def trace(self) -> bool:
        return self.tracer is not None

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def fail(self, n: int, what: str) -> None:
        if n:
            self.failed += n
            self.errors.append(f"{what}: {n}")

    def op(self, what: str, fn, *args, limit: float = OP_DEADLINE_S, **kw):
        """One timed operation under a deadline -> (result, seconds).
        A timeout or exception counts as a failed operation and returns
        (None, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with deadline(limit):
                out = fn(*args, **kw)
        except (Deadline, Exception) as e:  # the run must still report
            self.fail(1, f"{what} raised {type(e).__name__}: {e}"[:300])
            out = None
        return out, time.perf_counter() - t0

    def setup(self, prep) -> None:
        """Run ``prep(rep)`` SETUP_REPEATS times; set-up time is the
        median repeat.  The last repeat's result is the one kept."""
        walls = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            prep(rep)
            walls.append(time.perf_counter() - t0)
        self.setup_parts["prep_s"] = walls
        # write back what set-up wrote now, not during the timed phase
        os.sync()

    def set_e2e(self, latency_s: float, throughput: float,
                latency_phase=None, throughput_phase=None) -> None:
        """Unscaled gated figures.  A figure measured in this process
        comes with its phase: the host reference samples ``(lo, hi)``
        taken during it, which will scale it."""
        self.e2e.update({"latency_ms": latency_s * 1000.0,
                         "throughput_per_s": throughput})
        for name, phase in (("latency_ms", latency_phase),
                            ("throughput_per_s", throughput_phase)):
            if phase is not None:
                self.slowdown[name] = self.ref.slowdown(*phase)


def read_pages(path: str):
    import ray.data

    return ray.data.read_parquet(path)


def du(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def write_pages(t: pa.Table, path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    pq.write_table(t, os.path.join(path, "part-0.parquet"))


def record_pages(run: Run, tables: list) -> None:
    run.input["pages"] = {
        "rows": sum(t.num_rows for t in tables),
        "bytes": sum(t.nbytes for t in tables),
        "distinct_urls": len(inputs.distinct_urls(*tables)),
        "digest": inputs.table_digest(pa.concat_tables(tables)),
    }


# -- queries ---------------------------------------------------------------

def answer(ix, q):
    kind, payload, k = q
    if kind == "parsed":
        return ix.search(payload, k)
    return ix.search_terms(payload, k)


def exact(ix, q):
    kind, payload, k = q
    if kind == "parsed":
        return ix.search(payload, k, exact=True)
    return ix.search_exact(payload, k)


def traced_answer(run: Run, ix, q):
    run.tracer.new_request()
    return run.tracer.call("request", answer, ix, q)


def closed_loop(ix, queries, order, until: float | None = None, ask=None,
                out=None):
    """Send ``queries[i]`` for i in ``order`` one after another, each
    only once the previous one has returned; stop early once
    ``time.perf_counter() >= until``.  Appends to and returns ``out`` =
    (latencies, kept results, their query indices).  Results are kept
    for the first ``len(queries)`` answers and every KEEP_EVERY-th
    after, so a long phase does not grow memory with its answers."""
    ask = ask or answer
    lat, res, done = out if out is not None else ([], [], [])
    clock = time.perf_counter
    for i in order:
        t0 = clock()
        r = ask(ix, queries[i])
        t1 = clock()
        n = len(lat)
        lat.append(t1 - t0)
        if n < len(queries) or n % KEEP_EVERY == 0:
            res.append(r)
            done.append(i)
        if until is not None and t1 >= until:
            break
    return lat, res, done


def check_answers(run: Run, oracle, queries, done, res, what: str,
                  deleted=None) -> None:
    """Every answer must equal ``search_exact`` on ``oracle``; slow
    answers count as timed out (checked by the caller's latencies)."""
    want: dict = {}
    bad = 0
    for i, r in zip(done, res):
        if i not in want:
            want[i] = exact(oracle, queries[i])
        bad += checks.topk_mismatches(r, want[i])
    run.fail(bad, f"{what}: answers differ from search_exact")
    if deleted is not None:
        run.fail(checks.tombstone_hits(res, deleted),
                 f"{what}: tombstoned docs returned")


def count_slow(run: Run, lat, what: str) -> None:
    run.fail(sum(1 for x in lat if x > QUERY_LIMIT_S), f"{what}: timed out")


def query_phase(run: Run, ix, queries, order, what: str,
                seconds: float | None = None, ask=None, slices: int = 1):
    """Closed-loop phase under one deadline: ``seconds`` long, cut in
    ``slices`` slices, or the whole of ``order`` in one slice.  Host
    reference samples follow each slice.  -> (latencies, results,
    indices, wall), ``wall`` without the reference samples."""
    out: tuple = ([], [], [])
    wall = 0.0
    t0 = None
    try:
        with deadline((seconds or 0.0) + 60.0):
            for _ in range(slices):
                t0 = time.perf_counter()
                closed_loop(ix, queries, order, ask=ask, out=out,
                            until=None if seconds is None
                            else t0 + seconds / slices)
                wall += time.perf_counter() - t0
                t0 = None
                run.ref.sample(REF_PER_SLICE)
    except (Deadline, Exception) as e:
        if t0 is not None:
            wall += time.perf_counter() - t0
        run.fail(1, f"{what} raised {type(e).__name__}: {e}"[:300])
        run.attempted += 1
    lat, res, done = out
    run.attempted += len(lat)
    count_slow(run, lat, what)
    return lat, res, done, wall


# -- per-layer probes (traced runs) ------------------------------------------

def trace_extract_analysis(run: Run, table: pa.Table) -> None:
    """In-process extract/analysis over the workload's pages; the
    extracted text must equal the corpus' pinned ``text`` column."""
    from alix_ray import extract
    from alix_ray.analysis import FrenchAnalyzer

    tr = run.tracer
    an = FrenchAnalyzer()
    htmls = table["html"].to_pylist()
    texts = table["text"].to_pylist()
    bad = tokens = 0
    for html, want in zip(htmls, texts):
        got = tr.call("extract.extract_text", extract.extract_text, html)
        # rows with an empty pinned text are the oversized ones the
        # analyze stage quarantines; their text is not extracted
        bad += bool(want) and got != want
        counts, _width, n = tr.call("analysis.analyze_counts",
                                    an.analyze_counts, want)
        tokens += n
    run.attempted += len(htmls)
    run.fail(bad, "extract_text differs from the corpus text")
    run.layers.update({
        "extract.docs": tr.calls("extract.extract_text"),
        "extract.busy_s": tr.total("extract.extract_text"),
        "analysis.tokens": tokens,
        "analysis.busy_s": tr.total("analysis.analyze_counts"),
    })


def trace_codec(run: Run, index_dir: str) -> None:
    """Decode then re-encode every stored posting; the re-encoded
    bytes must equal the stored ones."""
    from alix_ray import codec
    from alix_ray.stages.store import resolve_stage

    tr = run.tracer
    pdir = resolve_stage(index_dir, "postings")
    n = out = bad = 0
    for f in sorted(os.listdir(pdir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(pdir, f), columns=["docs", "tfs"])
        for docs, tfs in zip(t["docs"].to_pylist(), t["tfs"].to_pylist()):
            d, tf = tr.call("codec.decode", codec.decode_posting, docs, tfs)
            enc = tr.call("codec.encode", codec.encode_posting, d, tf)
            out += len(enc[0]) + len(enc[1])
            bad += enc[0] != docs or enc[1] != tfs
            n += 1
    run.attempted += n
    run.fail(int(bad), "posting re-encode differs from stored bytes")
    run.layers.update({
        "codec.postings": n,
        "codec.encode_s": tr.total("codec.encode"),
        "codec.decode_s": tr.total("codec.decode"),
        "codec.bytes_out": out,
    })


class CountingCache(dict):
    """dict that counts lookups (``pop(key, default)``) and hits;
    evictions (``pop(key)`` without a default) are not lookups."""

    def __init__(self, tracer, name: str, items=()):
        super().__init__(items)
        self._tracer = tracer
        self._name = name

    def pop(self, key, *default):
        if default:
            self._tracer.count(self._name + ".lookups")
            if key in self:
                self._tracer.count(self._name + ".hits")
        return super().pop(key, *default)


def install_engine_tracing(run: Run) -> None:
    import pyarrow.parquet as _pq

    from alix_ray.index import engine
    from alix_ray.query import parser

    tr = run.tracer
    tr.wrap(engine.BM25Index, "__init__", "engine.open")
    tr.wrap(engine.PostingStore, "__getitem__", "engine.posting_fetch")
    tr.wrap(_pq.ParquetFile, "read_row_group", "engine.rowgroup_read")
    tr.wrap(engine.PostingShard, "decode", "engine.decode")
    for name in ("search_wand", "search_block_window", "search_exact"):
        tr.wrap(engine.BM25Index, name, "engine.score")
    tr.wrap(parser, "parse_query", "query.parse")

    def counting_caches(opened):
        def init(ix, *a, **k):
            opened(ix, *a, **k)
            ix._contrib_cache = CountingCache(tr, "contrib_cache")
            ix._topk_cache = CountingCache(tr, "topk_cache")
        return init

    tr.patch(engine.BM25Index, "__init__", counting_caches)


def engine_layers(run: Run) -> None:
    tr = run.tracer
    names = {s["id"]: s["name"] for s in tr.spans}
    rg = sum(1 for s in tr.spans if s["name"] == "engine.rowgroup_read"
             and names.get(s["parent"]) == "engine.posting_fetch")
    c = tr.counts

    def ratio(name):
        look = c.get(name + ".lookups", 0)
        return (c.get(name + ".hits", 0) / look if look else 0.0), look

    contrib, contrib_n = ratio("contrib_cache")
    topk, topk_n = ratio("topk_cache")
    run.layers.update({
        "engine.open_ms": tr.total("engine.open") * 1000.0,
        "engine.opens": tr.calls("engine.open"),
        "engine.posting_fetch_ms": tr.total("engine.posting_fetch") * 1000.0,
        "engine.rowgroup_reads": rg,
        "engine.decode_ms": tr.total("engine.decode") * 1000.0,
        "engine.decode_calls": tr.calls("engine.decode"),
        "engine.score_ms": tr.self_time("engine.score") * 1000.0,
        "engine.contrib_cache_hit_ratio": contrib,
        "engine.contrib_cache_lookups": contrib_n,
        "engine.topk_cache_hit_ratio": topk,
        "engine.topk_cache_lookups": topk_n,
        "query.parsed": tr.calls("query.parse"),
        "query.parse_ms": tr.total("query.parse") * 1000.0,
        "query.requests": tr.calls("request"),
    })


def quiet(run: Run):
    """Context in which the tracer (if any) records nothing, for
    checks made between traced operations."""
    return run.tracer.pause() if run.trace else contextlib.nullcontext()


def overhead(run: Run, untraced_s: list, traced_s: list) -> None:
    """Tracing overhead: traced minus untraced median request time on
    the same request type, measured back to back in this run."""
    u, t = median(untraced_s), median(traced_s)
    run.layers["trace.overhead_ms"] = (t - u) * 1000.0
    run.layers["trace.overhead_ratio"] = t / u if u else 0.0


# -- build -------------------------------------------------------------------

def build(run: Run) -> None:
    from alix_ray.index.engine import BM25Index
    from alix_ray.stages.build import IndexBuilder

    start = inputs.window_start(run.seed)
    pages_dir = run.path("pages")
    state: dict = {}

    def prep(rep: int) -> None:
        t = inputs.pages(start, BUILD_PAGES)
        write_pages(t, pages_dir)
        # warm-up build over a small slice: starts Ray's worker
        # processes so the first timed build does not pay for them
        warm = run.path("warmup")
        write_pages(t.slice(0, 100), warm)
        shutil.rmtree(warm + "-idx", ignore_errors=True)
        IndexBuilder(warm + "-idx").build(read_pages(warm), fingerprint="warm")
        state["table"] = t

    run.setup(prep)
    table = state["table"]
    record_pages(run, [table])
    run.input["window"] = [start, start + BUILD_PAGES]
    in_bytes = du(pages_dir)
    expected_docs = run.input["pages"]["distinct_urls"]

    def one_build(i: int):
        out = run.path(f"idx-{i}")
        shutil.rmtree(out, ignore_errors=True)
        _, wall = run.op("build", lambda: IndexBuilder(out).build(
            read_pages(pages_dir), fingerprint=f"b{i}"))
        return out, wall

    walls, outs = [], []
    n_builds = MIN_BUILDS if not run.trace else 1
    t_start = time.perf_counter()
    until = t_start + (run.seconds if not run.trace else 0)
    while len(walls) < n_builds or time.perf_counter() < until:
        out, wall = one_build(len(walls))
        walls.append(wall)
        if outs:
            shutil.rmtree(outs.pop(), ignore_errors=True)
        outs.append(out)
    idx = outs[-1]
    ix = BM25Index(idx)
    n_docs = int(ix.n_docs)
    run.fail(int(n_docs != expected_docs),
             f"built {n_docs} docs, expected {expected_docs}")
    queries = inputs.query_mix(ix, run.seed, 100)
    res = [answer(ix, q) for q in queries]
    check_answers(run, BM25Index(idx), queries, range(len(queries)), res,
                  "build: sample queries")
    run.attempted += len(queries)
    run.set_e2e(median(walls), n_docs * len(walls) / sum(walls))
    run.named.update({
        "build_docs_per_s": n_docs * len(walls) / sum(walls),
        "build_ms": [w * 1000.0 for w in walls],
        "index_bytes_per_input_byte": du(idx) / in_bytes,
        "docs": n_docs,
    })
    run.input.update({"input_parquet_bytes": in_bytes,
                      "vocabulary": len(ix.lexicon)})

    if run.trace:
        tr = run.tracer
        out = run.path("idx-traced")
        shutil.rmtree(out, ignore_errors=True)
        b = IndexBuilder(out)
        stages = [("docs", lambda: b.build_docs_from_pages(
                      read_pages(pages_dir), "t")),
                  ("analyzed", lambda: b.build_analyzed("t")),
                  ("doc_stats", lambda: b.build_doc_stats("t")),
                  ("postings", lambda: b.build_postings("t")),
                  ("term_stats", lambda: b.build_term_stats("t"))]
        traced_wall = 0.0
        tr.new_request()
        for name, fn in stages:
            before = tr.counts["ray.dataset_executions"]
            _, wall = run.op(f"stage {name}", tr.call, f"stages.{name}", fn)
            traced_wall += wall
            run.layers[f"stages.{name}_s"] = tr.total(f"stages.{name}")
            run.layers[f"stages.{name}_executions"] = (
                tr.counts["ray.dataset_executions"] - before)
        run.layers["stages.dataset_executions"] = sum(
            run.layers[f"stages.{n}_executions"] for n, _ in stages)
        run.layers["stages.bytes_written"] = du(out)
        tix = BM25Index(out)
        run.fail(int(tix.n_docs != expected_docs),
                 "stage-by-stage build doc count")
        overhead(run, [median(walls)], [traced_wall])
        trace_codec(run, out)
        trace_extract_analysis(run, table)
        trace_ops(run)


# -- serve -------------------------------------------------------------------

def serve(run: Run) -> None:
    from alix_ray.index.engine import BM25Index, PostingStore
    from alix_ray.stages.build import IndexBuilder

    start = inputs.window_start(run.seed)
    pages_dir, idx = run.path("pages"), run.path("idx")
    state: dict = {}

    def prep(rep: int) -> None:
        t = inputs.pages(start, SERVE_PAGES)
        write_pages(t, pages_dir)
        shutil.rmtree(idx, ignore_errors=True)
        IndexBuilder(idx).build(read_pages(pages_dir), fingerprint="serve")
        state["table"] = t

    run.setup(prep)
    record_pages(run, [state["table"]])
    run.input["window"] = [start, start + SERVE_PAGES]
    ix = BM25Index(idx)
    pool = inputs.query_mix(ix, run.seed, SERVE_POOL)
    run.input.update({
        "docs": int(ix.n_docs), "vocabulary": len(ix.lexicon),
        "query_pool": len(pool),
        "cache_caps": {"contrib_terms": BM25Index._CONTRIB_CACHE_MAX,
                       "topk_entries": BM25Index._TOPK_CACHE_MAX,
                       "decoded_shard_terms": PostingStore._SHARDS_CACHE_MAX,
                       "row_groups": PostingStore._RG_CACHE_MAX},
    })
    # the warm phase cycles the pool; one untimed pass fills the caches
    for q in pool:
        answer(ix, q)
    order = itertools.cycle(range(len(pool)))
    warm_for = run.seconds * WARM_SHARE
    cold_for = run.seconds - warm_for

    slices = WARM_SLICES
    warm_from = run.ref.mark()
    if run.trace:
        slices //= 2
        lat_u, _, _, _ = query_phase(run, ix, pool, order, "warm",
                                     warm_for / 2, slices=slices)
        install_engine_tracing(run)
        ix = BM25Index(idx)
        for q in pool:
            answer(ix, q)
        ask = lambda h, q: traced_answer(run, h, q)  # noqa: E731
        lat, res, done, warm_s = query_phase(run, ix, pool, order,
                                             "warm traced", warm_for / 2, ask,
                                             slices=slices)
        overhead(run, lat_u, lat)
    else:
        ask = answer
        lat, res, done, warm_s = query_phase(run, ix, pool, order, "warm",
                                             warm_for, slices=slices)

    cold_from = run.ref.mark()
    # cold sessions: a fresh handle per session, timed from open to
    # the 20th answer
    sessions, s_res, s_done = [], [], []
    until = time.perf_counter() + cold_for
    s = 0
    try:
        with deadline(cold_for + 60.0):
            while s < MIN_SESSIONS or time.perf_counter() < until:
                base = (s * SESSION_QUERIES) % len(pool)
                ids = [(base + j) % len(pool) for j in range(SESSION_QUERIES)]
                t0 = time.perf_counter()
                h = BM25Index(idx)
                for i in ids:
                    s_res.append(ask(h, pool[i]))
                    s_done.append(i)
                sessions.append(time.perf_counter() - t0)
                s += 1
                if s % REF_EVERY_SESSIONS == 0:
                    run.ref.sample()
    except (Deadline, Exception) as e:
        run.fail(1, f"cold session raised {type(e).__name__}: {e}"[:300])
        run.attempted += 1
    if s % REF_EVERY_SESSIONS:
        run.ref.sample()
    cold_to = run.ref.mark()
    run.attempted += len(s_done)
    count_slow(run, [x / SESSION_QUERIES for x in sessions], "cold session")

    if run.trace:
        run.tracer.restore()
        engine_layers(run)
    oracle = BM25Index(idx)
    check_answers(run, oracle, pool, done, res, "warm")
    check_answers(run, oracle, pool, s_done, s_res, "cold")
    run.set_e2e(median(sessions), len(lat) / warm_s,
                latency_phase=(cold_from, cold_to),
                throughput_phase=(warm_from, cold_from))
    run.named.update({
        "query_p50_ms": median(lat) * 1000.0,
        "query_p99_ms": percentile(lat, 99) * 1000.0,
        "queries": len(lat),
        "queries_per_s": len(lat) / warm_s,
        "cold_session_ms": median(sessions) * 1000.0,
        "cold_sessions": len(sessions),
    })
    if run.trace:
        trace_codec(run, idx)
        trace_extract_analysis(run, state["table"])


# -- ingest ------------------------------------------------------------------

def ingest(run: Run) -> None:
    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter

    start = inputs.window_start(run.seed)
    root = run.path("idx")
    state: dict = {}

    def prep(rep: int) -> None:
        base = inputs.pages(start, INGEST_BASE_PAGES)
        write_pages(base, run.path("base"))
        deltas = []
        for c in range(INGEST_CYCLES):
            lo = start + INGEST_BASE_PAGES + c * INGEST_DELTA_PAGES
            d = inputs.pages(lo, INGEST_DELTA_PAGES)
            write_pages(d, run.path(f"delta-{c}"))
            deltas.append(d)
        shutil.rmtree(root, ignore_errors=True)
        IndexWriter(root).add_documents(read_pages(run.path("base")))
        state.update(base=base, deltas=deltas)

    run.setup(prep)
    base, deltas = state["base"], state["deltas"]
    record_pages(run, [base] + deltas)
    run.input["window"] = [start, start + INGEST_BASE_PAGES
                           + INGEST_CYCLES * INGEST_DELTA_PAGES]
    writer = IndexWriter(root)
    ix = BM25Index(root)
    queries = inputs.query_mix(ix, run.seed, INGEST_BATCH * (INGEST_CYCLES + 1))
    run.input.update({"vocabulary": len(ix.lexicon),
                      "delta_docs": INGEST_CYCLES * INGEST_DELTA_PAGES})
    rng = inputs.rng_for(run.seed, "deletes")
    live = sorted(inputs.distinct_urls(base))
    deleted_urls: set = set()
    ask = answer

    if run.trace:
        # tracing overhead on the read request, base index, warm caches
        batch = list(range(INGEST_BATCH))
        closed_loop(ix, queries, batch)
        lat_u, _, _ = closed_loop(ix, queries, batch)
        install_engine_tracing(run)
        tr = run.tracer
        from alix_ray.index import incremental

        tr.wrap(incremental.IndexWriter, "add_documents", "incremental.add")
        tr.wrap(incremental.IndexWriter, "delete_documents", "incremental.delete")
        tr.wrap(incremental.IndexWriter, "compact", "incremental.compact")
        tr.wrap(BM25Index, "reopen_if_changed", "incremental.reopen")
        ix = BM25Index(root)
        closed_loop(ix, queries, batch)
        ask = lambda h, q: traced_answer(run, h, q)  # noqa: E731
        lat_t, _, _ = closed_loop(ix, queries, batch, ask=ask)
        overhead(run, lat_u, lat_t)

    adds, lat_all, gens, q_walls = [], [], [], []
    reads_from = run.ref.mark()
    for c in range(INGEST_CYCLES):
        _, wall = run.op("add_documents", writer.add_documents,
                         read_pages(run.path(f"delta-{c}")))
        adds.append(wall)
        pick = rng.choice(len(live), INGEST_DELETES, replace=False)
        urls = [live[i] for i in sorted(pick)]
        n_del, _ = run.op("delete_documents", writer.delete_documents,
                          urls=urls)
        run.fail(int(n_del is not None and n_del != len(urls)),
                 "delete_documents count")
        deleted_urls.update(urls)
        live = sorted(set(live) - set(urls)
                      | inputs.distinct_urls(deltas[c]))
        new_ix, _ = run.op("reopen", ix.reopen_if_changed)
        ix = new_ix or ix
        gens.append(len(ix.gen_dirs))
        batch = range(c * INGEST_BATCH, (c + 1) * INGEST_BATCH)
        lat, res, done, wall = query_phase(run, ix, queries, batch,
                                           f"cycle {c}", ask=ask)
        lat_all += lat
        q_walls.append(wall)
        with quiet(run):
            check_answers(run, BM25Index(root), queries, done, res,
                          f"cycle {c}", deleted=ix.deleted)
    _, compact_s = run.op("compact", writer.compact)
    ix = BM25Index(root)
    gens.append(len(ix.gen_dirs))
    batch = range(INGEST_CYCLES * INGEST_BATCH, (INGEST_CYCLES + 1) * INGEST_BATCH)
    lat, res, done, wall = query_phase(run, ix, queries, batch,
                                       "after compact", ask=ask)
    lat_all += lat
    q_walls.append(wall)
    expected = len(inputs.distinct_urls(base, *deltas)) - len(deleted_urls)
    run.fail(int(ix.n_live != expected),
             f"live docs after compact {ix.n_live}, expected {expected}")
    with quiet(run):
        check_answers(run, BM25Index(root), queries, done, res,
                      "after compact", deleted=ix.deleted)
    delta_docs = INGEST_CYCLES * INGEST_DELTA_PAGES
    run.set_e2e(sum(q_walls) / len(lat_all), delta_docs / sum(adds),
                latency_phase=(reads_from, run.ref.mark()))
    run.named.update({
        "add_docs_per_s": delta_docs / sum(adds),
        "add_ms": [a * 1000.0 for a in adds],
        "compact_s": compact_s,
        "query_p50_ms": median(lat_all) * 1000.0,
        "query_p99_ms": percentile(lat_all, 99) * 1000.0,
        "queries": len(lat_all),
        "queries_per_s": len(lat_all) / sum(q_walls),
        "live_docs_after_compact": int(ix.n_live),
    })
    if run.trace:
        tr = run.tracer
        tr.restore()
        engine_layers(run)
        run.layers.update({
            "incremental.add_s": tr.total("incremental.add"),
            "incremental.delete_ms": tr.total("incremental.delete") * 1000.0,
            "incremental.reopen_ms": tr.total("incremental.reopen") * 1000.0,
            "incremental.compact_s": tr.total("incremental.compact"),
            "incremental.generations": max(gens),
        })
        trace_codec(run, ix.gen_dirs[0])
        trace_extract_analysis(run, pa.concat_tables(deltas))


# -- ops battery (traced build runs) -----------------------------------------

def trace_ops(run: Run) -> None:
    """``snapshot_diff``, ``tfidf_cosine_pairs`` and
    ``connected_components_partitioned`` on OPS_DOCS seed
    documents and a seed-labelled graph, each in a span and checked
    against a driver-side computation."""
    import ray.data

    from alix_ray.ops import crawl, similarity

    tr = run.tracer
    n = OPS_DOCS
    docs_dir = run.path("docs")
    docs = inputs.documents(run.seed, n)
    shutil.rmtree(docs_dir, ignore_errors=True)
    os.makedirs(docs_dir)
    step = -(-n // OPS_FILES)
    for i in range(OPS_FILES):
        pq.write_table(docs.slice(i * step, step),
                       os.path.join(docs_dir, f"part-{i}.parquet"))
    src, dst = inputs.component_edges(run.seed, n)
    run.input["ops"] = {"docs": n, "edges": len(src),
                        "docs_bytes": du(docs_dir),
                        "digest": inputs.table_digest(docs)}
    cap = max(100, n // 5)

    def keep_mod(m: int):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ids % m != 0))
        return fn

    def edit(batch: pa.Table) -> pa.Table:
        batch = keep_mod(5)(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        txt = [t + " [edited v2]" if i % 7 == 0 else t
               for i, t in zip(ids, batch["text"].to_pylist())]
        return batch.set_column(batch.schema.get_field_index("text"), "text",
                                pa.array(txt, pa.string()))

    def diff():
        d = ray.data.read_parquet(docs_dir)
        old = d.map_batches(keep_mod(3), batch_format="pyarrow")
        new = d.map_batches(edit, batch_format="pyarrow")
        return crawl.snapshot_diff(old, new).to_pandas()

    def tfidf():
        return similarity.tfidf_cosine_pairs(
            ray.data.read_parquet(docs_dir), threshold=TFIDF_THRESHOLD,
            df_cap=cap).to_pandas()

    def components():
        edges = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
        return crawl.connected_components_partitioned(edges, n).to_pandas()

    battery = [("snapshot_diff", diff), ("tfidf_cosine_pairs", tfidf),
               ("connected_components_partitioned", components)]
    walls, outs = [], {}
    for name, fn in battery:
        before = tr.counts["ray.dataset_executions"]
        out, wall = run.op(name, tr.call, f"ops.{name}", fn)
        run.layers[f"ops.{name}_s"] = wall
        run.layers[f"ops.{name}_executions"] = (
            tr.counts["ray.dataset_executions"] - before)
        walls.append(wall)
        outs[name] = out
    pipeline_s = sum(walls)

    if outs["snapshot_diff"] is not None:
        run.fail(checks.snapshot_mismatches(outs["snapshot_diff"], n),
                 "snapshot_diff statuses")
    want = checks.tfidf_expected(docs, TFIDF_THRESHOLD, cap)
    if outs["tfidf_cosine_pairs"] is not None:
        run.fail(checks.tfidf_mismatches(outs["tfidf_cosine_pairs"], want,
                                         TFIDF_THRESHOLD), "tfidf pairs")
    if outs["connected_components_partitioned"] is not None:
        run.fail(checks.components_mismatches(
            outs["connected_components_partitioned"], n, src, dst),
            "components")
    execs = sum(run.layers[f"ops.{m}_executions"] for m, _ in battery)
    run.layers["ops.s_per_execution"] = pipeline_s / execs if execs else 0.0
    run.named.update({"pipeline_s": pipeline_s,
                      "op_s": {m: w for (m, _), w in zip(battery, walls)},
                      "tfidf_pairs": len(want)})


WORKLOADS = {"build": build, "serve": serve, "ingest": ingest}
