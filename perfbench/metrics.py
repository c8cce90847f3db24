"""Metric catalogue: names, units, better direction and, for each
per-layer metric, the end-to-end metric and workload it should move.

``BENCHMARK.json`` at the repository root lists the same names, units
and directions (its per-layer entries have no room for the mapping, so
it lives here); the self-test (``python3 perfbench/selftest.py``) checks
the two agree.
"""

# (name, unit, better, bound); the query figures (serve's two, ingest's
# latency) are scaled to the nominal host speed (``common.HostReference``)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# what the latency and throughput metrics stand for on each workload
E2E_MEANING = {
    "build": {"latency_ms": "one IndexBuilder.build (median)",
              "throughput_per_s": "build_docs_per_s: docs indexed / total "
                                  "time of every build of the run"},
    "serve": {"latency_ms": "cold_session_ms: fresh handle to 20th answer "
                            "(median session)",
              "throughput_per_s": "queries_per_s of the warm phase"},
    "ingest": {"latency_ms": "mean read latency: total time of the 1200 "
                             "queries / 1200",
               "throughput_per_s": "add_docs_per_s: delta docs / total "
                                   "add_documents time"},
}

_B, _S, _I = "build", "serve", "ingest"

# (name, unit, better, what it should move: [(metric, workload)]); the
# metric is a gated end-to-end one, or one of the workload's named
# metrics in the run record (query_p50_ms, query_p99_ms, compact_s, and
# pipeline_s of the ops battery, which only traced build runs call)
_BUILD = [("throughput_per_s", _B), ("latency_ms", _B)]
_INGEST_ADD = [("throughput_per_s", _I)]
_COLD = [("latency_ms", _S), ("latency_ms", _I), ("query_p99_ms", _I)]
_WARM = [("throughput_per_s", _S), ("query_p50_ms", _S), ("query_p99_ms", _S)]
_OPS = [("pipeline_s", _B)]
LAYER_METRICS = [
    ("extract.docs", "count", "higher", []),
    ("extract.busy_s", "s", "lower", _BUILD + _INGEST_ADD),
    ("analysis.tokens", "count", "higher", []),
    ("analysis.busy_s", "s", "lower", _BUILD + _INGEST_ADD),
    ("stages.docs_s", "s", "lower", _BUILD),
    ("stages.analyzed_s", "s", "lower", _BUILD),
    ("stages.doc_stats_s", "s", "lower", _BUILD),
    ("stages.postings_s", "s", "lower", _BUILD),
    ("stages.term_stats_s", "s", "lower", _BUILD),
    ("stages.dataset_executions", "count", "lower", _BUILD),
    ("stages.bytes_written", "bytes", "lower",
     _BUILD + [("index_bytes_per_input_byte", _B)]),
    ("codec.postings", "count", "higher", []),
    ("codec.encode_s", "s", "lower", _BUILD),
    ("codec.decode_s", "s", "lower", _BUILD + [("latency_ms", _S)]),
    ("codec.bytes_out", "bytes", "lower",
     _BUILD + [("index_bytes_per_input_byte", _B)]),
    ("engine.open_ms", "ms", "lower", [("latency_ms", _S)]),
    ("engine.opens", "count", "lower", []),
    ("engine.posting_fetch_ms", "ms", "lower", _COLD),
    ("engine.rowgroup_reads", "count", "lower", _COLD),
    ("engine.decode_ms", "ms", "lower", _COLD),
    ("engine.decode_calls", "count", "lower", _COLD),
    ("engine.score_ms", "ms", "lower", _WARM + _COLD),
    ("engine.contrib_cache_hit_ratio", "ratio", "higher", _WARM + _COLD),
    ("engine.contrib_cache_lookups", "count", "lower", []),
    ("engine.topk_cache_hit_ratio", "ratio", "higher", _WARM),
    ("engine.topk_cache_lookups", "count", "lower", []),
    ("query.parsed", "count", "higher", []),
    ("query.parse_ms", "ms", "lower", _WARM),
    ("query.requests", "count", "higher", []),
    ("incremental.add_s", "s", "lower", _INGEST_ADD),
    ("incremental.delete_ms", "ms", "lower", [("query_p99_ms", _I)]),
    ("incremental.reopen_ms", "ms", "lower",
     [("latency_ms", _I), ("query_p99_ms", _I)]),
    ("incremental.compact_s", "s", "lower", [("compact_s", _I)]),
    ("incremental.generations", "count", "lower",
     [("latency_ms", _I), ("query_p99_ms", _I)]),
    ("ops.snapshot_diff_s", "s", "lower", _OPS),
    ("ops.snapshot_diff_executions", "count", "lower", _OPS),
    ("ops.tfidf_cosine_pairs_s", "s", "lower", _OPS),
    ("ops.tfidf_cosine_pairs_executions", "count", "lower", _OPS),
    ("ops.connected_components_partitioned_s", "s", "lower", _OPS),
    ("ops.connected_components_partitioned_executions", "count", "lower",
     _OPS),
    ("ops.s_per_execution", "s", "lower", _OPS),
    ("ray.init_s", "s", "lower", [("setup_s", w) for w in (_B, _S, _I)]),
    ("ray.dataset_executions", "count", "lower",
     [("setup_s", w) for w in (_B, _S, _I)] + _OPS),
    ("trace.overhead_ms", "ms", "lower", []),
    ("trace.overhead_ratio", "ratio", "lower", []),
]
