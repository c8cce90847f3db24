"""Analyzer layer probe: the French chain over a seeded pages window.

    python scripts/bench_analyzer.py [--seed 1] [--pages 2000] [--repeats 5]

Takes the ``--pages`` window of the synthetic corpus that the benchmark's
``build`` workload indexes for ``--seed`` (``perfbench.inputs``), and runs
the analyzer over its pinned ``text`` column in this process, under the
analyze workers' GC settings (``stages.analyze.tune_worker_gc``: frozen
heap, no cyclic collection).  One untimed pass warms the analyzer's
surface table, as a worker's first batch does.  Then it prints one JSON
line:

- ``window_ms``: ``FrenchAnalyzer.analyze_counts`` text by text over the
  window, median of the repeats (``window_ms_runs`` lists them all);
- ``us_per_token``: that median per raw token of the window;
- ``batch_ms`` / ``batch_us_per_token``: the build's path,
  ``stages.analyze.AnalyzeDocs`` over the window in batches of
  ``BATCH_ROWS`` rows, output columns included, median of the repeats;
- ``steps_ms``: one stepwise pass over the same batches, the walk's
  phases timed apart: ``scan`` (texts to surface ids), ``gathers`` (the
  context-free clitic/replace/all-caps expansion and lexicon columns),
  ``context`` (dots, boundary, tagger, MWE and any optional filter),
  ``count`` (cleanup and the per-row term counts) and ``columns`` (the
  Arrow output); their sum exceeds ``batch_ms`` by the timer calls.
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

# rows per AnalyzeDocs batch: the size of one block of a 2,000-page build
BATCH_ROWS = 1000
# the walk's stages that read only per-surface columns
GATHERS = ("expand", "lemma")


def batches(texts: list[str]):
    import pyarrow as pa

    for i in range(0, len(texts), BATCH_ROWS):
        part = texts[i:i + BATCH_ROWS]
        yield pa.table({"doc_id": pa.array(range(i, i + len(part)),
                                           pa.int64()),
                        "text": pa.array(part, pa.string())})


def stepwise(stage, tables: list) -> dict:
    """Milliseconds per phase of ``stage`` (an ``AnalyzeDocs``) over
    ``tables``."""
    fa = stage.analyzer
    clock = time.perf_counter
    ms = dict.fromkeys(("scan", "gathers", "context", "count", "columns"),
                       0.0)
    for table in tables:
        t0 = clock()
        st = fa.lexemes.scan(table["text"].to_pylist())
        t1 = clock()
        ms["scan"] += t1 - t0
        for name, step in fa.stages:
            st = step(st)
            t2 = clock()
            ms["gathers" if name in GATHERS else "context"] += t2 - t1
            t1 = t2
        counted = fa._count(st, stage.keep_positions)
        t2 = clock()
        ms["count"] += t2 - t1
        fa._done(None)
        stage._columns(table, counted)
        ms["columns"] += clock() - t2
    return {k: round(v * 1000, 1) for k, v in ms.items()}


def median_ms(fn, repeats: int) -> tuple[float, list[float]]:
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append((time.perf_counter() - t0) * 1000)
    return sorted(runs)[len(runs) // 2], runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pages", type=int, default=2000)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)

    from alix_ray.stages.analyze import AnalyzeDocs, tune_worker_gc
    from perfbench.inputs import pages, window_start

    start = window_start(args.seed)
    texts = [t or "" for t in
             pages(start, args.pages)["text"].to_pylist()]
    tables = list(batches(texts))
    tune_worker_gc()
    stage = AnalyzeDocs()
    fa = stage.analyzer
    n_tokens = sum(len(fa.tokenizer.tokenize(t)) for t in texts)
    for t in tables:
        stage(t)

    def per_text():
        for t in texts:
            fa.analyze_counts(t)

    def per_batch():
        for t in tables:
            stage(t)

    med, runs = median_ms(per_text, args.repeats)
    bmed, bruns = median_ms(per_batch, args.repeats)
    print(json.dumps({
        "seed": args.seed,
        "window_start": start,
        "pages": args.pages,
        "raw_tokens": n_tokens,
        "window_ms": round(med, 1),
        "window_ms_runs": [round(r, 1) for r in runs],
        "us_per_token": round(med * 1000 / max(n_tokens, 1), 3),
        "batch_rows": BATCH_ROWS,
        "batch_ms": round(bmed, 1),
        "batch_ms_runs": [round(r, 1) for r in bruns],
        "batch_us_per_token": round(bmed * 1000 / max(n_tokens, 1), 3),
        "steps_ms": stepwise(stage, tables),
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
