"""Analyzer layer probe: the French chain over a seeded pages window.

    python scripts/bench_analyzer.py [--seed 1] [--pages 2000] [--repeats 5]

Takes the ``--pages`` window of the synthetic corpus that the benchmark's
``build`` workload indexes for ``--seed`` (``perfbench.inputs``), and runs
``FrenchAnalyzer.analyze_counts`` over its pinned ``text`` column in this
process, under the analyze workers' GC settings
(``stages.analyze.tune_worker_gc``: frozen heap, no cyclic collection).
One untimed pass warms the analyzer's per-surface table, as a worker's
first batch does.  Then it prints one JSON line:

- ``window_ms``: ``analyze_counts`` over the window, median of the
  repeats (``window_ms_runs`` lists them all);
- ``us_per_token``: that median per raw token of the window;
- ``steps_ms``: one stepwise pass, tokenizer, each chain filter and the
  cleanup timed apart (their sum exceeds ``window_ms`` by the timer
  calls).
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


def stepwise(fa, texts: list[str]) -> dict:
    """Milliseconds per chain step over ``texts``."""
    from alix_ray.analysis.filters import cleanup_counts

    clock = time.perf_counter
    ms = {"tokenize": 0.0, **{name: 0.0 for name, _ in fa.steps},
          "cleanup_counts": 0.0}
    for text in texts:
        t0 = clock()
        toks = fa.tokenizer.tokenize(text)
        t1 = clock()
        ms["tokenize"] += t1 - t0
        for name, step in fa.steps:
            toks = step(toks)
            t2 = clock()
            ms[name] += t2 - t1
            t1 = t2
        cleanup_counts(toks, fa.lexemes)
        ms["cleanup_counts"] += clock() - t1
    return {k: round(v * 1000, 1) for k, v in ms.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pages", type=int, default=2000)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)

    from alix_ray.analysis import FrenchAnalyzer
    from alix_ray.stages.analyze import tune_worker_gc
    from perfbench.inputs import pages, window_start

    start = window_start(args.seed)
    texts = [t or "" for t in
             pages(start, args.pages)["text"].to_pylist()]
    tune_worker_gc()
    fa = FrenchAnalyzer()
    n_tokens = sum(len(fa.tokenizer.tokenize(t)) for t in texts)
    for t in texts:
        fa.analyze_counts(t)
    runs = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        for t in texts:
            fa.analyze_counts(t)
        runs.append((time.perf_counter() - t0) * 1000)
    med = sorted(runs)[len(runs) // 2]
    print(json.dumps({
        "seed": args.seed,
        "window_start": start,
        "pages": args.pages,
        "raw_tokens": n_tokens,
        "window_ms": round(med, 1),
        "window_ms_runs": [round(r, 1) for r in runs],
        "us_per_token": round(med * 1000 / max(n_tokens, 1), 3),
        "steps_ms": stepwise(fa, texts),
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
