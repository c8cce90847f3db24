"""One workload run in a fresh process (started by ``perfbench/run.py``).

Starts a local Ray session with a fixed logical CPU count, runs the
workload, stops Ray and writes the run's result to ``--out``.  Its
stdout and stderr (Ray's log lines included) go to a log file the
parent chooses, never to the parent's metrics output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

# Ray sessions on a 1-core box: a single logical CPU deadlocks the
# snapshot_diff plan (ReadParquet->SplitBlocks backpressure), two finish
LOGICAL_CPUS = 2
# a fixed object store, far above what a workload holds at once, so the
# session is the same on hosts with more or less memory
OBJECT_STORE_BYTES = 512 * 1024 * 1024


def unscaled(run, init_s: float) -> dict:
    from .common import median

    return dict(run.e2e, setup_s=init_s + median(run.setup_parts["prep_s"]))


def end_to_end(run, init_s: float) -> dict:
    """Gated metrics; those measured in this process (``run.slowdown``
    names them) scaled to the nominal host speed."""
    from .common import peak_rss_mb
    from .metrics import END_TO_END

    better = {name: b for name, _unit, b, _bound in END_TO_END}
    vals = dict(unscaled(run, init_s), peak_rss_mb=peak_rss_mb())
    for name, slow in run.slowdown.items():
        if better[name] == "lower":  # a time
            vals[name] /= slow
        else:  # a rate
            vals[name] *= slow
    return {name: {"value": vals.get(name), "unit": unit}
            for name, unit, _better, _bound in END_TO_END}


def per_layer(run, init_s: float) -> dict:
    from .metrics import LAYER_METRICS

    vals = dict(run.layers)
    vals["ray.init_s"] = init_s
    vals["ray.dataset_executions"] = run.tracer.counts["ray.dataset_executions"]
    # a layer this workload never calls did no work: its counts and
    # times are zero, not missing
    return {name: {"value": float(vals.get(name, 0.0)), "unit": unit}
            for name, unit, _better, _moves in LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)

    from .common import HostReference, load_avg
    from .tracing import Tracer
    from .workloads import WORKLOADS, Run

    load_before = load_avg()
    ref = HostReference()
    tracer = Tracer() if a.trace else None
    import ray
    import ray.data

    if tracer is not None:
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor)

        tracer.hook(StreamingExecutor, "execute",
                    lambda: tracer.count("ray.dataset_executions"))
    t0 = time.perf_counter()
    # a local session bound to the loopback address: it needs no network
    # interface and never looks one up
    ray.init(address="local", num_cpus=LOGICAL_CPUS, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _node_ip_address="127.0.0.1",
             logging_level="ERROR", log_to_driver=False,
             _temp_dir=a.ray_tmp)
    init_s = time.perf_counter() - t0
    ray.data.DataContext.get_current().enable_progress_bars = False

    os.makedirs(a.work, exist_ok=True)
    run = Run(a.workload, a.seed, a.seconds, a.work, ref, tracer)
    try:
        WORKLOADS[a.workload](run)
    except Exception:  # report the run, whatever broke
        run.attempted += 1
        run.fail(1, traceback.format_exc()[-2000:])
    finally:
        ray.shutdown()
    if tracer is not None:
        tracer.restore()
        tracer.dump(a.out.replace(".json", ".spans.jsonl"))

    from .common import REF_NOMINAL_S, box_record

    metrics = {}
    if run.setup_parts.get("prep_s"):
        metrics = per_layer(run, init_s) if a.trace else end_to_end(run, init_s)
    complete = bool(metrics) and all(
        isinstance(m["value"], float) for m in metrics.values())
    result = {
        "correct": run.failed == 0 and complete,
        "attempted": max(1, run.attempted),
        "failed": run.failed if complete else max(1, run.failed),
        "metrics": metrics,
    }
    record = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace,
        "box": dict(box_record(LOGICAL_CPUS), load_before=load_before,
                    ray_object_store_bytes=OBJECT_STORE_BYTES,
                    load_after=load_avg()),
        "host_reference": {"nominal_s": REF_NOMINAL_S,
                           "samples": ref.mark(),
                           "part_slowdowns": (ref.part_slowdowns()
                                              if ref.mark() else {}),
                           "slowdown": run.slowdown},
        "input": run.input,
        "setup": dict(run.setup_parts, ray_init_s=init_s),
        "named": run.named,
        "unscaled": unscaled(run, init_s) if metrics and not a.trace else {},
        "layers": run.layers,
        "error_rate": run.failed / max(1, run.attempted),
        "errors": run.errors[:20],
    }
    with open(a.out, "w") as f:
        json.dump({"result": result, "record": record}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
