"""Shared op utilities: the broadcast-object worker cache, the
actor-pool sizing rule and the smallest-id row sample — one
definition each."""

from __future__ import annotations

import ray

_BCAST_CACHE: dict[str, object] = {}


def broadcast_cached(ref: "ray.ObjectRef"):
    """Resolve a ``ray.put`` broadcast object once per worker process.

    The cache holds ONE object (cleared on key change): broadcast
    models are corpus-level state and workers serve one pipeline at a
    time — holding every historical model would leak worker heap."""
    key = ref.hex()
    obj = _BCAST_CACHE.get(key)
    if obj is None:
        _BCAST_CACHE.clear()
        obj = _BCAST_CACHE[key] = ray.get(ref)
    return obj


def default_concurrency(cap: int = 8, floor: int = 2) -> int:
    """Actor-pool size for per-doc Python stages: half the cluster
    CPUs, clamped — leaves headroom for the surrounding pipeline."""
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    return max(floor, min(cap, ncpu // 2))


def actor_pool(concurrency: int) -> dict:
    """``map_batches`` arguments for a pool of ``concurrency`` per-doc
    Python actors, the one rule every such pool follows: the actors'
    CPU reservations together leave one CPU free (a fractional share
    each when there are too few).  The tasks feeding the pool (a read,
    a ``repartition``) need a CPU too; a pool holding every CPU waits
    forever on input those tasks cannot run to produce."""
    cpus = float(ray.cluster_resources().get("CPU", 4))
    share = min(1.0, max(cpus - 1.0, 0.0) / concurrency)
    return {"concurrency": concurrency, "num_cpus": share}


def smallest_id_rows(ds, n: int, id_col: str, vec_col: str):
    """The ``n`` smallest-id vectors of an embedding Dataset as a
    float64 matrix, WITHOUT sorting the corpus: every batch forwards
    its local n smallest (tiny), a distributed ``sort(id).limit(n)``
    over that slim candidate set reduces to the global n, and ONLY
    those n rows reach the driver — never the O(n_batches·n)
    candidate pool.  Shared by k-means seeding and PQ
    training-sample selection."""
    import numpy as np
    import pyarrow.compute as pc

    def local_n(batch):
        idx = pc.sort_indices(batch, sort_keys=[(id_col, "ascending")])
        return batch.take(idx[:n]).select([id_col, vec_col])

    cand = ds.map_batches(local_n, batch_format="pyarrow")
    rows = cand.sort(id_col).limit(n).take_all()
    return np.asarray([r[vec_col] for r in rows], np.float64)
