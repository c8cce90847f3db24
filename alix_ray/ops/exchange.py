"""The one coarse-key exchange of the ops layer.

Ray's ``map_groups`` pays one pandas dispatch and one output block per
group, so no op groups by its raw key (millions of mostly-singleton
groups).  Each op instead emits an integer routing-hash column — the
raw key when it is an integer id, else a stable hash of it — and
:func:`exchange` routes rows by ``splitmix64(key) mod parts`` into a
few coarse partitions; the op's function re-finds its real keys
vectorized inside each partition.  Outputs never depend on ``parts``:
every row of one key meets in exactly one call.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

_P1 = np.uint64(0xFF51AFD7ED558CCD)
_P2 = np.uint64(0xC4CEB9FE1A85EC53)
_PART = "__exchange_part"

# Floor of the partition count; above it the count tracks cluster cores.
MIN_PARTS = 64


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — stable, vectorized 64-bit mixing."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(33)
    x *= _P1
    x ^= x >> np.uint64(33)
    x *= _P2
    x ^= x >> np.uint64(33)
    return x


def string_key(col) -> np.ndarray:
    """uint64 routing hash of an Arrow string column.

    ``pd.util.hash_array`` is a vectorized siphash with a FIXED key, so
    every worker process hashes a string alike (Python's builtin str
    hash is salted per process and would split one key across
    groups)."""
    return pd.util.hash_array(np.asarray(col.to_pylist(), dtype=object))


def num_partitions() -> int:
    """``max(MIN_PARTS, 4 × cluster CPUs)``, read on the driver."""
    cpus = ray.cluster_resources().get("CPU", 0) if ray.is_initialized() \
        else 0
    return max(MIN_PARTS, 4 * int(cpus))


def _route(batch: pa.Table, key: str, parts: np.uint64) -> pa.Table:
    """Append the partition column ``splitmix64(key) mod parts``.

    The schema metadata (pandas index info left by ``from_pandas`` and
    by pandas-format ops) is dropped: it holds a dict, which makes
    ``pa.Schema`` unhashable, and Ray's reduce tasks hash the block
    schemas to unify them (one "Failed to hash the schemas" warning
    per task otherwise)."""
    h = batch[key].to_numpy(zero_copy_only=False)
    return batch.replace_schema_metadata(None).append_column(
        _PART, pa.array((_mix64(h) % parts).astype(np.int64)))


def exchange(ds: ray.data.Dataset, fn, key: str) -> ray.data.Dataset:
    """Group ``ds`` by a coarse partition of its integer ``key`` column
    and apply ``fn`` (pandas in, pandas or Arrow out) to each partition.

    The count is resolved once per call and passed to every routing
    task, so every worker agrees on it.  ``fn`` sees all of the
    partition's rows, ``key`` included, but not the partition column."""
    parts = np.uint64(num_partitions())

    def call(g):
        return fn(g.drop(columns=_PART))

    call.__name__ = getattr(fn, "__name__", call.__name__)  # stats name
    return ds.map_batches(
        _route, batch_format="pyarrow",
        fn_kwargs={"key": key, "parts": parts},
    ).groupby(_PART).map_groups(call, batch_format="pandas")
