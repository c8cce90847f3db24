"""Cardinality sketches: HyperLogLog distinct counting.

The exact distinct counters in this repo (``domain_stats``'s two-level
bucking) ship one slim row per DISTINCT key — the honest price of
exactness.  At 10^12 urls per domain even 8 B/distinct is terabytes of
exchange; HyperLogLog (Flajolet et al. 2007, AofA) is the standard
sub-linear answer: m = 2^p registers of one byte each, mergeable by
per-register MAX — which is ASSOCIATIVE, COMMUTATIVE and IDEMPOTENT,
so partial sketches combine exactly in any order, across batches,
partitions, and engines.  That order-independence is what makes the
sketch fully ORACLE-CHECKABLE here: both engines compute bit-identical
integer registers (the estimate is one closed-form float at the end).

Scale shape: per batch one hash pass + register partial — at
most m rows per (group, batch) regardless of batch size — then ONE
``groupby((group, register)).max`` exchange bounded by
O(groups · m), never O(keys).  Registers for a billion-url domain are
1 KiB at p=10.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .dedup import md5_lower64
from .textstats import round_half_away

HLL_P = 10                 # 2^10 = 1024 registers
HLL_Q = 40                 # rho window: bits inspected above the bucket


def _rho40(w: np.ndarray) -> np.ndarray:
    """rho = leading zeros of ``w`` within a 40-bit window, plus 1
    (``w == 0`` → 41).  Exact integer bit-compares — NOT floor(log2):
    log2 of 2^k−1 can round up to k in float64, which would corrupt a
    register by one.  The SQL oracle uses the same 41-branch compare
    chain, so registers are bit-identical by construction."""
    bl = np.zeros(len(w), np.int64)
    for k in range(HLL_Q):
        bl[w >= (np.uint64(1) << np.uint64(k))] = k + 1
    return (HLL_Q + 1) - bl


def hll_distinct(ds: ray.data.Dataset, key_col: str,
                 group_col: str, p: int = HLL_P,
                 round_decimals: int = 6) -> ray.data.Dataset:
    """Per-group HyperLogLog distinct-count estimate.  Returns one row
    per group: ``(group, est, n_zero, sum_rho)`` — ``n_zero`` (empty
    registers) and ``sum_rho`` (integer register sum) are exact
    integers exposing the full register state to the oracle, so the
    check discriminates on register CONTENT, not just the one float.

    Estimator: raw HLL ``α_m·m²/Σ2^−M_j`` with the standard
    linear-counting fallback ``m·ln(m/V)`` when ``E ≤ 2.5m`` and
    zero registers remain (Flajolet 2007 §4; the 64-bit-hash variant
    needs no large-range correction).  Keys hash with
    :func:`md5_lower64`, the DuckDB ``md5_number_lower`` oracle's
    hash."""
    m = 1 << p
    mask_q = (np.uint64(1) << np.uint64(HLL_Q)) - np.uint64(1)

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        grp = batch[group_col].to_pylist()
        # null keys/groups are EXCLUDED from the sketch — the same
        # rule the oracle pins with IS NOT NULL (hashing a sentinel
        # or dropping groups silently would diverge the registers)
        pairs = [(g, k) for g, k in zip(grp, keys)
                 if g is not None and k is not None]
        if not pairs:
            return pa.schema([("g", pa.string()), ("b", pa.int64()),
                              ("r", pa.int64())]).empty_table()
        h = md5_lower64([k for _, k in pairs])
        bucket = (h % np.uint64(m)).astype(np.int64)
        w = (h >> np.uint64(p)) & mask_q
        rho = _rho40(w)
        df = pd.DataFrame({"g": [g for g, _ in pairs], "b": bucket,
                           "r": rho})
        agg = df.groupby(["g", "b"], as_index=False)["r"].max()
        return pa.table({
            "g": pa.array(agg["g"].astype(str).tolist(), pa.string()),
            "b": pa.array(agg["b"].to_numpy(np.int64)),
            "r": pa.array(agg["r"].to_numpy(np.int64)),
        })

    regs = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["g", "b"]).max("r"))

    alpha = 0.7213 / (1.0 + 1.079 / m)

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for g, grp in df.groupby("g"):
            r = np.zeros(m, np.int64)
            r[grp["b"].to_numpy(np.int64)] = \
                grp["max(r)"].to_numpy(np.int64)
            zeros = int((r == 0).sum())
            s = float(np.sum(np.exp2(-r.astype(np.float64))))
            est = alpha * m * m / s
            if est <= 2.5 * m and zeros > 0:
                est = m * np.log(m / zeros)
            out.append((g, float(round_half_away(est,
                                                 round_decimals)),
                        zeros, int(r.sum())))
        return pd.DataFrame(out, columns=["group", "est", "n_zero",
                                          "sum_rho"])

    # registers are O(groups·m) rows — the estimate is driver-sized
    return ray.data.from_pandas(
        estimate(regs.to_pandas()).sort_values("group")
        .reset_index(drop=True))


# ---------------------------------------------------------------------
# Count-Min sketch heavy hitters
# ---------------------------------------------------------------------

CMS_W = 256
CMS_D = 4


def cms_heavy_hitters(tokens: ray.data.Dataset, key_col: str,
                      phi: float = 0.01, w: int = CMS_W,
                      d: int = CMS_D,
                      candidates: str = "distinct"
                      ) -> ray.data.Dataset:
    """Heavy hitters by Count-Min sketch (Cormode & Muthukrishnan
    2005): a d×w integer counter matrix where partials merge by SUM —
    like HLL's max, exact under any combination order, so the
    counters are bit-identical across engines/partitionings and the
    approximate operator is fully oracle-checkable.  Returns
    ``(key, est)`` for every candidate whose CMS estimate (min over
    the d rows) reaches ``phi × N`` — estimates only ever
    OVER-count (ε·N with probability 1−δ), so the output is a
    superset of the true heavy hitters, never a miss.

    Scale shape: per batch one local count + d×w bounded counter
    partial (≤ d·w rows per batch REGARDLESS of batch size), one
    O(d·w) exchange, and a d·w-int broadcast for the candidate
    scoring pass.  ``candidates="distinct"`` (default) scores every
    distinct key — vocabulary-bounded for token streams, and the
    oracle-parity mode; ``candidates="local"`` is the open-domain
    production path: only keys whose LOCAL batch share reaches φ
    become candidates (≤ 1/φ per batch).  By pigeonhole a globally
    φ-heavy key has local share ≥ φ in at least one batch, so the
    pruned set still contains every true heavy hitter — the two
    modes can differ only on collision-inflated FALSE positives
    (asserted by test), which is why "local" is not the oracle
    default."""
    if candidates not in ("distinct", "local"):
        raise ValueError(
            f"candidates must be 'distinct' or 'local', "
            f"got {candidates!r}")

    def counter_partial(batch: pa.Table) -> pa.Table:
        # null keys are excluded (astype(str) would mint a literal
        # 'None' heavy hitter with no oracle counterpart)
        keys = pd.Series(batch[key_col].to_pylist()).dropna()
        local = keys.astype(str).value_counts()
        terms = local.index.tolist()
        cnts = local.to_numpy(np.int64)
        js, cols, outc = [], [], []
        for j in range(d):
            col = (md5_lower64([f"{t}#{j}" for t in terms])
                   % np.uint64(w)).astype(np.int64)
            cj = pd.DataFrame({"col": col, "c": cnts}).groupby(
                "col", as_index=False)["c"].sum()
            js.extend([j] * len(cj))
            cols.extend(cj["col"].tolist())
            outc.extend(cj["c"].tolist())
        return pa.table({
            "j": pa.array(np.asarray(js, np.int64)),
            "col": pa.array(np.asarray(cols, np.int64)),
            "c": pa.array(np.asarray(outc, np.int64)),
        })

    counters = np.zeros((d, w), np.int64)
    total = 0
    agg = tokens.map_batches(counter_partial,
                             batch_format="pyarrow").groupby(
        ["j", "col"]).sum("c")
    for b in agg.iter_batches(batch_format="pyarrow"):
        j = b["j"].to_numpy(zero_copy_only=False)
        col = b["col"].to_numpy(zero_copy_only=False)
        c = b["sum(c)"].to_numpy(zero_copy_only=False)
        counters[j, col] += c
    total = int(counters[0].sum())  # row 0 sums every key once

    if candidates == "distinct":
        cand = tokens.groupby(key_col).count()
    else:
        def local_cand(batch: pa.Table) -> pa.Table:
            ks = pd.Series(batch[key_col].to_pylist()).dropna()
            vc = ks.astype(str).value_counts()
            keep = vc[vc >= phi * max(len(ks), 1)]
            return pa.table({key_col: pa.array(keep.index.tolist(),
                                               pa.string())})

        cand = tokens.map_batches(
            local_cand, batch_format="pyarrow").groupby(
            key_col).count()
    cnt_ref = ray.put(counters)
    thresh = phi * total

    def score(batch: pa.Table) -> pa.Table:
        cm = ray.get(cnt_ref)
        terms = [str(t) for t in batch[key_col].to_pylist()
                 if t is not None]
        est = np.full(len(terms), np.iinfo(np.int64).max, np.int64)
        for j in range(d):
            col = (md5_lower64([f"{t}#{j}" for t in terms])
                   % np.uint64(w)).astype(np.int64)
            est = np.minimum(est, cm[j, col])
        keep = est >= thresh
        return pa.table({
            "key": pa.array([t for t, k in zip(terms, keep) if k],
                            pa.string()),
            "est": pa.array(est[keep]),
        })

    return cand.map_batches(score, batch_format="pyarrow")
