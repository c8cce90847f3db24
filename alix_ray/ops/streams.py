"""Event-stream operators: sessionization, sliding-window aggregates,
as-of join (training-data-pipeline extensions; the reference has no
event stream — these are the "windowed aggregate / as-of join /
streaming window" custom-operator class of the graft brief,
re-expressed as bounded Ray Data transforms).

Shared shape: every operator shuffles through
:func:`~alix_ray.ops.exchange.exchange` keyed by its entity column
(user for sessions/attribution, window start for windows, time bucket
then event for the range join), computes the per-partition logic
vectorized (numpy over sorted arrays — no per-row Python), and emits
plain Arrow rows.  Timestamps travel as int64 epoch-microseconds end
to end so results compare bit-exactly against SQL oracles.

Scale notes (10^12 events): the session/as-of groupbys move only the
columns used (id, ts, value — never payloads); a user's history must
fit one reducer, which holds for behavioral data (hot users are
bounded); the sliding-window expansion multiplies rows by
window/slide (4 at the defaults) BEFORE the shuffle, but each copy is
a slim (type, window, value) triple and the aggregate is a classic
combine-friendly sum/count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .exchange import exchange

US = 1_000_000


def _ts_us(col) -> np.ndarray:
    """timestamp column → int64 epoch microseconds (unit-normalized:
    a timestamp[ns] input would otherwise cast to nanosecond ints)."""
    return pc.cast(
        pc.cast(col, pa.timestamp("us")), pa.int64()
    ).to_numpy(zero_copy_only=False)


def sessionize(ds: ray.data.Dataset, gap_sec: int = 1800,
               user_col="user_id", ts_col="ts", value_col="value"):
    """Gap-based sessionization: consecutive events of a user belong to
    one session while the gap to the previous event is ≤ ``gap_sec``.

    Returns one row per session: ``(user_id, session_ord, n_events,
    total_value, start_us, end_us)`` with ``session_ord`` numbered 1..
    per user in time order.  Deterministic tie order: (ts, event_id).
    """
    gap_us = gap_sec * US

    def project(batch: pa.Table) -> pa.Table:
        uid = batch[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "user_id": pa.array(uid),
            "event_id": batch["event_id"],
            "ts_us": pa.array(_ts_us(batch[ts_col])),
            "value": batch[value_col],
        })

    def part_sessions(g):
        import pandas as pd

        uid = g["user_id"].to_numpy(np.int64)
        ts = g["ts_us"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        val = g["value"].to_numpy(np.float64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, val = uid[order], ts[order], val[order]
        new_user = np.empty(len(uid), bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        new_sess = new_user.copy()
        new_sess[1:] |= (ts[1:] - ts[:-1]) > gap_us
        starts = np.flatnonzero(new_sess)
        sizes = np.diff(np.append(starts, len(uid)))
        sess_user = uid[starts]
        # per-user ordinal = session index − index of the user's first
        # session (sessions are user-contiguous after the sort)
        first_of_user = np.concatenate((
            [0], np.flatnonzero(sess_user[1:] != sess_user[:-1]) + 1))
        sess_ord = (np.arange(len(starts))
                    - np.repeat(first_of_user,
                                np.diff(np.append(first_of_user,
                                                  len(starts)))) + 1)
        return pd.DataFrame({
            "user_id": sess_user,
            "session_ord": sess_ord.astype(np.int64),
            "n_events": sizes.astype(np.int64),
            "total_value": np.round(np.add.reduceat(val, starts), 6),
            "start_us": ts[starts],
            "end_us": np.maximum.reduceat(ts, starts),
        })

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    part_sessions, "user_id")


def sliding_window_agg(ds: ray.data.Dataset, window_sec: int = 3600,
                       slide_sec: int = 900, type_col="event_type",
                       ts_col="ts", value_col="value"):
    """Sliding-window aggregate per event type: every window of
    ``window_sec`` starting on a ``slide_sec`` boundary gets the count
    and value-sum of the events it covers (an event lands in
    window/slide windows).  Rows: ``(event_type, window_start_us, n,
    total_value)``; empty windows are absent.
    """
    w_us = window_sec * US
    s_us = slide_sec * US

    def expand(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch[ts_col])
        types = batch[type_col]
        val = batch[value_col].to_numpy(zero_copy_only=False)
        k_lo = (ts - w_us) // s_us + 1
        k_hi = ts // s_us
        reps = (k_hi - k_lo + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(ts)), reps)
        # per-copy window index: k_lo[i] + offset within the run
        # (length-safe cumsum slicing — robust to empty batches)
        offs = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(reps)))[:-1], reps)
        ws = (np.repeat(k_lo, reps) + offs) * s_us
        return pa.table({
            "event_type": types.take(pa.array(idx)),
            "window_start_us": pa.array(ws),
            "value": pa.array(val[idx]),
        })

    def part_agg(g):
        import pandas as pd

        out = g.groupby(["event_type", "window_start_us"],
                        as_index=False).agg(
            n=("value", "size"), total_value=("value", "sum"))
        out["n"] = out["n"].astype(np.int64)
        out["total_value"] = out["total_value"].round(6)
        return out

    return exchange(ds.map_batches(expand, batch_format="pyarrow"),
                    part_agg, "window_start_us")


def range_join_count(ds: ray.data.Dataset, probe_type: str = "purchase",
                     match_type: str = "error", radius_sec: int = 900,
                     ts_col="ts"):
    """Non-equi RANGE join within the stream: for every ``probe_type``
    event, count ``match_type`` events (any user) with
    ``|t_match − t_probe| ≤ radius_sec``.

    Partitioning: time is bucketed at ``2·radius`` so any qualifying
    pair falls in the probe's own or an adjacent bucket — probes
    replicate to 3 buckets (slim (bucket, ts) rows), matches land in
    exactly one, and each partition counts vectorized via two
    searchsorteds over its sorted match timestamps.  Rows:
    ``(event_id, ts_us, n_matches)``.
    """
    r_us = radius_sec * US
    bucket_us = 2 * r_us

    def expand(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch[ts_col])
        et = batch["event_type"]
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        if len(eid) and eid.min() < 0:
            # -1 is the internal match sentinel in the partition rows
            raise ValueError(
                "range_join_count requires non-negative event_id values")
        is_p = pc.equal(et, probe_type).to_numpy(zero_copy_only=False)
        is_m = pc.equal(et, match_type).to_numpy(zero_copy_only=False)
        b = ts // bucket_us
        # probes → own + adjacent buckets; matches → own bucket only
        p_ts, p_eid, p_b = ts[is_p], eid[is_p], b[is_p]
        m_ts, m_b = ts[is_m], b[is_m]
        pb = np.concatenate([p_b - 1, p_b, p_b + 1])
        out_ts = np.concatenate([np.tile(p_ts, 3), m_ts])
        out_eid = np.concatenate([np.tile(p_eid, 3),
                                  np.full(len(m_ts), -1, np.int64)])
        out_b = np.concatenate([pb, m_b])
        return pa.table({
            "event_id": pa.array(out_eid),
            "ts_us": pa.array(out_ts),
            "bucket": pa.array(out_b),
        })

    def part_count(g):
        import pandas as pd

        eid = g["event_id"].to_numpy(np.int64)
        ts = g["ts_us"].to_numpy(np.int64)
        bkt = g["bucket"].to_numpy(np.int64)
        rows_e, rows_t, rows_n = [], [], []
        for b in np.unique(bkt):
            m = bkt == b
            is_probe = eid[m] >= 0
            m_ts = np.sort(ts[m][~is_probe])
            p_ts, p_eid = ts[m][is_probe], eid[m][is_probe]
            if len(p_ts) == 0:
                continue
            lo = np.searchsorted(m_ts, p_ts - r_us, side="left")
            hi = np.searchsorted(m_ts, p_ts + r_us, side="right")
            # partial counts: every replica (own + adjacent buckets)
            # counts only ITS bucket's matches; summed downstream
            rows_e.extend(p_eid.tolist())
            rows_t.extend(p_ts.tolist())
            rows_n.extend((hi - lo).tolist())
        df = pd.DataFrame({"event_id": pd.Series(rows_e, dtype="int64"),
                           "ts_us": pd.Series(rows_t, dtype="int64"),
                           "n_matches": pd.Series(rows_n, dtype="int64")})
        return df.groupby(["event_id", "ts_us"], as_index=False).sum()

    parts = exchange(ds.map_batches(expand, batch_format="pyarrow"),
                     part_count, "bucket")

    # final: sum the per-bucket partials per probe (a probe has 3
    # replicas in up to 3 partitions)
    def final(g):
        return g.groupby(["event_id", "ts_us"], as_index=False)[
            "n_matches"].sum()

    return exchange(parts, final, "event_id")


def asof_attribution(ds: ray.data.Dataset, target_type: str = "purchase",
                     source_type: str = "click",
                     horizon_sec: int = 86400,
                     user_col="user_id", ts_col="ts"):
    """As-of join within a stream: for every ``target_type`` event,
    attach the MOST RECENT strictly-earlier ``source_type`` event of
    the same user within ``horizon_sec`` (classic attribution).  Rows:
    ``(event_id, user_id, ts_us, src_event_id, lag_us)`` —
    ``src_event_id``/``lag_us`` are -1 when nothing qualifies.  Tie
    rule among equal source timestamps: highest event_id.
    """
    hz_us = horizon_sec * US

    def project(batch: pa.Table) -> pa.Table:
        uid = batch[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = pc.is_in(batch["event_type"],
                        value_set=pa.array([target_type, source_type]))
        t = pa.table({
            "user_id": pa.array(uid),
            "event_id": batch["event_id"],
            "ts_us": pa.array(_ts_us(batch[ts_col])),
            "is_target": pc.equal(batch["event_type"], target_type),
        }).filter(keep)
        return t

    def part_attr(g):
        import pandas as pd

        uid = g["user_id"].to_numpy(np.int64)
        ts = g["ts_us"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        tgt = g["is_target"].to_numpy(bool)
        out_rows = {"event_id": [], "user_id": [], "ts_us": [],
                    "src_event_id": [], "lag_us": []}
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, tgt = uid[order], ts[order], eid[order], tgt[order]
        bounds = np.flatnonzero(np.concatenate(
            ([True], uid[1:] != uid[:-1], [True])))
        for a, b in zip(bounds[:-1], bounds[1:]):
            s_ts, s_eid = ts[a:b][~tgt[a:b]], eid[a:b][~tgt[a:b]]
            t_ts, t_eid = ts[a:b][tgt[a:b]], eid[a:b][tgt[a:b]]
            if len(t_ts) == 0:
                continue
            out_rows["event_id"].extend(t_eid.tolist())
            out_rows["user_id"].extend([int(uid[a])] * len(t_eid))
            out_rows["ts_us"].extend(t_ts.tolist())
            if len(s_ts) == 0:
                out_rows["src_event_id"].extend([-1] * len(t_eid))
                out_rows["lag_us"].extend([-1] * len(t_eid))
                continue
            # sources sorted by (ts, eid): rightmost with ts < target —
            # ties on ts resolve to the highest event_id (sort order)
            j = np.searchsorted(s_ts, t_ts, side="left") - 1
            jc = np.maximum(j, 0)
            ok = (j >= 0) & ((t_ts - s_ts[jc]) <= hz_us)
            out_rows["src_event_id"].extend(
                np.where(ok, s_eid[jc], -1).tolist())
            out_rows["lag_us"].extend(
                np.where(ok, t_ts - s_ts[jc], -1).tolist())
        return pd.DataFrame({k: pd.Series(v, dtype="int64")
                             for k, v in out_rows.items()})

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    part_attr, "user_id")
