"""The coarse-key exchange helper and the partition-count independence
of the ops built on it."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from alix_ray.ops import exchange as xc

US = 1_000_000


@pytest.mark.parametrize("parts", [None, 3])
def test_one_key_meets_in_one_call(ray_session, monkeypatch, parts):
    if parts is not None:
        monkeypatch.setattr(xc, "num_partitions", lambda: parts)
    keys = np.arange(40) % 13
    ds = ray.data.from_pandas(pd.DataFrame(
        {"k": keys, "v": np.arange(40)})).repartition(5)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        call = np.random.default_rng().integers(1 << 62)
        return pd.DataFrame({"call": call, "k": np.unique(g["k"]),
                             "cols": ",".join(g.columns), "n": len(g)})

    out = xc.exchange(ds, fn, "k").to_pandas()
    per_key = out.groupby("k")["call"].nunique()
    assert sorted(per_key.index) == list(range(13))
    assert (per_key == 1).all()  # every key in exactly one call
    assert set(out["cols"]) == {"k,v"}  # no partition column
    assert out.drop_duplicates("call")["n"].sum() == 40
    if parts is not None:
        assert out["call"].nunique() <= parts


def test_route_drops_schema_metadata():
    """Ray's reduce tasks hash the block schemas; a pandas metadata dict
    makes the schema unhashable, so the routed blocks carry none."""
    import pyarrow as pa

    df = pd.DataFrame({"k": np.arange(10) % 4, "v": np.arange(10)})
    batch = pa.Table.from_pandas(df)
    assert batch.schema.metadata  # the pandas index info
    out = xc._route(batch, "k", np.uint64(3))
    assert out.schema.metadata is None
    hash(out.schema)
    assert out.column_names == ["k", "v", xc._PART]
    assert out.drop([xc._PART]).equals(batch.replace_schema_metadata(None))
    part = out[xc._PART].to_numpy()
    assert ((part >= 0) & (part < 3)).all()
    # one key, one partition
    assert pd.DataFrame({"k": df["k"], "p": part}).groupby("k")[
        "p"].nunique().eq(1).all()


def test_docs_text_drops_schema_metadata(ray_session, tmp_path):
    """``_docs_text`` repartitions a pandas-written documents.parquet;
    the blocks entering that repartition must carry no pandas metadata
    dict, so its reduce tasks can hash the block schemas."""
    import pyarrow.parquet as pq

    from alix_ray.pipelines.queries import _docs_text

    pd.DataFrame({"doc_id": np.arange(20), "text": ["t"] * 20}).to_parquet(
        tmp_path / "documents.parquet")
    assert pq.read_schema(tmp_path / "documents.parquet").metadata
    ds = _docs_text(str(tmp_path))
    assert ds.count() == 20
    blocks = ray.get(ds.to_arrow_refs())
    assert all(b.schema.metadata is None for b in blocks)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _run_exact_dedup():
    from alix_ray.ops.dedup import exact_dedup

    texts = [f"t{i % 9}" for i in range(30)]
    ds = ray.data.from_items([{"doc_id": i, "text": t}
                              for i, t in enumerate(texts)]).repartition(4)
    return exact_dedup(ds).to_pandas()[["doc_id", "text"]]


def _run_sessionize():
    from alix_ray.ops.streams import sessionize

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "event_id": np.arange(60), "user_id": rng.integers(0, 8, 60),
        "value": rng.integers(0, 5, 60).astype(float),
        "ts": pd.to_datetime(rng.integers(0, 4 * 3600, 60) * US,
                             unit="us")})
    return sessionize(ray.data.from_pandas(df).repartition(4)).to_pandas()


def _run_line_dedup():
    from alix_ray.ops.cleaning import line_dedup_from_lines

    rows = [{"doc_id": d, "line_no": n, "line": f"l{(d * 3 + n) % 7}"}
            for d in range(10) for n in range(4)]
    ds = ray.data.from_items(rows).repartition(3)
    return line_dedup_from_lines(ds).to_pandas()


def _run_snapshot_diff():
    from alix_ray.ops.crawl import snapshot_diff

    old = ray.data.from_items([{"doc_id": i, "text": f"x{i % 5}"}
                               for i in range(25)]).repartition(3)
    new = ray.data.from_items([{"doc_id": i, "text": f"x{i % 4}"}
                               for i in range(5, 35)]).repartition(3)
    return snapshot_diff(old, new).to_pandas()


def _run_tfidf_pairs():
    from alix_ray.ops.similarity import tfidf_cosine_pairs

    words = ["apple", "banana", "cherry", "melon", "kiwi", "plum"]
    docs = [{"doc_id": i, "text": " ".join(words[j % 6]
                                           for j in range(i, i + 3 + i % 3))}
            for i in range(16)]
    ds = ray.data.from_items(docs).repartition(3)
    return tfidf_cosine_pairs(ds, threshold=0.1, df_cap=100).to_pandas()


def _run_ppl_join(monkeypatch):
    from alix_ray.ops import lm

    monkeypatch.setattr(lm, "PPL_BROADCAST_MAX_GRAMS", -1)
    docs = pd.DataFrame({"doc_id": range(6), "text": [
        "the cat sat on the mat", "the cat the cat the cat",
        "a rare zebra grazed", "the dog sat", "x", "mat on the cat"]})
    return lm.perplexity(ray.data.from_pandas(docs).repartition(3)
                         ).to_pandas()


OPS = {
    "exact_dedup": _run_exact_dedup,
    "sessionize": _run_sessionize,
    "line_dedup_from_lines": _run_line_dedup,
    "snapshot_diff": _run_snapshot_diff,
    "tfidf_cosine_pairs": _run_tfidf_pairs,
    "ppl_join": _run_ppl_join,
}


def _run(name, monkeypatch):
    fn = OPS[name]
    out = fn(monkeypatch) if name == "ppl_join" else fn()
    return _sorted(out)


@pytest.mark.parametrize("parts", [1, 7])
@pytest.mark.parametrize("name", list(OPS))
def test_outputs_independent_of_partition_count(ray_session, monkeypatch,
                                                name, parts):
    want = _run(name, monkeypatch)
    assert len(want)
    monkeypatch.setattr(xc, "num_partitions", lambda: parts)
    got = _run(name, monkeypatch)
    pd.testing.assert_frame_equal(got, want[got.columns])
