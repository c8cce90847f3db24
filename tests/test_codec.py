import numpy as np
import pytest

from alix_ray import BLOCK
from alix_ray.codec import (
    decode_block,
    decode_doc_deltas,
    decode_posting,
    encode_doc_deltas,
    encode_posting,
    vb_byte_lengths,
    vb_decode,
    vb_encode,
)


def test_vb_roundtrip_small():
    vals = np.array([0, 1, 127, 128, 129, 16383, 16384, 2**31, 2**50], np.uint64)
    assert np.array_equal(vb_decode(vb_encode(vals)), vals)


def test_vb_empty():
    assert vb_encode(np.empty(0, np.uint64)) == b""
    assert vb_decode(b"").size == 0


def test_vb_lengths():
    vals = np.array([0, 127, 128, 16383, 16384], np.uint64)
    lens = vb_byte_lengths(vals)
    assert lens.tolist() == [1, 1, 2, 2, 3]
    assert sum(lens) == len(vb_encode(vals))


@pytest.mark.parametrize("n", [1, 5, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
def test_doc_delta_roundtrip(n):
    rng = np.random.default_rng(0)
    docs = np.cumsum(rng.integers(1, 1000, n)).astype(np.int64)
    assert np.array_equal(decode_doc_deltas(encode_doc_deltas(docs)), docs)


def test_posting_roundtrip_and_blocks():
    rng = np.random.default_rng(1)
    n = 5 * BLOCK + 3
    docs = np.cumsum(rng.integers(1, 50, n)).astype(np.int64)
    tfs = rng.integers(1, 20, n).astype(np.int64)
    db, tb, last_doc, off_d, off_t = encode_posting(docs, tfs)
    d2, t2 = decode_posting(db, tb)
    assert np.array_equal(d2, docs)
    assert np.array_equal(t2, tfs)
    # block metadata
    n_blocks = (n + BLOCK - 1) // BLOCK
    assert len(last_doc) == len(off_d) == len(off_t) == n_blocks
    for bi in range(n_blocks):
        bd, bt = decode_block(db, tb, bi, n, off_d, off_t)
        s, e = bi * BLOCK, min((bi + 1) * BLOCK, n)
        assert np.array_equal(bd, docs[s:e])
        assert np.array_equal(bt, tfs[s:e])
        assert last_doc[bi] == docs[e - 1]


def test_posting_concat_shards():
    """Shards over disjoint doc ranges decode independently and concatenate."""
    docs1 = np.array([3, 9, 10], np.int64)
    docs2 = np.array([100, 150], np.int64)
    tf1 = np.array([1, 2, 3], np.int64)
    tf2 = np.array([4, 5], np.int64)
    e1 = encode_posting(docs1, tf1)
    e2 = encode_posting(docs2, tf2)
    d = np.concatenate([decode_posting(e1[0], e1[1])[0], decode_posting(e2[0], e2[1])[0]])
    assert np.array_equal(d, np.array([3, 9, 10, 100, 150]))


def test_joined_postings_decode_in_one_call(monkeypatch):
    """Encoded lists over disjoint doc ranges, joined end to end, decode
    in ONE ``decode_doc_deltas`` call (one ``vb_decode``) given their
    block starts, to the concatenation of their own decodes; every
    block, a short one in mid-list included, decodes on its own."""
    from alix_ray import codec

    rng = np.random.default_rng(2)
    # a 1-entry list, short last blocks, a list of whole blocks
    sizes = [1, BLOCK + 5, 3, 2 * BLOCK, BLOCK - 1, 1]
    docs_b = tfs_b = b""
    starts, off_d, off_t, lasts, want_d, want_t = ([] for _ in range(6))
    n = first = 0
    for size in sizes:
        d = first + np.cumsum(rng.integers(1, 300, size)).astype(np.int64)
        t = rng.integers(1, 2000, size).astype(np.int64)
        first = int(d[-1]) + 1000
        db, tb, last, od, ot = encode_posting(d, t)
        starts.append(n + np.arange(0, size, BLOCK))
        off_d.append(od + len(docs_b))
        off_t.append(ot + len(tfs_b))
        lasts.append(last)
        dd, tt = decode_posting(db, tb)
        want_d.append(dd)
        want_t.append(tt)
        docs_b += db
        tfs_b += tb
        n += size
    starts, off_d, off_t, lasts = map(np.concatenate,
                                      (starts, off_d, off_t, lasts))
    want_d, want_t = np.concatenate(want_d), np.concatenate(want_t)
    assert (np.diff(starts) < BLOCK).sum() >= 3  # short blocks mid-list
    calls = [0]
    vb_decode_ = codec.vb_decode

    def counted(buf):
        calls[0] += 1
        return vb_decode_(buf)

    monkeypatch.setattr(codec, "vb_decode", counted)
    got = decode_doc_deltas(docs_b, starts)
    assert calls[0] == 1
    assert got.dtype == np.int64 and np.array_equal(got, want_d)
    assert np.array_equal(vb_decode(tfs_b).astype(np.int64), want_t)
    ends = np.append(starts[1:], n)
    for bi, (s, e) in enumerate(zip(starts, ends)):
        bd, bt = decode_block(docs_b, tfs_b, bi, n, off_d, off_t, starts)
        assert np.array_equal(bd, want_d[s:e]), bi
        assert np.array_equal(bt, want_t[s:e]), bi
        assert lasts[bi] == want_d[e - 1]


def test_encode_deterministic():
    docs = np.arange(1, 1000, 3, dtype=np.int64)
    tfs = np.ones_like(docs)
    a = encode_posting(docs, tfs)
    b = encode_posting(docs, tfs)
    assert a[0] == b[0] and a[1] == b[1]


def test_merge_chunking_byte_identical(tmp_path, monkeypatch):
    """The memory-bounding term-boundary chunking must produce exactly
    the same output table as the single-kernel path."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import alix_ray.stages.postings as P

    rng = np.random.default_rng(3)
    n_docs = 400
    stats = pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "tokens": pa.array(rng.integers(5, 60, n_docs)),
        "shard": pa.array(np.zeros(n_docs, np.int32)),
    })
    stats_dir = str(tmp_path / "doc_stats")
    pq.write_to_dataset(stats, stats_dir, partition_cols=["shard"])

    enc = P.SegmentEncode(shard_range=10**6, num_buckets=1)
    batches = []
    for lo in (0, 200):  # two segment batches → interleaved doc ranges
        docs = np.arange(lo, lo + 200, dtype=np.int64)
        terms = [[f"t{rng.integers(0, 40)}" for _ in range(6)]
                 for _ in docs]
        terms = [sorted(set(t)) for t in terms]
        batches.append(enc(pa.table({
            "doc_id": pa.array(docs),
            "terms": pa.array(terms, pa.large_list(pa.large_string())),
            "tfs": pa.array([[int(rng.integers(1, 9))] * len(t)
                             for t in terms],
                            pa.large_list(pa.int64())),
        })))
    group = pa.concat_tables(batches)
    fn = P.make_merge_fn(stats_dir, avgdl=30.0, shard_range=10**6)
    P._NORM_CACHE.clear()
    full = fn(group)
    monkeypatch.setattr(P, "MERGE_CHUNK_BYTES", 64)  # force many chunks
    P._NORM_CACHE.clear()
    chunked = fn(group)
    assert full.equals(chunked)
    assert full.num_rows > 1
