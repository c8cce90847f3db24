"""Delta + variable-byte posting-list codec, numpy-vectorized.

Format (from scratch; role of Lucene's postings codec in the reference —
the reference hides postings inside Lucene's codec, we make them an
explicit artifact, SURVEY.md §1.3):

- VByte: little-endian 7-bit groups, the *last* byte of each value has
  the high bit set (terminator convention), so value boundaries are
  recoverable from the byte stream alone.
- Doc ids are delta-encoded **per block** of ``BLOCK`` entries; the
  first doc id of every block is absolute, so blocks decode
  independently (needed for block-max skipping and for
  concatenating posting shards built on disjoint doc ranges).
- Term frequencies are plain VByte (no delta).

Every function is a pure function of its ndarray input — no state, no
randomness — so encoded artifacts are byte-stable across runs and
parallelism levels.
"""

from __future__ import annotations

import numpy as np

from . import BLOCK


def vb_encode(values: np.ndarray) -> bytes:
    """VByte-encode a 1-D array of non-negative ints (vectorized)."""
    a = np.ascontiguousarray(values, dtype=np.uint64)
    if a.size == 0:
        return b""
    # bytes needed per value
    nb = np.ones(a.size, np.int64)
    v = a >> np.uint64(7)
    while v.any():
        nb += v > 0
        v >>= np.uint64(7)
    ends = np.cumsum(nb)
    out = np.zeros(int(ends[-1]), np.uint8)
    idx = ends - nb  # start offset of each value
    rem = a.copy()
    active = np.ones(a.size, bool)
    while True:
        cur = rem[active]
        last = cur < 128
        byte = (cur & np.uint64(0x7F)).astype(np.uint8)
        byte[last] |= 0x80
        out[idx[active]] = byte
        rem[active] >>= np.uint64(7)
        idx[active] += 1
        still = ~last
        if not still.any():
            break
        nxt = active.copy()
        nxt[active] = still
        active = nxt
    return out.tobytes()


def vb_decode(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode a VByte stream back to a uint64 array (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, np.uint64)
    term = (b & 0x80) > 0
    ends = np.nonzero(term)[0]
    n = ends.size
    if n == 0:
        return np.empty(0, np.uint64)
    if ends[-1] != b.size - 1:
        b = b[: ends[-1] + 1]  # tolerate a trailing partial value
    starts = np.empty(n, np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    payload = (b & np.uint8(0x7F)).astype(np.uint64)
    max_len = int(lens.max())
    # accumulate per byte-position with masked vectorized ops (values
    # are ≤ 10 bytes; the hot case is 1-2 — far faster than np.add.at)
    vals = payload[starts].copy()
    for k in range(1, max_len):
        m = lens > k
        vals[m] |= payload[starts[m] + k] << np.uint64(7 * k)
    return vals


def encode_doc_deltas(doc_ids: np.ndarray) -> bytes:
    """Delta-encode strictly-increasing doc ids with per-BLOCK restarts."""
    d = np.ascontiguousarray(doc_ids, dtype=np.int64)
    if d.size == 0:
        return b""
    deltas = np.empty(d.size, np.int64)
    deltas[0] = d[0]
    deltas[1:] = d[1:] - d[:-1]
    # restart: absolute value at every block boundary
    deltas[::BLOCK] = d[::BLOCK]
    return vb_encode(deltas)


def decode_doc_deltas(buf: bytes | memoryview,
                      starts: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`encode_doc_deltas`.  ``starts`` are the entry
    indices where the stored value restarts absolute (ascending, first
    0); the default is every ``BLOCK``-th entry, one encoded list.  The
    streams of several lists joined end to end decode in ONE call with
    their block starts concatenated, each shifted by the entries before
    it — a list's last block may be short.  Fully vectorized."""
    deltas = vb_decode(buf).astype(np.int64)
    n = deltas.size
    if n == 0:
        return deltas
    if starts is None:
        starts = block_starts(n)
    if len(starts) > 1:
        # a restart becomes the gap from the previous block's last id
        # (its first id plus its in-block deltas), so one cumsum gives
        # every id and no partial sum exceeds the largest id
        first = deltas[starts]
        deltas[starts] = 0
        inblock = np.add.reduceat(deltas, starts)
        first[1:] -= first[:-1] + inblock[:-1]
        deltas[starts] = first
    return np.cumsum(deltas)


def block_starts(n_entries: int) -> np.ndarray:
    """Start indices of each BLOCK-sized block for a posting of n entries."""
    return np.arange(0, n_entries, BLOCK, dtype=np.int64)


def vb_byte_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length per value (used to compute block byte offsets)."""
    a = np.ascontiguousarray(values, dtype=np.uint64)
    nb = np.ones(a.size, np.int64)
    v = a >> np.uint64(7)
    while v.any():
        nb += v > 0
        v >>= np.uint64(7)
    return nb


def encode_posting(doc_ids: np.ndarray, tfs: np.ndarray):
    """Encode one posting shard → (docs_bytes, tfs_bytes, block metadata).

    Returns ``(docs, tfs, block_last_doc, block_off_docs, block_off_tfs)``
    where the offsets are byte offsets of each block start inside the two
    streams (blocks decode independently thanks to per-block delta
    restarts), and ``block_last_doc`` is the max doc id per block —
    the skip list of block-max pruning.
    """
    d = np.ascontiguousarray(doc_ids, dtype=np.int64)
    t = np.ascontiguousarray(tfs, dtype=np.int64)
    assert d.size == t.size
    if d.size == 0:
        z = np.empty(0, np.int64)
        return b"", b"", z, z, z
    deltas = np.empty(d.size, np.int64)
    deltas[0] = d[0]
    deltas[1:] = d[1:] - d[:-1]
    deltas[::BLOCK] = d[::BLOCK]
    doc_lens = vb_byte_lengths(deltas)
    tf_lens = vb_byte_lengths(t)
    starts = block_starts(d.size)
    doc_csum = np.concatenate(([0], np.cumsum(doc_lens)))
    tf_csum = np.concatenate(([0], np.cumsum(tf_lens)))
    block_off_docs = doc_csum[starts]
    block_off_tfs = tf_csum[starts]
    lasts = np.minimum(starts + BLOCK, d.size) - 1
    block_last_doc = d[lasts]
    return (
        vb_encode(deltas),
        vb_encode(t),
        block_last_doc,
        block_off_docs,
        block_off_tfs,
    )


def decode_posting(docs_buf, tfs_buf):
    """Decode a full posting shard → (doc_ids, tfs) int64 arrays."""
    return decode_doc_deltas(docs_buf), vb_decode(tfs_buf).astype(np.int64)


def decode_block(docs_buf, tfs_buf, block_idx, n_entries, off_docs, off_tfs,
                 starts: np.ndarray | None = None):
    """Decode a single block of a posting list without touching the
    rest.  ``starts`` are the blocks' entry starts (default every
    ``BLOCK``-th entry; joined lists pass theirs, see
    :func:`decode_doc_deltas`)."""
    if starts is None:
        starts = block_starts(n_entries)
    s = int(starts[block_idx])
    e = (int(starts[block_idx + 1]) if block_idx + 1 < len(starts)
         else n_entries)
    nd = e - s
    do = int(off_docs[block_idx])
    to = int(off_tfs[block_idx])
    d_end = int(off_docs[block_idx + 1]) if block_idx + 1 < len(off_docs) else None
    t_end = int(off_tfs[block_idx + 1]) if block_idx + 1 < len(off_tfs) else None
    deltas = vb_decode(memoryview(docs_buf)[do:d_end]).astype(np.int64)[:nd]
    tfs = vb_decode(memoryview(tfs_buf)[to:t_end]).astype(np.int64)[:nd]
    return np.cumsum(deltas), tfs


def deleted_mask(ids: np.ndarray, deleted: np.ndarray) -> np.ndarray:
    """Boolean mask: which of the doc ids ``ids`` (any order) are in the
    sorted tombstone array ``deleted``.  O(|ids| log |deleted|)."""
    if not len(deleted):
        return np.zeros(len(ids), bool)
    pos = np.searchsorted(deleted, ids)
    pos[pos == len(deleted)] = 0
    return deleted[pos] == ids
