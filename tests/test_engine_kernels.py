"""Serve-path kernels of the BM25 engine, checked against plain
references: the byte-level lexicon search against ``bisect`` over a
sorted ``list[str]``, and the block-window scorer against
``search_exact``, bit for bit."""

import bisect
import pickle
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from conftest import posting_rows

# ASCII, accented and other non-ASCII terms (2-, 3- and 4-byte UTF-8),
# prefix pairs (e/ez, é/éa, ab/abc) and the empty string
VOCAB = sorted({
    "", "a", "ab", "abc", "b", "ça", "e", "ez", "é", "éa", "naïve",
    "ñandú", "œuvre", "z", "zèbre", "日本", "😀",
})
# absent terms before, between and after the vocabulary
ABSENT = ["\x00", " ", "0", "aa", "abd", "c", "d", "e\x00", "ezz", "f",
          "zz", "ÿ", "œ", "Ω", "日", "😀😀", "\U0010ffff"]


def _lexicon_cases():
    for typ in (pa.large_string(), pa.string()):
        for vocab in (VOCAB, VOCAB[1:]):  # with and without ""
            yield typ, vocab, pa.array(vocab, typ)
            # sliced out of a longer array: the Arrow offset is not 0
            padded = ["!"] + vocab + ["\U0010ffff\U0010ffff"]
            yield typ, vocab, pa.array(padded, typ).slice(1, len(vocab))


@pytest.mark.parametrize("typ,vocab,arr", list(_lexicon_cases()))
def test_lexicon_lookup_matches_bisect(typ, vocab, arr):
    from alix_ray.index.engine import BM25Index, TermLexicon, TermStatsMap

    # the premise: Arrow's sort (UTF-8 bytes) is Python's str order
    assert pc.sort_indices(arr).to_pylist() == list(range(len(vocab)))
    lex = TermLexicon(arr)
    assert len(lex) == len(vocab)
    assert list(lex) == vocab
    assert [lex[i] for i in range(len(vocab))] == vocab
    assert lex[-1] == vocab[-1]
    with pytest.raises(IndexError):
        lex[len(vocab)]
    vals = np.arange(len(vocab), dtype=np.int64) * 3 + 1
    stats = TermStatsMap(lex, vals)
    ref = dict(zip(vocab, vals.tolist()))
    for p in VOCAB + ABSENT:
        i = bisect.bisect_left(vocab, p)
        found = i < len(vocab) and vocab[i] == p
        assert lex.lower_bound(p) == i, p
        assert lex.index(p) == (i if found else -1), p
        assert (p in lex) is found
        assert stats.get(p, -7) == ref.get(p, -7)
        assert (p in stats) is found
        if not found:
            with pytest.raises(KeyError):
                stats[p]
    # range_terms reads only the lexicon of its index
    ix = SimpleNamespace(lexicon=lex)
    bounds = [None, "", "a", "ab", "e", "ez", "é", "m", "œ", "\U0010ffff"]
    for lo in bounds:
        for hi in bounds:
            a = 0 if lo is None else bisect.bisect_left(vocab, lo)
            b = len(vocab) if hi is None else bisect.bisect_left(vocab, hi)
            assert BM25Index.range_terms(ix, lo, hi) == vocab[a:max(a, b)]
    back = pickle.loads(pickle.dumps(lex))
    assert list(back) == vocab and back.index("œuvre") == lex.index("œuvre")


def test_empty_lexicon():
    from alix_ray.index.engine import TermLexicon

    lex = TermLexicon(pa.array([], pa.large_string()))
    assert len(lex) == 0 and list(lex) == []
    assert lex.lower_bound("a") == 0 and lex.index("") == -1


# -- block-window scorer --------------------------------------------------

N_DOCS = 300


def _text(i: int) -> str:
    """Two hot terms in (nearly) every doc, two rare ones in a few, and
    two mid ones every 23rd and 29th doc (a few postings in each small
    window, in window after window).  Docs with equal
    (i % 4 == 3, i % 5, i % 7) are the same text, so scores tie; 10,
    150 and 290 all hold both rare terms."""
    words = ["hota"]
    if i % 4 != 3:
        words.append("hotb")
    words += ["pad"] * (i % 5)
    words.append(f"f{i % 7}")
    if i % 140 == 10:
        words.append("rarea")
    if i % 140 == 10 or i == 77:
        words.append("rareb")
    if i % 23 == 0:
        words.append("mida")
    if i % 29 == 0:
        words.append("midb")
    return " ".join(words)


def _docs(lo: int, hi: int):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(lo, hi), pa.int64()),
        "text": pa.array([_text(i) for i in range(lo, hi)]),
    }))


@pytest.fixture(scope="module")
def window_indexes(ray_session, tmp_path_factory):
    """The same documents as a one-shot index and as three generations
    with tombstones, both with multi-shard postings."""
    from alix_ray.index.engine import BM25Index
    from alix_ray.index.incremental import IndexWriter
    from alix_ray.stages.build import IndexBuilder

    one = str(tmp_path_factory.mktemp("oneshot"))
    IndexBuilder(one, analyzer="simple", shard_range=64).build(
        _docs(0, N_DOCS), input_kind="documents", fingerprint="kernels")
    gens = str(tmp_path_factory.mktemp("gens"))
    w = IndexWriter(gens, analyzer="simple", shard_range=64, num_buckets=4)
    for lo in range(0, N_DOCS, 100):
        w.add_documents(_docs(lo, lo + 100), input_kind="documents")
    w.delete_documents(doc_ids=[3, 10, 77, 120, 201, 299])
    ix = BM25Index(gens)
    assert len(ix.gen_dirs) == 3 and ix.n_live == N_DOCS - 6
    return {"oneshot": one, "generations": gens}


QUERIES = [
    ["rarea", "rareb"],              # rare + rare: a sparse window
    ["hota", "hotb"],                # hot + hot: a dense window
    ["mida", "midb"],                # sparse windows in a row
    ["hota", "rarea"],
    ["hotb", "pad", "f3"],
    ["hota", "hotb", "nosuchterm"],
]


@pytest.mark.parametrize("kind", ["oneshot", "generations"])
def test_block_window_bit_identical(window_indexes, kind):
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(window_indexes[kind])
    tied = False
    for q in QUERIES:
        for k in (1, 10, 100):
            want = ix.search_exact(q, k)
            assert want, (q, k)
            scores = [s for _, s in want]
            tied |= len(set(scores)) < len(scores)
            assert ix.search_terms(q, k) == want, (q, k)
            for window in (8, 64, 16384):
                assert ix.search_block_window(q, k, window) == want, (
                    q, k, window)
    assert tied


def test_block_window_one_step_per_window(window_indexes, monkeypatch):
    """Rare + rare fills a window sparsely and hot + hot densely; both
    take the one per-window step (one ``bincount`` per scored window,
    no ``np.unique`` union) and give the exact answer."""
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(window_indexes["oneshot"])
    queries = (["rarea", "rareb"], ["hota", "hotb"])
    # exact answers first; they also memoize the contributions
    want = {tuple(q): ix.search_exact(q, 10) for q in queries}
    calls = {"bincount": 0, "unique": 0}
    for name in calls:
        def spy(*a, _f=getattr(np, name), _n=name, **kw):
            calls[_n] += 1
            return _f(*a, **kw)
        monkeypatch.setattr(np, name, spy)
    for q in queries:
        for window, windows in ((16384, 1), (64, -(-N_DOCS // 64))):
            for n in calls:
                calls[n] = 0
            got = ix.search_block_window(q, 10, window)
            assert 1 <= calls["bincount"] <= windows, (q, window, calls)
            assert calls["unique"] == 0, (q, window, calls)
            assert got == want[tuple(q)], (q, window)


def test_block_window_reads_bounds_off_posting_lists(window_indexes,
                                                    monkeypatch):
    """A repeated warm multi-term query takes each term's block bounds
    straight from its posting list: its skip tests search the list's
    own ``block_last``, and no ``np.concatenate`` call joins a
    ``block_last`` or ``block_max`` array."""
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(window_indexes["generations"])
    q = ["hota", "hotb"]
    want = ix.search_exact(q, 1)
    assert ix.search_block_window(q, 1, 8) == want  # warms the handle
    posts = [ix.postings[t] for t in q]
    assert all(posting_rows(ix, t) > 1 for t in q)
    bounds = [a for p in posts for a in (p.block_last, p.block_max)]
    joined, searched = [], [0]
    concatenate, searchsorted = np.concatenate, np.searchsorted

    def concat_spy(arrays, *a, **kw):
        arrays = list(arrays)
        joined.extend(x for x in arrays if isinstance(x, np.ndarray))
        return concatenate(arrays, *a, **kw)

    def search_spy(a, *args, **kw):
        searched[0] += any(a is p.block_last for p in posts)
        return searchsorted(a, *args, **kw)

    monkeypatch.setattr(np, "concatenate", concat_spy)
    monkeypatch.setattr(np, "searchsorted", search_spy)
    for _ in range(2):
        assert ix.search_block_window(q, 1, 8) == want
    assert searched[0]  # the skip tests ran
    assert joined  # the kernel still joins postings and top-k arrays
    assert not any(np.shares_memory(x, b) for x in joined for b in bounds)


def test_search_wand_scores_one_term(window_indexes):
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(window_indexes["oneshot"])
    want = ix.search_exact(["hota"], 10)
    assert ix.search_wand(["hota", "hota"], 10) == want
    assert ix.search_wand(["nosuchterm"], 10) == []
    with pytest.raises(ValueError):
        ix.search_wand(["hota", "hotb"], 10)


# -- postings directory ---------------------------------------------------

def _posting_rows(ix):
    """term → [(row, block_max scale)] read straight from each
    generation's posting files, and the terms in storage order."""
    import json
    import os

    import pyarrow.parquet as pq

    from alix_ray.stages.store import stage_files

    rows, order = {}, []
    for g in ix.gen_dirs:
        with open(os.path.join(g, "config.json")) as f:
            scale = max(1.0, ix.avgdl / json.load(f)["avgdl"])
        for f in stage_files([g], "postings"):
            for row in pq.read_table(f).to_pylist():
                if row["term"] not in rows:
                    order.append(row["term"])
                rows.setdefault(row["term"], []).append((row, scale))
    return rows, order


def _joined_rows(want):
    """A term's Parquet rows (``[(row, block_max scale)]``) in doc order
    and joined the way a posting list joins them: byte streams end to
    end, block arrays concatenated, byte offsets shifted by the bytes
    before each row, block starts every ``BLOCK`` entries from each
    row's first."""
    from alix_ray import BLOCK
    from alix_ray.codec import decode_posting

    want = sorted(want, key=lambda rs: decode_posting(
        rs[0]["docs"], rs[0]["tfs"])[0][0])
    docs = tfs = b""
    out = {k: [] for k in ("block_last", "off_docs", "off_tfs",
                           "block_max", "block_start")}
    n = 0
    for row, scale in want:
        out["block_last"] += row["block_last"]
        out["off_docs"] += [o + len(docs) for o in row["block_off_docs"]]
        out["off_tfs"] += [o + len(tfs) for o in row["block_off_tfs"]]
        bmax = np.asarray(row["block_max"], np.float64)
        if scale != 1.0:
            bmax = np.minimum(bmax * scale, 1.0)
        out["block_max"].append(bmax)
        out["block_start"] += [n + j * BLOCK
                               for j in range(len(row["block_last"]))]
        docs += row["docs"]
        tfs += row["tfs"]
        n += row["df"]
    out["block_max"] = np.concatenate(out["block_max"])
    return docs, tfs, out, n


@pytest.mark.parametrize("kind", ["oneshot", "generations"])
def test_postings_directory_matches_files(window_indexes, kind):
    """Every term is ONE posting list equal to its Parquet rows joined
    in doc order: blob bytes, block arrays, the generation-scaled
    ``block_max``, ``df`` summed over the rows; membership, iteration
    and the storage-order ``items()`` agree with the files."""
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(window_indexes[kind])
    rows, order = _posting_rows(ix)
    if kind == "generations":
        assert any(s != 1.0 for s in ix.postings._file_scale)
    assert len(ix.postings) == len(rows)
    assert sorted(ix.postings) == sorted(rows)
    assert [t for t, _ in ix.postings.items()] == order
    assert "nosuchterm" not in ix.postings
    with pytest.raises(KeyError):
        ix.postings["nosuchterm"]
    multi = False
    for term, want in rows.items():
        assert term in ix.postings
        got = ix.postings[term]
        assert posting_rows(ix, term) == len(want), term
        multi |= len(want) > 1
        docs, tfs, arrays, n = _joined_rows(want)
        assert type(got.docs_buf) is bytes and got.docs_buf == docs
        assert type(got.tfs_buf) is bytes and got.tfs_buf == tfs
        for field in ("block_last", "off_docs", "off_tfs", "block_start"):
            arr = getattr(got, field)
            assert arr.dtype == np.int64
            np.testing.assert_array_equal(arr, arrays[field])
        assert got.block_max.dtype == np.float64
        np.testing.assert_array_equal(got.block_max, arrays["block_max"])
        assert got.n == n == ix.df[term]
        # doc order: the joined list decodes strictly ascending
        assert (np.diff(got.decode()[0]) > 0).all(), term
    assert multi  # doc-range shards: some terms span several rows


def test_postings_shards_copy_their_rows(window_indexes):
    """A memoized posting list holds copies, never views of its cached
    row groups, so it does not pin a group's buffers after eviction."""
    from alix_ray.index.engine import BM25Index

    ix = BM25Index(window_indexes["generations"])
    store = ix.postings
    posts = [store[t] for t in store]
    cached = [a for group in store._rg_cache.values()
              for v in group.values()
              for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert cached and any(posting_rows(ix, t) > 1 for t in store)
    for p in posts:
        assert type(p.docs_buf) is bytes and type(p.tfs_buf) is bytes
        for arr in (p.block_last, p.off_docs, p.off_tfs, p.block_max,
                    p.block_start):
            assert not any(np.shares_memory(arr, vals) for vals in cached)


def test_term_decodes_once_as_its_rows(window_indexes, monkeypatch):
    """A term's posting list decodes with one ``vb_decode`` per stream
    to the concatenation of its rows' own decodes in doc order; block
    probes (``contains``/``tf_of``) agree with it on every doc,
    across the seams between rows, without a full decode."""
    from alix_ray import codec
    from alix_ray.codec import decode_posting
    from alix_ray.index import engine
    from alix_ray.stages.store import resolve_stage

    ix = engine.BM25Index(window_indexes["generations"])
    rows, _ = _posting_rows(ix)
    calls = [0]
    vb_decode = codec.vb_decode

    def counted(buf):
        calls[0] += 1
        return vb_decode(buf)

    monkeypatch.setattr(codec, "vb_decode", counted)
    monkeypatch.setattr(engine, "vb_decode", counted)
    seams = 0
    probe = np.arange(-1, ix.n_slots + 1)
    for term, want in rows.items():
        parts = sorted((decode_posting(r["docs"], r["tfs"])
                        for r, _ in want), key=lambda dt: dt[0][0])
        post = ix.postings[term]
        calls[0] = 0
        d, t = post.decode()
        assert calls[0] == 2, term
        np.testing.assert_array_equal(d, np.concatenate([p[0] for p in parts]))
        np.testing.assert_array_equal(t, np.concatenate([p[1] for p in parts]))
        ref_tf = np.zeros(len(probe), np.int64)
        ref_tf[np.searchsorted(probe, d)] = t
        # a fresh list probes block by block (contains never decodes
        # the whole list)
        cold = engine.BM25Index(window_indexes["generations"]).postings[term]
        np.testing.assert_array_equal(cold.contains(probe), ref_tf > 0)
        assert cold._decoded is None
        # blocks on both sides of a seam between two rows
        for (a, _), (b, _) in zip(parts, parts[1:]):
            seams += 1
            near = np.array([a[-1], a[-1] + 1, b[0] - 1, b[0]])
            sel = np.isin(probe, near)
            np.testing.assert_array_equal(cold.tf_of(probe[sel]),
                                          ref_tf[sel])
        np.testing.assert_array_equal(cold.tf_of(probe), ref_tf)
    assert seams
    # rows join in doc order whatever order storage lists them in
    rev = engine.PostingStore(
        [(resolve_stage(g, "postings"), 1.0) for g in ix.gen_dirs[::-1]],
        ix.lexicon)
    for term in rows:
        np.testing.assert_array_equal(rev[term].decode()[0],
                                      ix.postings[term].decode()[0])


def test_postings_term_missing_from_lexicon(window_indexes):
    """A posting term that term_stats lacks is a broken index: open
    refuses it."""
    from alix_ray.index.engine import PostingStore, TermLexicon
    from alix_ray.stages.store import resolve_stage

    lex = TermLexicon(pa.array(["hota", "hotb"], pa.large_string()))
    with pytest.raises(ValueError, match="term_stats lacks"):
        PostingStore(resolve_stage(window_indexes["oneshot"], "postings"),
                     lex)


def test_postings_row_group_cache_is_lru(window_indexes):
    """A row group touched again moves to the tail of the cache, so the
    next eviction takes the least recently used group instead."""
    from alix_ray.index.engine import BM25Index

    store = BM25Index(window_indexes["generations"]).postings
    keys = [(fi, rg) for fi, pf in enumerate(store._pf)
            for rg in range(pf.metadata.num_row_groups)]
    assert len(keys) >= 3
    store._RG_CACHE_MAX = 2
    a, b, c = keys[:3]
    first = store._row_group(*a)
    store._row_group(*b)
    assert store._row_group(*a) is first  # a hit, re-inserted at the tail
    store._row_group(*c)  # evicts b, the least recently used
    assert list(store._rg_cache) == [a, c]
    assert store._row_group(*a) is first


# -- lookups of a cold session and the query-string entry -----------------

def test_cold_session_searches_lexicon_once_per_term(window_indexes,
                                                     monkeypatch):
    """A fresh handle answering a session of term and parsed queries
    binary-searches the lexicon at most once per distinct query term:
    the postings, df and idf lookups of a term share one position."""
    from alix_ray.index.engine import BM25Index, TermLexicon

    calls = []
    lower_bound = TermLexicon.lower_bound
    monkeypatch.setattr(TermLexicon, "lower_bound",
                        lambda lex, t: calls.append(t) or lower_bound(lex, t))
    session = [["hota", "hotb"], ["rarea", "rareb", "nosuchterm"],
               ["hota", "rarea"], ["mida"], ["hotb", "pad", "f3"],
               "mida midb", "rarea (f3 nosuchterm)", "hota"]
    for kind in ("oneshot", "generations"):
        calls.clear()
        ix = BM25Index(window_indexes[kind])
        terms = set()
        for q in session:
            if isinstance(q, str):
                got = ix.search(q, 10)
                q = q.replace("(", " ").replace(")", " ").split()
            else:
                got = ix.search_terms(q, 10)
            assert got == ix.search_exact(q, 10), q
            terms.update(q)
        assert calls and len(calls) <= len(terms), (kind, sorted(calls))
        assert len(set(calls)) == len(calls), kind


def test_lexicon_position_memo_is_bounded(monkeypatch):
    from alix_ray.index.engine import TermLexicon

    monkeypatch.setattr(TermLexicon, "_INDEX_MEMO_MAX", 4)
    lex = TermLexicon(pa.array(VOCAB, pa.large_string()))
    for _ in range(2):
        for p in VOCAB + ABSENT:
            i = bisect.bisect_left(VOCAB, p)
            found = i < len(VOCAB) and VOCAB[i] == p
            assert lex.index(p) == (i if found else -1), p
            assert len(lex._memo) <= 4


DOCS_FR = [
    "Les chats mangent des pommes de terre au jardin.",
    "Le chemin de fer traverse le jardin des chats.",
    "Une pomme de terre et une pomme rouge.",
    "Les chiens courent sur le chemin de fer.",
    "Le jardin du chemin est fleuri, les chats dorment.",
    "Parce que la pomme de terre pousse au jardin.",
] * 3

PARSED = [
    "chats jardin",
    'chats "pomme de terre"',
    '"chemin de fer" (chiens chats)',
    "(jardin pomme) chemin",
    "chat* jardin",
    "pomme de terre",
    "Chats CHATS chats",
    "nosuchword jardin",
]


@pytest.fixture(scope="module")
def french_index(ray_session, tmp_path_factory):
    import ray.data

    from alix_ray.stages.build import IndexBuilder

    out = str(tmp_path_factory.mktemp("french"))
    IndexBuilder(out).build(ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(DOCS_FR)), pa.int64()),
        "text": pa.array(DOCS_FR),
    })), input_kind="documents", fingerprint="memo")
    return out


def test_parsed_queries_through_the_word_memo(french_index):
    """Groups, quoted MWE phrases and wildcard words answer the same
    before and after the handle's word memo holds their words, and
    parse to what the parser gives with the bare analyzer."""
    from alix_ray.index.engine import BM25Index
    from alix_ray.query.parser import parse_query

    ix = BM25Index(french_index)
    bare = BM25Index(french_index)
    want = {q: parse_query(q, bare.analyzer(), bare.lexicon) for q in PARSED}
    assert any("_" in t for q in PARSED for t in want[q])  # an MWE term
    assert any(len(want[q]) > 2 for q in PARSED)  # a wildcard expansion
    for _ in range(3):
        for q in PARSED:
            assert ix.parse(q) == want[q], q
            for k in (1, 10):
                assert ix.search(q, k) == ix.search(q, k, exact=True), q
                assert ix.search(q, k) == bare.search_exact(want[q], k), q
    assert ix._words.memo


def test_query_words_reach_the_analyzer_in_one_call():
    """A query's phrase bodies and bare words go to the analyzer in one
    ``terms_of`` call (one walk), each analyzed as its own text; words
    the memo holds are not analyzed again."""
    from alix_ray.analysis import FrenchAnalyzer
    from alix_ray.query.parser import WordMemo, parse_query

    fa = FrenchAnalyzer()
    calls = []

    class Spy:
        def terms_of(self, texts):
            calls.append(list(texts))
            return fa.terms_of(texts)

    q = '"parce que" la maison (porte chat*) x_y maison'
    memo = WordMemo(Spy(), 8)
    want = ["parce_que", "maison", "porte", "chats", "x_y", "maison"]
    assert parse_query(q, memo, lexicon=["chats"]) == want
    assert calls == [["parce que", "la", "maison", "porte"]]
    assert parse_query(q + " toit", memo, lexicon=["chats"]) == want + ["toit"]
    assert calls[1:] == [["toit"]]
    texts = ["la maison", "", "parce que", "Fin. Début"]
    assert fa.terms_of(texts) == [fa.terms(t) for t in texts]


def test_word_memo_is_bounded_and_per_handle(french_index, monkeypatch):
    from alix_ray.index.engine import BM25Index
    from alix_ray.query.parser import parse_query

    monkeypatch.setattr(BM25Index, "_WORD_MEMO_MAX", 3)
    ix = BM25Index(french_index)
    assert ix._words is None  # a fresh handle has analyzed nothing
    for q in PARSED * 2:
        assert ix.parse(q) == parse_query(q, ix.analyzer(), ix.lexicon), q
        assert 0 < len(ix._words.memo) <= 3
    assert BM25Index(french_index)._words is None
