"""Analyzer chains: canonical French chain + SQL-mirrorable simple chain.

``FrenchAnalyzer`` composes the canonical chain in reference order
(``fr/FrenchAnalyzer.java:288-305``).  It is the *stateful* part of the
pipeline: lexicons are built once per instance — instantiate once per
Ray actor (``map_batches(AnalyzeActor, concurrency=N)``), never per
batch (SURVEY.md §2.3).

Hot path: :meth:`FrenchAnalyzer.walk` takes a whole batch of texts as
one token stream of surface ids (:class:`~.tokenizer.Stream`), never
one ``Tok`` per token.  The scan looks each space-delimited piece up in
the instance's :class:`~.filters.LexemeTable`, which holds every
surface's context-free results as id-indexed numpy columns (clitic
parts, replace and all-caps rewrites, lexicon POS and lemma, stop,
MWE-start and tagger flags, cleanup verdict), so those filters are
gathers over the batch's id array.  What depends on context walks the
array only where a surface flag says it can fire: dot resolution,
boundary coalescing (documents with markup), the tagger (documents
holding one of its ambiguous words) and MWE matching (from the start
tokens).  Reducers turn one walk into the build's rows
(:meth:`FrenchAnalyzer.count_rows`: per-row term counts, terms in
code-point order), one document's positions (:meth:`analyze`) or
counts (:meth:`analyze_counts`), terms (:meth:`terms_of`), or the
``Tok`` view that reports and tests read (:meth:`_chain`).  The
per-token filters of :mod:`.filters`, composed as ``steps``, are the
reference rules the walk must equal.

Ids are local to one analyzer instance in one process: every result
leaves the walk as strings, and the table may start over (past
``filters.LEXEME_TABLE_MAX``) only between walks, when no id is live
— never inside a batch or a document.

``SimpleAnalyzer`` is a deliberately SQL-expressible profile
(lowercase + split on non-alphanumeric runs) used for the DuckDB
oracle-checked index queries over the driver's ``documents`` table —
its exact SQL mirror is ``regexp_split_to_array(lower(text),
'[^a-z0-9]+')`` with empties removed.
"""

from __future__ import annotations

import re
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import resources
from .filters import (
    CL_HOLE,
    CL_ONE_CHAR,
    EMIT,
    F_AMB,
    F_MWE,
    F_ONE_CHAR,
    F_SPLIT,
    PARA,
    SECTION,
    LexemeTable,
    MweAutomaton,
    boundary_filter,
    clitic_filter,
    lemma_filter,
    mwe_filter,
    ocr_garbage_filter,
    pers_initial_filter,
    replace_filter,
    sentence_start_lowercase_filter,
    stop_filter,
    uppercase_filter,
)
from .tokenizer import (
    DEFAULT_BREVIDOTS,
    EMPTY,
    F_XML,
    KIND_NAMES,
    WORD,
    MarkupTokenizer,
    Stream,
    Tok,
    _spans,
)


class FrenchAnalyzer:
    """text/HTML → ``(terms, positions, width, n_tokens)`` per document."""

    def __init__(
        self,
        stopwords=resources.STOPWORDS,
        lexicon=resources.LEMMA_LEXICON,
        normalization=resources.NORMALIZATION,
        ucwords=resources.UCWORDS,
        mwe_form=resources.MWE_FORM,
        mwe_lemma=resources.MWE_LEMMA,
        brevidots=DEFAULT_BREVIDOTS,
        ocr_garbage: bool = False,
        sentence_start_lower: bool = False,
        pers_initial: bool = False,
        tagger="default",
    ):
        self.tokenizer = MarkupTokenizer(brevidots=brevidots)
        self.stopwords = frozenset(stopwords)
        self.lexicon = dict(lexicon)
        self.normalization = dict(normalization)
        self.ucwords = frozenset(ucwords)
        self.automaton = MweAutomaton(mwe_form, mwe_lemma)
        self.ocr_garbage = ocr_garbage
        self.sentence_start_lower = sentence_start_lower
        self.pers_initial = pers_initial
        # pluggable sentence-context POS model (PosTaggingFilter.java:66
        # slot): ``tagger(toks) -> None`` sets ``t.pos`` in place over
        # the full token sequence BEFORE lexicon lookup — its tags take
        # precedence (the lexicon only fills pos where unset).  A tagger
        # with ``ambiguous`` (the words it may tag) and ``tags(words)``
        # (``[(i, pos)]`` over the lowercased words, non-words as
        # ``tagger._PUN``) runs on the walk's arrays, and only on
        # documents holding an ambiguous word; any other callable gets
        # ``Tok`` objects.  The SHIPPED default is the tiny averaged
        # perceptron (analysis/tagger.py) that disambiguates noun/verb
        # homographs from closed-class context — the stand-in for the
        # reference's OpenNLP model; pass ``tagger=None`` for the pure
        # lexicon chain.
        if tagger == "default":
            from .tagger import default_tagger

            tagger = default_tagger()
        self.tagger = tagger
        self.lexemes = LexemeTable(
            self.tokenizer, self.lexicon, self.normalization, self.ucwords,
            self.stopwords, self.automaton,
            getattr(tagger, "ambiguous", ()),
            [name for name in ("ocr_garbage", "sentence_start_lower",
                               "pers_initial") if getattr(self, name)])
        self.steps = self._steps()
        self.stages = self._stages()

    def _steps(self) -> list:
        """The reference chain: the per-token filters after the
        tokenizer, in chain order, as ``(name, list[Tok] → list[Tok])``
        pairs (optional members per constructor flags — SURVEY.md §2.2
        optional chain rows).  The walk must equal it."""
        steps = []
        if self.pers_initial:
            steps.append(("pers_initial", pers_initial_filter))
        steps += [
            ("boundary", boundary_filter),
            ("clitic", clitic_filter),
            ("replace", partial(replace_filter, mapping=self.normalization)),
            ("uppercase", partial(uppercase_filter, ucwords=self.ucwords)),
        ]
        if self.sentence_start_lower:
            steps.append(("sentence_start_lower",
                          partial(sentence_start_lowercase_filter,
                                  lexicon=self.lexicon)))
        if self.tagger is not None:
            steps.append(("tagger", self._tag))
        steps += [
            ("lemma", partial(lemma_filter, lexicon=self.lexicon)),
            ("mwe", partial(mwe_filter, automaton=self.automaton)),
            ("stop", partial(stop_filter, stopwords=self.stopwords)),
        ]
        if self.ocr_garbage:
            steps.append(("ocr_garbage", ocr_garbage_filter))
        return steps

    def _tag(self, toks):
        self.tagger(toks)
        return toks

    # ---- the walk ----------------------------------------------------
    def _stages(self) -> list:
        """The walk after the scan, in chain order, as ``(name,
        Stream → Stream)`` pairs.  The stop filter has no stage: a
        WORD token is a stop word iff its final surface is."""
        lx = self.lexemes
        stages = [("dots", lx.resolve_dots)]
        if self.pers_initial:
            stages.append(("pers_initial", self._pers_initial))
        stages += [("boundary", self._boundary), ("expand", self._expand)]
        if self.sentence_start_lower:
            stages.append(("sentence_start_lower", self._sentence_start))
        if self.tagger is not None:
            stages.append(("tagger", self._tagger))
        stages += [("lemma", self._lemma), ("mwe", self._mwe)]
        if self.ocr_garbage:
            stages.append(("ocr_garbage", self._ocr))
        return stages

    def walk(self, texts) -> Stream:
        """Every document of ``texts`` through the chain, as one token
        stream of surface ids (see :mod:`.tokenizer` ``Stream``).  Its
        ids are valid until the next :meth:`_done`."""
        st = self.lexemes.scan(texts)
        for _, stage in self.stages:
            st = stage(st)
        return st

    def _done(self, out):
        """A walk's results, once they hold no id."""
        self.lexemes.settle()
        return out

    def _pers_initial(self, st: Stream) -> Stream:
        c = self.lexemes.cols
        sid, doc = st.sid, st.doc
        cand = np.flatnonzero(c.initial[sid[:-1]] & c.capword[sid[1:]]
                              & (doc[:-1] == doc[1:]))
        if not len(cand):
            return st
        if st.pos is None:
            st.pos = np.zeros(len(sid), np.int16)
        text = self.lexemes.text
        propn = self.lexemes.pos_code("PROPN")
        keep = np.ones(len(sid), bool)
        last = -2
        for i in cand.tolist():
            if i == last + 1:
                continue  # the second token of the previous merge
            sid[i] = self.lexemes.intern(
                f"{text[sid[i]][0]}. {text[sid[i + 1]]}")
            st.pos[i] = propn
            st.end[i] = st.end[i + 1]
            keep[i + 1] = False
            last = i
        st.take(keep)
        return self.lexemes.seen(st)

    def _boundary(self, st: Stream) -> Stream:
        """Markup drops; a run of tags with a closing paragraph or
        section element becomes one boundary mark, at the tag that set
        it last (section wins over paragraph)."""
        if not st.seen & F_XML:
            return st
        c = self.lexemes.cols
        sid = st.sid
        x = (c.flags[sid] & F_XML).nonzero()[0]
        keep = np.ones(len(sid), bool)
        keep[x] = False
        marks = []
        at = code = -1  # the run's pending mark
        prev = prev_doc = -2
        for i, b, d in zip(x.tolist(), c.bcode[sid[x]].tolist(),
                           st.doc[x].tolist()):
            if i != prev + 1 or d != prev_doc:  # a new run of tags
                if at >= 0:
                    marks.append((at, code))
                at = code = -1
            if b == 2 or b == 1 and code != 2:
                at, code = i, b
            prev, prev_doc = i, d
        if at >= 0:
            marks.append((at, code))
        for i, b in marks:
            keep[i] = True
            sid[i] = SECTION if b == 2 else PARA
        st.take(keep)
        return self.lexemes.seen(st)

    def _expand(self, st: Stream) -> Stream:
        """Clitic split, replacements and all-caps rules: one gather
        over the table (a split repeats its token)."""
        lx = self.lexemes
        c = lx.cols
        sid = st.sid
        if st.pos is not None:
            st.pos[c.xsplit[sid]] = 0
        if st.seen & F_SPLIT:
            xn = c.xn[sid]
            st.take(np.repeat(np.arange(len(sid)), xn))
            st.sid = lx.parts.sid[_spans(c.x0[sid], xn)]
        else:
            st.sid = c.x1[sid]
        return lx.seen(st)

    def _sentence_start(self, st: Stream) -> Stream:
        """A sentence's first word (stream start or after sentence
        punctuation or a boundary; clause punctuation is transparent)
        becomes its lowercase when the lexicon holds that."""
        c = self.lexemes.cols
        sid, doc = st.sid, st.doc
        cat = c.sentcat[sid]
        nt = np.flatnonzero(cat != 2)
        if not len(nt):
            return st
        pending = np.ones(len(nt), bool)
        pending[1:] = (cat[nt[:-1]] == 1) | (doc[nt[1:]] != doc[nt[:-1]])
        cand = nt[pending & (cat[nt] == 0)]
        low = c.ssl[sid[cand]]
        ok = low >= 0
        sid[cand[ok]] = low[ok]
        return self.lexemes.seen(st)

    def _tagger(self, st: Stream) -> Stream:
        tagger = self.tagger
        lx = self.lexemes
        tags = getattr(tagger, "tags", None)
        if tags is not None and not st.seen & F_AMB:
            return st
        if st.pos is None:
            st.pos = np.zeros(len(st.sid), np.int16)
        bounds = st.bounds()
        if tags is None:  # a plain callable tags Tok objects
            for d in range(st.n_docs):
                lo, hi = bounds[d], bounds[d + 1]
                toks = self._toks(st, lo, hi)
                tagger(toks)
                st.pos[lo:hi] = [lx.pos_code(t.pos) for t in toks]
            return st
        from .tagger import _PUN

        c = lx.cols
        low = lx.low
        amb = st.doc[c.flags[st.sid] & F_AMB > 0]
        for d in np.unique(amb).tolist():
            lo = bounds[d]
            sids = st.sid[lo:bounds[d + 1]].tolist()
            words = [low[s] if w else _PUN
                     for s, w in zip(sids, c.word[sids].tolist())]
            for i, label in tags(words):
                st.pos[lo + i] = lx.pos_code(label)
        return st

    def _lemma(self, st: Stream) -> Stream:
        """Lexicon POS (where no tagger set one), lemma and hit flag."""
        c = self.lexemes.cols
        sid = st.sid
        hpos = c.hpos[sid]
        st.pos = hpos if st.pos is None else np.where(st.pos == 0, hpos,
                                                      st.pos)
        st.lemma = c.lem[sid]
        st.lex = c.lex[sid]
        return st

    def _mwe(self, st: Stream) -> Stream:
        """Maximal-munch MWE matching from the tokens whose form or
        lemma can start an entry; a match becomes one WORD token."""
        if not st.seen & F_MWE:
            return st
        lx = self.lexemes
        c = lx.cols
        sid, lemma = st.sid, st.lemma
        starts = (c.flags[sid] & F_MWE).nonzero()[0]
        ends = st.bounds()[st.doc[starts] + 1]
        auto = self.automaton
        low = lx.low
        word = c.word
        keep = np.ones(len(sid), bool)

        def words(a, b):  # (form, lemma-or-form) of tokens a.. until b
            for x, y in zip(sid[a:b].tolist(), lemma[a:b].tolist()):
                if not word[x]:
                    return
                yield low[x], low[y if y >= 0 else x]

        i = 0
        for s, e in zip(starts.tolist(), ends.tolist()):
            if s < i:
                continue  # inside the previous match
            m = auto.longest(words(s, min(s + auto.max_len, e)))
            if m is None:
                continue
            length, canonical, pos = m
            i = s + length
            sid[s] = x = lx.intern(canonical)
            st.seen |= int(c.flags[x])
            st.pos[s] = lx.pos_code(pos)
            lemma[s] = -1
            st.lex[s] = False
            st.end[s] = st.end[i - 1]
            keep[s + 1:i] = False
        st.take(keep)
        return st

    def _ocr(self, st: Stream) -> Stream:
        """Unresolved WORDs (not stop words) of garbage shape empty."""
        c = self.lexemes.cols
        sid = st.sid
        bad = np.flatnonzero((c.kind[sid] == WORD) & ~c.stop[sid]
                             & ~(st.lex | c.ocr[sid]))
        sid[bad] = EMPTY
        st.pos[bad] = 0
        st.lemma[bad] = -1
        st.lex[bad] = False
        return st

    # ---- reducers ----------------------------------------------------
    def _emitted(self, st: Stream, positions: bool = True):
        """Cleanup: the emitted tokens' rows, term ids and positions
        (None unless ``positions``)."""
        lx = self.lexemes
        c = lx.cols
        sid, lemma = st.sid, st.lemma
        cl = c.cl[sid]
        consume = cl >= CL_HOLE
        if st.seen & F_ONE_CHAR:
            consume |= (cl == CL_ONE_CHAR) & lx.one_char_keep()[st.pos]
        has_lemma = lemma >= 0
        e = (consume & (c.emit[sid] + has_lemma >= EMIT)).nonzero()[0]
        term = np.where(has_lemma, lemma, sid)[e]
        one = st.n_docs == 1
        edoc = np.zeros(len(e), np.intp) if one else st.doc[e]
        if not positions:
            return edoc, term, None
        before = np.zeros(len(sid) + 1, np.int64)  # consumed before i
        np.add.accumulate(consume, out=before[1:])
        position = before[e]
        if not one:
            position -= before[st.bounds()[:-1]][edoc]
        return edoc, term, position

    def count_rows(self, texts, keep_positions: bool = False) -> dict:
        """One walk over ``texts``, reduced to the build's columns (see
        :meth:`_count`)."""
        return self._done(self._count(self.walk(texts), keep_positions))

    def _count(self, st: Stream, keep_positions: bool) -> dict:
        """A walk's ``vocabulary`` (its terms in code-point order), per
        row its distinct terms as ``term`` ranks into it with ``tf``
        counts (``row_terms`` entries per row, rows in order), ``width``
        and ``tokens``; with ``keep_positions`` also the emitted
        ``pos_term`` ranks and their ``positions`` (``tokens`` per
        row)."""
        n_docs = st.n_docs
        edoc, term, position = self._emitted(st)
        # the batch's terms: ids in code-point order of their strings
        text = self.lexemes.text
        ids, inv = np.unique(term, return_inverse=True)
        words = [text[i] for i in ids.tolist()]
        order = sorted(range(len(words)), key=words.__getitem__)
        rank = np.empty(len(words), np.int64)
        rank[order] = np.arange(len(words))
        r = rank[inv]
        v = max(len(words), 1)
        key, tf = np.unique(edoc * v + r, return_counts=True)
        n = np.bincount(edoc, minlength=n_docs)
        width = np.zeros(n_docs, np.int64)
        has = n > 0
        width[has] = position[np.add.accumulate(n)[has] - 1] + 1
        out = {
            "vocabulary": [words[i] for i in order],
            "term": key % v,
            "tf": tf,
            "row_terms": np.bincount(key // v, minlength=n_docs),
            "width": width,
            "tokens": n,
        }
        if keep_positions:
            out["pos_term"] = r
            out["positions"] = position
        return out

    def analyze(self, text: str):
        """Run the canonical chain on one document."""
        _, term, position = self._emitted(self.walk([text]))
        words = self.lexemes.text
        width = int(position[-1]) + 1 if len(position) else 0
        return self._done((
            [(words[t], p) for t, p in zip(term.tolist(), position.tolist())],
            width, len(position)))

    def analyze_counts(self, text: str):
        """Chain + per-term COUNTS (no position stream), in code-point
        order of the term: the build's reduction of one document."""
        _, term, position = self._emitted(self.walk([text]))
        ids, tf = np.unique(term, return_counts=True)
        words = self.lexemes.text
        counts = dict(sorted(zip([words[i] for i in ids.tolist()],
                                 tf.tolist())))
        width = int(position[-1]) + 1 if len(position) else 0
        return self._done((counts, width, len(position)))

    def terms(self, text: str) -> list[str]:
        return self.terms_of([text])[0]

    def terms_of(self, texts) -> list[list[str]]:
        """Each text's emitted terms, from one walk over all of them."""
        st = self.walk(texts)
        edoc, term, _ = self._emitted(st, positions=False)
        words = self.lexemes.text
        out = [words[t] for t in term.tolist()]
        ends = np.add.accumulate(np.bincount(edoc, minlength=st.n_docs))
        return self._done([out[a:b] for a, b in zip([0, *ends[:-1].tolist()],
                                                    ends.tolist())])

    # ---- the Tok view ------------------------------------------------
    def _toks(self, st: Stream, lo: int, hi: int) -> list[Tok]:
        """Tokens ``lo..hi`` of a stream as ``Tok`` objects (after the
        stop step when the stream has lemmas)."""
        lx = self.lexemes
        c = lx.cols
        text, pos_names = lx.text, lx.pos_names
        sids = st.sid[lo:hi]
        cls = [KIND_NAMES[k] for k in c.kind[sids].tolist()]
        pos = st.pos[lo:hi].tolist() if st.pos is not None else [0] * len(cls)
        if st.lemma is not None:
            for i in np.flatnonzero(c.stop[sids]).tolist():
                cls[i] = "STOP"
            lemma = st.lemma[lo:hi].tolist()
            lex = st.lex[lo:hi].tolist()
        else:
            lemma = [-1] * len(cls)
            lex = [False] * len(cls)
        out = []
        for s, k, a, b, p, le, x in zip(sids.tolist(), cls,
                                        st.start[lo:hi].tolist(),
                                        st.end[lo:hi].tolist(), pos,
                                        lemma, lex):
            t = Tok(text[s], k, a, b, pos_names[p],
                    text[le] if le >= 0 else None)
            t.lex = x
            out.append(t)
        return out

    def _chain(self, text: str) -> list[Tok]:
        """The chain's tokens of one document, as ``Tok`` objects (the
        view reports and tests read)."""
        st = self.walk([text])
        return self._done(self._toks(st, 0, len(st.sid)))


class SimpleAnalyzer:
    """Lowercase + split on ``[^a-z0-9]+`` — DuckDB-mirrorable profile.

    Restricted to ASCII token chars so Python ``str.lower`` and SQL
    ``lower`` agree byte-for-byte on every emitted term.
    """

    _SPLIT = re.compile(r"[^a-z0-9]+")

    def analyze(self, text: str):
        terms = [t for t in self._SPLIT.split(text.lower()) if t]
        emitted = list(zip(terms, range(len(terms))))
        return emitted, len(terms), len(terms)

    def terms(self, text: str) -> list[str]:
        return [t for t in self._SPLIT.split(text.lower()) if t]

    def terms_of(self, texts) -> list[list[str]]:
        return [self.terms(t) for t in texts]

    # -- vectorized batch path (Arrow in / Arrow out, no Python loop) --
    @staticmethod
    def tokens_arrays(texts: pa.ChunkedArray | pa.Array):
        """Vectorized: column of texts → (list<string> tokens) array."""
        arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        lowered = pc.utf8_lower(arr)
        splits = pc.split_pattern_regex(lowered, "[^a-z0-9]+")
        # remove empty strings produced at boundaries
        flat = splits.flatten()
        keep = pc.not_equal(flat, "")
        # rebuild list offsets after filtering
        lengths = pc.list_value_length(splits).to_numpy(zero_copy_only=False)
        keep_np = keep.to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(lengths)), lengths)
        kept_counts = np.bincount(owner[keep_np], minlength=len(lengths))
        offsets = np.concatenate(([0], np.cumsum(kept_counts)))
        values = flat.filter(keep)
        return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)
