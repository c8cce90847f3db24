"""Analyzer chains: canonical French chain + SQL-mirrorable simple chain.

``FrenchAnalyzer`` composes the canonical chain in reference order
(``fr/FrenchAnalyzer.java:288-305``).  It is the *stateful* part of the
pipeline: lexicons are built once per instance — instantiate once per
Ray actor (``map_batches(AnalyzeActor, concurrency=N)``), never per
batch (SURVEY.md §2.3).

Hot path: the common token costs one scanner step (a letters-only piece
between spaces, ``MarkupTokenizer._scan``) and then one lookup per
filter in the instance's :class:`~.filters.LexemeTable`, which holds
each surface's context-free results (clitic parts, all-caps rewrite,
lowercase, lexicon hit, stop and MWE-start flags, cleanup verdict).  The
table fills lazily and is bounded by ``filters.LEXEME_TABLE_MAX``.  What
depends on context still runs per token: dot resolution, boundary
coalescing, the tagger, MWE matching and positions.  Outputs equal the
per-token rules exactly.

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
    LexemeTable,
    MweAutomaton,
    boundary_filter,
    cleanup,
    cleanup_counts,
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
from .tokenizer import DEFAULT_BREVIDOTS, MarkupTokenizer


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
        # slot): ``tagger(toks) -> None`` mutates ``t.pos`` in place
        # over the full token sequence BEFORE lexicon lookup — its tags
        # take precedence (lemma_filter only fills pos where unset).
        # Load the model in the callable's closure / actor ``__init__``
        # (once per worker).  The SHIPPED default is the tiny averaged
        # perceptron (analysis/tagger.py) that disambiguates noun/verb
        # homographs from closed-class context — the stand-in for the
        # reference's OpenNLP model; pass ``tagger=None`` for the pure
        # lexicon chain.
        if tagger == "default":
            from .tagger import default_tagger

            tagger = default_tagger()
        self.tagger = tagger
        self.lexemes = LexemeTable(self.lexicon, self.ucwords,
                                   self.stopwords, self.automaton)
        self.steps = self._steps()

    def _steps(self) -> list:
        """The filters after the tokenizer, in chain order, as
        ``(name, list[Tok] → list[Tok])`` pairs (optional members per
        constructor flags — SURVEY.md §2.2 optional chain rows)."""
        lx = self.lexemes
        steps = []
        if self.pers_initial:
            steps.append(("pers_initial", pers_initial_filter))
        steps += [
            ("boundary", boundary_filter),
            ("clitic", partial(clitic_filter, table=lx)),
            ("replace", partial(replace_filter, mapping=self.normalization)),
            ("uppercase", partial(uppercase_filter, ucwords=self.ucwords,
                                  table=lx)),
        ]
        if self.sentence_start_lower:
            steps.append(("sentence_start_lower",
                          partial(sentence_start_lowercase_filter,
                                  lexicon=self.lexicon)))
        if self.tagger is not None:
            steps.append(("tagger", self._tag))
        steps += [
            ("lemma", partial(lemma_filter, lexicon=self.lexicon, table=lx)),
            ("mwe", partial(mwe_filter, automaton=self.automaton, table=lx)),
            ("stop", partial(stop_filter, stopwords=self.stopwords,
                             table=lx)),
        ]
        if self.ocr_garbage:
            steps.append(("ocr_garbage", ocr_garbage_filter))
        return steps

    def _tag(self, toks):
        self.tagger(toks)
        return toks

    def _chain(self, text: str):
        toks = self.tokenizer.tokenize(text)
        for _, step in self.steps:
            toks = step(toks)
        return toks

    def analyze(self, text: str):
        """Run the canonical chain on one document."""
        return cleanup(self._chain(text), self.lexemes)

    def analyze_counts(self, text: str):
        """Chain + per-term COUNTS (no position stream) — the BM25
        build path (keep_positions=False) never looks at positions, so
        skipping the per-token tuple stream cuts the dominant
        allocation pressure of the hot analyze stage."""
        return cleanup_counts(self._chain(text), self.lexemes)

    def terms(self, text: str) -> list[str]:
        return [t for t, _ in self.analyze(text)[0]]


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
