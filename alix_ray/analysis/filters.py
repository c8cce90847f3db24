"""Token filters of the canonical chain (reference parity: SURVEY.md §2.2).

Each filter is a pure ``list[Tok] → list[Tok]`` function, re-implemented
from the reference's published behavior (file:line cited per filter),
not ported code.  These per-token functions are the reference rules:
``FrenchAnalyzer.steps`` composes them in chain order, and
``tests/test_analysis.py`` checks the analyzer's walk against them.

The analyzer itself never runs them token by token.  The context-free
part of each filter is a rule on one surface string (``_clitic_parts``,
``_uppercase``, ``_lexicon_hit``, ``_cleanup_verdict``, a lowercase, a set
test), and :class:`LexemeTable` holds every rule's result once per
surface, as numpy columns indexed by the surface's id; the walk
(:mod:`alix_ray.analysis.chain`) gathers them over a whole batch's id
array.  Ids are local to one table: outputs leave the walk as strings,
and the table may start over (``LEXEME_TABLE_MAX``) only between walks,
never while a walk holds ids.
"""

from __future__ import annotations

import re
import unicodedata
from collections import deque
from functools import lru_cache

import numpy as np

from .tokenizer import (
    PUNCT_CLAUSE,
    PUNCT_PARA,
    PUNCT_SECTION,
    PUNCT_SENT,
    WORD,
    XML,
    Columns,
    Surfaces,
    Tok,
    _is_digit,
    _is_letter,
)

# ---------------------------------------------------------------------
# MarkupBoundaryFilter (MarkupBoundaryFilter.java:96; behavior :1-110)
# ---------------------------------------------------------------------

PARA_ELEMENTS = frozenset(
    "ab address blockquote cell dd div dt h1 h2 h3 h4 h5 h6 head item l "
    "label li p pre row td th tr".split()
)
SECTION_ELEMENTS = frozenset(
    "article back body chapter div0 div1 div2 div3 div4 div5 div6 div7 "
    "front group main section text".split()
)
PARA_MARK = "¶"
SECTION_MARK = "§"


def _close_tag_local_name(tag: str) -> str | None:
    """Local name of a closing tag ``</ns:name …>``, else None."""
    if len(tag) < 3 or tag[1] != "/":
        return None
    i, n = 2, len(tag)
    while i < n and tag[i].isspace():
        i += 1
    j, frm = i, i
    while j < n and tag[j] not in ">/" and not tag[j].isspace():
        if tag[j] == ":":
            frm = j + 1
        j += 1
    return tag[frm:j].lower() if j > frm else None


def boundary_filter(
    toks: list[Tok],
    para=PARA_ELEMENTS,
    section=SECTION_ELEMENTS,
) -> list[Tok]:
    """Drop markup; selected *closing* tags → ¶ / § boundary tokens.

    Consecutive boundaries coalesce (section wins over paragraph).
    """
    for t in toks:
        if t.cls == "XML":
            break
    else:
        return toks  # no markup: nothing to drop or mark
    out: list[Tok] = []
    pending: Tok | None = None  # pending boundary token
    for t in toks:
        if t.cls == "XML":
            name = _close_tag_local_name(t.text)
            if name is not None:
                if name in section:
                    pending = Tok(SECTION_MARK, "PUNCTsection", t.start, t.end)
                elif name in para and (
                    pending is None or pending.cls != "PUNCTsection"
                ):
                    pending = Tok(PARA_MARK, "PUNCTpara", t.start, t.end)
            continue
        if pending is not None:
            out.append(pending)
            pending = None
        out.append(t)
    if pending is not None:
        out.append(pending)
    return out


# ---------------------------------------------------------------------
# FrenchCliticSplitFilter (fr/FrenchCliticSplitFilter.java:72-330)
# ---------------------------------------------------------------------

MAX_SPLITS = 8

KEEP_AS_IS = frozenset(
    "c'est-à-dire d'abord d'accord d'ailleurs d'après d'autant d'autre "
    "d'autres d'avec d'emblée d'entre d'ici n'empêche n'est-ce n'importe "
    "qu'est-ce qu'en-dira-t-on quelqu'un".split()
)

# elision prefixes, anchored on the FIRST apostrophe (case-insensitive)
PREFIX = {
    "c'": "ce", "d'": "de", "j'": "je", "jusqu'": "jusque",
    "l'": "l'",  # je l'aime: le/la ambiguous — kept as l'
    "lorsqu'": "lorsque", "m'": "me", "n'": "ne", "presqu'": "presque",
    "puisqu'": "puisque", "qu'": "que", "quoiqu'": "quoique",
    "s'": "se", "t'": "te",
}
# apostrophe suffixes anchored on the LAST apostrophe; None = dropped
APOS_SUFFIX: dict[str, str | None] = {"'s": None}  # Piaget's → Piaget
# hyphen suffixes anchored on the LAST hyphen; None = dropped
SUFFIX: dict[str, str | None] = {
    "-ce": "ce", "-ci": None, "-elle": "elle", "-elles": "elles",
    "-en": "en", "-eux": "eux", "-il": "il", "-ils": "ils", "-je": "je",
    "-la": "la", "-là": None, "-le": "le", "-les": "les", "-leur": "leur",
    "-lui": "lui", "-me": "me", "-moi": "moi", "-nous": "nous",
    "-on": "on", "-t": None, "-te": "te", "-toi": "toi", "-tu": "tu",
    "-vous": "vous", "-y": "y",
}


def split_clitics(text: str) -> list[str]:
    """Split one token's elisions/enclitics; fall back to original on overflow."""
    out: list[str] = []
    queue: deque[str] = deque([text])
    while queue:
        t = queue.popleft()
        if len(t) > 1 and t[-1] in "'’":
            t = t[:-1]
        if t.lower() in KEEP_AS_IS:
            out.append(t)
            continue
        original = t
        rolled_back = False
        while True:
            if len(t) <= 1:
                break
            apos_first = t.find("'")
            hyph_last = t.rfind("-")
            if apos_first < 0 and hyph_last < 0:
                break
            if apos_first == len(t) - 1:
                break
            if apos_first > 0:
                repl = PREFIX.get(t[: apos_first + 1].lower())
                if repl is not None:
                    if len(queue) >= MAX_SPLITS:
                        t, rolled_back = original, True
                        break
                    queue.append(t[apos_first + 1 :])
                    t = repl
                    break
            apos_last = t.rfind("'") if apos_first >= 0 else -1
            if apos_last > 0:
                key = t[apos_last:].lower()
                if key in APOS_SUFFIX:
                    repl = APOS_SUFFIX[key]
                    if repl is not None:
                        if len(queue) >= MAX_SPLITS:
                            t, rolled_back = original, True
                            break
                        queue.appendleft(repl)
                    t = t[:apos_last]
                    continue
            if hyph_last > 0:
                key = t[hyph_last:].lower()
                if key in SUFFIX:
                    repl = SUFFIX[key]
                    if repl is not None:
                        if len(queue) >= MAX_SPLITS:
                            t, rolled_back = original, True
                            break
                        queue.appendleft(repl)
                    t = t[:hyph_last]
                    continue
            break
        out.append(t)
        if rolled_back:
            # keep already-buffered fragments from earlier splits of THIS
            # token only; reference rolls back just the current term
            continue
    return out


def _clitic_parts(text: str) -> list[str] | None:
    """The parts a WORD splits into, or None when it stays whole."""
    if "'" not in text and "-" not in text and "’" not in text:
        return None  # no apostrophe/hyphen → nothing to split
    parts = split_clitics(text)
    if len(parts) == 1 and parts[0] == text:
        return None
    return parts


def clitic_filter(toks: list[Tok]) -> list[Tok]:
    out: list[Tok] | None = None  # built from the first split on
    for i, t in enumerate(toks):
        parts = None
        if t.cls == "WORD":
            parts = _clitic_parts(t.text)
        if parts is None:
            if out is not None:
                out.append(t)
            continue
        if out is None:
            out = toks[:i]
        for p in parts:
            out.append(Tok(p, "WORD", t.start, t.end))
    return toks if out is None else out


# ---------------------------------------------------------------------
# ReplaceFilter (ReplaceFilter.java:77) — exact whole-token rewrite
# ---------------------------------------------------------------------


def replace_filter(toks: list[Tok], mapping: dict[str, str]) -> list[Tok]:
    for t in toks:
        if t.cls == "WORD":
            r = mapping.get(t.text)
            if r is not None:
                t.text = r
    return toks


# ---------------------------------------------------------------------
# UppercaseFilter (UppercaseFilter.java:19-99)
# ---------------------------------------------------------------------


def _uppercase(text: str, ucwords, min_uc: int = 4) -> str:
    """A WORD's surface after the all-caps rules (``text`` itself when
    they leave it alone)."""
    letters = dots = 0
    for c in text:
        if _is_letter(c):
            letters += 1
            if c.islower():
                return text
        elif c == ".":
            dots += 1
    if letters == 0:
        return text
    if text in ucwords or text.upper() in ucwords:
        return text
    if letters == 1:
        return text  # initial, kept for forename resolution
    if dots >= letters - 1:
        return text  # U.R.S.S
    if letters < min_uc:
        return ""  # suppressed (dropped downstream)
    # capitalize: keep first char and any char right after a hyphen
    chars = list(text)
    keep_next = False
    for i in range(1, len(chars)):
        if chars[i] == "-":
            keep_next = True
            continue
        if keep_next:
            keep_next = False
            continue
        chars[i] = chars[i].lower()
    return "".join(chars)


def uppercase_filter(toks: list[Tok], ucwords=frozenset(),
                     min_uc: int = 4) -> list[Tok]:
    """All-caps handling: protected / initials / dotted kept; short
    all-caps suppressed (emptied); long all-caps capitalized
    (``JEAN-PAUL`` → ``Jean-Paul``)."""
    for t in toks:
        if t.cls == "WORD":
            t.text = _uppercase(t.text, ucwords, min_uc)
    return toks


# ---------------------------------------------------------------------
# Lexicon tagging (replaces PosTaggingFilter per SURVEY.md §7.0) +
# LemmaFilter (LemmaFilter.java:130,173-220)
# ---------------------------------------------------------------------


def _lexicon_hit(text: str, lexicon) -> tuple[str, str] | None:
    """``(pos, lemma)`` of a surface: exact lookup, then lowercase."""
    hit = lexicon.get(text)
    if hit is None:
        hit = lexicon.get(text.lower())
    return hit


def lemma_filter(toks: list[Tok],
                 lexicon: dict[str, tuple[str, str]]) -> list[Tok]:
    """Sparse lemma channel: lookup surface (exact, then lowercase);
    never rewrites surface; skips punct/XML; lemma written only when
    distinct from surface."""
    for t in toks:
        text = t.text
        if t.cls != "WORD" or not text:
            continue
        hit = _lexicon_hit(text, lexicon)
        if hit is None:
            continue
        pos, lemma = hit
        t.lex = True  # resolved against the lexicon (KeywordAttribute)
        if t.pos is None:  # a context tagger's POS (if any) wins
            t.pos = pos
        if lemma != text:
            t.lemma = lemma
    return toks


# ---------------------------------------------------------------------
# MweFilter (MweFilter.java:82; semantics :1-26)
# ---------------------------------------------------------------------


class MweAutomaton:
    """Two-path maximal-munch matcher over (form, lemma) channels."""

    def __init__(self, form_entries: dict, lemma_entries: dict):
        self.form = dict(form_entries)
        self.lemma = dict(lemma_entries)
        self.max_len = max(
            [len(k) for k in form_entries] + [len(k) for k in lemma_entries] + [1]
        )
        # fast gate: only tokens whose form/lemma can START an entry
        # enter the match loop (hot-path: almost every token skips)
        self.starts = frozenset(
            [k[0] for k in form_entries] + [k[0] for k in lemma_entries]
        )
        # the keys' proper prefixes: a match grows only through them
        self.prefixes = frozenset(
            k[:n] for k in [*form_entries, *lemma_entries]
            for n in range(1, len(k)))

    def start_positions(self, toks: list[Tok]) -> list[int]:
        """Indices of the WORD tokens whose lowercase form or lemma can
        start an entry."""
        starts = self.starts
        return [i for i, t in enumerate(toks) if t.cls == "WORD" and (
            t.text.lower() in starts
            or t.lemma is not None and t.lemma.lower() in starts)]

    def match(self, toks: list[Tok], i: int):
        """Longest match starting at i → (length, canonical, pos) or None.

        Form path reads token text; lemma path reads lemma-or-text.
        """
        words = []
        for t in toks[i : i + self.max_len]:
            if t.cls != "WORD" or not t.text:
                break
            words.append((t.text.lower(), (t.lemma or t.text).lower()))
        return self.longest(words)

    def longest(self, words):
        """Longest entry that the first k of ``words`` spell, for some
        k, as ``(k, canonical, pos)``: the lowercased forms (form path)
        or lemmas-or-forms (lemma path) of ``(form, lemma)`` pairs,
        read only while they can still grow into a key.  Equal lengths
        → the form path wins (more specific analysis)."""
        best = None
        fkey = lkey = ()
        prefixes = self.prefixes
        for k, (form, lemma) in enumerate(words, 1):
            fkey += (form,)
            lkey += (lemma,)
            hit = self.form.get(fkey)
            if hit is None:
                hit = self.lemma.get(lkey)
            if hit is not None:
                best = (k, hit[0], hit[1])
            if fkey not in prefixes and lkey not in prefixes:
                break
        return best


def mwe_filter(toks: list[Tok], automaton: MweAutomaton) -> list[Tok]:
    out: list[Tok] = []
    i = 0  # first token not yet copied to out
    for s in automaton.start_positions(toks):
        if s < i:
            continue  # inside the previous match
        m = automaton.match(toks, s)
        if m is None:
            continue
        length, canonical, pos = m
        out += toks[i:s]
        out.append(Tok(canonical, "WORD", toks[s].start,
                       toks[s + length - 1].end, pos=pos))
        i = s + length
    if not i:
        return toks  # no match
    out += toks[i:]
    return out


# ---------------------------------------------------------------------
# Optional filters (SURVEY.md §2.2 optional chain members)
# ---------------------------------------------------------------------

_VOWELS = frozenset("aàâäæeéèêëiîïoôöœuùûüyAÀÂÄÆEÉÈÊËIÎÏOÔÖŒUÙÛÜY")


def _ocr_accept(t: Tok) -> bool:
    """OCRGarbageFilter.accept (OCRGarbageFilter.java:18): structurally
    word-unlikely unresolved tokens are dropped.  Resolved tokens
    (LEXICON hit — the KeywordAttribute analog) always pass; a context
    tagger's POS alone does not count as resolution (it may tag OCR
    noise)."""
    return t.lex or _ocr_shape(t.text)


def _ocr_shape(text: str) -> bool:
    """An unresolved surface that passes the OCR garbage test."""
    if not text:
        return False
    if text[-1] in ".-":
        return False
    letters = 0
    prev = ""
    repeats = 0
    for c in text:
        if _is_letter(c):
            if not _is_latin_letter(c):
                return False
            letters += 1
            folded = c.lower()
            if folded == prev:
                repeats += 1
                if repeats >= 3:
                    return False
            else:
                prev = folded
                repeats = 1
            continue
        if c not in "-'’ .":
            return False
        prev = ""
        repeats = 0
    return letters >= 2


def ocr_garbage_filter(toks: list[Tok]) -> list[Tok]:
    """Drop structurally-unlikely unresolved tokens (position gaps —
    Lucene's FilteringTokenFilter preserves increments)."""
    out = []
    for t in toks:
        if t.cls == "WORD" and not _ocr_accept(t):
            t = Tok("", t.cls, t.start, t.end)  # empty → hole in cleanup
        out.append(t)
    return out


_SENT_BOUNDARY = frozenset({"PUNCTsent", "PUNCTsection", "PUNCTpara"})
_SENT_TRANSPARENT = frozenset({"XML", "PUNCTclause"})


def sentence_start_lowercase_filter(toks: list[Tok], lexicon) -> list[Tok]:
    """Lowercase a sentence-initial token when its lowercase form is in
    the lexicon (SentenceStartLowerCaseFilter.java:66): stream start is
    a sentence start; sentence punct / section marks set the state; XML
    and clause punct are transparent; any other token consumes it."""
    pending = True
    for t in toks:
        if t.cls in _SENT_BOUNDARY:
            pending = True
            continue
        if t.cls in _SENT_TRANSPARENT:
            continue
        if pending and t.cls == "WORD" and t.text and t.text[0].isupper():
            low = t.text.lower()
            if low in lexicon:
                t.text = low
        pending = False
    return toks


def pers_initial_filter(toks: list[Tok]) -> list[Tok]:
    """Merge ``E Meyerson`` / ``E. Meyerson`` → one ``E. Meyerson`` token
    (fr/PersInitialFilter.java:35): a single-uppercase-letter initial
    (with or without its dot) followed by a capitalized word merges into
    the normalized dotted form."""

    def is_initial(t: Tok) -> bool:
        x = t.text
        return (
            t.cls == "WORD"
            and (len(x) == 1 or (len(x) == 2 and x[1] == "."))
            and x[0].isupper()
            and x[0].isalpha()
        )

    out: list[Tok] = []
    i = 0
    while i < len(toks):
        t = toks[i]
        if is_initial(t) and i + 1 < len(toks):
            nxt = toks[i + 1]
            if (nxt.cls == "WORD" and len(nxt.text) >= 2
                    and nxt.text[0].isupper()):
                out.append(Tok(f"{t.text[0]}. {nxt.text}", "WORD",
                               t.start, nxt.end, pos="PROPN"))
                i += 2
                continue
        out.append(t)
        i += 1
    return out


# ---------------------------------------------------------------------
# StopFilter (Lucene stock; after MWE, before Cleanup — holes kept)
# ---------------------------------------------------------------------


def stop_filter(toks: list[Tok], stopwords: frozenset) -> list[Tok]:
    """Mark stop words for drop-with-gap (position holes preserved)."""
    for t in toks:
        if t.cls == "WORD" and t.text.lower() in stopwords:
            t.cls = "STOP"
    return toks


# ---------------------------------------------------------------------
# CleanupFilter (CleanupFilter.java:101,251-362)
# ---------------------------------------------------------------------

_ONE_CHAR_KEEP = frozenset({"ADP", "AUX", "PRON", "VERB"})


@lru_cache(maxsize=4096)
def _is_math(c: str) -> bool:
    return unicodedata.category(c) == "Sm"


@lru_cache(maxsize=8192)
def _is_latin_letter(c: str) -> bool:
    if c in "&°�":  # reference treats these as letters; not script-checked
        return True
    try:
        return "LATIN" in unicodedata.name(c)
    except ValueError:
        return False


# cleanup verdict parts: ``skip`` drops a token WITHOUT a position
# (noise; positions collapse), ``accept`` emits it — a token not
# skipped and not accepted leaves a position gap (punctuation, debris)
_KEEP, _SKIP, _SKIP_UNLESS_KEPT_POS = 0, 1, 2
_REJECT, _ACCEPT, _ACCEPT_IF_LEMMA = 0, 1, 2
_NO_TERM_CLS = frozenset(
    ("PUNCTclause", "PUNCTsent", "PUNCTpara", "PUNCTsection", "STOP"))


def _cleanup_verdict(text: str) -> tuple[int, int]:
    """``(skip, accept)`` of a non-empty surface; the token's class,
    POS (one-char tokens) and lemma (non-Latin ones) decide the rest."""
    n = len(text)
    if n == 1:
        skip = _SKIP_UNLESS_KEPT_POS
    elif n == 2 and text[-1] in "'’.":
        skip = _SKIP
    elif n >= 2 and _is_digit(text[-1]) and not _is_digit(text[-2]):
        skip = _SKIP  # "abc4" label debris
    else:
        skip = _KEEP
    first, last = text[0], text[-1]
    if (_is_math(first) or _is_digit(first) or first in "-'"
            or _is_math(last) or _is_digit(last) or last in "-'."):
        return skip, _REJECT
    # a lemma is copied over the surface by the caller
    return skip, _ACCEPT if _all_latin(text) else _ACCEPT_IF_LEMMA


@lru_cache(maxsize=65536)
def _all_latin(text: str) -> bool:
    """No non-Latin letters (greek / OCR garbage test) — cached per
    distinct token text: the Zipf head repeats constantly, so the char
    scan runs once per vocabulary entry, not once per occurrence."""
    for c in text:
        if _is_letter(c) and not _is_latin_letter(c):
            return False
    return True


def cleanup(toks: list[Tok]) -> tuple[list[tuple[str, int]], int, int]:
    """Final hygiene → ``([(term, position)...], width, n_tokens)``.

    Invariant (TermStats.java:40-46): every emitted token is a word;
    punctuation/stop words consume positions (gaps); noise collapses;
    ``n_tokens ≤ width``.
    """
    emitted: list[tuple[str, int]] = []
    pos = 0
    last_emitted_pos = -1
    for t in toks:
        text = t.text
        if not text:
            pos += 1  # emptied upstream (e.g. suppressed all-caps): hole
            continue
        skip, acc = _cleanup_verdict(text)
        if t.cls == "XML" or skip and (
                skip == _SKIP or t.pos not in _ONE_CHAR_KEEP):
            continue
        p = pos
        pos += 1
        if acc and t.cls not in _NO_TERM_CLS and (acc == _ACCEPT or t.lemma):
            emitted.append((t.lemma if t.lemma else text, p))
            last_emitted_pos = p
    width = last_emitted_pos + 1
    return emitted, width, len(emitted)


# ---------------------------------------------------------------------
# Per-surface table (the context-free half of every filter above)
# ---------------------------------------------------------------------

# Bound on one table's surfaces (and pieces): a table over it starts
# over when its walk ends (the Zipf head refills it at once).
LEXEME_TABLE_MAX = 65_536

# reserved ids of the boundary marks (after tokenizer.EMPTY and DOT)
PARA, SECTION = 2, 3

# ``cl``: what cleanup does with a surface's token: drop it, keep it
# only under a one-char POS, or let it take a position (a hole when
# empty); a kept token emits its term iff ``emit`` + (it has a lemma)
# ≥ ``EMIT``
CL_DROP, CL_ONE_CHAR, CL_HOLE, CL_KEEP = range(4)
EMIT = 2
_EMIT_CODE = {_REJECT: 0, _ACCEPT_IF_LEMMA: 1, _ACCEPT: 2}

# ``flags`` bits (after tokenizer.F_DOTTED and F_XML): a word the
# tagger decides, a form or lemma that can start an MWE entry, a
# one-char surface that only a kept POS saves, a word that expands to
# more than one token
F_AMB, F_MWE, F_ONE_CHAR, F_SPLIT = 4, 8, 16, 32

_NO_TERM_KINDS = (PUNCT_CLAUSE, PUNCT_SENT, PUNCT_PARA, PUNCT_SECTION)


class LexemeTable(Surfaces):
    """The analyzer's surface table: for each surface id, the result of
    every context-free rule of the chain (see the module docstring), as
    numpy columns (``cols``), plus its lowercase (``low``).

    - ``x0``/``xn`` → ``parts.sid``: the ids a WORD becomes after the
      clitic split, the replacements and the all-caps rules (itself for
      any other kind); ``x1``, that id when there is one; ``xsplit``,
      the split made new tokens (a POS set before it is lost);
    - ``lex``/``hpos``/``lem``: lexicon hit, its POS code and lemma id
      (-1 when none or equal to the surface);
    - ``flags``: the ``F_*`` bits, here whether the lowercase or the
      lemma starts an MWE entry, the word is one the tagger decides,
      the surface is one char that only a kept POS saves, or it
      expands to more than one token;
    - ``stop``: a stop word (WORDs only); ``word``: a non-empty WORD;
    - ``cl``/``emit``: the cleanup verdict (``CL_*``) and whether a
      kept token emits its term: always (2), only with a lemma (1) or
      never (0);
    - ``bcode``: the boundary filter's closing-element code;
    - ``ocr``, ``ssl``, ``initial``, ``capword``, ``sentcat``: the
      per-surface tests of the ``optional`` filters (the analyzer's
      flag names), filled only for those that are on.

    Built once per analyzer from the resources its filters are given
    (``FrenchAnalyzer.lexemes``).  POS strings get small codes
    (``pos_names[code]``, 0 = none) that outlive a start-over."""

    def __init__(self, tokenizer, lexicon, normalization, ucwords,
                 stopwords, automaton, ambiguous=(), optional=()):
        self.lexicon = lexicon
        self.normalization = normalization
        self.ucwords = ucwords
        self.stopwords = stopwords
        self.starts = automaton.starts
        self.ambiguous = frozenset(ambiguous)
        self.optional = frozenset(optional)
        self.pos_names: list = [None]
        self.pos_codes: dict = {None: 0}
        self._keep = None
        super().__init__(tokenizer)

    def start_over(self) -> None:
        self.low: list[str] = []
        self.parts = Columns(sid=np.int32)
        super().start_over()
        self.intern(PARA_MARK, PUNCT_PARA)
        self.intern(SECTION_MARK, PUNCT_SECTION)

    def settle(self) -> None:
        """End of a walk: no id is live, so a table over its bound
        starts over."""
        if max(len(self.text), self.pcols.n) > LEXEME_TABLE_MAX:
            self.start_over()

    def pos_code(self, name) -> int:
        code = self.pos_codes.get(name)
        if code is None:
            code = self.pos_codes[name] = len(self.pos_names)
            self.pos_names.append(name)
            self._keep = None
        return code

    def one_char_keep(self) -> np.ndarray:
        """Per POS code: a one-char token under it takes a position."""
        if self._keep is None:
            self._keep = np.array([p in _ONE_CHAR_KEEP
                                   for p in self.pos_names])
        return self._keep

    def _columns(self) -> Columns:
        return Columns(
            kind=np.int8, flags=np.int16, dcode=np.int8, undot=np.int32,
            x0=np.int32, xn=np.int32, x1=np.int32, xsplit=np.bool_,
            lex=np.bool_, hpos=np.int16, lem=np.int32,
            stop=np.bool_, word=np.bool_,
            cl=np.int8, emit=np.int8, ocr=np.bool_, ssl=np.int32,
            initial=np.bool_, capword=np.bool_, bcode=np.int8,
            sentcat=np.int8)

    def _fill(self, sid: int, text: str, kind: int) -> None:
        low = text.lower()
        self.low.append(low)  # before any nested intern
        super()._fill(sid, text, kind)
        c = self.cols
        is_word = kind == WORD
        # clitic split → replace → all-caps rules
        split = _clitic_parts(text) if is_word else None
        out = []
        for part in split or (text,):
            if is_word:
                part = _uppercase(self.normalization.get(part, part),
                                  self.ucwords)
            out.append(self.intern(part, kind))
        c.xsplit[sid] = split is not None
        c.x0[sid] = self.parts.n
        c.xn[sid] = len(out)
        c.x1[sid] = out[0] if len(out) == 1 else -1
        for x in out:
            i = self.parts.add()
            self.parts.sid[i] = x
        c.lem[sid] = c.ssl[sid] = -1
        if is_word and text:
            c.word[sid] = True
            hit = _lexicon_hit(text, self.lexicon)
            if hit is not None:
                c.lex[sid] = True
                c.hpos[sid] = self.pos_code(hit[0])
                if hit[1] != text:
                    c.lem[sid] = self.intern(hit[1])
            opt = self.optional
            if "ocr_garbage" in opt:
                c.ocr[sid] = _ocr_shape(text)
            if text[0].isupper():
                if "pers_initial" in opt:
                    c.capword[sid] = len(text) >= 2
                    c.initial[sid] = text[0].isalpha() and (
                        len(text) == 1 or len(text) == 2 and text[1] == ".")
                if "sentence_start_lower" in opt and low in self.lexicon:
                    c.ssl[sid] = self.intern(low)
        stop = is_word and low in self.stopwords
        c.stop[sid] = stop
        flags = F_SPLIT if len(out) > 1 else 0
        if is_word:
            if low in self.ambiguous:
                flags |= F_AMB
            lem = c.lem[sid]
            if low in self.starts or lem >= 0 and self.low[lem] in self.starts:
                flags |= F_MWE
        if not text:
            c.cl[sid] = CL_HOLE
        else:
            skip, acc = _cleanup_verdict(text)
            if kind == XML or skip == _SKIP:
                c.cl[sid] = CL_DROP
            elif skip:
                c.cl[sid] = CL_ONE_CHAR
                flags |= F_ONE_CHAR
            else:
                c.cl[sid] = CL_KEEP
            if not stop and kind not in _NO_TERM_KINDS:
                c.emit[sid] = _EMIT_CODE[acc]
        c.flags[sid] |= flags
        if kind == XML:
            name = _close_tag_local_name(text)
            c.bcode[sid] = (2 if name in SECTION_ELEMENTS
                            else 1 if name in PARA_ELEMENTS else 0)
        if "sentence_start_lower" in self.optional:
            c.sentcat[sid] = (
                1 if kind in (PUNCT_SENT, PUNCT_PARA, PUNCT_SECTION)
                else 2 if kind in (XML, PUNCT_CLAUSE) else 0)


# ---------------------------------------------------------------------
# MarkupZoneFilter (MarkupZoneFilter.java:1-310)
# ---------------------------------------------------------------------

_ZONE_OR_SPLIT = re.compile(r"\s*\|\s*")
_ZONE_ATTR_ATOM = re.compile(r"^@([^\s=]+)(?:\s*=\s*(['\"])(.*?)\2)?$")
_TAG_ATTRS = re.compile(
    r"""([^\s=/>]+)(?:\s*=\s*(?:'([^']*)'|"([^"]*)"|([^\s>]*)))?"""
)


def _local_name(qname: str) -> str:
    """QName → local name (prefix ignored, MarkupZoneFilter.java:56)."""
    return qname.rsplit(":", 1)[-1]


class ZoneMatch:
    """Compiled ``matchExpr``: a ``|``-separated OR of element names,
    ``@attr`` presence tests, and ``@attr='value'`` tests
    (MarkupZoneFilter.java:51-66 — no XPath/AND/wildcards)."""

    def __init__(self, expr: str):
        if expr is None:
            raise TypeError("matchExpr is None")
        self.elems: set[str] = set()
        self.attrs: list[tuple[str, str | None]] = []
        for raw in _ZONE_OR_SPLIT.split(expr.strip()):
            atom = raw.strip()
            if not atom:
                continue
            m = _ZONE_ATTR_ATOM.match(atom)
            if m:
                self.attrs.append(
                    (_local_name(m.group(1)),
                     m.group(3) if m.group(2) else None)
                )
            else:
                self.elems.add(_local_name(atom))
        if not self.elems and not self.attrs:
            raise ValueError(f"matchExpr has no usable atoms: {expr!r}")

    def matches_start(self, tag_text: str) -> bool:
        inner = tag_text[1:-1].strip()
        if inner.endswith("/"):
            inner = inner[:-1]
        parts = inner.split(None, 1)
        if not parts:
            return False
        name = _local_name(parts[0])
        if name in self.elems:
            return True
        if self.attrs and len(parts) > 1:
            attrs = {}
            for m in _TAG_ATTRS.finditer(parts[1]):
                val = m.group(2) or m.group(3) or m.group(4)
                attrs[_local_name(m.group(1))] = val if val is not None else ""
            for aname, aval in self.attrs:
                if aname in attrs and (aval is None or attrs[aname] == aval):
                    return True
        return False


def markup_zone_filter(toks: list[Tok], match_expr: str,
                       mode: str = "include") -> list[Tok]:
    """Zone include/exclude by open-element match
    (MarkupZoneFilter.java:71-310).

    Maintains a stack of open elements; "in zone" = at least one open
    element whose START tag matched.  ``include`` keeps tokens only in
    zone, ``exclude`` drops them there.  Order parity with the
    reference: an OPEN tag is decided AFTER its push (the opening tag
    of a matched zone is in-zone) and a CLOSE tag BEFORE its pop (the
    closing tag is not lost); self-closing tags and ``<?``/``<!``
    tokens never touch the stack.
    """
    zm = ZoneMatch(match_expr)
    include = mode == "include"
    stack: list[bool] = []
    depth = 0  # number of matched open elements
    out: list[Tok] = []
    for t in toks:
        if t.cls == "XML":
            txt = t.text
            if txt.startswith("<?") or txt.startswith("<!"):
                pass  # PI/comment/doctype: no stack effect
            elif txt.endswith("/>"):
                pass  # EMPTY: recognized, no push/pop
            elif txt.startswith("</"):
                in_zone = depth > 0
                if include == in_zone:
                    out.append(t)
                if stack and stack.pop():
                    depth -= 1
                continue
            else:
                matched = zm.matches_start(txt)
                stack.append(matched)
                if matched:
                    depth += 1
        in_zone = depth > 0
        if include == in_zone:
            out.append(t)
    return out
