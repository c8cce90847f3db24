"""Markup-aware tokenizer for Latin-script text (reference parity:
``analysis/.../MarkupTokenizer.java:94`` — semantics re-implemented from
the published behavior, not a code port).

Token classes:

- ``XML``: tags ``<`` … ``>`` kept as tokens;
- ``PUNCTclause``: one of ``,;:()—–"«»`` as single-char tokens;
- ``PUNCTsent``: runs of ``.?!…``;
- ``DIGIT``: numbers with at most one internal ``.``/``,`` between digit
  runs (``12,5``), dangling separator stripped and re-emitted except at
  end of input or before a tag (``p. 12.</p>`` keeps ``12.``);
- ``WORD``: ≤256 chars; apostrophes ``’‘ʼ`` → ``'``, hyphens ``‐‑`` and
  soft hyphen → ``-``; the five XML entities decoded in-token and the
  decoded char *classified* (``B’&gt;`` → ``B'``).

Trailing-dot disambiguation (``MarkupTokenizer.java:56-92,883-929``):
brevidots (configured set, single initials incl. after an elision
(``l'X.``), dotted short-segment abbrevs ``U.S.A.``, hyphenated initials
``J.-J.``) keep the dot unconditionally; other dotted words buffer until
a following token resolves: lowercase word or ``,;:`` keeps all pending
dots; uppercase/titlecase word, number, sentence punctuation, a block
tag or end of input detaches the rightmost dot as sentence punctuation,
cascading right-to-left while the bare token starts uppercase/titlecase/
digit.  A detached dot adjacent to a following ``.?!…`` run merges into
that run.

Hot path (``MarkupTokenizer._scan``): the text is cut at single spaces,
and a piece of letters only (``str.isalpha``, shorter than 256 chars), or
such a piece plus a final ``.``, is one WORD token read in one step.
Every other piece goes through the per-char reader, which has a plain-run
fast path of its own.  The scan records the unknown dotted words, so
dot resolution starts only at those; a text without one returns the raw
token list as is.  Both fast paths give exactly the per-char reader's
tokens (``tests/test_analysis.py`` switches them off and compares).
"""

from __future__ import annotations

import unicodedata

TOKEN_MAX_SIZE = 256

BLOCK_TAGS = frozenset(
    "aside blockquote div figcaption h1 h2 h3 h4 h5 h6 li p section td th".split()
)

DEFAULT_BREVIDOTS = frozenset(
    (
        "etc. cf. chap. vol. fig. ex. art. op. cit. ibid. sq. sqq. "
        "p. pp. t. n° no. ms. mss. fol. col. déc. janv. févr. sept. oct. nov. "
        "M. MM. Mr. Mrs. Dr. Pr. St. Ste."
    ).split()
)

_CLAUSE = frozenset(',;:()—–"«»')
_SENT = frozenset(".?!…")
_APOS_NORM = {"’": "'", "‘": "'", "ʼ": "'"}
_HYPH_NORM = {"‐": "-", "‑": "-", "­": "-"}
_EXTRA_TOKEN = frozenset("&-­'’_°�")
_EXTRA_LETTER = frozenset("&°�")
_ENTITY = {
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
    "&quot;": '"',
    "&apos;": "'",
}


# per-char class flags, lazily cached (hot path: one dict lookup/char)
_LETTER, _DIGIT, _TOKENC = 1, 2, 4
_FLAGS: dict[str, int] = {}


def _flags(c: str) -> int:
    f = _FLAGS.get(c)
    if f is None:
        f = 0
        if c.isalpha() or c in _EXTRA_LETTER:
            f |= _LETTER
        if c.isdecimal():
            f |= _DIGIT
        if c.isalpha() or c.isdecimal() or c in _EXTRA_TOKEN:
            f |= _TOKENC
        _FLAGS[c] = f
    return f


def _is_letter(c: str) -> bool:
    return bool(_flags(c) & _LETTER)


def _is_digit(c: str) -> bool:
    return bool(_flags(c) & _DIGIT)


def _is_token_char(c: str) -> bool:
    return bool(_flags(c) & _TOKENC)


_NORM = {**_APOS_NORM, **_HYPH_NORM}

# plain-letter run for the per-char scanner's fast path: ASCII +
# Latin-1 letters + œ/Œ only — every member is .isalpha(), maps
# through _NORM as itself, and is none of the special chars
# (&.-'_°, digits), so a maximal run not followed by a continuation
# char tokenizes exactly as _read_word would
import re as _re

_PLAIN_RUN = _re.compile(r"[A-Za-zÀ-ÖØ-öø-ÿŒœ]+")

# the piece scanner's test (see MarkupTokenizer._scan): a space-
# delimited piece of letters only is one WORD token; a module name so
# a differential test can switch the piece fast path off
_plain_piece = str.isalpha


def _norm_char(c: str) -> str:
    return _NORM.get(c, c)


class Tok:
    """One token: surface text, class, source span, sparse lemma/POS."""

    __slots__ = ("text", "cls", "start", "end", "pos", "lemma", "lex")

    def __init__(self, text, cls, start, end, pos=None, lemma=None):
        self.text = text
        self.cls = cls
        self.start = start
        self.end = end
        self.pos = pos  # POS (lexicon lookup or context tagger)
        self.lemma = lemma
        # True iff the surface resolved against the lemma LEXICON —
        # the KeywordAttribute analog.  Distinct from ``pos`` since a
        # context tagger may tag tokens the lexicon does not know
        # (those must NOT count as resolved for OCR-garbage gating).
        self.lex = False

    def __repr__(self):  # pragma: no cover
        return f"Tok({self.text!r},{self.cls},{self.start}:{self.end})"

    def __eq__(self, other):
        return (
            isinstance(other, Tok)
            and self.text == other.text
            and self.cls == other.cls
        )


def _looks_like_dotted_abbrev(t: str) -> bool:
    """``U.S.A.``, ``e.g.``, ``Ph.D.`` — short letter-only dotted segments."""
    if len(t) < 4 or t[-1] != ".":
        return False
    seg = 0
    internal = False
    for c in t[:-1]:
        if c == ".":
            if seg == 0 or seg > 3:
                return False
            internal = True
            seg = 0
            continue
        if not _is_letter(c):
            return False
        seg += 1
        if seg > 3:
            return False
    return internal and 0 < seg <= 3


def _looks_like_hyphenated_initials(t: str) -> bool:
    """``J.-J.`` — hyphenated chain of one-letter initials."""
    i, n, groups = 0, len(t), 0
    while i < n:
        if i + 1 >= n or not _is_letter(t[i]) or t[i + 1] != ".":
            return False
        groups += 1
        i += 2
        if i == n:
            return groups >= 2
        if t[i] != "-":
            return False
        i += 1
    return False


def _starts_sentence(text: str) -> bool:
    if not text:
        return False
    c = text[0]
    if c.islower():  # not a digit, not "-", neither upper- nor titlecase
        return False
    if _is_digit(c):
        return True
    if c == "-" and len(text) > 1 and _is_digit(text[1]):
        return True
    return c.isupper() or unicodedata.category(c) == "Lt"


class MarkupTokenizer:
    """Stateless across documents; one instance reusable for many rows."""

    def __init__(self, brevidots=DEFAULT_BREVIDOTS, block_tags=BLOCK_TAGS):
        self.brevidots = frozenset(brevidots)
        self.block_tags = frozenset(x.lower() for x in block_tags)

    # ---- brevidot decision -------------------------------------------
    def _is_brevidot(self, t: str) -> bool:
        if len(t) < 2 or t[-1] != ".":
            return False
        # single initial, possibly after an elision: "J.", "l'X."
        if _is_letter(t[-2]) and (len(t) == 2 or t[-3] == "'"):
            return True
        # skip an elision prefix (buffer already normalized to ASCII ')
        frm = 0
        for i in range(len(t) - 2, 0, -1):
            if t[i - 1] == "'":
                frm = i
                break
        rest = t[frm:]
        if _looks_like_dotted_abbrev(rest):
            return True
        if _looks_like_hyphenated_initials(rest):
            return True
        return rest in self.brevidots

    def _is_unknown_dotted(self, tok: Tok) -> bool:
        t = tok.text
        return (
            tok.cls == "WORD"
            and len(t) > 1
            and t[-1] == "."
            and _is_letter(t[-2])
            and not self._is_brevidot(t)
        )

    def _is_block_tag(self, tag: str) -> bool:
        i, n = 1, len(tag)
        if i < n and tag[i] == "/":
            i += 1
        while i < n and tag[i].isspace():
            i += 1
        j = i
        frm = i
        while j < n and tag[j] not in ">/" and not tag[j].isspace():
            if tag[j] == ":":
                frm = j + 1
            j += 1
        return j > frm and tag[frm:j].lower() in self.block_tags

    # ---- raw reading --------------------------------------------------
    def _scan(self, s: str):
        """Raw tokens of ``s`` (attached trailing dots unresolved) and
        the indices of the unknown dotted ones among them.

        Fast path, one step per token: ``s`` is cut at single spaces
        and a piece of letters only (``str.isalpha``, < 256 chars) is
        one WORD token, as is such a piece plus a final ``.`` (≤ 254
        letters).  Either is exactly what :meth:`_scan_chars` reads
        there: a letter run ends at the space (not a token char), and
        ``_NORM`` maps no letter but ``ʼ``, which sends the whole text
        down the per-char path.  Every other piece, and any piece a
        token read by the per-char path runs into (a tag spans spaces),
        goes through :meth:`_scan_chars`."""
        out: list[Tok] = []
        dotted: list[int] = []
        if "ʼ" in s:
            self._scan_chars(s, 0, len(s), out, dotted)
            return out, dotted
        append = out.append
        plain = _plain_piece
        brevidots = self.brevidots
        i = 0  # where the per-char reading stands
        a = 0  # start of the current piece
        for p in s.split(" "):
            b = a + len(p)
            if i <= a:  # only spaces lie between i and a
                if plain(p):
                    if b - a < TOKEN_MAX_SIZE:
                        append(Tok(p, "WORD", a, b))
                        i = b
                        a = b + 1
                        continue
                elif p and p[-1] == "." and b - a < TOKEN_MAX_SIZE \
                        and plain(p[:-1]):
                    # "word." — unknown dotted unless an initial or a
                    # configured brevidot (the only brevidot shapes a
                    # letters-only word can take)
                    if b - a > 2 and p not in brevidots:
                        dotted.append(len(out))
                    append(Tok(p, "WORD", a, b))
                    i = b
                    a = b + 1
                    continue
            if i < b:
                i = self._scan_chars(s, i, b, out, dotted)
            a = b + 1
        return out, dotted

    def _scan_chars(self, s: str, i: int, limit: int, out: list,
                    dotted: list) -> int:
        """Per-char reading from ``i`` until it reaches ``limit`` with no
        detached punctuation pending; appends to ``out`` (and the indices
        of unknown dotted words to ``dotted``) and returns where it
        stopped — past ``limit`` when a token runs over it."""
        n = len(s)
        append = out.append
        pending: tuple[str, int, int] | None = None  # (char, start, end)
        while i < limit or pending is not None:
            if pending is not None:
                c, ps, pe = pending
                pending = None
                if c in _CLAUSE:
                    append(Tok(c, "PUNCTclause", ps, pe))
                    continue
                # sentence punct: merge with an immediately following run
                j = i
                while j < n and s[j] in _SENT:
                    j += 1
                append(Tok(c + s[i:j], "PUNCTsent", ps, j))
                i = j
                continue
            c = s[i]
            if c == " " or c == "\n":  # inter-token whitespace
                i += 1
                continue
            if c == "<":
                j = s.find(">", i)
                if j == -1:
                    tok = Tok(s[i:], "WORD", i, n)  # truncated tag: no XML flag
                    append(tok)
                    if self._is_unknown_dotted(tok):
                        dotted.append(len(out) - 1)
                    i = n
                    continue
                append(Tok(s[i : j + 1], "XML", i, j + 1))
                i = j + 1
                continue
            if c in _CLAUSE:
                append(Tok(c, "PUNCTclause", i, i + 1))
                i += 1
                continue
            if c in _SENT:
                j = i
                while j < n and s[j] in _SENT:
                    j += 1
                append(Tok(s[i:j], "PUNCTsent", i, j))
                i = j
                continue
            # a maximal run of plain Latin letters followed by a
            # non-continuation char is exactly one WORD token (no
            # entity/&, no dot logic, no normalization — the class
            # excludes every special char), so skip the per-char
            # reading.  Equivalence to _read_word is enforced by the
            # differential test in tests/test_analysis.py.
            m = _PLAIN_RUN.match(s, i)
            if m is not None:
                j = m.end()
                if j - i < TOKEN_MAX_SIZE:
                    if j >= n:
                        append(Tok(s[i:j], "WORD", i, j))
                        i = j
                        continue
                    c2 = s[j]
                    f2 = _FLAGS.get(c2)
                    if f2 is None:
                        f2 = _flags(c2)
                    if c2 != "." and not f2 & _TOKENC:
                        append(Tok(s[i:j], "WORD", i, j))
                        i = j
                        continue
            f = _FLAGS.get(c)
            if f is None:
                f = _flags(c)
            if f & _DIGIT:
                tok, i, pending = self._read_number(s, i, "")
                append(tok)
                continue
            if f & _TOKENC:
                res = self._read_word(s, i)
                if res is None:
                    i += 1  # defensive; _read_word always advances
                    continue
                tok, i, pending = res
                if tok is not None:
                    append(tok)
                    if self._is_unknown_dotted(tok):
                        dotted.append(len(out) - 1)
                continue
            i += 1  # insignificant char
        return i

    def _read_number(self, s: str, i: int, prefix: str):
        """Digits with at most one ``.``/``,`` between digit runs."""
        n = len(s)
        start = i - len(prefix)
        buf = list(prefix)
        fget = _FLAGS.get
        while i < n:
            c = s[i]
            f = fget(c)
            if f is None:
                f = _flags(c)
            if not f & _DIGIT:
                last = buf[-1] if buf else ""
                if c not in ".," or last in ".,":
                    break
            buf.append(c)
            i += 1
        txt = "".join(buf)
        pending = None
        if i < n and s[i] != "<" and txt and txt[-1] in ".,":
            pending = (txt[-1], i - 1, i)
            txt = txt[:-1]
        return Tok(txt, "DIGIT", start, i), i, pending

    def _read_word(self, s: str, i: int):
        """Word-like token; returns (tok_or_None, new_i, pending)."""
        n = len(s)
        start = i
        buf: list[str] = []
        amp = -1
        last_raw = ""
        trailing_dot = False
        fget = _FLAGS.get
        while i < n:
            c = s[i]
            f = fget(c)
            if f is None:
                f = _flags(c)
            if trailing_dot:
                if not f & _LETTER and not self._is_brevidot("".join(buf)):
                    break
                trailing_dot = False
            # entity decode: ';' closing a '&…' span of ≥1 chars
            if c == ";" and amp >= 0 and len(buf) >= amp + 2:
                buf.append(";")
                i += 1
                spelling = "".join(buf[amp:])
                entity_start = i - len(spelling)
                decoded = _ENTITY.get(spelling)
                if decoded is None:
                    amp = -1
                    last_raw = ";"
                    continue
                del buf[amp:]
                amp = -1
                last_raw = decoded
                if decoded in _CLAUSE or decoded in _SENT:
                    pend = (decoded, entity_start, i)
                    if buf:
                        return Tok("".join(buf), "WORD", start, entity_start), i, pend
                    return None, i, pend
                if _is_token_char(decoded):
                    if not buf:
                        start = entity_start
                    buf.append(_norm_char(decoded))
                    continue
                # decoded '<'/'>' acts as a plain delimiter
                if buf:
                    return Tok("".join(buf), "WORD", start, entity_start), i, None
                return None, i, None
            # dot after a letter: append now, decide on next char
            if c == "." and buf and _is_letter(buf[-1]):
                buf.append(".")
                i += 1
                last_raw = "."
                trailing_dot = True
                continue
            # "-42": literal minus then digit → negative number
            if last_raw == "-" and len(buf) == 1 and f & _DIGIT:
                tok, i, pending = self._read_number(s, i, buf[0])
                return tok, i, pending
            if not f & _TOKENC:
                break
            if c == "&":
                amp = len(buf)
            buf.append(_NORM.get(c, c))
            i += 1
            last_raw = c
            if len(buf) >= TOKEN_MAX_SIZE:
                break
        if not buf:
            return None, max(i, start + 1), None
        return Tok("".join(buf), "WORD", start, i), i, None

    # ---- dot resolution ----------------------------------------------
    def tokenize(self, s: str) -> list[Tok]:
        raw, dotted = self._scan(s)
        if not dotted:
            return raw
        out: list[Tok] = []
        i = 0
        unknown = set(dotted)
        for d in dotted:
            if d >= i:  # not consumed by an earlier resolution
                out += raw[i:d]
                i = self._resolve_dotted(raw, d, unknown, out)
        out += raw[i:]
        return out

    def _resolve_dotted(self, raw: list, d: int, unknown: set,
                        out: list) -> int:
        """Resolve the unknown dotted word ``raw[d]`` (and any further
        ones — indices in ``unknown`` — before the deciding token) into
        ``out``; return the index of the first raw token not
        consumed."""
        cands = [d]
        n = len(raw)
        j = d
        while True:
            j += 1
            if j == n:
                self._detach(raw, d, cands, n, None, out)
                return n
            t = raw[j]
            cls = t.cls
            if cls == "XML":
                if self._is_block_tag(t.text):
                    self._detach(raw, d, cands, j + 1, None, out)
                    return j + 1
                continue
            if cls == "PUNCTclause":
                if t.text in ",;:":
                    out += raw[d : j + 1]  # keeps all pending dots
                    return j + 1
                continue  # quotes, parens, dashes: transparent
            if j in unknown:
                cands.append(j)
                continue
            if cls == "PUNCTsent":
                self._detach(raw, d, cands, j + 1, t, out)
                return j + 1
            if not _starts_sentence(t.text):
                out += raw[d : j + 1]
                return j + 1
            self._detach(raw, d, cands, j + 1, None, out)
            return j + 1

    @staticmethod
    def _detach(raw: list, d: int, cands: list, stop: int,
                punct: Tok | None, out: list) -> None:
        """Detach the rightmost pending dot as sentence punctuation,
        cascading left while the bare token starts a sentence, and
        emit ``raw[d:stop]`` with the detached dots into ``out``.  A
        detached dot right before ``punct`` (a ``.?!…`` run) merges
        into it."""
        k = len(cands) - 1
        t = raw[cands[k]]
        t.text = t.text[:-1]
        t.end -= 1
        while k > 0 and _starts_sentence(t.text):
            k -= 1
            t = raw[cands[k]]
            t.text = t.text[:-1]
            t.end -= 1
        last = cands[-1]
        merge_last = punct is not None and punct.start == raw[last].end + 1
        if merge_last:
            punct.text = "." + punct.text
            punct.start = raw[last].end
        prev = d
        for c in cands[k:]:
            out += raw[prev : c + 1]
            if c != last or not merge_last:
                e = raw[c].end
                out.append(Tok(".", "PUNCTsent", e, e + 1))
            prev = c + 1
        out += raw[prev:stop]


class LineTokenizer:
    """Each line is one token; empty lines dropped
    (LineTokenizer.java:12-50).  Offsets account for the newline."""

    def tokenize(self, s: str) -> list[Tok]:
        out: list[Tok] = []
        offset = 0
        for line in s.split("\n"):
            if line:
                out.append(Tok(line, "LINE", offset, offset + len(line)))
            offset += len(line) + 1
        return out

    def terms(self, s: str) -> list[str]:
        return [t.text for t in self.tokenize(s)]
