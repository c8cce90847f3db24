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

Hot path (:class:`Surfaces`, the analyzer's walk): a batch of texts is
cut at single spaces, and each piece is looked up by its string in the
table's piece map; only a piece seen for the first time is read
(:meth:`MarkupTokenizer.read_piece`).  A piece of letters only
(``str.isalpha``, shorter than 256 chars), or such a piece plus a final
``.``, is one WORD token read in one step; every other piece goes
through the per-char reader, which has a plain-run fast path of its own.
A piece maps to its raw tokens as surface ids (a surface is a token's
text and kind) with offsets from the piece start, so the batch becomes
one token stream of parallel arrays (:class:`Stream`: row, surface id,
start, end) with no per-token object.  Dot resolution then walks only
from the unknown dotted words that a following token can detach.  Both
fast paths give exactly the per-char reader's tokens
(``tests/test_analysis.py`` switches them off and compares);
:meth:`MarkupTokenizer.tokenize` is the ``Tok`` view of the same steps.

Ids are local to one table, in one process: they index nothing else,
never leave the walk that made them (its outputs are strings), and the
table forgets them (starts over past its bound) only between walks.
"""

from __future__ import annotations

import unicodedata

import numpy as np

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


# token kinds, as a surface's ``kind`` code; ``KIND_NAMES`` are the
# ``Tok.cls`` names (a stop word is a WORD surface, shown as ``STOP``)
KIND_NAMES = ("WORD", "DIGIT", "XML", "PUNCTclause", "PUNCTsent",
              "PUNCTpara", "PUNCTsection")
WORD, DIGIT, XML, PUNCT_CLAUSE, PUNCT_SENT, PUNCT_PARA, PUNCT_SECTION = \
    range(len(KIND_NAMES))

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

# the piece scanner's test (see MarkupTokenizer.read_piece): a space-
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

    def _is_unknown_dotted(self, t: str) -> bool:
        """A WORD surface whose final dot waits for the next token."""
        return (
            len(t) > 1
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
    def read_piece(self, p: str, final: bool):
        """Raw tokens ``(text, kind, start, end)`` of one piece of a
        text cut at single spaces, offsets from the piece start, read as
        followed by a space or, ``final``, as the end of the text.
        None when a tag opened in the piece runs past it.

        Fast path, one step: a piece of letters only (``str.isalpha``,
        < 256 chars), or such a piece plus a final ``.``, is one WORD,
        which is exactly what the per-char reader reads there (a letter
        run ends at the space, and ``_NORM`` maps no letter but ``ʼ``,
        which the per-char reader takes).  Only the space after a piece
        and the end of the text are context to the per-char reader: a
        token never spans a space but a tag, and only a number's
        dangling separator looks at the end of the text."""
        n = len(p)
        if n < TOKEN_MAX_SIZE and "ʼ" not in p and (
                _plain_piece(p)
                or p[-1:] == "." and _plain_piece(p[:-1])):
            return [(p, WORD, 0, n)]
        if not final and "<" in p and p.rfind(">") < p.rfind("<"):
            return None
        out: list = []
        s = p if final else p + " "
        self._scan_chars(s, 0, len(s), out)
        return out

    def _scan_chars(self, s: str, i: int, limit: int, out: list) -> int:
        """Per-char reading from ``i`` until it reaches ``limit`` with no
        detached punctuation pending; appends ``(text, kind, start,
        end)`` to ``out`` and returns where it stopped — past ``limit``
        when a token runs over it."""
        n = len(s)
        append = out.append
        pending: tuple[str, int, int] | None = None  # (char, start, end)
        while i < limit or pending is not None:
            if pending is not None:
                c, ps, pe = pending
                pending = None
                if c in _CLAUSE:
                    append((c, PUNCT_CLAUSE, ps, pe))
                    continue
                # sentence punct: merge with an immediately following run
                j = i
                while j < n and s[j] in _SENT:
                    j += 1
                append((c + s[i:j], PUNCT_SENT, ps, j))
                i = j
                continue
            c = s[i]
            if c == " " or c == "\n":  # inter-token whitespace
                i += 1
                continue
            if c == "<":
                j = s.find(">", i)
                if j == -1:
                    append((s[i:], WORD, i, n))  # truncated tag: no XML flag
                    i = n
                    continue
                append((s[i : j + 1], XML, i, j + 1))
                i = j + 1
                continue
            if c in _CLAUSE:
                append((c, PUNCT_CLAUSE, i, i + 1))
                i += 1
                continue
            if c in _SENT:
                j = i
                while j < n and s[j] in _SENT:
                    j += 1
                append((s[i:j], PUNCT_SENT, i, j))
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
                        append((s[i:j], WORD, i, j))
                        i = j
                        continue
                    c2 = s[j]
                    f2 = _FLAGS.get(c2)
                    if f2 is None:
                        f2 = _flags(c2)
                    if c2 != "." and not f2 & _TOKENC:
                        append((s[i:j], WORD, i, j))
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
                tok, i, pending = self._read_word(s, i)
                if tok is not None:
                    append(tok)
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
        return (txt, DIGIT, start, i), i, pending

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
                        return ("".join(buf), WORD, start, entity_start), i, pend
                    return None, i, pend
                if _is_token_char(decoded):
                    if not buf:
                        start = entity_start
                    buf.append(_norm_char(decoded))
                    continue
                # decoded '<'/'>' acts as a plain delimiter
                if buf:
                    return ("".join(buf), WORD, start, entity_start), i, None
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
                return self._read_number(s, i, buf[0])
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
        return ("".join(buf), WORD, start, i), i, None

    # ---- the Tok view of the raw stage -------------------------------
    def tokenize(self, s: str) -> list[Tok]:
        """Tokens of ``s`` with trailing dots resolved: the scan and dot
        steps of the analyzer's walk over a table of its own."""
        tab = Surfaces(self)
        st = tab.resolve_dots(tab.scan([s]))
        text = tab.text
        return [Tok(text[i], KIND_NAMES[k], a, b)
                for i, k, a, b in zip(st.sid.tolist(),
                                      tab.cols.kind[st.sid].tolist(),
                                      st.start.tolist(), st.end.tolist())]


# ---------------------------------------------------------------------
# Surface ids and the batch token stream
# ---------------------------------------------------------------------


class Columns:
    """Growable numpy columns of one common length, one row per id."""

    def __init__(self, **dtypes):
        self._dtypes = dtypes
        self.n = 0
        self._cap = 64
        for name, dt in dtypes.items():
            setattr(self, name, np.zeros(self._cap, dt))

    def add(self) -> int:
        """A new row (zeros); its id."""
        i = self.n
        if i == self._cap:
            self._cap *= 2
            for name in self._dtypes:
                old = getattr(self, name)
                new = np.zeros(self._cap, old.dtype)
                new[:i] = old
                setattr(self, name, new)
        self.n = i + 1
        return i


class Stream:
    """A batch's token stream as parallel arrays, one entry per token:
    ``doc`` (row in the batch, ascending), ``sid`` (surface id in the
    analyzer's table), ``start``/``end`` (char offsets in the row's
    text), and, once the analyzer fills them, ``pos`` (POS code, None
    while all 0), ``lemma`` (surface id or -1) and ``lex`` (lexicon
    hit).  ``seen`` ORs the ``flags`` of the surfaces the stream has
    held (where the walk last took it), so a step that nothing can set
    off costs no pass over the stream."""

    __slots__ = ARRAYS = ("doc", "sid", "start", "end", "pos", "lemma",
                          "lex")
    __slots__ += ("n_docs", "seen")

    def __init__(self, n_docs, doc, sid, start, end, seen=0):
        self.n_docs = n_docs
        self.doc = doc
        self.sid = sid
        self.start = start
        self.end = end
        self.pos = self.lemma = self.lex = None
        self.seen = seen

    def bounds(self) -> np.ndarray:
        """Token offsets of the rows: row ``r`` is ``[b[r], b[r+1])``."""
        if self.n_docs == 1:
            return np.array([0, len(self.sid)])
        return np.searchsorted(self.doc, np.arange(self.n_docs + 1))

    def take(self, keep) -> None:
        """Keep the tokens at ``keep`` (a mask or ascending indices)."""
        for name in self.ARRAYS:
            a = getattr(self, name)
            if a is not None:
                setattr(self, name, a[keep])

    def insert(self, at, **values) -> None:
        """Insert one token before each index of ``at`` (ascending):
        ``values`` gives its columns, zero where not given."""
        for name in self.ARRAYS:
            a = getattr(self, name)
            if a is not None:
                setattr(self, name, np.insert(a, at, values.get(name, 0)))


def _spans(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``first[i] + 0 .. first[i] + counts[i] - 1``, concatenated."""
    ends = np.add.accumulate(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(
        ends - counts - first, counts)


# next-token decisions of dot resolution, per surface
_KEEP, _DETACH, _BLOCK, _TRANSP, _CAND, _SENT_RUN = range(6)

# ``flags`` bits of a surface: the walk steps its tokens may set off
# (see ``Stream.seen``); :class:`~.filters.LexemeTable` adds its own.
# A piece's flags OR its tokens' and ``P_MULTI`` (not one token).
F_DOTTED, F_XML = 1, 2
P_MULTI = 1 << 14


class _PieceMap(dict):
    """Piece string → piece id, read on first lookup (see
    :meth:`MarkupTokenizer.read_piece`).  A piece whose tag runs past
    it maps to -1, uncached, and flags the table."""

    __slots__ = ("tab", "final")

    def __init__(self, tab, final: bool):
        super().__init__()
        self.tab = tab
        self.final = final

    def __missing__(self, p: str) -> int:
        tab = self.tab
        toks = tab.tokenizer.read_piece(p, self.final)
        if toks is None:
            tab.spans = True
            return -1
        pid = self[p] = tab._add_piece(toks, len(p))
        return pid


class Surfaces:
    """Id table of the surfaces one tokenizer reads, and of the pieces
    a text is cut into.

    A surface is a token's text and kind; its id indexes numpy columns
    of context-free results, here the dot-resolution ones.  A piece (a
    run between single spaces) maps to the raw tokens the tokenizer
    reads there, as surface ids and offsets from the piece start.  Ids
    are this instance's own: they index nothing anywhere else."""

    def __init__(self, tokenizer: MarkupTokenizer):
        self.tokenizer = tokenizer
        self.start_over()

    def __len__(self) -> int:
        return len(self.text)

    def start_over(self) -> None:
        """Forget every surface and piece; only the reserved surfaces
        (``EMPTY``, ``DOT``, and a subclass's) get their ids again."""
        self.text: list[str] = []
        self.ids: dict = {}
        self.cols = self._columns()
        self.pieces = _PieceMap(self, False)
        self.finals = _PieceMap(self, True)
        self.pcols = Columns(nt=np.int32, t0=np.int32, len=np.int64,
                             flags=np.int16)
        self.tcols = Columns(sid=np.int32, rs=np.int32, re=np.int32)
        self.spans = False
        self.intern("", WORD)
        self.intern(".", PUNCT_SENT)

    def _columns(self) -> Columns:
        return Columns(kind=np.int8, flags=np.int16, dcode=np.int8,
                       undot=np.int32)

    def intern(self, text: str, kind: int = WORD) -> int:
        """The id of surface ``(text, kind)``, added on first sight."""
        key = text if kind == WORD else (kind, text)
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = self.cols.add()
            self.text.append(text)
            self._fill(sid, text, kind)
        return sid

    def _fill(self, sid: int, text: str, kind: int) -> None:
        """Compute the context-free columns of a new surface."""
        c = self.cols
        tk = self.tokenizer
        c.kind[sid] = kind
        c.undot[sid] = -1
        dotted = kind == WORD and tk._is_unknown_dotted(text)
        if kind == XML:
            code = _BLOCK if tk._is_block_tag(text) else _TRANSP
        elif kind == PUNCT_CLAUSE:
            code = _KEEP if text in ",;:" else _TRANSP
        elif kind == PUNCT_SENT:
            code = _SENT_RUN
        elif dotted:
            code = _CAND
        else:
            code = _DETACH if _starts_sentence(text) else _KEEP
        c.dcode[sid] = code
        if dotted:
            c.flags[sid] = F_DOTTED
            c.undot[sid] = self.intern(text[:-1], WORD)
        elif kind == XML:
            c.flags[sid] = F_XML

    def _add_piece(self, toks: list, length: int) -> int:
        pc, tc = self.pcols, self.tcols
        pid = pc.add()
        pc.nt[pid] = len(toks)
        pc.t0[pid] = tc.n
        pc.len[pid] = length + 1  # with the space after it
        flags = 0 if len(toks) == 1 else P_MULTI
        for text, kind, a, b in toks:
            t = tc.add()
            tc.sid[t] = sid = self.intern(text, kind)
            tc.rs[t] = a
            tc.re[t] = b
            flags |= int(self.cols.flags[sid])
        pc.flags[pid] = flags
        return pid

    def seen(self, st: Stream) -> Stream:
        """Set ``st.seen`` from the surfaces it holds."""
        st.seen = int(np.bitwise_or.reduce(self.cols.flags[st.sid]))
        return st

    # ---- scan: texts → raw token stream ------------------------------
    def scan(self, texts) -> Stream:
        """The raw tokens of ``texts`` (dots unresolved): each text is
        cut at single spaces and each piece looked up by its string;
        only a piece seen for the first time is read."""
        get = self.pieces.__getitem__
        get_final = self.finals.__getitem__
        pids: list[int] = []
        npieces: list[int] = []
        for s in texts:
            pieces = s.split(" ")
            last = pieces.pop()
            ids = list(map(get, pieces))
            ids.append(get_final(last))
            if self.spans:
                self.spans = False
                pieces.append(last)
                ids = self._chunked(s, pieces, ids)
            npieces.append(len(ids))
            pids += ids
        pid = np.array(pids, np.intp)
        pc, tc = self.pcols, self.tcols
        plen = pc.len[pid]
        pstart = np.add.accumulate(plen)
        pstart -= plen
        n_docs = len(npieces)
        if n_docs == 1:
            pdoc = np.zeros(len(pid), np.intp)
        else:  # offsets from each row's start
            npieces = np.array(npieces, np.intp)
            pdoc = np.repeat(np.arange(n_docs), npieces)
            pstart -= pstart[np.add.accumulate(npieces) - npieces][pdoc]
        seen = int(np.bitwise_or.reduce(pc.flags[pid]))
        if seen & P_MULTI:
            nt = pc.nt[pid]
            tok = _spans(pc.t0[pid], nt)
            pdoc = np.repeat(pdoc, nt)
            pstart = np.repeat(pstart, nt)
        else:
            tok = pc.t0[pid]
        return Stream(n_docs, pdoc, tc.sid[tok], pstart + tc.rs[tok],
                      pstart + tc.re[tok], seen & ~P_MULTI)

    def _chunked(self, s: str, pieces: list, ids: list) -> list:
        """Piece ids of a text in which a tag runs past its piece: the
        per-char reader reads from that piece on until it stops before
        a piece start, and the span it read is one uncached piece."""
        out: list[int] = []
        chunk = None
        i = a = a0 = last_b = 0
        for k, p in enumerate(pieces):
            b = a + len(p)
            if chunk is not None and i <= a:
                out.append(self._chunk(chunk, a0, last_b))
                chunk = None
            if chunk is None:
                if ids[k] >= 0:
                    out.append(ids[k])
                    a = b + 1
                    continue
                chunk = []
                a0 = i = a
            if i < b:
                i = self.tokenizer._scan_chars(s, i, b, chunk)
            last_b = b
            a = b + 1
        if chunk is not None:
            out.append(self._chunk(chunk, a0, last_b))
        return out

    def _chunk(self, toks: list, a0: int, b: int) -> int:
        return self._add_piece(
            [(t, kind, x - a0, y - a0) for t, kind, x, y in toks], b - a0)

    # ---- dot resolution ----------------------------------------------
    def resolve_dots(self, st: Stream) -> Stream:
        """Resolve the unknown dotted words (module docstring): most
        are followed by a word that keeps the dot, which changes
        nothing, so only the others are walked."""
        if not st.seen & F_DOTTED:
            return st
        sid = st.sid
        d = (self.cols.flags[sid] & F_DOTTED).nonzero()[0]
        bounds = st.bounds()
        dend = bounds[st.doc[d] + 1]
        nxt = np.minimum(d + 1, len(sid) - 1)
        hard = d[(d + 1 == dend) | (self.cols.dcode[sid[nxt]] != _KEEP)]
        if not len(hard):
            return st
        dcode = self.cols.dcode
        text = self.text
        start, end = st.start, st.end
        at: list[int] = []
        at_start: list[int] = []
        at_doc: list[int] = []
        i = 0
        for d, e in zip(hard.tolist(), bounds[st.doc[hard] + 1].tolist()):
            if d < i:
                continue  # a candidate of the previous resolution
            cands = [d]
            j = d
            punct = None
            while True:
                j += 1
                if j == e:
                    detach = True
                    break
                code = dcode[sid[j]]
                if code == _TRANSP:
                    continue
                if code == _CAND:
                    cands.append(j)
                    continue
                detach = code != _KEEP
                if code == _SENT_RUN:
                    punct = j
                break
            i = j + 1 if j < e else e
            if not detach:
                continue
            # detach the rightmost dot, cascading left while the bare
            # word starts a sentence
            k = len(cands) - 1
            while True:
                c = cands[k]
                sid[c] = self.cols.undot[sid[c]]
                end[c] -= 1
                if k == 0 or not _starts_sentence(text[sid[c]]):
                    break
                k -= 1
            last = cands[-1]
            merge = punct is not None and start[punct] == end[last] + 1
            if merge:  # the dot joins the sentence punctuation after it
                sid[punct] = self.intern("." + text[sid[punct]], PUNCT_SENT)
                start[punct] = end[last]
            for c in cands[k:]:
                if c != last or not merge:
                    at.append(c + 1)
                    at_start.append(int(end[c]))
                    at_doc.append(int(st.doc[c]))
        if at:
            starts = np.array(at_start, np.int64)
            st.insert(np.array(at, np.int64), doc=np.array(at_doc),
                      sid=DOT, start=starts, end=starts + 1)
        return self.seen(st)


# reserved surface ids (every table starts over with them)
EMPTY, DOT = 0, 1


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
