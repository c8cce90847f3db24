"""Query parser (reference grammar subset: ``SpanQueryParser.java:1-24``).

- bare terms → scored disjunctively (the engine's BM25 sum);
- ``"quoted words"`` or ``a_b`` underscore forms → one indexed MWE term
  (underscore-joined canonical, as the MWE filter indexes them);
- ``( … )`` groups → flattened (OR semantics under disjunctive BM25);
- ``*``/``?`` wildcards → multi-term expansion against the lexicon;
- terms are resolved through the same analyzer as indexing; unknown
  terms are dropped by the engine (reference drops them at parse).

Scoring-semantics note (documented divergence): the reference's
relevance mode wraps all terms in an unordered ``SpanNearQuery`` (doc
must contain all terms within slop); this engine scores pure
disjunctive BM25 by default and offers ``mode="and"`` conjunctive
filtering — positions are an optional artifact (SURVEY.md §7.4.6).
"""

from __future__ import annotations

import fnmatch
import re

_PHRASE = re.compile(r'"([^"]*)"')
_WS = re.compile(r"\s+")


class WordMemo:
    """Bounded memo in front of an analyzer: text →
    ``tuple(analyzer.terms(text))``, at most ``cap`` texts (the oldest
    dropped first).  It has the analyzer's ``terms``, so
    :func:`parse_query` takes it in the analyzer's place."""

    __slots__ = ("analyzer", "cap", "memo")

    def __init__(self, analyzer, cap: int):
        self.analyzer = analyzer
        self.cap = cap
        self.memo: dict[str, tuple] = {}

    def terms(self, text: str) -> tuple:
        hit = self.memo.get(text)
        if hit is None:
            hit = tuple(self.analyzer.terms(text))
            if len(self.memo) >= self.cap:
                self.memo.pop(next(iter(self.memo)))
            self.memo[text] = hit
        return hit


def parse_query(q: str, analyzer, lexicon=None, root_dict=None,
                df=None) -> list[str]:
    """Query string → list of index terms (possibly with duplicates).

    ``analyzer`` is read only through ``analyzer.terms(text)``, called
    once per bare word (a run of non-space characters outside quotes and
    parentheses, other than a wildcard or an ``a_b`` form) and once per
    quoted phrase body, each on its own text and never on the whole
    query.  So a :class:`WordMemo` in the
    analyzer's place gives the same terms: ``BM25Index.parse`` passes
    its handle's memo, and each distinct word is analyzed once per
    handle.

    When ``root_dict`` (a :class:`alix_ray.analysis.hunspell.
    RootDictionary`) and ``df`` (term → document frequency) are given,
    exact single-word terms prefer INDEXED dictionary roots — the
    reference's Hunspell root preference
    (``snippets/SpanQueryParser.java:463-520``): every indexed root of
    the inflected form is kept (OR expansion); the surface form is the
    fallback; terms with neither are left for the engine to drop.
    """
    if not q:
        return []
    terms: list[str] = []

    def phrase(m):
        words = analyzer.terms(m.group(1))
        if words:
            terms.append("_".join(words))
        return " "

    def resolve(token: str) -> list[str]:
        if root_dict is None or df is None:
            return [token]
        roots = [r for r in root_dict.get_roots(token) if df.get(r, 0) > 0]
        return roots if roots else [token]

    rest = _PHRASE.sub(phrase, q)
    rest = rest.replace("(", " ").replace(")", " ")
    for word in _WS.split(rest.strip()):
        if not word:
            continue
        if "*" in word or "?" in word:
            if lexicon:
                pat = word.lower()
                terms.extend(t for t in lexicon if fnmatch.fnmatchcase(t, pat))
            continue
        if "_" in word:
            terms.append(word)  # already-canonical MWE term
            continue
        for tok in analyzer.terms(word):
            terms.extend(resolve(tok))
    return terms
