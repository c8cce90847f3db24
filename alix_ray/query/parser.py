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
    dropped first).  It has the analyzer's ``terms_of``, so
    :func:`parse_query` takes it in the analyzer's place."""

    __slots__ = ("analyzer", "cap", "memo")

    def __init__(self, analyzer, cap: int):
        self.analyzer = analyzer
        self.cap = cap
        self.memo: dict[str, tuple] = {}

    def terms_of(self, texts: list) -> list:
        """The terms of each text; the texts not in the memo go to the
        analyzer in one ``terms_of`` call."""
        memo = self.memo
        try:
            return [memo[t] for t in texts]
        except KeyError:
            pass
        got = {t: memo[t] for t in texts if t in memo}
        new = [t for t in dict.fromkeys(texts) if t not in got]
        for text, hit in zip(new, self.analyzer.terms_of(new)):
            got[text] = hit = tuple(hit)
            if len(memo) >= self.cap:
                memo.pop(next(iter(memo)))
            memo[text] = hit
        return [got[t] for t in texts]


def parse_query(q: str, analyzer, lexicon=None, root_dict=None,
                df=None) -> list[str]:
    """Query string → list of index terms (possibly with duplicates).

    ``analyzer`` is read only through ``analyzer.terms_of(texts)``,
    called once per query on its quoted phrase bodies and bare words (a
    bare word is a run of non-space characters outside quotes and
    parentheses, other than a wildcard or an ``a_b`` form), each
    analyzed as its own text and never the whole query.  So a
    :class:`WordMemo` in the analyzer's place gives the same terms:
    ``BM25Index.parse`` passes its handle's memo, and each distinct
    word is analyzed once per handle.

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
    phrases = _PHRASE.findall(q) if '"' in q else []
    rest = _PHRASE.sub(" ", q) if phrases else q
    words = _WS.split(rest.replace("(", " ").replace(")", " ").strip())
    bare = [w for w in words if w and "*" not in w and "?" not in w
            and "_" not in w]
    analyzed = analyzer.terms_of(phrases + bare)
    terms = ["_".join(p) for p in analyzed[:len(phrases)] if p]
    bare_terms = iter(analyzed[len(phrases):])

    def resolve(token: str) -> list[str]:
        if root_dict is None or df is None:
            return [token]
        roots = [r for r in root_dict.get_roots(token) if df.get(r, 0) > 0]
        return roots if roots else [token]

    for word in words:
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
        for tok in next(bare_terms):
            terms.extend(resolve(tok))
    return terms
