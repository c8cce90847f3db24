"""Lexical analysis chain (reference parity: SURVEY.md §2.2).

The canonical chain mirrors
``analysis/.../fr/FrenchAnalyzer.java:288-305``::

    MarkupTokenizer → MarkupBoundaryFilter → FrenchCliticSplitFilter →
    ReplaceFilter → UppercaseFilter → [lexicon POS/lemma tagging] →
    MweFilter → StopFilter → CleanupFilter

POS tagging via the reference's OpenNLP binary model is replaced by
lexicon-driven tagging (SURVEY.md §7.0 scope decision) — same token
classes, same position-gap semantics, same ``(term, position)`` output
contract.

Everything here is row-local: an analyzer instance is built once per
Ray actor (``__init__``) and applied per batch.  Its only cross-row
state is a per-surface memo of context-free filter results
(``filters.LexemeTable``), which changes speed, never output, so output
is independent of batch boundaries and parallelism.
"""

from .tokenizer import MarkupTokenizer, Tok
from .chain import FrenchAnalyzer, SimpleAnalyzer

__all__ = ["MarkupTokenizer", "Tok", "FrenchAnalyzer", "SimpleAnalyzer"]
