"""Default sentence-context POS disambiguator: a tiny averaged
perceptron (Collins 2002, EMNLP) trained at first use on SYNTHETIC
French contexts — pure Python, no binary resource.

Reference parity: ``PosTaggingFilter.java:66`` loads an OpenNLP maxent
model (``FrenchAnalyzer.java:73-79``) to disambiguate noun/verb
homographs from sentence context.  That model binary is unshippable
(SURVEY.md §7.0), so the shipped default is this stand-in: it decides
ONLY the classic French noun/verb homographs (``la ferme`` vs ``il
ferme``), from closed-class context features (determiner/pronoun/
preposition neighbors), and leaves every other token to the lexicon
tagger (``lemma_filter`` fills ``pos`` where unset).  The feature set
is deliberately word-agnostic, so the learned rule generalizes to any
homograph added to ``AMBIGUOUS_NV``.

Training runs once per process (~1 ms: a few hundred synthetic
examples × 5 epochs), is fully deterministic (fixed example order,
no RNG), and needs no external data — the closed-class word lists
below are standard public French grammar inventories.
"""

from __future__ import annotations

# noun/verb homographs the tagger decides (the OpenNLP model's most
# visible win in the reference's chain); extend freely — features are
# word-agnostic so no retraining data per word is needed
AMBIGUOUS_NV = frozenset(
    "ferme porte marche montre livre souris garde place voile danse "
    "commande note signe cuisine bois court vole".split()
)

# closed-class context inventories (public French grammar lists)
_DETS = frozenset(
    "le la les un une ce cet cette ces sa son ses ma mon mes notre nos "
    "votre vos leur leurs du au aux".split()
)
_PRONS = frozenset(
    "je tu il elle on nous vous ils elles qui".split()
)
_ADPS = frozenset(
    "de dans sur sous avec sans chez vers pour par entre".split()
)
_ADVS = frozenset("ne très bien souvent toujours vite trop".split())
_ADJS = ("petite grande belle vieille bonne jolie".split())
_SAFE_DETS = ("le la une cette sa notre".split())
_SAFE_PRONS = ("je il elle on nous ils".split())

_BOS = "<bos>"
_EOS = "<eos>"
_PUN = "<pun>"


def _wclass(w: str | None) -> str:
    if w is None or w == _BOS:
        return "BOS"
    if w == _PUN:
        return "PUN"
    if w in _DETS:
        return "DET"
    if w in _PRONS:
        return "PRON"
    if w in _ADPS:
        return "ADP"
    if w in _ADVS:
        return "ADV"
    return "OTH"


def _features(words: list, i: int) -> tuple:
    """Context features for position ``i`` over a lowercased word list
    (None/_PUN entries mark sentence boundaries/punctuation)."""
    p1 = words[i - 1] if i >= 1 else _BOS
    p2 = words[i - 2] if i >= 2 else _BOS
    n1 = words[i + 1] if i + 1 < len(words) else _EOS
    return (
        "b",
        "p1c=" + _wclass(p1),
        "p2c=" + _wclass(p2),
        "n1c=" + (_wclass(n1) if n1 != _EOS else "EOS"),
        "p1w=" + (p1 or _PUN),
        "p1c+n1c=" + _wclass(p1) + "/" + (_wclass(n1) if n1 != _EOS
                                          else "EOS"),
    )


def _training_examples() -> list:
    """Synthetic (words, index, gold) contexts encoding the grammar:

    * DET (+ optional ADJ) before the homograph → NOUN, likewise
      ADP+DET before it ("dans la ferme");
    * PRON before it → VERB ("il ferme"), including the object-clitic
      reading "il la ferme" (PRON + la) and negation "il ne ferme";
    * sentence-initial homograph followed by a DET → VERB (the
      imperative "Ferme la porte");
    * a NOUN reading is often followed by ADP/punctuation, a VERB
      reading by its object's DET — encoded by the n1 features.
    """
    X = "<x>"  # placeholder — features never look at the word itself
    ex: list = []

    def add(seq, gold):
        i = seq.index(X)
        ex.append((list(seq), i, gold))

    for d in _SAFE_DETS:
        add([d, X], "NOUN")
        add([d, X, "de"], "NOUN")
        add([d, X, _PUN], "NOUN")
        for a in _ADJS[:3]:
            add([d, a, X], "NOUN")
        for p in ("dans", "sur", "de", "vers"):
            add([p, d, X], "NOUN")
        # object position: any open-class head + DET + homograph
        # ("ouvre la porte", "ferme la porte") — p2c=OTH, p1c=DET;
        # only the object CLITIC (p2c=PRON, "il la ferme") is a verb
        for head in ("chose", "homme", "voit"):
            add([head, d, X], "NOUN")
            add([head, d, X, _PUN], "NOUN")
    for pr in _SAFE_PRONS:
        add([pr, X], "VERB")
        add([pr, X, "la"], "VERB")
        add([pr, X, "le"], "VERB")
        add([pr, "ne", X], "VERB")
        add([pr, "la", X], "VERB")   # object clitic: "il la ferme"
        add([pr, "le", X], "VERB")
    for bos in (_BOS, _PUN):         # start of text OR after a "."
        add([bos, X, "la"], "VERB")  # imperative "Ferme la porte"
        add([bos, X, "le"], "VERB")
        add([bos, X, "ta"], "VERB")
    return ex


class PerceptronTagger:
    """Averaged perceptron over the two labels; tags ONLY words in
    ``ambiguous`` (everything else stays with the lexicon tagger).
    Plug as ``FrenchAnalyzer(tagger=...)`` — instantiate once per
    actor; ``__call__`` mutates ``t.pos`` in place (the hook
    contract, analysis/chain.py)."""

    LABELS = ("NOUN", "VERB")

    def __init__(self, ambiguous=AMBIGUOUS_NV, epochs: int = 5):
        self.ambiguous = frozenset(ambiguous)
        self.weights = self._train(_training_examples(), epochs)

    def _train(self, examples: list, epochs: int) -> dict:
        w: dict = {}
        acc: dict = {}
        stamp: dict = {}
        t = 0

        def upd(feat, label, delta):
            key = (feat, label)
            acc[key] = acc.get(key, 0.0) + (t - stamp.get(key, 0)) * \
                w.get(key, 0.0)
            stamp[key] = t
            w[key] = w.get(key, 0.0) + delta

        for ep in range(epochs):
            # deterministic order variation without an RNG: rotate by a
            # coprime stride per epoch
            n = len(examples)
            stride = 7 + 2 * ep
            order = [(i * stride) % n for i in range(n)]
            for j in order:
                words, i, gold = examples[j]
                t += 1
                feats = _features(words, i)
                pred = self._predict(feats, w)
                if pred != gold:
                    for f in feats:
                        upd(f, gold, 1.0)
                        upd(f, pred, -1.0)
        # final average
        out: dict = {}
        for key, val in w.items():
            total = acc.get(key, 0.0) + (t - stamp.get(key, 0)) * val
            a = total / max(t, 1)
            if a:
                out[key] = a
        return out

    def _predict(self, feats, w) -> str:
        best, best_s = self.LABELS[0], float("-inf")
        for lab in self.LABELS:
            s = sum(w.get((f, lab), 0.0) for f in feats)
            if s > best_s:
                best, best_s = lab, s
        return best

    def __call__(self, toks) -> None:
        words = [
            (t.text.lower() if (t.cls == "WORD" and t.text) else _PUN)
            for t in toks
        ]
        amb = self.ambiguous
        if amb.isdisjoint(words):
            return
        for i, w in enumerate(words):
            if w in amb:
                toks[i].pos = self._predict(_features(words, i), self.weights)


_DEFAULT: PerceptronTagger | None = None


def default_tagger() -> PerceptronTagger:
    """Process-wide singleton (trained once; analyzers share it)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PerceptronTagger()
    return _DEFAULT
