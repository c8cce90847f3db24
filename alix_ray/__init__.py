"""alix_ray — a Ray-Data-native full-text inverted-index + BM25 engine.

Built from scratch with the query/data-processing capabilities of the
reference engine (oeuvres/alix, a Lucene 10 based indexer with French
lexical analysis; see SURVEY.md).  Architecture is Ray-Data-first:

- ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy
  Arrow batches for extraction / analysis,
- stateful analyzer stages as actor pools,
- segment-local inverted-index construction (one segment per contiguous
  doc-id range) followed by a *compressed* merge shuffle keyed by
  ``hash(term) % P`` — raw tokens never cross the wire,
- delta + variable-byte posting compression with 128-entry blocks and
  block-max metadata for block-max pruned top-k,
- BM25 scoring pinned to the reference formula
  (``IdfTermScorer.java:208-267``).
"""

__version__ = "0.1.0"
FORMAT_VERSION = 3  # bump when artifact schemas/codec change (invalidates caches)

K1 = 1.2
B = 0.75
IDF_EXP = 1.0  # reference HTTP-layer default (web/.../Pars.java:27)
BLOCK = 128  # posting entries per block (block-max granularity)
