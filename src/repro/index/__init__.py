"""Corpus-scale similarity index over revealed methods and classes.

At market scale most applications share the vast majority of their code
(ad SDKs, support libraries, packer stubs).  This package turns that
redundancy into lookups:

* :mod:`repro.index.fuzzy` — a pure-python TLSH-style locality digest
  for near-duplicate detection;
* :mod:`repro.index.digests` — per-method / per-class digest bundles
  combining the exact normalized-bytecode hash
  (:func:`repro.core.body_cache.document_digest`), the
  register/pool-insensitive structural hash and the fuzzy digest, and
  the per-reveal map every store consumer shares;
* :mod:`repro.index.corpus` — :class:`CorpusIndex`, a persistent,
  shardable digest → ``(app, class, method, artifact)`` map with an
  attached body store that lets the reassembler *replay* an
  already-revealed method body instead of re-emitting it, and a memo
  of the digests it computed, kept by exact digest for its lifetime.

``repro.core`` never imports this package at module level; the pipeline
lazy-imports :class:`CorpusIndex` only when ``RevealConfig.index_dir``
is set, and the collection archive imports the digests only when a
store asks for them, keeping the core → index dependency one-way and
optional.
"""

from repro.index.corpus import INDEX_FORMAT_VERSION, CorpusIndex, IndexEntry
from repro.index.digests import (
    MethodDigests,
    class_fuzzy_digest,
    method_digests,
    reveal_digests,
)
from repro.index.fuzzy import fuzzy_digest, fuzzy_distance

__all__ = [
    "INDEX_FORMAT_VERSION",
    "CorpusIndex",
    "IndexEntry",
    "MethodDigests",
    "method_digests",
    "reveal_digests",
    "class_fuzzy_digest",
    "fuzzy_digest",
    "fuzzy_distance",
]
