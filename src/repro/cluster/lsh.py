"""Banded-prefix LSH over the TLSH-style fuzzy digests.

:func:`repro.index.fuzzy.fuzzy_digest` emits a 6-hex-char header plus a
64-hex-char body (2 bits per histogram bucket).  A local edit to a
method body moves only a handful of buckets across a quartile
boundary, so most of the body hex stays put.  :class:`LshIndex` exploits
that: the body is split into :data:`DEFAULT_BANDS` contiguous bands and
each item is filed under one bucket per band, keyed by the band's exact
hex substring.  Two digests within small edit distance of each other
almost surely agree on at least one band (16 bands of 4 chars: even
with 10% of bucket codes changed, P[some band matches] > 0.9999), so
``nearest`` only rescores the union of the query's band buckets with
the exact :func:`~repro.index.fuzzy.fuzzy_distance` instead of scanning
the whole corpus.

The header chars are deliberately *not* banded — checksum and length
band shift on any edit and would only dilute the buckets.

Items are filed by *distinct digest*: a digest shared by many refs (a
library method revealed in every app) is filed, parsed and scored
once, and its refs are expanded only when its distance can still reach
the requested top ``limit``.

Exactness guarantees:

* every returned distance comes from ``fuzzy_distance`` (the LSH only
  prunes candidates, it never approximates scores);
* results are ordered by ``(distance, sort_key)``, then insertion order;
* when the banded candidates hold fewer refs than the requested
  ``limit`` (sparse corner of the corpus) the scan silently widens to
  every item, so small corpora behave exactly like the linear oracle;
* ``exhaustive=True`` bypasses the buckets entirely — the oracle the
  recall tests and benchmarks compare against.

Not thread-safe on its own: callers (:class:`~repro.index.corpus.CorpusIndex`,
:class:`~repro.cluster.store.ClusterStore`) mutate it under their own
locks.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.index.fuzzy import _DIGEST_LEN, distance_from, parse_digest

_HEADER_CHARS = 6
_BODY_CHARS = _DIGEST_LEN - _HEADER_CHARS

#: 16 bands x 4 hex chars over the 64-char body.
DEFAULT_BANDS = 16


class LshIndex:
    """In-memory banded buckets answering ``nearest(digest, k)``.

    Items are ``(digest, ref)`` pairs plus a caller-supplied *sort key*
    used to break distance ties deterministically regardless of
    insertion order.  Deduplication is the caller's job — the owning
    store already keeps a key set.
    """

    def __init__(self, bands: int = DEFAULT_BANDS) -> None:
        if bands <= 0 or _BODY_CHARS % bands:
            raise ValueError(
                f"bands must divide the {_BODY_CHARS}-char digest body, "
                f"got {bands}"
            )
        self.bands = bands
        self.band_width = _BODY_CHARS // bands
        #: (band index, band hex) -> ids of the distinct digests filed there
        self._buckets: dict[tuple[int, str], list[int]] = {}
        #: digest -> id; per id its parsed form and its
        #: ``(sort_key, item index, ref)`` entries in insertion order
        self._ids: dict[str, int] = {}
        self._parsed: list[tuple] = []
        self._refs: list[list[tuple[tuple, int, object]]] = []
        self._items = 0

    def __len__(self) -> int:
        return self._items

    def _band_keys(self, digest: str) -> list[tuple[int, str]]:
        body = digest[_HEADER_CHARS:]
        width = self.band_width
        return [(band, body[band * width:(band + 1) * width])
                for band in range(self.bands)]

    def add(self, digest: str, ref: object, sort_key: tuple = ()) -> None:
        """File one item; a digest seen before only gains a ref."""
        ident = self._ids.get(digest)
        if ident is None:
            parsed = parse_digest(digest)  # validates the length
            ident = len(self._parsed)
            self._ids[digest] = ident
            self._parsed.append(parsed)
            self._refs.append([])
            for key in self._band_keys(digest):
                self._buckets.setdefault(key, []).append(ident)
        self._refs[ident].append((tuple(sort_key), self._items, ref))
        self._items += 1

    def _candidate_ids(self, digest: str) -> set[int]:
        ids: set[int] = set()
        for key in self._band_keys(digest):
            ids.update(self._buckets.get(key, ()))
        return ids

    def candidates(self, digest: str) -> list[int]:
        """Item indexes (insertion order) sharing a band with ``digest``."""
        refs = self._refs
        return sorted(index for ident in self._candidate_ids(digest)
                      for _, index, _ in refs[ident])

    def _holds(self, ids, accept, limit: int) -> bool:
        """Whether the digests ``ids`` hold ``limit`` accepted refs."""
        refs = self._refs
        held = 0
        for ident in ids:
            if accept is None:
                held += len(refs[ident])
            else:
                held += sum(1 for _, _, ref in refs[ident] if accept(ref))
            if held >= limit:
                return True
        return False

    def nearest(
        self,
        digest: str,
        limit: int = 5,
        exhaustive: bool = False,
        accept: Callable[[object], bool] | None = None,
    ) -> list[tuple[int, object]]:
        """The ``limit`` closest refs as ``(distance, ref)`` pairs.

        ``accept`` filters refs *before* the sparse-fallback decision,
        so a filtered-out bucket never masks a true neighbour.
        """
        score = distance_from(digest)  # validates the length
        if limit <= 0:
            return []
        ids = None
        if not exhaustive:
            ids = self._candidate_ids(digest)
            if not self._holds(ids, accept, limit):
                ids = None  # sparse corner: match the oracle
        if ids is None:
            ids = range(len(self._parsed))
        parsed = self._parsed
        by_distance: dict[int, list[int]] = {}
        for ident in ids:
            by_distance.setdefault(score(parsed[ident]), []).append(ident)
        refs = self._refs
        found: list[tuple[int, object]] = []
        for distance in sorted(by_distance):
            group = [entry for ident in by_distance[distance]
                     for entry in refs[ident]
                     if accept is None or accept(entry[2])]
            # Item indexes are unique, so refs themselves never compare.
            best = heapq.nsmallest(limit - len(found), group,
                                   key=lambda entry: entry[:2])
            found.extend((distance, ref) for _, _, ref in best)
            if len(found) >= limit:
                break
        return found

    def stats(self) -> dict:
        refs = self._refs
        buckets = self._buckets
        largest = max((sum(len(refs[ident]) for ident in ids)
                       for ids in buckets.values()), default=0)
        return {
            "items": self._items,
            "bands": self.bands,
            "band_width": self.band_width,
            "buckets": len(buckets),
            "largest_bucket": largest,
        }
