"""Digest bundles: one method or class → (exact, structural, fuzzy).

Composes the three similarity levels the corpus index stores:

* ``exact`` — :func:`repro.core.body_cache.document_digest`, the
  SHA-256 of the record's :func:`~repro.core.body_cache.method_document`;
  equal digests mean the reassembler can *replay* the body
  byte-identically.
* ``norm`` — SHA-256 of the register/pool-insensitive token stream
  (:func:`repro.core.body_cache.normalized_method_tokens`) walked from
  that same document; equal digests mean "same code modulo register
  allocation and constant-pool numbering" — the right key for "which
  apps contain this method?".
* ``fuzzy`` — TLSH-style locality digest (:mod:`repro.index.fuzzy`)
  over the same tokens minus positions; ``None`` for tiny methods.

The tokens read nothing the exact digest does not hash, so the norm
digest, the fuzzy digest and the fuzzy stream are functions of the
exact digest, and a class's fuzzy digest is a function of its members'
exact digests.  That lets a
:class:`~repro.index.corpus.CorpusIndex` keep the bundles it computed
by exact digest for its lifetime and walk tokens only for bodies it has
not seen (:meth:`~repro.index.corpus.CorpusIndex.reveal_digests`).

A reveal computes its bundles once, with :func:`reveal_digests` (or the
index's memoised form), through
:meth:`~repro.core.collection_files.CollectionArchive.method_digests`,
which keeps the map for every consumer: the index probe, the
reassembler's body cache, index registration, the labeler and the
cluster store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.body_cache import (
    document_digest,
    method_document,
    normalized_method_tokens,
)
from repro.core.method_store import MethodRecord
from repro.index.fuzzy import fuzzy_digest


@dataclass(frozen=True)
class MethodDigests:
    """The three digest levels for one executed method."""

    exact: str
    norm: str
    fuzzy: str | None
    #: The stream ``fuzzy`` digests, kept so a class digest can join its
    #: members' streams without walking their tokens again.
    fuzzy_bytes: bytes = field(default=b"", repr=False, compare=False)


def document_digests(doc: dict, exact: str) -> MethodDigests:
    """All three digests of one :func:`method_document` whose exact
    digest is ``exact``, from one token walk.

    The fuzzy stream is the tokens without their ``dex_pc``: dropping
    the position makes the fuzzy digest tolerant of inserted or removed
    instructions shifting everything after them.
    """
    tokens = normalized_method_tokens(doc)
    norm = hashlib.sha256(
        json.dumps(tokens, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    stream = json.dumps(
        [token[1:] if isinstance(token[0], int) else token
         for token in tokens],
        separators=(",", ":"),
    ).encode("utf-8")
    return MethodDigests(exact=exact, norm=norm,
                         fuzzy=fuzzy_digest(stream), fuzzy_bytes=stream)


def method_digests(record: MethodRecord,
                   exact: str | None = None) -> MethodDigests:
    """All three digests for one record, from one document.

    ``exact`` can be passed when the caller already computed it.
    """
    doc = method_document(record)
    return document_digests(doc, exact or document_digest(doc))


def reveal_digests(records) -> dict[str, MethodDigests]:
    """Signature -> :class:`MethodDigests` for one reveal's records."""
    return {record.signature: method_digests(record) for record in records}


def class_fuzzy_digest(records: list[MethodRecord],
                       digests: dict[str, MethodDigests]) -> str | None:
    """Fuzzy digest of a whole class: member streams, signature order.

    Sorting by signature makes the digest independent of collection
    order, so the same class revealed in two apps digests identically.
    ``digests`` (from :func:`reveal_digests`) supplies the members'
    streams.
    """
    members = sorted(records, key=lambda r: r.signature)
    return fuzzy_digest(b"".join(digests[record.signature].fuzzy_bytes
                                 for record in members))
