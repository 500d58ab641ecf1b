"""Digest bundles: one method or class → (exact, structural, fuzzy).

Composes the three similarity levels the corpus index stores:

* ``exact`` — :func:`repro.core.body_cache.exact_method_digest`; equal
  digests mean the reassembler can *replay* the body byte-identically.
* ``norm`` — SHA-256 of the register/pool-insensitive token stream
  (:func:`repro.core.body_cache.normalized_method_tokens`); equal
  digests mean "same code modulo register allocation and constant-pool
  numbering" — the right key for "which apps contain this method?".
* ``fuzzy`` — TLSH-style locality digest (:mod:`repro.index.fuzzy`)
  over the same tokens minus positions; ``None`` for tiny methods.

A reveal computes its bundles once, with :func:`reveal_digests`, and
hands the map to every consumer: the index probe, the reassembler's
body cache, index registration, the labeler and the cluster store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.body_cache import (
    exact_method_digest,
    method_fuzzy_bytes,
    normalized_digest_and_fuzzy_bytes,
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


def method_digests(record: MethodRecord,
                   exact: str | None = None) -> MethodDigests:
    """All three digests for one record, from one token walk.

    ``exact`` can be passed when the caller already computed it.
    """
    norm, stream = normalized_digest_and_fuzzy_bytes(record)
    return MethodDigests(
        exact=exact or exact_method_digest(record),
        norm=norm,
        fuzzy=fuzzy_digest(stream),
        fuzzy_bytes=stream,
    )


def reveal_digests(records) -> dict[str, MethodDigests]:
    """Signature -> :class:`MethodDigests` for one reveal's records."""
    return {record.signature: method_digests(record) for record in records}


def class_fuzzy_digest(records: list[MethodRecord],
                       digests: dict[str, MethodDigests] | None = None
                       ) -> str | None:
    """Fuzzy digest of a whole class: member streams, signature order.

    Sorting by signature makes the digest independent of collection
    order, so the same class revealed in two apps digests identically.
    ``digests`` (from :func:`reveal_digests`) supplies the members'
    streams; without it each member's tokens are walked here.
    """
    members = sorted(records, key=lambda r: r.signature)
    if digests is None:
        streams = [method_fuzzy_bytes(record) for record in members]
    else:
        streams = [digests[record.signature].fuzzy_bytes
                   for record in members]
    return fuzzy_digest(b"".join(streams))
