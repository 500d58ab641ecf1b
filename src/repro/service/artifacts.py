"""Content-addressed artifact store for revealed outputs.

DexLego-as-a-service hands back *artifacts*: the revealed ``classes.dex``
a static analyzer consumes, the repacked APK, and the collection
archive (Figure 2's on-disk intermediates) for offline re-reassembly.
Workers write them here as they complete jobs; the gateway serves them
back over ``GET /v1/artifacts/<digest>``.

The store is addressed by SHA-256 of the content, like the result
cache — so identical outputs from different jobs (the same library app
submitted by two tenants, a re-run under the same config) are stored
once, and a fetched artifact can be integrity-checked by rehashing.

Layout: ``<root>/<digest[:2]>/<digest>`` (one level of fan-out keeps
directory listings sane at millions of artifacts).  Writes are atomic
(``.tmp`` + ``os.replace``) and first-writer-wins: concurrent workers
storing the same bytes race benignly.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading

from repro import faults

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


def artifact_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def is_artifact_digest(value: str) -> bool:
    """True for a well-formed (lowercase hex SHA-256) digest — the
    gateway's guard against path-traversal in the artifact route."""
    return bool(_DIGEST_RE.match(value or ""))


class ArtifactStore:
    """Content-addressed blob store: ``put`` bytes, get a digest back.

    ``create=False`` opens for inspection only (the gateway's read
    path); a missing root then raises ``FileNotFoundError`` instead of
    scaffolding a store inside a typo'd path.
    """

    def __init__(self, root: str, create: bool = True) -> None:
        self.root = root
        #: Blobs whose bytes no longer rehash to their digest — seen on
        #: :meth:`get`, which refuses to serve them (content addressing
        #: makes every read integrity-checkable for free).
        self.corrupt_blobs = 0
        if create:
            os.makedirs(root, exist_ok=True)
        elif not os.path.isdir(root):
            raise FileNotFoundError(f"no artifact store at {root!r}")

    def _path(self, digest: str) -> str:
        if not is_artifact_digest(digest):
            raise ValueError(f"not an artifact digest: {digest!r}")
        return os.path.join(self.root, digest[:2], digest)

    # -- write ---------------------------------------------------------------

    def put(self, data: bytes) -> str:
        """Store one blob; returns its digest.  Idempotent — an
        already-present digest costs one stat, no write."""
        digest = artifact_digest(data)
        path = self._path(digest)
        if os.path.exists(path):
            return digest
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Per process and thread: the worker threads of one ``serve``
        # may put the same digest at once.
        faults.atomic_write_bytes(
            path, data, site="artifacts.put",
            tmp=f"{path}.{os.getpid()}.{threading.get_ident()}.tmp")
        return digest

    # -- read ----------------------------------------------------------------

    def get(self, digest: str) -> bytes | None:
        """The blob for one digest, or ``None`` when absent or corrupt
        (bytes that fail the rehash are never served — a truncated blob
        would otherwise masquerade as a valid artifact)."""
        try:
            path = self._path(digest)
        except ValueError:
            return None
        faults.check("artifacts.get")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        if artifact_digest(data) != digest:
            self.corrupt_blobs += 1
            return None
        return data

    def __contains__(self, digest: str) -> bool:
        try:
            return os.path.exists(self._path(digest))
        except ValueError:
            return False

    def size(self, digest: str) -> int | None:
        try:
            return os.path.getsize(self._path(digest))
        except (OSError, ValueError):
            return None

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Artifact count and total bytes (walks the store)."""
        count = 0
        total = 0
        try:
            shards = os.listdir(self.root)
        except OSError:
            shards = []
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name.endswith(".tmp") or not is_artifact_digest(name):
                    continue
                count += 1
                try:
                    total += os.path.getsize(os.path.join(shard_dir, name))
                except OSError:
                    pass
        return {"artifacts": count, "total_bytes": total,
                "corrupt_blobs": self.corrupt_blobs}
