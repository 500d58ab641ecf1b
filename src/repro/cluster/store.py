"""Persistent cluster store: LSH members + family assignments on disk.

Mirrors :class:`~repro.index.corpus.CorpusIndex`'s writer model so any
number of threads, processes or hosts can share one directory:

* ``cluster_meta.json`` — ``{"version": 1}``; foreign versions are
  refused with a one-line ``ValueError`` (the archive/job-store guard
  pattern).
* ``segments/seg-<writer>.jsonl`` — append-only member journal, one
  segment per open store, merged at open; corrupt or truncated lines
  are skipped and counted.
* ``families.json`` — the latest
  :class:`~repro.cluster.families.FamilyAssignment` snapshot, written
  atomically in canonical form (sorted keys), so equal partitions are
  byte-identical files.

The banded :class:`~repro.cluster.lsh.LshIndex` is rebuilt in memory at
open — it is a pure function of the member set, so persisting the
buckets themselves would only add an invalidation problem.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import uuid
from dataclasses import asdict, dataclass

from repro import faults
from repro.cluster.families import (
    DEFAULT_FAMILY_THRESHOLD,
    FamilyAssignment,
    cluster_families,
)
from repro.cluster.lsh import LshIndex
from repro.cluster.profiles import build_profiles
from repro.index.digests import reveal_digests

CLUSTER_FORMAT_VERSION = 1

_META_FILE = "cluster_meta.json"
_SEGMENTS_DIR = "segments"
_FAMILIES_FILE = "families.json"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClusterMember:
    """One clustered artefact: a method's digests plus provenance."""

    kind: str                 # "method" | "class"
    app_id: str
    class_desc: str
    method: str | None        # full signature for methods, None for classes
    norm: str | None          # structural digest (methods only)
    fuzzy: str | None         # TLSH-style digest, None when too small

    def key(self) -> tuple:
        return (self.kind, self.app_id, self.class_desc, self.method,
                self.norm, self.fuzzy)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["v"] = CLUSTER_FORMAT_VERSION
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterMember":
        return cls(
            kind=data["kind"],
            app_id=data["app_id"],
            class_desc=data["class_desc"],
            method=data.get("method"),
            norm=data.get("norm"),
            fuzzy=data.get("fuzzy"),
        )

    @classmethod
    def from_index_entry(cls, entry) -> "ClusterMember":
        """Project an :class:`~repro.index.corpus.IndexEntry` down."""
        return cls(
            kind=entry.kind,
            app_id=entry.app_id,
            class_desc=entry.class_desc,
            method=entry.method,
            norm=entry.norm,
            fuzzy=entry.fuzzy,
        )


class ClusterStore:
    """Family clustering state rooted at ``RevealConfig.cluster_dir``.

    Thread-safe; multi-process safe through per-writer segments and the
    atomic ``families.json`` snapshot.
    """

    def __init__(self, root: str | os.PathLike, create: bool = True) -> None:
        self.root = os.fspath(root)
        self.segments_dir = os.path.join(self.root, _SEGMENTS_DIR)
        self._lock = threading.Lock()
        self._members: list[ClusterMember] = []
        self._keys: set[tuple] = set()
        self._by_norm: dict[str, list[ClusterMember]] = {}
        self._lsh = LshIndex()
        self._families: FamilyAssignment | None = None
        self.corrupt_lines = 0
        self._writer_id = uuid.uuid4().hex[:12]
        self._segment_handle = None
        self._open(create)

    # -- open / meta --------------------------------------------------------

    def _open(self, create: bool) -> None:
        meta_path = os.path.join(self.root, _META_FILE)
        if not os.path.isfile(meta_path):
            if not create:
                raise FileNotFoundError(
                    f"no cluster store at {self.root!r} "
                    f"(missing {_META_FILE})"
                )
            os.makedirs(self.segments_dir, exist_ok=True)
            # Per-writer tmp name: two processes creating the same
            # fresh store must not move each other's tmp file away.
            tmp = f"{meta_path}.{self._writer_id}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"version": CLUSTER_FORMAT_VERSION}, fh)
            os.replace(tmp, meta_path)
            return
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
        except ValueError as exc:
            raise ValueError(
                f"cluster store at {self.root!r} has an unreadable "
                f"{_META_FILE}: {exc}"
            ) from exc
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != CLUSTER_FORMAT_VERSION:
            raise ValueError(
                f"cluster store at {self.root!r} has format version "
                f"{version!r}; this build supports {CLUSTER_FORMAT_VERSION}"
            )
        os.makedirs(self.segments_dir, exist_ok=True)
        self._load_segments()
        self._load_families()

    def _load_segments(self) -> None:
        for name in sorted(os.listdir(self.segments_dir)):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(self.segments_dir, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if line:
                            self._absorb_line(line)
            except OSError:
                self.corrupt_lines += 1

    def _absorb_line(self, line: str) -> None:
        try:
            data = json.loads(line)
        except ValueError:
            self.corrupt_lines += 1
            return
        if not isinstance(data, dict) \
                or data.get("v") != CLUSTER_FORMAT_VERSION \
                or "kind" not in data or "app_id" not in data \
                or "class_desc" not in data:
            self.corrupt_lines += 1
            return
        self._absorb(ClusterMember.from_dict(data))

    def _load_families(self) -> None:
        path = os.path.join(self.root, _FAMILIES_FILE)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError:
            return
        except ValueError:
            self.corrupt_lines += 1
            return
        if isinstance(data, dict):
            self._families = FamilyAssignment.from_dict(data)

    def _absorb(self, member: ClusterMember) -> bool:
        """Index a member in memory; False when it was a duplicate."""
        key = member.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self._members.append(member)
        if member.norm:
            self._by_norm.setdefault(member.norm, []).append(member)
        if member.fuzzy:
            self._lsh.add(member.fuzzy, member, sort_key=key)
        return True

    # -- writes -------------------------------------------------------------

    def _segment(self):
        if self._segment_handle is None:
            path = os.path.join(self.segments_dir,
                                f"seg-{self._writer_id}.jsonl")
            self._segment_handle = open(path, "a", encoding="utf-8")
        return self._segment_handle

    def add_member(self, member: ClusterMember) -> bool:
        """Absorb + journal one member; False when already present."""
        with self._lock:
            if not self._absorb(member):
                return False
            handle = self._segment()
            faults.append_line(
                handle, json.dumps(member.to_dict(), sort_keys=True) + "\n",
                site="cluster.segment.append")
            handle.flush()
            return True

    def register_index(self, index) -> int:
        """Absorb every digest-bearing entry of a corpus index."""
        added = 0
        for entry in index.entries():
            if not entry.norm and not entry.fuzzy:
                continue
            if self.add_member(ClusterMember.from_index_entry(entry)):
                added += 1
        return added

    def register_records(self, app_id: str, records,
                         digests: dict | None = None) -> int:
        """Absorb one reveal's executed method records.

        ``digests`` is the reveal's signature -> digests map
        (:func:`~repro.index.digests.reveal_digests`); without it the
        digests are computed here.
        """
        if digests is None:
            digests = reveal_digests(records)
        added = 0
        for record in records:
            method = digests[record.signature]
            if not method.norm and not method.fuzzy:
                continue
            member = ClusterMember(
                kind="method",
                app_id=app_id,
                class_desc=record.class_desc,
                method=record.signature,
                norm=method.norm,
                fuzzy=method.fuzzy,
            )
            if self.add_member(member):
                added += 1
        return added

    def close(self) -> None:
        with self._lock:
            if self._segment_handle is not None:
                self._segment_handle.close()
                self._segment_handle = None

    # -- queries ------------------------------------------------------------

    def members(self) -> list[ClusterMember]:
        with self._lock:
            return list(self._members)

    def members_with_norm(self, digest: str) -> list[ClusterMember]:
        with self._lock:
            return list(self._by_norm.get(digest, ()))

    def apps_with_norm(self, digest: str) -> list[str]:
        """'Which apps contain this method?' — by structural digest."""
        return sorted({m.app_id for m in self.members_with_norm(digest)})

    def nearest(self, fuzzy: str, limit: int = 5,
                exhaustive: bool = False) -> list[tuple[int, ClusterMember]]:
        """Nearest members of a fuzzy digest via the banded LSH."""
        with self._lock:
            return self._lsh.nearest(fuzzy, limit=limit,
                                     exhaustive=exhaustive)

    # -- families -----------------------------------------------------------

    def build_families(
        self,
        threshold: float = DEFAULT_FAMILY_THRESHOLD,
    ) -> FamilyAssignment:
        """(Re)cluster the member set and snapshot ``families.json``."""
        with self._lock:
            profiles = build_profiles(self._members)
        assignment = cluster_families(profiles, threshold=threshold)
        path = os.path.join(self.root, _FAMILIES_FILE)
        faults.atomic_write_text(path, assignment.to_json(),
                                 site="cluster.families.write",
                                 tmp=f"{path}.{self._writer_id}.tmp")
        with self._lock:
            self._families = assignment
        return assignment

    def families(self) -> FamilyAssignment | None:
        with self._lock:
            return self._families

    def family_of(self, app_id: str) -> str:
        """The app's family id, or ``""`` when unclustered."""
        with self._lock:
            if self._families is None:
                return ""
            return self._families.family_of(app_id)

    # -- stats / maintenance ------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            methods = sum(1 for m in self._members if m.kind == "method")
            apps = {m.app_id for m in self._members}
            families = self._families
            lsh_stats = self._lsh.stats()
        try:
            segments = sum(1 for name in os.listdir(self.segments_dir)
                           if name.endswith(".jsonl"))
        except OSError:
            segments = 0
        return {
            "version": CLUSTER_FORMAT_VERSION,
            "members": methods,
            "apps": len(apps),
            "families": len(families.families) if families else 0,
            "family_threshold": families.threshold if families else None,
            "segments": segments,
            "corrupt_lines": self.corrupt_lines,
            "lsh": lsh_stats,
        }

    def compact(self) -> int:
        """Fold every segment into one, atomically; returns member count."""
        with self._lock:
            if self._segment_handle is not None:
                self._segment_handle.close()
                self._segment_handle = None
            old = [name for name in os.listdir(self.segments_dir)
                   if name.endswith(".jsonl")]
            merged = f"seg-compact-{uuid.uuid4().hex[:12]}.jsonl"
            payload = "".join(
                json.dumps(member.to_dict(), sort_keys=True) + "\n"
                for member in self._members)
            faults.atomic_write_text(
                os.path.join(self.segments_dir, merged), payload,
                site="cluster.compact")
            for name in old:
                if name == merged:
                    continue
                try:
                    os.unlink(os.path.join(self.segments_dir, name))
                except OSError:
                    logger.warning("compact: could not remove segment %s",
                                   name)
            return len(self._members)
