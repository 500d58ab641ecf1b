"""Persistent cluster store: LSH members + family assignments on disk.

Shares :class:`~repro.index.corpus.CorpusIndex`'s writer model so any
number of threads, processes or hosts can share one directory:

* ``cluster_meta.json`` and ``segments/seg-<writer>.jsonl`` — the
  versioned, per-writer member journal of
  :class:`~repro.segment_log.SegmentLog` (one segment per open store,
  merged at open; corrupt or truncated lines skipped and counted).
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
import os
import threading
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
from repro.segment_log import SegmentLog

CLUSTER_FORMAT_VERSION = 1

_META_FILE = "cluster_meta.json"
_FAMILIES_FILE = "families.json"


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
        self._lock = threading.Lock()
        self._by_norm: dict[str, list[ClusterMember]] = {}
        self._lsh = LshIndex()
        self._families: FamilyAssignment | None = None
        self._log = SegmentLog(
            self.root, store="cluster store", meta_file=_META_FILE,
            version=CLUSTER_FORMAT_VERSION, site="cluster",
            row=ClusterMember, on_row=self._absorb, create=create)
        self._load_families()

    @property
    def corrupt_lines(self) -> int:
        return self._log.corrupt_lines

    def _load_families(self) -> None:
        """Read the ``families.json`` snapshot; one that does not parse
        as a :class:`FamilyAssignment` counts as one corrupt line and
        the store opens with no families."""
        path = os.path.join(self.root, _FAMILIES_FILE)
        try:
            with open(path, encoding="utf-8") as fh:
                self._families = FamilyAssignment.from_dict(json.load(fh))
        except OSError:
            return
        except ValueError:
            self._log.corrupt_lines += 1

    def _absorb(self, member: ClusterMember) -> None:
        """File a newly held member under its digests."""
        if member.norm:
            self._by_norm.setdefault(member.norm, []).append(member)
        if member.fuzzy:
            self._lsh.add(member.fuzzy, member, sort_key=member.key())

    # -- writes -------------------------------------------------------------

    def add_member(self, member: ClusterMember) -> bool:
        """Journal + absorb one member; False when already present."""
        with self._lock:
            return self._log.append(member)

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
            self._log.close()

    # -- queries ------------------------------------------------------------

    def members(self) -> list[ClusterMember]:
        with self._lock:
            return list(self._log.rows)

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
            profiles = build_profiles(self._log.rows)
        assignment = cluster_families(profiles, threshold=threshold)
        path = os.path.join(self.root, _FAMILIES_FILE)
        faults.atomic_write_text(path, assignment.to_json(),
                                 site="cluster.families.write",
                                 tmp=f"{path}.{self._log.writer_id}.tmp")
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
            members = self._log.rows
            methods = sum(1 for m in members if m.kind == "method")
            apps = {m.app_id for m in members}
            families = self._families
            lsh_stats = self._lsh.stats()
            corrupt = self._log.corrupt_lines
        return {
            "version": CLUSTER_FORMAT_VERSION,
            "members": methods,
            "apps": len(apps),
            "families": len(families.families) if families else 0,
            "family_threshold": families.threshold if families else None,
            "segments": self._log.segment_count(),
            "corrupt_lines": corrupt,
            "lsh": lsh_stats,
        }

    def compact(self) -> int:
        """Fold every segment into one, atomically (see
        :meth:`SegmentLog.compact`); returns member count."""
        with self._lock:
            return self._log.compact()
