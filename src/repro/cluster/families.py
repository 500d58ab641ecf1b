"""Threshold-agglomerative family clustering over app profiles.

Union-find over every app pair whose weighted-Jaccard profile
similarity reaches the threshold.  Union-find makes the partition a
pure function of the *edge set*: which pairs are similar depends only
on the profiles, never on the order apps were registered or on how many
workers wrote the index — so family assignments are byte-identical
across insertion orders and worker counts (asserted in
``tests/cluster/test_families.py``).

A family's identity is content-addressed too:
``fam-<sha256 of its sorted member list>[:12]``, so re-clustering the
same corpus reproduces the same ids, and growing a family changes its
id (it *is* a different set of apps).

Pair enumeration is pruned through an inverted digest→apps map: only
pairs sharing at least one normalized digest are scored, so disjoint
apps cost nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Mapping

from repro.cluster.profiles import (
    AppProfile,
    digest_weights,
    profile_similarity,
)
from repro.jsonshape import check_shape

#: Weighted-Jaccard similarity at or above which two apps are kin.
DEFAULT_FAMILY_THRESHOLD = 0.5


def family_id(members: list[str]) -> str:
    """Content-addressed family id over the sorted member list."""
    blob = "\n".join(sorted(members)).encode("utf-8")
    return "fam-" + hashlib.sha256(blob).hexdigest()[:12]


class _UnionFind:
    """Path-compressed union-find with deterministic roots (min app id)."""

    def __init__(self, members) -> None:
        self._parent = {member: member for member in members}

    def find(self, member: str) -> str:
        parent = self._parent
        root = member
        while parent[root] != root:
            root = parent[root]
        while parent[member] != root:
            parent[member], member = root, parent[member]
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        # Lexicographically smallest member wins the root, so the
        # forest shape never depends on union order.
        if root_b < root_a:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a

    def groups(self) -> list[list[str]]:
        grouped: dict[str, list[str]] = {}
        for member in self._parent:
            grouped.setdefault(self.find(member), []).append(member)
        return [sorted(group) for _, group in sorted(grouped.items())]


@dataclass(frozen=True)
class FamilyAssignment:
    """The deterministic output of one clustering run."""

    threshold: float
    families: tuple[dict, ...]     # {"family", "apps", "size"}, sorted
    app_to_family: dict = field(default_factory=dict)

    def family_of(self, app_id: str) -> str:
        """The app's family id, or ``""`` when it was never clustered."""
        return self.app_to_family.get(app_id, "")

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "families": [dict(f) for f in self.families],
        }

    def to_json(self) -> str:
        """Canonical serialization — byte-identical for equal partitions."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "FamilyAssignment":
        """Rebuild a :meth:`to_dict` snapshot; ``ValueError`` when
        ``data`` is not one (a wrong shape or a wrongly typed field)."""
        check_shape(data, {"threshold?": (int, float), "families?": [
            {"family": str, "apps": [str], "size": int}]})
        families = tuple(dict(f) for f in data.get("families", ()))
        app_to_family = {app: f["family"]
                         for f in families for app in f["apps"]}
        return cls(
            threshold=float(data.get("threshold", DEFAULT_FAMILY_THRESHOLD)),
            families=families,
            app_to_family=app_to_family,
        )


def cluster_families(
    profiles: Mapping[str, AppProfile],
    threshold: float = DEFAULT_FAMILY_THRESHOLD,
    weights: Mapping[str, float] | None = None,
) -> FamilyAssignment:
    """Partition apps into families; singletons stay their own family."""
    if weights is None:
        weights = digest_weights(profiles)
    union_find = _UnionFind(sorted(profiles))
    # Only app pairs sharing a digest can clear any positive threshold.
    apps_by_digest: dict[str, list[str]] = {}
    for app_id in sorted(profiles):
        for digest in profiles[app_id].digests:
            apps_by_digest.setdefault(digest, []).append(app_id)
    candidate_pairs = {
        pair
        for apps in apps_by_digest.values() if len(apps) > 1
        for pair in itertools.combinations(apps, 2)
    }
    for app_a, app_b in sorted(candidate_pairs):
        similarity = profile_similarity(
            profiles[app_a], profiles[app_b], weights)
        if similarity >= threshold:
            union_find.union(app_a, app_b)
    families = []
    app_to_family: dict[str, str] = {}
    for members in union_find.groups():
        fam = family_id(members)
        families.append({"family": fam, "apps": members,
                         "size": len(members)})
        for member in members:
            app_to_family[member] = fam
    families.sort(key=lambda f: (-f["size"], f["family"]))
    return FamilyAssignment(
        threshold=threshold,
        families=tuple(families),
        app_to_family=app_to_family,
    )
