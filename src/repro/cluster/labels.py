"""Auto-labeling fresh reveals from corpus provenance.

Given one reveal's executed method records, the labeler asks two
questions per method:

* **known** — does any *other* app contain this exact structure?
  (``apps_with_norm`` provenance, from the corpus index when one is
  attached, else from the cluster store's own members); each sighting
  votes its app's family with full weight.
* **near-miss** — failing that, is there a fuzzy neighbour within
  :data:`NEAR_MISS_MAX_DISTANCE`?  (the banded LSH ``nearest``); the
  closest neighbour votes its family with half weight — it is evidence
  of a *variant*, not an exact match.

The family with the most votes becomes the app's label, ties broken by
lexicographically smallest family id, and the strongest per-method
matches are kept as human-checkable evidence.  Everything about the
output is deterministic for a fixed store + index state.
"""

from __future__ import annotations

from repro.cluster.store import ClusterStore
from repro.index.digests import reveal_digests

#: Fuzzy distance at or below which a neighbour counts as a near-miss
#: variant.  Local edits land well under this; unrelated methods score
#: in the hundreds (see ``tests/index/test_fuzzy.py``).
NEAR_MISS_MAX_DISTANCE = 60

#: How many nearest-known-method evidence rows to keep per reveal.
EVIDENCE_LIMIT = 5


class AutoLabeler:
    """Tags one reveal with family + nearest-known-method evidence."""

    def __init__(
        self,
        store: ClusterStore,
        index=None,
        near_distance: int = NEAR_MISS_MAX_DISTANCE,
        evidence_limit: int = EVIDENCE_LIMIT,
    ) -> None:
        self.store = store
        self.index = index
        self.near_distance = near_distance
        self.evidence_limit = evidence_limit

    def _apps_with_norm(self, norm: str) -> list[str]:
        if self.index is not None:
            return self.index.apps_with_norm(norm)
        return self.store.apps_with_norm(norm)

    def label_records(self, records, app_id: str,
                      digests: dict | None = None) -> dict:
        """Label one reveal's executed records; returns the stats dict.

        The returned dict is what flows into
        ``RevealOutcome.cluster_stats`` / ``BatchReport`` — plain JSON
        types only.  ``digests`` is the reveal's signature -> digests
        map (:func:`~repro.index.digests.reveal_digests`); without it
        the digests are computed here.
        """
        if digests is None:
            digests = reveal_digests(records)
        votes: dict[str, float] = {}
        evidence: list[tuple[int, tuple, dict]] = []
        methods_total = methods_known = methods_near_miss = 0
        for record in records:
            methods_total += 1
            method = digests[record.signature]
            known_apps = []
            if method.norm:
                known_apps = [a for a in self._apps_with_norm(method.norm)
                              if a != app_id]
            if known_apps:
                methods_known += 1
                for known_app in known_apps:
                    family = self.store.family_of(known_app)
                    if family:
                        votes[family] = votes.get(family, 0.0) + 1.0
                nearest_app = known_apps[0]
                evidence.append((0, (record.class_desc, record.signature), {
                    "method": record.signature,
                    "match": record.signature,
                    "app_id": nearest_app,
                    "family": self.store.family_of(nearest_app),
                    "distance": 0,
                    "kind": "known",
                }))
                continue
            if not method.fuzzy:
                continue
            neighbours = [
                (distance, member)
                for distance, member in self.store.nearest(method.fuzzy,
                                                           limit=3)
                if distance <= self.near_distance
                and member.app_id != app_id
            ]
            if not neighbours:
                continue
            methods_near_miss += 1
            distance, member = neighbours[0]
            family = self.store.family_of(member.app_id)
            if family:
                votes[family] = votes.get(family, 0.0) + 0.5
            evidence.append((distance,
                             (record.class_desc, record.signature), {
                "method": record.signature,
                "match": member.method,
                "app_id": member.app_id,
                "family": family,
                "distance": distance,
                "kind": "near_miss",
            }))
        evidence.sort(key=lambda row: (row[0], row[1]))
        family = ""
        family_score = 0.0
        if votes:
            total = sum(votes.values())
            # Most votes wins; ties go to the smallest family id.
            family = min(votes, key=lambda fam: (-votes[fam], fam))
            family_score = round(votes[family] / total, 4)
        return {
            "family": family,
            "family_score": family_score,
            "methods_total": methods_total,
            "methods_known": methods_known,
            "methods_near_miss": methods_near_miss,
            "labels_assigned": methods_known + methods_near_miss,
            "nearest": [row for _, _, row in
                        evidence[:self.evidence_limit]],
        }
