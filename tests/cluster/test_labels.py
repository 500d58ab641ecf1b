"""Auto-labeling: known-method votes, near-miss variants, evidence."""

from repro.cluster.labels import NEAR_MISS_MAX_DISTANCE, AutoLabeler
from repro.cluster.store import ClusterMember, ClusterStore
from repro.core import CollectStage, RevealConfig
from repro.dex import assemble
from repro.index.digests import method_digests
from repro.index.fuzzy import fuzzy_digest
from repro.runtime import Apk

_SMALI = """
.class public {cls}
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 0
    const/16 v1, 9
    :loop
    if-ge v0, v1, :done
    mul-int v2, v0, v0
    add-int/lit8 v0, v0, 1
    goto :loop
    :done
    return-void
.end method
"""


def _records(package, main_cls):
    apk = Apk(package, main_cls, [assemble(_SMALI.format(cls=main_cls))])
    return CollectStage(RevealConfig()).run(apk) \
        .archive.collector.method_store.executed_records()


def _kin_store(tmp_path):
    """A store holding the same method under two kin apps, clustered."""
    store = ClusterStore(str(tmp_path / "store"))
    store.register_records("kin.a", _records("kin.a", "Lk/A;"))
    store.register_records("kin.b", _records("kin.b", "Lk/B;"))
    store.build_families(threshold=0.9)
    return store


class TestKnownMatches:
    def test_shared_structure_labels_the_family(self, tmp_path):
        store = _kin_store(tmp_path)
        fresh = _records("fresh.app", "Lf/App;")
        verdict = AutoLabeler(store).label_records(fresh, "fresh.app")
        store.close()

        assert verdict["methods_total"] == len(fresh)
        assert verdict["methods_known"] >= 1
        assert verdict["labels_assigned"] >= 1
        assert verdict["family"] == store.family_of("kin.a")
        assert verdict["family_score"] == 1.0
        known = [row for row in verdict["nearest"]
                 if row["kind"] == "known"]
        assert known and known[0]["distance"] == 0
        assert known[0]["app_id"] in ("kin.a", "kin.b")

    def test_own_app_never_votes_for_itself(self, tmp_path):
        store = ClusterStore(str(tmp_path / "store"))
        records = _records("self.app", "Ls/App;")
        store.register_records("self.app", records)
        store.build_families()
        verdict = AutoLabeler(store).label_records(records, "self.app")
        store.close()
        assert verdict["methods_known"] == 0
        assert verdict["family"] == ""
        assert verdict["nearest"] == []

    def test_index_provenance_is_preferred(self, tmp_path):
        store = _kin_store(tmp_path)

        class _FakeIndex:
            def apps_with_norm(self, norm):
                return ["kin.b"]  # the index, not the store, answers

        verdict = AutoLabeler(store, index=_FakeIndex()) \
            .label_records(_records("fresh.app", "Lf/App;"), "fresh.app")
        store.close()
        known = [row for row in verdict["nearest"]
                 if row["kind"] == "known"]
        assert known and all(row["app_id"] == "kin.b" for row in known)


class TestNearMisses:
    def test_close_variant_counts_as_near_miss(self, tmp_path):
        records = _records("fresh.app", "Lf/App;")
        target = records[0]
        # A synthetic variant of the target: the same token stream with
        # a few bytes flipped — a different norm, but fuzzy-close.  The
        # store holds *only* that variant (plus a family snapshot), so
        # the fuzzy path must be what answers.
        blob = bytearray(method_digests(target).fuzzy_bytes)
        for k in range(4):
            blob[(k * 17 + 3) % len(blob)] ^= 0x5A
        near_fuzzy = fuzzy_digest(bytes(blob))
        assert near_fuzzy is not None
        store = ClusterStore(str(tmp_path / "store"))
        store.add_member(ClusterMember(
            kind="method", app_id="kin.a", class_desc="Lk/A;",
            method="Lk/A;->variant()V", norm="variant-norm",
            fuzzy=near_fuzzy))
        store.build_families()

        labeler = AutoLabeler(store)
        # Hide the known-match path so the fuzzy path must answer.
        labeler._apps_with_norm = lambda norm: []
        verdict = labeler.label_records([target], "fresh.app")
        store.close()

        assert verdict["methods_known"] == 0
        assert verdict["methods_near_miss"] == 1
        row = verdict["nearest"][0]
        assert row["kind"] == "near_miss"
        assert 0 < row["distance"] <= NEAR_MISS_MAX_DISTANCE
        assert row["match"] == "Lk/A;->variant()V"
        assert verdict["family"] == store.family_of("kin.a")
        assert verdict["family_score"] == 1.0

    def test_distant_members_never_label(self, tmp_path):
        store = ClusterStore(str(tmp_path / "store"))
        store.register_records("other.app", _records("other.app", "Lo/App;"))
        # A structurally unrelated method body.
        far_apk = Apk("far.app", "Lz/Far;", [assemble("""
.class public Lz/Far;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 6
    const/16 v0, 41
    const/16 v1, 13
    xor-int v2, v0, v1
    or-int v3, v0, v1
    and-int v4, v2, v3
    rem-int v4, v4, v1
    shl-int v2, v4, v1
    shr-int v3, v2, v0
    sub-int v4, v3, v2
    return-void
.end method
""")])
        far = CollectStage(RevealConfig()).run(far_apk) \
            .archive.collector.method_store.executed_records()
        labeler = AutoLabeler(store, near_distance=1)
        labeler._apps_with_norm = lambda norm: []
        verdict = labeler.label_records(far, "far.app")
        store.close()
        assert verdict["labels_assigned"] == 0
        assert verdict["family"] == ""

    def test_evidence_limit_is_honoured(self, tmp_path):
        store = _kin_store(tmp_path)
        fresh = _records("fresh.app", "Lf/App;")
        verdict = AutoLabeler(store, evidence_limit=1) \
            .label_records(fresh, "fresh.app")
        store.close()
        assert len(verdict["nearest"]) <= 1

    def test_verdict_is_plain_json(self, tmp_path):
        import json

        store = _kin_store(tmp_path)
        verdict = AutoLabeler(store).label_records(
            _records("fresh.app", "Lf/App;"), "fresh.app")
        store.close()
        assert json.loads(json.dumps(verdict)) == verdict
