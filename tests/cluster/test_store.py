"""ClusterStore persistence: segments, meta guard, families snapshot."""

import json
import os

import pytest

from repro.cluster.store import (
    CLUSTER_FORMAT_VERSION,
    ClusterMember,
    ClusterStore,
)
from repro.core import CollectStage, RevealConfig
from repro.dex import assemble
from repro.index.fuzzy import fuzzy_digest
from repro.runtime import Apk


def _member(app_id, n=0, fuzzy=None, norm=None):
    return ClusterMember(
        kind="method",
        app_id=app_id,
        class_desc=f"L{app_id}/C{n};",
        method=f"L{app_id}/C{n};->m{n}()V",
        norm=norm if norm is not None else f"norm-{app_id}-{n}",
        fuzzy=fuzzy,
    )


def _fuzzy(seed):
    import hashlib
    out = b""
    counter = 0
    while len(out) < 400:
        out += hashlib.sha256(f"{seed}:{counter}".encode()).digest()
        counter += 1
    return fuzzy_digest(out[:400])


def _records(package="s.app", main_cls="Ls/App;"):
    apk = Apk(package, main_cls, [assemble(f"""
.class public {main_cls}
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 0
    const/16 v1, 9
    :loop
    if-ge v0, v1, :done
    add-int/lit8 v0, v0, 1
    goto :loop
    :done
    return-void
.end method
""")])
    result = CollectStage(RevealConfig()).run(apk)
    return result.archive.collector.method_store.executed_records()


class TestOpenGuards:
    def test_create_false_on_missing_store_raises(self, tmp_path):
        path = tmp_path / "nowhere"
        with pytest.raises(FileNotFoundError) as excinfo:
            ClusterStore(path, create=False)
        assert "no cluster store at" in str(excinfo.value)
        assert not path.exists()  # read-only open never creates

    def test_foreign_version_is_refused(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "cluster_meta.json").write_text(
            json.dumps({"version": CLUSTER_FORMAT_VERSION + 1}))
        with pytest.raises(ValueError) as excinfo:
            ClusterStore(root)
        message = str(excinfo.value)
        assert "format version" in message
        assert "\n" not in message  # one-line diagnostic

    def test_unreadable_meta_is_refused(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "cluster_meta.json").write_text("{not json")
        with pytest.raises(ValueError):
            ClusterStore(root)


    def test_concurrent_create_of_a_fresh_store(self, tmp_path,
                                                monkeypatch):
        # Two processes creating the same fresh store: the second opens
        # between the first one's meta tmp write and its os.replace.
        # Each writer's tmp name is its own, so both opens succeed.
        root = str(tmp_path / "store")
        real_replace = os.replace
        raced = []

        def racing_replace(src, dst):
            if dst.endswith("cluster_meta.json") and not raced:
                raced.append(None)  # the second open must not race again
                raced[0] = ClusterStore(root)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        first = ClusterStore(root)
        monkeypatch.undo()
        assert raced  # the second open really ran inside the window
        first.close()
        raced[0].close()
        reopened = ClusterStore(root, create=False)
        assert reopened.stats()["version"] == CLUSTER_FORMAT_VERSION
        reopened.close()

class TestPersistence:
    def test_members_survive_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        store = ClusterStore(root)
        assert store.add_member(_member("app.a", 0, fuzzy=_fuzzy(1)))
        assert store.add_member(_member("app.b", 0, fuzzy=_fuzzy(2)))
        assert not store.add_member(_member("app.a", 0, fuzzy=_fuzzy(1)))
        store.close()

        reopened = ClusterStore(root, create=False)
        assert len(reopened.members()) == 2
        assert reopened.apps_with_norm("norm-app.a-0") == ["app.a"]
        assert reopened.stats()["lsh"]["items"] == 2
        reopened.close()

    def test_two_writers_merge_at_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        first, second = ClusterStore(root), ClusterStore(root)
        first.add_member(_member("app.a"))
        second.add_member(_member("app.b"))
        first.close()
        second.close()

        merged = ClusterStore(root, create=False)
        assert {m.app_id for m in merged.members()} == {"app.a", "app.b"}
        assert merged.stats()["segments"] == 2
        merged.close()

    def test_corrupt_lines_are_counted_and_skipped(self, tmp_path):
        root = str(tmp_path / "store")
        store = ClusterStore(root)
        store.add_member(_member("app.a"))
        store.close()

        segments = os.path.join(root, "segments")
        name = next(n for n in os.listdir(segments) if n.endswith(".jsonl"))
        with open(os.path.join(segments, name), "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
            fh.write(json.dumps({"v": 999, "kind": "method",
                                 "app_id": "x", "class_desc": "LX;"}) + "\n")

        reopened = ClusterStore(root, create=False)
        assert len(reopened.members()) == 1
        assert reopened.corrupt_lines == 2
        assert reopened.stats()["corrupt_lines"] == 2
        reopened.close()

    def test_compact_folds_segments(self, tmp_path):
        root = str(tmp_path / "store")
        for app in ("app.a", "app.b", "app.c"):
            store = ClusterStore(root)
            store.add_member(_member(app))
            store.close()
        store = ClusterStore(root, create=False)
        assert store.stats()["segments"] == 3
        assert store.compact() == 3
        assert store.stats()["segments"] == 1
        store.close()

        reopened = ClusterStore(root, create=False)
        assert {m.app_id for m in reopened.members()} == \
            {"app.a", "app.b", "app.c"}
        reopened.close()

    def test_register_records_from_a_real_reveal(self, tmp_path):
        store = ClusterStore(str(tmp_path / "store"))
        added = store.register_records("s.app", _records())
        assert added >= 1
        assert any(m.kind == "method" and m.app_id == "s.app"
                   for m in store.members())
        # Same records again: fully deduplicated.
        assert store.register_records("s.app", _records()) == 0
        store.close()


class TestQueriesAndFamilies:
    def test_nearest_via_the_banded_lsh(self, tmp_path):
        store = ClusterStore(str(tmp_path / "store"))
        for i in range(6):
            store.add_member(_member(f"app.{i}", i, fuzzy=_fuzzy(i)))
        results = store.nearest(_fuzzy(3), limit=2)
        assert results[0][0] == 0  # exact self-distance
        assert results[0][1].app_id == "app.3"
        assert results == store.nearest(_fuzzy(3), limit=2, exhaustive=True)
        store.close()

    def test_family_of_before_any_build_is_empty(self, tmp_path):
        store = ClusterStore(str(tmp_path / "store"))
        assert store.families() is None
        assert store.family_of("app.a") == ""
        store.close()

    def test_build_families_snapshot_survives_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        store = ClusterStore(root)
        for app in ("kin.a", "kin.b"):
            store.add_member(_member(app, 0, norm="shared-1"))
            store.add_member(_member(app, 1, norm="shared-2"))
        store.add_member(_member("loner", 0, norm="own"))
        assignment = store.build_families()
        store.close()
        assert assignment.family_of("kin.a") == assignment.family_of("kin.b")
        assert assignment.family_of("loner") != assignment.family_of("kin.a")

        reopened = ClusterStore(root, create=False)
        assert reopened.family_of("kin.a") == assignment.family_of("kin.a")
        assert reopened.stats()["families"] == len(assignment.families)
        reopened.close()

    def test_families_json_byte_identical_across_orders(self, tmp_path):
        # Worker-count / insertion-order independence at the file level:
        # the same member set written in opposite orders by different
        # writer ids must snapshot byte-identical families.json files.
        members = [_member(app, n, norm=f"shared-{n}" if app != "loner"
                           else "own")
                   for app in ("kin.a", "kin.b", "loner")
                   for n in range(3)]
        snapshots = []
        for order, name in ((members, "fwd"), (members[::-1], "rev")):
            root = str(tmp_path / name)
            store = ClusterStore(root)
            for member in order:
                store.add_member(member)
            store.build_families()
            store.close()
            with open(os.path.join(root, "families.json"), "rb") as fh:
                snapshots.append(fh.read())
        assert snapshots[0] == snapshots[1]


#: ``families.json`` snapshots that are JSON but not a family assignment.
BAD_FAMILIES = [
    {"families": [{"apps": ["a"]}]},
    {"families": 5},
    {"threshold": "x"},
]


class TestFamiliesSnapshotGuard:
    """A ``families.json`` that does not parse as a family assignment is
    one corrupt line: the store opens with no families."""

    def _store_with_families(self, tmp_path, data) -> str:
        root = str(tmp_path / "store")
        store = ClusterStore(root)
        store.add_member(_member("app.a"))
        store.close()
        with open(os.path.join(root, "families.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(data, fh)
        return root

    @pytest.mark.parametrize("data", BAD_FAMILIES,
                             ids=["no-family", "not-a-list", "threshold"])
    def test_opens_with_no_families(self, tmp_path, data):
        store = ClusterStore(self._store_with_families(tmp_path, data),
                             create=False)
        assert store.families() is None
        assert store.family_of("app.a") == ""
        stats = store.stats()
        assert stats["corrupt_lines"] == 1
        assert stats["families"] == 0 and stats["members"] == 1
        store.close()

    def test_service_opens_the_store(self, tmp_path):
        from repro.core.pipeline import open_optional_stores

        root = self._store_with_families(tmp_path, BAD_FAMILIES[0])
        stores = open_optional_stores(RevealConfig(cluster_dir=root))
        assert stores.degraded == {}
        assert stores.cluster.corrupt_lines == 1
        stores.cluster.close()
