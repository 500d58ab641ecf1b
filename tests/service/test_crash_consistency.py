"""Crash-consistency sweep: every persistent store reopens cleanly
after torn ``.tmp`` debris, truncated JSONL tails, and zero-byte
records — and *reports* what it skipped instead of silently absorbing
the damage."""

import json
import os

import pytest

from repro import faults
from repro.cluster.store import ClusterMember, ClusterStore
from repro.core import CollectionArchive, CollectStage
from repro.core.collection_files import ALL_FILES
from repro.index.corpus import CorpusIndex, IndexEntry
from repro.service import ArtifactStore, JobStore, RevealCache
from repro.service.outcomes import STATUS_OK, RevealOutcome

from tests.conftest import build_simple_apk

TORN_TMP = "torn-tmp"
TRUNCATED = "truncated-line"
ZERO_BYTE = "zero-byte"

DAMAGE = (TORN_TMP, TRUNCATED, ZERO_BYTE)


def _entry(i: int) -> IndexEntry:
    return IndexEntry(kind="method", app_id=f"app{i}",
                      class_desc=f"LC{i};", method=f"LC{i};->m()V",
                      exact=f"e{i:03d}", norm=f"n{i:03d}", fuzzy=None)


def _member(i: int) -> ClusterMember:
    return ClusterMember(kind="method", app_id=f"app{i}",
                         class_desc=f"LC{i};", method=f"LC{i};->m()V",
                         norm=f"n{i:03d}", fuzzy=None)


def _jsonl_files(root: str) -> list[str]:
    found = []
    for dirpath, _dirs, names in os.walk(root):
        found.extend(os.path.join(dirpath, n) for n in names
                     if n.endswith(".jsonl"))
    return sorted(found)


class TestJobStore:
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_reopens_and_reports(self, tmp_path, damage):
        root = str(tmp_path / "store")
        store = JobStore(root)
        apk = build_simple_apk("crash.jobs")
        for job_id in ("j1", "j2"):
            store.save(store.make_record(job_id=job_id, app_id=job_id,
                                         apk=apk))
        store.append_event({"kind": "submitted", "job_id": "j1"})

        if damage == TORN_TMP:
            with open(os.path.join(store.jobs_dir, "j1.json.tmp"),
                      "w") as fh:
                fh.write('{"half')
        elif damage == TRUNCATED:
            with open(store.events_path, "a") as fh:
                fh.write('{"kind": "done", "job_')
        else:
            open(os.path.join(store.jobs_dir, "j3.json"), "w").close()

        reopened = JobStore(root)
        records = {r["job_id"] for r in reopened.load_all()}
        assert records == {"j1", "j2"}
        assert reopened.load("j1")["app_id"] == "j1"
        events = reopened.events()
        assert [e["kind"] for e in events] == ["submitted"]
        if damage == TRUNCATED:
            assert reopened.corrupt_event_lines == 1
        elif damage == ZERO_BYTE:
            assert reopened.corrupt_records == 1


class TestArtifactStore:
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_reopens_and_reports(self, tmp_path, damage):
        root = str(tmp_path / "artifacts")
        store = ArtifactStore(root)
        good = store.put(b"intact payload")
        victim = store.put(b"about to be damaged")
        path = store._path(victim)

        if damage == TORN_TMP:
            with open(f"{path}.999.tmp", "wb") as fh:
                fh.write(b"deb")
        elif damage == TRUNCATED:
            with open(path, "wb") as fh:
                fh.write(b"about to")
        else:
            open(path, "w").close()

        reopened = ArtifactStore(root, create=False)
        assert reopened.get(good) == b"intact payload"
        if damage == TORN_TMP:
            # Debris next to a blob never hides the blob itself.
            assert reopened.get(victim) == b"about to be damaged"
            assert reopened.corrupt_blobs == 0
        else:
            # Bytes that no longer rehash to the digest are refused,
            # and the refusal is counted.
            assert reopened.get(victim) is None
            assert reopened.corrupt_blobs == 1
            assert reopened.stats()["corrupt_blobs"] == 1


class TestCorpusIndex:
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_reopens_and_reports(self, tmp_path, damage):
        root = str(tmp_path / "index")
        index = CorpusIndex(root)
        for i in range(3):
            index.add_entry(_entry(i))
        index.put_body("e000", [["const", 0]])
        index.close()
        segment = _jsonl_files(os.path.join(root, "segments"))[0]

        if damage == TORN_TMP:
            body = os.path.join(root, "bodies", "e000.json")
            with open(f"{body}.w.tmp", "w") as fh:
                fh.write('{"version"')
            with open(body, "w") as fh:
                fh.write('{"version"')  # torn body write made visible
        elif damage == TRUNCATED:
            with open(segment, "a") as fh:
                fh.write('{"kind": "method", "app')
        else:
            open(segment + ".empty.jsonl", "w").close()

        reopened = CorpusIndex(root, create=False)
        assert {e.app_id for e in reopened.entries()} == \
               {"app0", "app1", "app2"}
        if damage == TRUNCATED:
            assert reopened.corrupt_lines == 1
            assert reopened.stats()["corrupt_lines"] == 1
        else:
            assert reopened.corrupt_lines == 0
        if damage == TORN_TMP:
            # An unreadable body is a miss, never a crash.
            assert reopened.get_body("e000") is None


class TestClusterStore:
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_reopens_and_reports(self, tmp_path, damage):
        root = str(tmp_path / "cluster")
        store = ClusterStore(root)
        for i in range(3):
            store.add_member(_member(i))
        store.close()
        segment = _jsonl_files(os.path.join(root, "segments"))[0]

        if damage == TORN_TMP:
            with open(os.path.join(root, "families.json"), "w") as fh:
                fh.write('{"version": 1, "fam')  # torn snapshot
        elif damage == TRUNCATED:
            with open(segment, "a") as fh:
                fh.write('{"kind": "method", "app')
        else:
            open(segment + ".empty.jsonl", "w").close()

        reopened = ClusterStore(root, create=False)
        assert {m.app_id for m in reopened.members()} == \
               {"app0", "app1", "app2"}
        if damage in (TORN_TMP, TRUNCATED):
            assert reopened.corrupt_lines == 1
            assert reopened.stats()["corrupt_lines"] == 1
        if damage == TORN_TMP:
            assert reopened.families() is None


class TestDiskRevealCache:
    def _put_one(self, root: str, key: str) -> None:
        cache = RevealCache(root)
        cache.put(key, RevealOutcome(app_id="a", status=STATUS_OK))

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_reopens_and_reports(self, tmp_path, damage):
        root = str(tmp_path / "cache")
        self._put_one(root, "good")
        self._put_one(root, "victim")
        victim_json = os.path.join(root, "victim.json")

        if damage == TORN_TMP:
            with open(victim_json + ".tmp", "w") as fh:
                fh.write('{"ver')
            with open(victim_json, "w") as fh:
                fh.write('{"ver')
        elif damage == TRUNCATED:
            with open(victim_json, "a") as fh:
                fh.write('{"tail')
        else:
            open(victim_json, "w").close()

        reopened = RevealCache(root)
        hit = reopened.get("good")
        assert hit is not None and hit.status == STATUS_OK
        assert reopened.get("victim") is None  # a miss, never an error
        assert reopened.corrupt_entries == 1


class TestCollectionArchive:
    """A saved archive survives torn ``.tmp`` debris; a damaged
    collection file is refused with one line naming it; and a save
    torn at ``archive.save`` never publishes a half-written file."""

    def _archive(self) -> CollectionArchive:
        return CollectStage().run(build_simple_apk("crash.archive")).archive

    def test_torn_tmp_debris_loads_as_the_same_archive(self, tmp_path):
        root = str(tmp_path / "archive")
        archive = self._archive()
        archive.save(root)
        for name in ALL_FILES:
            with open(os.path.join(root, name + ".tmp"), "w") as fh:
                fh.write('[{"half')
        assert CollectionArchive.load(root).files() == archive.files()

    @pytest.mark.parametrize("damage", (TRUNCATED, ZERO_BYTE))
    @pytest.mark.parametrize("name", ALL_FILES)
    def test_damaged_file_is_refused_by_name(self, tmp_path, damage, name):
        root = str(tmp_path / "archive")
        self._archive().save(root)
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:len(data) // 2] if damage == TRUNCATED else b"")
        with pytest.raises(ValueError) as caught:
            CollectionArchive.load(root)
        message = str(caught.value)
        assert message.startswith(f"{name}: ") and "\n" not in message

    def test_torn_save_publishes_no_half_written_file(self, tmp_path):
        root = str(tmp_path / "archive")
        archive = self._archive()
        faults.arm(faults.FaultPlan([faults.FaultRule(
            "archive.save", faults.FAULT_TORN_TMP, after=2)]))
        try:
            with pytest.raises(faults.FaultInjected):
                archive.save(root)
        finally:
            faults.disarm()
        whole, torn = ALL_FILES[:2], ALL_FILES[2]
        assert sorted(os.listdir(root)) == sorted(whole + (torn + ".tmp",))
        for name in whole:
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                assert fh.read() == archive.files()[name]
        archive.save(root)  # the retry publishes every file
        assert CollectionArchive.load(root).files() == archive.files()
