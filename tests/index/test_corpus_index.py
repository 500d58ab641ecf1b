"""Persistence, sharding and query behaviour of the CorpusIndex."""

import json
import os

import pytest

from repro.index.corpus import (
    INDEX_FORMAT_VERSION,
    CorpusIndex,
    IndexEntry,
)
from repro.index.fuzzy import fuzzy_digest


def _entry(app_id="app-a", method="step0", exact="aa", norm="nn",
           fuzzy=None, kind="method", class_desc="Lshared/Lib0;"):
    sig = f"{class_desc}->{method}()V" if method else None
    return IndexEntry(
        kind=kind,
        app_id=app_id,
        class_desc=class_desc,
        method=sig,
        exact=exact,
        norm=norm,
        fuzzy=fuzzy,
        artifact=None,
    )


def _blob(seed: int, size: int = 400) -> bytes:
    out = bytearray()
    state = seed
    for _ in range(size):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(state & 0xFF)
    return bytes(out)


class TestConcurrentCreate:
    def test_concurrent_create_of_a_fresh_index(self, tmp_path,
                                                monkeypatch):
        # Two processes creating the same fresh index: the second opens
        # between the first one's meta tmp write and its os.replace.
        # Each writer's tmp name is its own, so both opens succeed.
        root = str(tmp_path / "index")
        real_replace = os.replace
        raced = []

        def racing_replace(src, dst):
            if dst.endswith("index_meta.json") and not raced:
                raced.append(None)  # the second open must not race again
                raced[0] = CorpusIndex(root)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        first = CorpusIndex(root)
        monkeypatch.undo()
        assert raced  # the second open really ran inside the window
        first.close()
        raced[0].close()
        reopened = CorpusIndex(root, create=False)
        assert reopened.stats()["version"] == INDEX_FORMAT_VERSION
        reopened.close()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        root = str(tmp_path / "index")
        index = CorpusIndex(root)
        index.add_entry(_entry(app_id="app-a", exact="e1", norm="n1"))
        index.add_entry(_entry(app_id="app-b", method="step1",
                               exact="e2", norm="n1"))
        index.close()

        reopened = CorpusIndex(root, create=False)
        assert len(reopened.entries()) == 2
        assert [e.app_id for e in reopened.lookup_exact("e1")] == ["app-a"]
        assert reopened.apps_with_norm("n1") == ["app-a", "app-b"]
        sightings = reopened.lookup_signature("Lshared/Lib0;->step0()V")
        assert [e.app_id for e in sightings] == ["app-a"]

    def test_duplicate_entries_collapse(self, tmp_path):
        index = CorpusIndex(str(tmp_path / "index"))
        assert index.add_entry(_entry()) is True
        assert index.add_entry(_entry()) is False
        assert len(index.entries()) == 1

    def test_missing_index_without_create_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CorpusIndex(str(tmp_path / "nowhere"), create=False)

    def test_foreign_format_version_is_refused(self, tmp_path):
        root = tmp_path / "index"
        root.mkdir()
        (root / "index_meta.json").write_text(
            json.dumps({"version": INDEX_FORMAT_VERSION + 1}))
        with pytest.raises(ValueError, match="format version"):
            CorpusIndex(str(root))

    def test_unreadable_meta_is_refused(self, tmp_path):
        root = tmp_path / "index"
        root.mkdir()
        (root / "index_meta.json").write_text("{not json")
        with pytest.raises(ValueError, match="unreadable"):
            CorpusIndex(str(root))


class TestSegments:
    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path):
        root = str(tmp_path / "index")
        index = CorpusIndex(root)
        index.add_entry(_entry())
        index.close()

        seg_dir = os.path.join(root, "segments")
        segments = os.listdir(seg_dir)
        assert len(segments) == 1
        with open(os.path.join(seg_dir, segments[0]), "a") as fh:
            fh.write("{truncated json...\n")
            fh.write(json.dumps({"v": 999, "kind": "method"}) + "\n")
            fh.write(json.dumps(["not", "a", "dict"]) + "\n")

        reopened = CorpusIndex(root)
        assert len(reopened.entries()) == 1
        assert reopened.stats()["corrupt_lines"] == 3

    def test_concurrent_writers_use_separate_segments(self, tmp_path):
        root = str(tmp_path / "index")
        one = CorpusIndex(root)
        two = CorpusIndex(root)
        one.add_entry(_entry(app_id="app-a", exact="e1"))
        two.add_entry(_entry(app_id="app-b", exact="e2"))
        one.close()
        two.close()

        assert CorpusIndex(root).stats()["segments"] == 2
        merged = CorpusIndex(root)
        assert {e.app_id for e in merged.entries()} == {"app-a", "app-b"}

    def test_compact_folds_segments(self, tmp_path):
        root = str(tmp_path / "index")
        for i in range(3):
            writer = CorpusIndex(root)
            writer.add_entry(_entry(app_id=f"app-{i}", exact=f"e{i}"))
            writer.close()

        index = CorpusIndex(root)
        assert index.stats()["segments"] == 3
        assert index.compact() == 3
        assert index.stats()["segments"] == 1

        reopened = CorpusIndex(root)
        assert {e.app_id for e in reopened.entries()} == \
            {"app-0", "app-1", "app-2"}


class TestBodyStore:
    def test_round_trip(self, tmp_path):
        root = str(tmp_path / "index")
        ops = [["const", 0, 7], ["ret_void"]]
        writer = CorpusIndex(root)
        writer.put_body("d" * 64, ops)
        writer.close()
        assert CorpusIndex(root).get_body("d" * 64) == ops

    def test_missing_body_is_none(self, tmp_path):
        assert CorpusIndex(str(tmp_path / "index")).get_body("e" * 64) is None

    def test_corrupt_body_is_none(self, tmp_path):
        root = str(tmp_path / "index")
        index = CorpusIndex(root)
        with open(os.path.join(root, "bodies", "f" * 64 + ".json"),
                  "w") as fh:
            fh.write("{half a body")
        assert index.get_body("f" * 64) is None

    def test_foreign_body_version_is_none(self, tmp_path):
        root = str(tmp_path / "index")
        index = CorpusIndex(root)
        with open(os.path.join(root, "bodies", "a" * 64 + ".json"),
                  "w") as fh:
            json.dump({"version": "v999", "ops": []}, fh)
        assert index.get_body("a" * 64) is None


class TestQueries:
    def test_nearest_sorts_by_distance(self, tmp_path):
        index = CorpusIndex(str(tmp_path / "index"))
        base = _blob(seed=3, size=600)
        tweaked = bytearray(base)
        tweaked[10:14] = b"\x01\x02\x03\x04"
        probe = fuzzy_digest(base)
        near = fuzzy_digest(bytes(tweaked))
        far = fuzzy_digest(_blob(seed=9, size=600))
        index.add_entry(_entry(app_id="far", exact="e-far", fuzzy=far))
        index.add_entry(_entry(app_id="near", exact="e-near", fuzzy=near))

        hits = index.nearest(probe, limit=5)
        assert [entry.app_id for _, entry in hits] == ["near", "far"]
        assert hits[0][0] < hits[1][0]

    def test_nearest_respects_kind_and_limit(self, tmp_path):
        index = CorpusIndex(str(tmp_path / "index"))
        digest = fuzzy_digest(_blob(seed=5))
        index.add_entry(_entry(app_id="m", exact="e1", fuzzy=digest))
        index.add_entry(_entry(app_id="c", kind="class", method=None,
                               exact=None, norm=None, fuzzy=digest))
        only_classes = index.nearest(digest, kind="class")
        assert [e.kind for _, e in only_classes] == ["class"]
        assert len(index.nearest(digest, limit=1)) == 1

    def test_attached_lsh_keeps_the_result_shape(self, tmp_path):
        # Satellite contract: routing nearest() through an attached
        # LshIndex changes the scan cost, never the results or their
        # (distance, entry) shape; exhaustive=True stays the oracle.
        index = CorpusIndex(str(tmp_path / "index"))
        base = _blob(seed=3, size=600)
        tweaked = bytearray(base)
        tweaked[10:14] = b"\x01\x02\x03\x04"
        probe = fuzzy_digest(base)
        index.add_entry(_entry(app_id="far", exact="e-far",
                               fuzzy=fuzzy_digest(_blob(seed=9, size=600))))
        index.add_entry(_entry(app_id="near", exact="e-near",
                               fuzzy=fuzzy_digest(bytes(tweaked))))
        linear = index.nearest(probe, limit=5)

        index.attach_lsh()
        assert index.nearest(probe, limit=5) == linear
        assert index.nearest(probe, limit=5, exhaustive=True) == linear

    def test_attached_lsh_sees_later_entries(self, tmp_path):
        index = CorpusIndex(str(tmp_path / "index"))
        index.attach_lsh()
        digest = fuzzy_digest(_blob(seed=5))
        index.add_entry(_entry(app_id="late", exact="e1", fuzzy=digest))
        hits = index.nearest(digest, limit=1)
        assert [entry.app_id for _, entry in hits] == ["late"]
        assert hits[0][0] == 0

    def test_attached_lsh_respects_kind(self, tmp_path):
        index = CorpusIndex(str(tmp_path / "index"))
        digest = fuzzy_digest(_blob(seed=5))
        index.add_entry(_entry(app_id="m", exact="e1", fuzzy=digest))
        index.add_entry(_entry(app_id="c", kind="class", method=None,
                               exact=None, norm=None, fuzzy=digest))
        index.attach_lsh()
        only_classes = index.nearest(digest, kind="class")
        assert [e.kind for _, e in only_classes] == ["class"]

    def test_stats_shape(self, tmp_path):
        index = CorpusIndex(str(tmp_path / "index"))
        index.add_entry(_entry())
        index.add_entry(_entry(kind="class", method=None, exact=None,
                               norm=None))
        stats = index.stats()
        assert stats["version"] == INDEX_FORMAT_VERSION
        assert stats["methods"] == 1
        assert stats["classes"] == 1
        assert stats["apps"] == 1
        assert stats["corrupt_lines"] == 0
