"""The segment log under both corpus stores: failed appends, typed
rows and compaction with other live writers.

Each contract runs against :class:`CorpusIndex` and
:class:`ClusterStore` through their public API, since both journal
through the one :class:`~repro.segment_log.SegmentLog`."""

import itertools
import json
import os

import pytest

from repro import faults
from repro.cluster.store import ClusterMember, ClusterStore
from repro.core import RevealConfig
from repro.core.pipeline import open_optional_stores
from repro.index.corpus import CorpusIndex, IndexEntry
from repro.index.fuzzy import fuzzy_digest


def _fuzzy(seed: int) -> str:
    return fuzzy_digest(bytes((seed * 7 + i * i) % 251 for i in range(400)))


def _entry(i: int, fuzzy: str | None = None) -> IndexEntry:
    return IndexEntry(kind="method", app_id=f"app{i}",
                      class_desc=f"LC{i};", method=f"LC{i};->m()V",
                      exact=f"e{i:03d}", norm=f"n{i:03d}", fuzzy=fuzzy)


def _member(i: int, fuzzy: str | None = None) -> ClusterMember:
    return ClusterMember(kind="method", app_id=f"app{i}",
                         class_desc=f"LC{i};", method=f"LC{i};->m()V",
                         norm=f"n{i:03d}", fuzzy=fuzzy)


class _Index:
    site = "index"
    open = CorpusIndex
    row = staticmethod(_entry)

    @staticmethod
    def add(store, row):
        return store.add_entry(row)

    @staticmethod
    def rows(store):
        return store.entries()


class _Cluster:
    site = "cluster"
    open = ClusterStore
    row = staticmethod(_member)

    @staticmethod
    def add(store, row):
        return store.add_member(row)

    @staticmethod
    def rows(store):
        return store.members()


KINDS = pytest.mark.parametrize("kind", [_Index, _Cluster],
                                ids=["index", "cluster"])


def _apps(kind, root) -> set[str]:
    store = kind.open(root, create=False)
    try:
        return {row.app_id for row in kind.rows(store)}
    finally:
        store.close()


def _segment(root: str) -> str:
    directory = os.path.join(root, "segments")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".jsonl"))
    return os.path.join(directory, names[0])


@KINDS
class TestFailedAppend:
    def test_torn_append_is_retried_onto_its_own_line(self, tmp_path, kind):
        root = str(tmp_path / "store")
        store = kind.open(root)
        plan = faults.FaultPlan([faults.FaultRule(
            f"{kind.site}.segment.append", faults.FAULT_TRUNCATED_LINE)])
        with faults.armed(plan):
            with pytest.raises(faults.FaultInjected):
                kind.add(store, kind.row(0))
            assert kind.rows(store) == []  # nothing held unjournaled
            assert kind.add(store, kind.row(0)) is True
            assert kind.add(store, kind.row(1)) is True
        assert plan.fired
        store.close()

        reopened = kind.open(root, create=False)
        assert {row.app_id for row in kind.rows(reopened)} == \
            {"app0", "app1"}
        assert reopened.corrupt_lines == 1
        assert reopened.stats()["corrupt_lines"] == 1
        reopened.close()

    def test_malformed_fuzzy_journals_nothing(self, tmp_path, kind):
        root = str(tmp_path / "store")
        store = kind.open(root)
        with pytest.raises(ValueError, match="fuzzy digests"):
            kind.add(store, kind.row(0, fuzzy="ab"))
        assert kind.rows(store) == []
        assert kind.add(store, kind.row(1, fuzzy=_fuzzy(1))) is True
        store.close()

        reopened = kind.open(root, create=False)
        assert {row.app_id for row in kind.rows(reopened)} == {"app1"}
        assert reopened.corrupt_lines == 0
        reopened.close()


#: Lines that are valid JSON with every required key, but not a row
#: the writer emits.
WRONG_ROWS = {
    "list-app": {"app_id": ["app9"]},
    "dict-class": {"class_desc": {"L": 1}},
    "null-kind": {"kind": None},
    "int-method": {"method": 7},
    "list-fuzzy": {"fuzzy": ["ab"]},
    "short-fuzzy": {"fuzzy": "ab"},
    "non-hex-fuzzy": {"fuzzy": "zz" * 35},
}


@KINDS
class TestTypedRows:
    @pytest.mark.parametrize("damage", sorted(WRONG_ROWS))
    def test_wrong_types_cost_one_line(self, tmp_path, kind, damage):
        root = str(tmp_path / "store")
        store = kind.open(root)
        kind.add(store, kind.row(0, fuzzy=_fuzzy(0)))
        store.close()
        row = {**kind.row(9).to_dict(), **WRONG_ROWS[damage]}
        with open(_segment(root), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")

        reopened = kind.open(root, create=False)
        assert {r.app_id for r in kind.rows(reopened)} == {"app0"}
        assert reopened.corrupt_lines == 1
        reopened.close()

    def test_optional_stores_still_open(self, tmp_path, kind):
        # A store the service cannot open degrades it; one bad line
        # must cost that line, not the store.
        root = str(tmp_path / "store")
        store = kind.open(root)
        kind.add(store, kind.row(0))
        store.close()
        with open(_segment(root), "a", encoding="utf-8") as fh:
            for damage in WRONG_ROWS.values():
                fh.write(json.dumps({**kind.row(9).to_dict(), **damage})
                         + "\n")

        key = "index_dir" if kind is _Index else "cluster_dir"
        stores = open_optional_stores(RevealConfig(**{key: root}))
        assert stores.degraded == {}
        opened = stores.index if kind is _Index else stores.cluster
        assert opened.corrupt_lines == len(WRONG_ROWS)
        assert {r.app_id for r in kind.rows(opened)} == {"app0"}
        opened.close()


@KINDS
class TestCompaction:
    def test_compaction_keeps_other_writers_rows(self, tmp_path, kind):
        # A opens, B appends, A compacts, B appends again: the row B
        # wrote before compaction is folded in, the one after lands in
        # a segment B reopened.
        root = str(tmp_path / "store")
        first = kind.open(root)
        kind.add(first, kind.row(0))
        second = kind.open(root)
        kind.add(second, kind.row(1, fuzzy=_fuzzy(1)))
        assert first.compact() == 2
        assert {r.app_id for r in kind.rows(first)} == {"app0", "app1"}
        kind.add(second, kind.row(2))
        first.close()
        second.close()

        assert _apps(kind, root) == {"app0", "app1", "app2"}

    def test_compacted_rows_are_queryable(self, tmp_path, kind):
        root = str(tmp_path / "store")
        first = kind.open(root)
        second = kind.open(root)
        digest = _fuzzy(5)
        kind.add(second, kind.row(5, fuzzy=digest))
        second.close()
        first.compact()
        hits = first.nearest(digest, limit=1)
        assert [(distance, row.app_id) for distance, row in hits] == \
            [(0, "app5")]
        assert first.apps_with_norm("n005") == ["app5"]
        first.close()

    def test_same_rows_compact_to_the_same_bytes_under_any_writer_ids(
            self, tmp_path, monkeypatch, kind):
        # Three writers journal the same rows in each trial; only their
        # ids change, and with them the order the open merges their
        # segments in.
        rows = [kind.row(i, fuzzy=_fuzzy(i) if i % 2 else None)
                for i in range(9)]
        trials = (("aaa", "bbb", "ccc"), ("ccc", "bbb", "aaa"),
                  ("bbb", "ccc", "aaa"))
        compacted, held = [], []
        for number, ids in enumerate(trials):
            fresh = itertools.chain(
                (f"{writer:0<12}" for writer in ids),
                (f"z{number}{i:0>10}" for i in itertools.count()))
            monkeypatch.setattr(
                "repro.segment_log.uuid.uuid4",
                lambda: type("Id", (), {"hex": next(fresh)})())
            root = str(tmp_path / f"trial{number}")
            writers = [kind.open(root) for _ in ids]
            for i, row in enumerate(rows):
                kind.add(writers[i % 3], row)
            for writer in writers:
                writer.close()
            store = kind.open(root)
            assert store.compact() == len(rows)
            store.close()
            directory = os.path.join(root, "segments")
            (name,) = os.listdir(directory)
            with open(os.path.join(directory, name), "rb") as fh:
                compacted.append(fh.read())
            reopened = kind.open(root, create=False)
            held.append(set(kind.rows(reopened)))
            reopened.close()
        assert compacted[0] == compacted[1] == compacted[2]
        assert held == [set(rows)] * 3
