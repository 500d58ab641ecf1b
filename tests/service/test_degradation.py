"""Graceful degradation: a reveal must never fail because an optional
subsystem (index, cluster, cache) is corrupt, foreign-versioned,
unavailable or fails a write mid-reveal — it degrades, warns once, and
stamps the outcome."""

import json

import pytest

from repro import faults
from repro.benchsuite.shared_corpus import build_shared_corpus_app
from repro.core import RevealConfig
from repro.faults import FAULT_OS_ERROR, FAULT_TORN_TMP, FaultPlan, FaultRule
from repro.service import (
    EVENT_DEGRADED,
    STATUS_OK,
    JobStore,
    RevealCache,
    RevealGateway,
    RevealServer,
    RevealOutcome,
)
from repro.service.batch import BatchRevealService, RevealJob

from tests.conftest import build_simple_apk


def _foreign_index_dir(tmp_path, name="index") -> str:
    directory = tmp_path / name
    directory.mkdir()
    (directory / "index_meta.json").write_text(
        json.dumps({"version": 999}))
    return str(directory)


def _foreign_cluster_dir(tmp_path, name="cluster") -> str:
    directory = tmp_path / name
    directory.mkdir()
    (directory / "cluster_meta.json").write_text("{definitely not json")
    return str(directory)


def _kinds_through_terminal(stream) -> list:
    """Event kinds off ``stream`` up to and including the terminal one."""
    kinds = []
    while True:
        event = stream.next(timeout=5)
        assert event is not None, "terminal event never arrived"
        kinds.append(event.kind)
        if event.terminal:
            return kinds


class TestServiceDegrades:
    def test_foreign_index_degrades_not_fails(self, tmp_path, caplog):
        service = BatchRevealService(
            config=RevealConfig(index_dir=_foreign_index_dir(tmp_path)),
            workers=1)
        with caplog.at_level("WARNING"):
            outcome = service.reveal_one(
                RevealJob(app_id="a", apk=build_simple_apk("deg.index")))
        assert outcome.status == STATUS_OK
        assert outcome.degraded == ["index"]
        assert outcome.index_stats == {}
        assert "ValueError" in service.stores.degraded["index"]
        warnings = [r for r in caplog.records
                    if "index unavailable" in r.getMessage()]
        assert len(warnings) == 1
        # A second reveal does not retry (or re-warn about) the open.
        service.reveal_one(
            RevealJob(app_id="b", apk=build_simple_apk("deg.index2")))
        warnings = [r for r in caplog.records
                    if "index unavailable" in r.getMessage()]
        assert len(warnings) == 1

    def test_corrupt_cluster_degrades_not_fails(self, tmp_path):
        service = BatchRevealService(
            config=RevealConfig(cluster_dir=_foreign_cluster_dir(tmp_path)),
            workers=1)
        outcome = service.reveal_one(
            RevealJob(app_id="a", apk=build_simple_apk("deg.cluster")))
        assert outcome.status == STATUS_OK
        assert outcome.degraded == ["cluster"]
        assert outcome.cluster_stats == {}

    def test_multiple_degradations_are_sorted(self, tmp_path):
        service = BatchRevealService(
            config=RevealConfig(index_dir=_foreign_index_dir(tmp_path),
                                cluster_dir=_foreign_cluster_dir(tmp_path)),
            workers=1)
        outcome = service.reveal_one(
            RevealJob(app_id="a", apk=build_simple_apk("deg.both")))
        assert outcome.status == STATUS_OK
        assert outcome.degraded == ["cluster", "index"]

    def test_degraded_round_trips_through_summary(self):
        outcome = RevealOutcome(app_id="a", status=STATUS_OK,
                                degraded=["cache", "index"])
        summary = outcome.to_summary()
        assert summary["degraded"] == ["cache", "index"]
        assert RevealOutcome.from_summary(summary).degraded == \
               ["cache", "index"]


class TestCacheDegrades:
    def test_failed_cache_write_degrades_not_fails(self, tmp_path):
        cache = RevealCache(str(tmp_path / "cache"))
        outcome = RevealOutcome(app_id="a", status=STATUS_OK)
        plan = FaultPlan([FaultRule("cache.write", FAULT_OS_ERROR,
                                    times=10)])
        with faults.armed(plan):
            admitted = cache.put("key", outcome)
        assert admitted is False
        assert cache.write_failures == 1
        assert outcome.degraded == ["cache"]
        # The entry is simply absent; the next run recomputes.
        assert cache.get("key") is None


class TestDegradedEvents:
    def test_server_publishes_degraded_before_terminal(self, tmp_path):
        service = BatchRevealService(config=RevealConfig(
            index_dir=_foreign_index_dir(tmp_path)))
        with RevealServer(service, workers=1) as server:
            stream = server.bus.subscribe()
            handle = server.submit(build_simple_apk("deg.events"))
            outcome = handle.wait(timeout=120)
            assert outcome is not None and outcome.degraded == ["index"]
            kinds = _kinds_through_terminal(stream)
            assert EVENT_DEGRADED in kinds
            assert kinds.index(EVENT_DEGRADED) < len(kinds) - 1
            degraded = [e for e in server.bus.history
                        if e.kind == EVENT_DEGRADED]
            assert degraded[0].payload["subsystems"] == ["index"]


_PROBE_KEYS = {"index_known_methods", "index_executed_methods"}


class TestMidRevealWriteFailures:
    """A store write that fails inside a reveal costs later reveals'
    savings or labels, never this reveal: it ends ``ok`` with the
    fault-free revealed APK, names the store in ``degraded`` and
    publishes that before the terminal event."""

    @pytest.mark.parametrize("site, kind, subsystem", [
        ("index.body.write", FAULT_OS_ERROR, "index"),
        ("index.body.write", FAULT_TORN_TMP, "index"),
        ("index.segment.append", FAULT_OS_ERROR, "index"),
        ("cluster.segment.append", FAULT_OS_ERROR, "cluster"),
    ])
    def test_failed_write_degrades_not_fails(self, tmp_path, site, kind,
                                             subsystem):
        app = build_shared_corpus_app("com.deg.write", corpus_seed=3,
                                      app_seed=1)

        def config(name):
            return RevealConfig(index_dir=str(tmp_path / name / "index"),
                                cluster_dir=str(tmp_path / name / "cluster"))
        want = BatchRevealService(config=config("clean"), workers=1) \
            .reveal_one(RevealJob(app.package, app.apk))
        assert want.status == STATUS_OK and want.degraded == []

        plan = FaultPlan([FaultRule(site, kind)])
        faulty = BatchRevealService(config=config("faulty"))
        with faults.armed(plan), RevealServer(faulty, workers=1) as server:
            stream = server.bus.subscribe()
            outcome = server.submit(app.apk).wait(timeout=120)
            kinds = _kinds_through_terminal(stream)
        assert [fired["site"] for fired in plan.fired] == [site]
        assert outcome.status == STATUS_OK, outcome.error
        assert outcome.revealed_apk.to_bytes() == \
            want.revealed_apk.to_bytes()
        assert outcome.degraded == [subsystem]
        assert kinds.index(EVENT_DEGRADED) < len(kinds) - 1
        if site == "index.segment.append":
            # Registration failed: the probe's counts stay, the
            # registration's never arrived.
            assert set(outcome.index_stats) == _PROBE_KEYS | {"degraded"}
        elif subsystem == "index":
            # The body is emitted all the same and the reveal registers.
            assert outcome.index_stats["degraded"].startswith(
                "injected fault")
            assert set(want.index_stats) < set(outcome.index_stats)
        else:
            assert outcome.index_stats == want.index_stats
            assert outcome.cluster_stats == {}

    def test_compaction_sweeps_a_torn_body_tmp(self, tmp_path):
        # A torn body write leaves its temp file; a later reveal
        # publishes that body, and compaction then deletes the debris.
        app = build_shared_corpus_app("com.deg.sweep", corpus_seed=3,
                                      app_seed=1)
        config = RevealConfig(index_dir=str(tmp_path / "index"))
        bodies = tmp_path / "index" / "bodies"
        plan = FaultPlan([FaultRule("index.body.write", FAULT_TORN_TMP)])
        with faults.armed(plan):
            torn = BatchRevealService(config=config, workers=1) \
                .reveal_one(RevealJob(app.package, app.apk))
        assert torn.status == STATUS_OK and torn.degraded == ["index"]
        debris = [p.name for p in bodies.iterdir() if p.suffix == ".tmp"]
        assert len(debris) == 1

        service = BatchRevealService(config=config, workers=1)
        again = service.reveal_one(RevealJob(app.package, app.apk))
        assert again.status == STATUS_OK and again.degraded == []
        published = debris[0].partition(".json.")[0] + ".json"
        assert (bodies / published).exists()
        service.stores.index.compact()
        assert not [p for p in bodies.iterdir() if p.suffix == ".tmp"]


class TestGatewayStats:
    def test_stats_count_degraded_reveals(self, tmp_path):
        store = JobStore(str(tmp_path / "store"))
        apk = build_simple_apk("deg.stats")
        for job_id, subsystems in (("j1", ["index"]),
                                   ("j2", ["cluster", "index"]),
                                   ("j3", [])):
            record = store.make_record(job_id=job_id, app_id=job_id,
                                       apk=apk)
            record["state"] = "done"
            record["outcome"] = {"app_id": job_id, "status": STATUS_OK,
                                 "degraded": subsystems}
            store.save(record)
        gateway = RevealGateway(store)
        stats = gateway.stats()
        assert stats["degraded"]["reveals_degraded"] == 2
        assert stats["degraded"]["by_subsystem"] == {"index": 2,
                                                     "cluster": 1}
        assert stats["store"] == {"corrupt_records": 0,
                                  "corrupt_event_lines": 0}
