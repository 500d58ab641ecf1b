"""RevealWorker: fleet draining, crash reclaim, exactly-once, artifacts."""

import threading
import time

from repro.service import (
    ARTIFACT_COLLECTION,
    ARTIFACT_REVEALED_APK,
    ARTIFACT_REVEALED_DEX,
    EVENT_CANCELLED,
    EVENT_DONE,
    EVENT_STARTED,
    STATUS_OK,
    ArtifactStore,
    JobState,
    JobStore,
    RevealWorker,
)
from repro.service.batch import BatchRevealService, RevealJob

from tests.conftest import build_simple_apk


def _store(tmp_path) -> JobStore:
    return JobStore(str(tmp_path / "store"))


def _queue(store, job_id, package=None, **kwargs):
    record = store.make_record(
        job_id=job_id, app_id=f"app.{job_id}",
        apk=build_simple_apk(package or f"worker.{job_id}"),
        **kwargs,
    )
    store.save(record)
    return record


class TestDrain:
    def test_worker_drains_store_and_records_outcomes(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        _queue(store, "j2")
        worker = RevealWorker(store, worker_id="w1")
        report = worker.run(max_jobs=10)
        assert report.processed == 2
        assert report.done == 2
        assert report.failed == 0
        assert sorted(report.job_ids) == ["j1", "j2"]
        for job_id in ("j1", "j2"):
            record = store.load(job_id)
            assert record["state"] == JobState.DONE
            assert record["worker_id"] == "w1"
            assert record["lease"] is None
            assert record["outcome"]["status"] == STATUS_OK

    def test_artifacts_stored_content_addressed(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        worker = RevealWorker(store, worker_id="w1")
        worker.run(max_jobs=1)
        record = store.load("j1")
        artifacts = record["artifacts"]
        assert set(artifacts) == {ARTIFACT_REVEALED_APK,
                                  ARTIFACT_REVEALED_DEX,
                                  ARTIFACT_COLLECTION}
        # Default artifact location is <store>/artifacts — where the
        # gateway serves from.
        served = ArtifactStore(str(tmp_path / "store" / "artifacts"),
                               create=False)
        for digest in artifacts.values():
            assert served.get(digest)

    def test_worker_output_matches_in_process_reveal(self, tmp_path):
        store = _store(tmp_path)
        apk = build_simple_apk("worker.parity")
        record = store.make_record(job_id="j1", app_id="parity", apk=apk)
        store.save(record)
        worker = RevealWorker(store, worker_id="w1")
        worker.run(max_jobs=1)
        digest = store.load("j1")["artifacts"][ARTIFACT_REVEALED_APK]
        remote_bytes = worker.artifacts.get(digest)
        local = BatchRevealService(workers=1).reveal_one(
            RevealJob(app_id="parity", apk=build_simple_apk("worker.parity")))
        assert local.status == STATUS_OK
        assert remote_bytes == local.revealed_apk.to_bytes()

    def test_unreadable_record_fails_cleanly(self, tmp_path):
        store = _store(tmp_path)
        record = _queue(store, "corrupt")
        store.update("corrupt", apk_b64="!!! not base64 !!!")
        worker = RevealWorker(store, worker_id="w1")
        report = worker.run(max_jobs=1)
        assert report.failed == 1
        record = store.load("corrupt")
        assert record["state"] == JobState.FAILED
        assert record["error"] == "unreadable job record"

    def test_events_journalled_with_worker_identity(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        RevealWorker(store, worker_id="w-events").run(max_jobs=1)
        events, _offset = store.tail_events()
        kinds = [e["kind"] for e in events]
        assert EVENT_STARTED in kinds and EVENT_DONE in kinds
        done = next(e for e in events if e["kind"] == EVENT_DONE)
        assert done["payload"]["worker_id"] == "w-events"
        assert ARTIFACT_REVEALED_APK in done["payload"]["artifacts"]


class TestFleet:
    def test_two_workers_split_queue_exactly_once(self, tmp_path):
        store = _store(tmp_path)
        for i in range(4):
            _queue(store, f"j{i}")
        workers = [RevealWorker(store, worker_id=f"w{i}")
                   for i in range(2)]
        reports = [None, None]

        def drain(i):
            reports[i] = workers[i].run(max_jobs=4, linger_s=1.0)

        threads = [threading.Thread(target=drain, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        all_ids = reports[0].job_ids + reports[1].job_ids
        assert sorted(all_ids) == [f"j{i}" for i in range(4)]
        assert len(set(all_ids)) == 4  # no job ran on both workers
        assert reports[0].done + reports[1].done == 4

    def test_crashed_worker_job_reclaimed_exactly_once(self, tmp_path):
        # A worker claims a job and dies (never heartbeats, never
        # completes).  Once its lease expires, a live worker reclaims
        # and completes; the dead worker's late completion is fenced.
        store = _store(tmp_path)
        _queue(store, "j1")
        dead = store.claim_next("w-dead", lease_ttl_s=0.15)
        worker = RevealWorker(store, worker_id="w-live", poll_interval_s=0.05)
        report = worker.run(max_jobs=1, linger_s=5.0)
        assert report.done == 1
        record = store.load("j1")
        assert record["state"] == JobState.DONE
        assert record["worker_id"] == "w-live"
        assert record["attempts"] == 2
        # The dead worker finally "returns" — and cannot overwrite.
        assert not store.complete_leased("j1", dead["lease_seq"],
                                        state=JobState.FAILED,
                                        error="late crash report")
        assert store.load("j1")["state"] == JobState.DONE

    def test_cancel_on_reclaimed_record_skips_the_pipeline(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        store.claim_next("w-dead", lease_ttl_s=0.1)
        assert store.request_cancel("j1") == "requested"
        time.sleep(0.15)
        worker = RevealWorker(store, worker_id="w-live", poll_interval_s=0.05)
        start = time.monotonic()
        report = worker.run(max_jobs=1, linger_s=2.0)
        assert report.cancelled == 1
        record = store.load("j1")
        assert record["state"] == JobState.CANCELLED
        # The reveal pipeline never ran: the cancel resolved quickly
        # and produced no artifacts.
        assert record["artifacts"] == {}
        assert time.monotonic() - start < 5.0
        events, _ = store.tail_events()
        assert any(e["kind"] == EVENT_CANCELLED and
                   e["payload"].get("worker_id") == "w-live"
                   for e in events)

    def test_stop_ends_linger_early(self, tmp_path):
        store = _store(tmp_path)
        worker = RevealWorker(store, worker_id="w1", poll_interval_s=0.05)
        timer = threading.Timer(0.2, worker.stop)
        timer.start()
        start = time.monotonic()
        report = worker.run(linger_s=60.0)
        timer.cancel()
        assert report.processed == 0
        assert time.monotonic() - start < 30.0
