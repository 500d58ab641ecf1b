"""RevealServer: the job lifecycle, priorities, events; ``serve`` over a
JobStore: persistence."""

import contextlib
import io
import json
import sys
import threading

import pytest

from repro.core import RevealConfig
from repro.service import (
    EVENT_CACHE_HIT,
    EVENT_STAGE,
    EVENT_WAVE,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    BatchRevealService,
    JobState,
    JobStore,
    QueueFull,
    RevealJob,
    RevealServer,
)

from repro.service.cli import main

from tests.conftest import build_simple_apk


def _job(app_id, package=None):
    return RevealJob(app_id, build_simple_apk(package or f"srv.{app_id}"))


def _journal(store, app_id, **fields):
    """Queue one job the way ``submit --store`` does; its job id."""
    job = _job(app_id)
    record = store.submit(store.event_bus(), app_id=job.app_id,
                          apk=job.apk, **fields)
    return record["job_id"]


def _serve(store_dir, workers=1):
    """One ``serve --json`` drain: (exit code, jobs it processed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["serve", "--store", store_dir,
                     "--workers", str(workers), "--json"])
    return code, json.loads(out.getvalue())["jobs"]


def _lifecycle_kinds(server, job_id):
    return [e.kind for e in server.bus.events_for(job_id)]


class TestSubmitAwait:
    def test_submit_returns_immediately_and_resolves(self):
        with RevealServer(workers=2) as server:
            handle = server.submit(_job("one"))
            outcome = handle.wait(timeout=30)
        assert outcome is not None and outcome.status == "ok"
        assert handle.state == JobState.DONE
        assert handle.queue_wait_s >= 0
        assert handle.run_s > 0
        assert outcome.queue_wait_s == pytest.approx(handle.queue_wait_s)

    def test_accepts_bare_apks(self):
        with RevealServer(workers=1) as server:
            handle = server.submit(build_simple_apk("srv.bare"))
            assert handle.app_id == "srv.bare"
            assert handle.wait(timeout=30).status == "ok"

    def test_poll_and_await_job(self):
        with RevealServer(workers=1) as server:
            handle = server.submit(_job("polled"))
            assert server.poll(handle.job_id) is handle
            outcome = server.await_job(handle.job_id, timeout=30)
            assert outcome.status == "ok"
            with pytest.raises(KeyError):
                server.poll("no-such-job")

    def test_await_all_in_submission_order(self):
        with RevealServer(workers=4) as server:
            handles = server.submit_many([_job(f"j{i}") for i in range(6)])
            outcomes = server.await_many(handles)
        assert [o.app_id for o in outcomes] == [f"j{i}" for i in range(6)]

    def test_failed_job_resolves_failed_state(self):
        def bad_drive(driver):
            raise RuntimeError("fuzzer exploded")

        with RevealServer(workers=1) as server:
            handle = server.submit(RevealJob(
                "bad", build_simple_apk("srv.bad"), drive=bad_drive))
            outcome = handle.wait(timeout=30)
        assert handle.state == JobState.FAILED
        assert outcome.status == "error"
        assert "fuzzer exploded" in handle.error
        assert _lifecycle_kinds(server, handle.job_id)[-1] == "failed"

    def test_duplicate_job_id_rejected(self):
        with RevealServer(workers=1) as server:
            server.submit(_job("dup"), job_id="fixed")
            with pytest.raises(ValueError, match="duplicate"):
                server.submit(_job("dup2"), job_id="fixed")

    def test_submit_after_close_raises(self):
        server = RevealServer(workers=1)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(_job("late"))


class TestPriorities:
    def test_high_priority_completes_first(self):
        # One worker, paused queue: whatever the submission order, the
        # high lane must drain before normal, normal before low.
        server = RevealServer(workers=1, autostart=False)
        lanes = {
            "low": server.submit(_job("low"), priority="low"),
            "normal": server.submit(_job("normal")),
            "high": server.submit(_job("high"), priority=PRIORITY_HIGH),
        }
        server.start()
        server.close()
        finished = sorted(lanes, key=lambda name: lanes[name].finished_at)
        assert finished == ["high", "normal", "low"]

    def test_fifo_within_a_lane(self):
        server = RevealServer(workers=1, autostart=False)
        handles = [server.submit(_job(f"fifo{i}")) for i in range(4)]
        server.start()
        server.close()
        starts = [h.started_at for h in handles]
        assert starts == sorted(starts)

    def test_bad_priority_rejected(self):
        with RevealServer(workers=1) as server:
            with pytest.raises(ValueError):
                server.submit(_job("x"), priority="urgent")
            with pytest.raises(ValueError):
                server.submit(_job("y"), priority=99)


class TestBackpressure:
    def test_queue_full_raises(self):
        server = RevealServer(workers=1, max_pending=2, autostart=False)
        server.submit(_job("a"))
        server.submit(_job("b"))
        with pytest.raises(QueueFull):
            server.submit(_job("c"))
        server.start()
        server.close()

    def test_blocking_submit_waits_for_space(self):
        server = RevealServer(workers=1, max_pending=1, autostart=False)
        server.submit(_job("first"))
        results = {}

        def blocked_submit():
            server.start()
            results["handle"] = server.submit(_job("second"), block=True,
                                              timeout=30)

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        server.close()
        assert results["handle"].state == JobState.DONE

    def test_blocking_submit_times_out(self):
        server = RevealServer(workers=1, max_pending=1, autostart=False)
        server.submit(_job("only"))
        with pytest.raises(QueueFull):
            server.submit(_job("never"), block=True, timeout=0.05)
        server.close(drain=False)

    def test_max_pending_must_be_positive(self):
        with pytest.raises(ValueError):
            RevealServer(workers=1, max_pending=0)


class TestCancellation:
    def test_cancel_queued_job_never_runs(self):
        ran = []

        def tracking_drive(driver):
            ran.append(True)
            return driver.run_standard_session()

        server = RevealServer(workers=1, autostart=False)
        handle = server.submit(RevealJob(
            "doomed", build_simple_apk("srv.doomed"), drive=tracking_drive))
        assert server.cancel(handle.job_id)
        server.start()
        server.close()
        assert ran == []
        assert handle.state == JobState.CANCELLED
        assert handle.outcome is None
        assert handle.wait(timeout=1) is None
        assert _lifecycle_kinds(server, handle.job_id) == \
            ["submitted", "cancelled"]

    def test_cancel_terminal_or_unknown_is_false(self):
        with RevealServer(workers=1) as server:
            handle = server.submit(_job("done"))
            handle.wait(timeout=30)
            assert not server.cancel(handle.job_id)
            assert not server.cancel("no-such-job")

    def test_close_without_drain_cancels_queue(self):
        server = RevealServer(workers=1, autostart=False)
        handles = [server.submit(_job(f"q{i}")) for i in range(3)]
        server.close(drain=False)
        assert all(h.state == JobState.CANCELLED for h in handles)


class TestEventStream:
    WORKER_COUNTS = (1, 4)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_per_job_lifecycle_order_at_any_worker_count(self, workers):
        server = RevealServer(workers=workers)
        handles = server.submit_many([_job(f"evt{i}") for i in range(8)])
        server.await_many(handles)
        server.close()
        for handle in handles:
            kinds = _lifecycle_kinds(server, handle.job_id)
            assert kinds[0] == "submitted"
            assert kinds[1] == "started"
            assert kinds[-1] == "done"
            # Stage events happen strictly between started and done.
            assert all(k == EVENT_STAGE for k in kinds[2:-1])
            # The pipeline's four stages each notified exactly once.
            stages = [e.payload["stage"]
                      for e in server.bus.events_for(handle.job_id)
                      if e.kind == EVENT_STAGE]
            assert stages == ["collect", "reassemble", "verify", "repack"]

    def test_events_iterator_sees_the_run(self):
        server = RevealServer(workers=2)
        stream = server.events()
        handles = server.submit_many([_job(f"it{i}") for i in range(3)])
        server.await_many(handles)
        server.close()  # closes the bus -> iteration ends
        kinds = [e.kind for e in stream]
        assert kinds.count("done") == 3
        seqs = [e.seq for e in server.bus.history]
        assert seqs == sorted(seqs)

    def test_cache_hit_emits_cache_event_not_stages(self):
        service = BatchRevealService(workers=1)
        apk = build_simple_apk("srv.cachehit")
        with RevealServer(service=service) as server:
            first = server.submit(RevealJob("cold", apk))
            first.wait(timeout=30)
            second = server.submit(RevealJob("warm", apk))
            outcome = second.wait(timeout=30)
        assert outcome.cache_hit and outcome.app_id == "warm"
        kinds = _lifecycle_kinds(server, second.job_id)
        assert kinds == ["submitted", "started", EVENT_CACHE_HIT, "done"]

    def test_exploration_waves_reach_the_stream(self):
        # An app with one-sided gates, so force execution has UCBs to
        # replay and the scheduler emits wave snapshots.
        from repro.dex import assemble
        from repro.runtime import Apk

        gated = Apk("srv.waves", "Lsrv/Gated;", [assemble("""
.class public Lsrv/Gated;
.super Landroid/app/Activity;
.field public static a:I = 0

.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 0
    if-nez v0, :locked
    :next
    return-void
    :locked
    sget v1, Lsrv/Gated;->a:I
    add-int/lit8 v1, v1, 1
    sput v1, Lsrv/Gated;->a:I
    goto :next
.end method
""")])
        service = BatchRevealService(
            config=RevealConfig(use_force_execution=True), workers=1)
        with RevealServer(service=service) as server:
            handle = server.submit(RevealJob("waves", gated))
            outcome = handle.wait(timeout=60)
        assert outcome.status == "ok"
        waves = [e for e in server.bus.events_for(handle.job_id)
                 if e.kind == EVENT_WAVE]
        assert waves  # force execution replayed at least one wave
        assert all(w.payload["wave_size"] >= 1 for w in waves)
        explored = [w.payload["paths_explored"] for w in waves]
        assert explored == sorted(explored)


class TestJobStorePersistence:
    """The durable queue is the JobStore: ``serve`` drains whatever it
    holds, including what a killed predecessor still owed."""

    def test_restarted_server_completes_owed_jobs(self, tmp_path):
        store_dir = str(tmp_path / "queue")
        store = JobStore(store_dir)
        job_ids = [_journal(store, f"owed{i}") for i in range(3)]
        assert _serve(store_dir, workers=2) == (0, {"done": 3})
        records = {r["job_id"]: r for r in store.load_all()}
        assert sorted(records) == sorted(job_ids)
        assert all(r["state"] == JobState.DONE for r in records.values())
        assert all(r["outcome"]["status"] == "ok"
                   for r in records.values())

    def test_interrupted_running_job_requeues(self, tmp_path):
        store_dir = str(tmp_path / "queue")
        store = JobStore(store_dir)
        record = store.make_record(
            job_id="mid-flight", app_id="app",
            apk=build_simple_apk("srv.midflight"))
        record["state"] = JobState.RUNNING  # its serve died mid-job
        store.save(record)
        assert _serve(store_dir) == (0, {"done": 1})
        record = store.load("mid-flight")
        assert record["state"] == JobState.DONE
        assert record["outcome"]["status"] == "ok"

    def test_store_journals_events(self, tmp_path):
        store_dir = str(tmp_path / "queue")
        _journal(JobStore(store_dir), "journal")
        _serve(store_dir)
        kinds = [e["kind"] for e in JobStore(store_dir).events()]
        assert kinds == ["submitted", "started", EVENT_STAGE, EVENT_STAGE,
                         EVENT_STAGE, EVENT_STAGE, "done"]

    def test_corrupt_record_skipped_on_resume(self, tmp_path):
        # A record that cannot be decoded costs that job, not the
        # queue: it is failed and the good job still runs.
        store_dir = str(tmp_path / "queue")
        store = JobStore(store_dir)
        store.save(store.make_record(job_id="good", app_id="good",
                                     apk=build_simple_apk("srv.good")))
        bad = store.make_record(job_id="bad", app_id="bad",
                                apk=build_simple_apk("srv.bad2"))
        bad["apk_b64"] = "%%% not base64 %%%"
        store.save(bad)
        assert _serve(store_dir) == (1, {"done": 1, "failed": 1})
        assert store.load("good")["outcome"]["status"] == "ok"
        assert store.load("bad")["error"] == "unreadable job record"

    def test_device_override_survives_restart(self, tmp_path):
        # A journalled job must run under the device it was submitted
        # with, not the service default (device state feeds sources).
        import dataclasses

        from repro.runtime import NEXUS_5X

        custom = dataclasses.replace(NEXUS_5X, imei="424242424242424")
        store_dir = str(tmp_path / "queue")
        store = JobStore(store_dir)
        job_id = _journal(store, "dev", device=custom)
        assert _serve(store_dir) == (0, {"done": 1})
        record = store.load(job_id)
        assert record["device"]["imei"] == "424242424242424"
        # The key hashes the config the job ran under: the custom one.
        service = BatchRevealService(workers=1)
        job = _job("dev")
        assert record["outcome"]["cache_key"] == service.job_cache_key(
            RevealJob("dev", job.apk, device=custom))
        assert record["outcome"]["cache_key"] != service.job_cache_key(job)

    def test_undecodable_record_not_counted_as_adopted(self, tmp_path):
        # A lingering serve loop must not spin forever on a record it
        # can never run; it is failed in the journal instead, and the
        # next drain finds nothing owed.
        store_dir = str(tmp_path / "queue")
        store = JobStore(store_dir)
        bad = store.make_record(job_id="garbled", app_id="x",
                                apk=build_simple_apk("srv.garbled"))
        bad["apk_b64"] = "%%% not base64 %%%"
        store.save(bad)
        assert _serve(store_dir) == (1, {"failed": 1})
        assert store.load("garbled")["state"] == JobState.FAILED
        assert _serve(store_dir) == (0, {})

    def test_serve_threads_complete_each_job_exactly_once(self, tmp_path):
        # Four worker threads (more than the cores CI has) racing one
        # store, switching often: every job is claimed once, run once,
        # completed once.
        store_dir = str(tmp_path / "queue")
        store = JobStore(store_dir)
        job_ids = [_journal(store, f"race{i}") for i in range(8)]
        result = []
        drain = threading.Thread(
            target=lambda: result.append(_serve(store_dir, workers=4)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            drain.start()
            drain.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not drain.is_alive(), "serve --workers 4 did not drain"
        assert result == [(0, {"done": 8})]
        records = {r["job_id"]: r for r in store.load_all()}
        assert sorted(records) == sorted(job_ids)
        assert all(r["state"] == JobState.DONE and r["attempts"] == 1
                   for r in records.values())
        for kind in ("started", "done"):
            journalled = [e["job_id"] for e in store.events()
                          if e["kind"] == kind]
            assert sorted(journalled) == sorted(job_ids), kind

    def test_cancelled_job_persists_cancelled(self, tmp_path):
        store_dir = str(tmp_path / "queue")
        store = JobStore(store_dir)
        job_id = _journal(store, "nixed")
        assert store.request_cancel(job_id) == "cancelled"
        assert _serve(store_dir) == (0, {})
        assert store.load(job_id)["state"] == JobState.CANCELLED


class TestServiceFacade:
    def test_reveal_batch_routes_through_server(self):
        service = BatchRevealService(workers=3)
        jobs = [_job(f"fac{i}") for i in range(5)]
        report = service.reveal_batch(jobs)
        assert [o.app_id for o in report.outcomes] == \
            [f"fac{i}" for i in range(5)]
        assert all(o.status == "ok" for o in report.outcomes)
        # Queue-latency surfaced end to end.
        assert report.summary()["p95_queue_wait_s"] >= 0
        assert all(o.to_summary()["queue_wait_s"] >= 0
                   for o in report.outcomes)

    def test_submit_all_await_all_against_shared_server(self):
        service = BatchRevealService(workers=2)
        with service.server() as server:
            high = server.submit_many([_job("hi")], priority=PRIORITY_HIGH)
            low = server.submit_many([_job("lo")], priority=PRIORITY_LOW)
            outcomes = server.await_many(high + low)
        assert [o.app_id for o in outcomes] == ["hi", "lo"]

    def test_empty_batch(self):
        report = BatchRevealService(workers=2).reveal_batch([])
        assert report.total == 0

    def test_concurrent_same_key_jobs_run_one_pipeline(self):
        # Intra-batch dedup through RevealCache.get_or_compute: the
        # same bytes submitted twice runs the pipeline once.
        service = BatchRevealService(workers=4)
        apk = build_simple_apk("srv.samekey")
        report = service.reveal_batch(
            [RevealJob("alias-a", apk), RevealJob("alias-b", apk)])
        statuses = sorted((o.app_id, o.cache_hit) for o in report.outcomes)
        assert [s for s, _ in statuses] == ["alias-a", "alias-b"]
        assert sorted(hit for _, hit in statuses) == [False, True]


class TestWaitIdle:
    def test_wait_idle_when_empty(self):
        with RevealServer(workers=1) as server:
            assert server.wait_idle(timeout=1)

    def test_wait_idle_times_out_with_paused_queue(self):
        server = RevealServer(workers=1, autostart=False)
        server.submit(_job("stuck"))
        assert not server.wait_idle(timeout=0.05)
        server.close()  # drains: close starts the pool for owed jobs

    def test_close_is_idempotent(self):
        server = RevealServer(workers=1)
        server.close()
        server.close()

    def test_status_counts(self):
        with RevealServer(workers=2) as server:
            handles = server.submit_many([_job(f"sc{i}") for i in range(3)])
            server.await_many(handles)
            counts = server.status_counts()
        assert counts[JobState.DONE] == 3
        assert counts[JobState.QUEUED] == 0


class TestJobStoreEventLog:
    def test_events_sorted_by_seq(self, tmp_path):
        store = JobStore(str(tmp_path))
        # Simulate observer-interleaved appends: seq 1 lands before 0.
        store.append_event({"kind": "started", "job_id": "a", "seq": 1})
        store.append_event({"kind": "submitted", "job_id": "a", "seq": 0})
        assert [e["seq"] for e in store.events()] == [0, 1]

    def test_tail_events_is_incremental(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.append_event({"kind": "submitted", "job_id": "a", "seq": 0})
        events, offset = store.tail_events(0)
        assert [e["seq"] for e in events] == [0]
        # Idle poll: nothing new, offset unchanged.
        again, offset2 = store.tail_events(offset)
        assert again == [] and offset2 == offset
        store.append_event({"kind": "done", "job_id": "a", "seq": 1})
        fresh, _ = store.tail_events(offset)
        assert [e["seq"] for e in fresh] == [1]

    def test_tail_events_leaves_torn_tail_unconsumed(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.append_event({"kind": "submitted", "job_id": "a", "seq": 0})
        with open(store.events_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "done", "job_id": "a"')  # no newline: torn
        events, offset = store.tail_events(0)
        assert len(events) == 1
        # Completing the line makes it visible from the saved offset.
        with open(store.events_path, "a", encoding="utf-8") as fh:
            fh.write(', "seq": 1}\n')
        fresh, _ = store.tail_events(offset)
        assert [e["seq"] for e in fresh] == [1]

    def test_terminal_jobs_release_their_apks(self):
        with RevealServer(workers=1) as server:
            handle = server.submit(_job("released"))
            handle.wait(timeout=30)
            cancelled = server.submit(_job("nixed2"), priority="low")
            # Freeze the queue momentarily? Not needed: cancel may race
            # the worker; only assert on the job that actually cancelled.
            if server.cancel(cancelled.job_id):
                assert cancelled.job_id not in server._jobs
            assert handle.job_id not in server._jobs


class TestLingeringRetention:
    def test_keep_results_false_strips_heavy_payloads(self):
        with RevealServer(workers=1, keep_results=False) as server:
            handle = server.submit(_job("slim"))
            outcome = handle.wait(timeout=30)
        assert outcome.status == "ok"
        assert outcome.result is None
        assert outcome.revealed_apk_bytes is None
        # The summary (what a journal/status consumer reads) survives.
        assert outcome.to_summary()["status"] == "ok"

    def test_default_keeps_the_result(self):
        with RevealServer(workers=1) as server:
            handle = server.submit(_job("full"))
            outcome = handle.wait(timeout=30)
        assert outcome.revealed_apk is not None


class TestJournalAcrossRestarts:
    def test_watch_order_survives_seq_restart(self, tmp_path):
        # Two server processes journal seq 0.. each; the read path must
        # not splice the second run into the middle of the first.
        store = JobStore(str(tmp_path))
        store.append_event({"kind": "submitted", "job_id": "a",
                            "seq": 0, "timestamp": 100.0})
        store.append_event({"kind": "done", "job_id": "a",
                            "seq": 5, "timestamp": 101.0})
        # Restarted server: seq resets to 0, but time moves forward.
        store.append_event({"kind": "submitted", "job_id": "b",
                            "seq": 0, "timestamp": 200.0})
        store.append_event({"kind": "done", "job_id": "b",
                            "seq": 1, "timestamp": 201.0})
        kinds = [(e["job_id"], e["kind"]) for e in store.events()]
        assert kinds == [("a", "submitted"), ("a", "done"),
                         ("b", "submitted"), ("b", "done")]
