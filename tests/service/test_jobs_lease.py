"""JobStore worker leases: claims, heartbeats, fencing, exactly-once."""

import os
import threading
import time

import pytest

from repro import faults
from repro.faults import FAULT_OS_ERROR, FaultPlan, FaultRule
from repro.service import (
    HEARTBEAT_CANCELLED,
    HEARTBEAT_LOST,
    HEARTBEAT_OK,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    JobState,
    JobStore,
)

from tests.conftest import build_simple_apk


def _store(tmp_path) -> JobStore:
    return JobStore(str(tmp_path / "store"))


def _queue(store, job_id, priority=PRIORITY_NORMAL, submitted_at=None):
    record = store.make_record(
        job_id=job_id, app_id=f"app.{job_id}",
        apk=build_simple_apk(f"lease.{job_id}"),
        priority=priority, submitted_at=submitted_at,
    )
    store.save(record)
    return record


class TestClaim:
    def test_claim_stamps_running_with_lease(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        claimed = store.claim_next("w1", lease_ttl_s=30.0, now=100.0)
        assert claimed["state"] == JobState.RUNNING
        assert claimed["lease_seq"] == 1
        assert claimed["attempts"] == 1
        assert claimed["started_at"] == 100.0
        assert claimed["lease"]["worker_id"] == "w1"
        assert claimed["lease"]["expires_at"] == 130.0

    def test_claim_order_is_lane_then_age(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "old-low", PRIORITY_LOW, submitted_at=1.0)
        _queue(store, "new-high", PRIORITY_HIGH, submitted_at=9.0)
        _queue(store, "old-normal", PRIORITY_NORMAL, submitted_at=2.0)
        _queue(store, "new-normal", PRIORITY_NORMAL, submitted_at=8.0)
        order = [store.claim_next("w")["job_id"] for _ in range(4)]
        assert order == ["new-high", "old-normal", "new-normal", "old-low"]
        assert store.claim_next("w") is None

    def test_racing_workers_resolve_to_one_owner(self, tmp_path):
        store = _store(tmp_path)
        record = _queue(store, "contested")
        wins, barrier = [], threading.Barrier(4)

        def race(worker_id):
            barrier.wait()
            claimed = store.try_claim(record, worker_id)
            if claimed is not None:
                wins.append(worker_id)

        threads = [threading.Thread(target=race, args=(f"w{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_running_without_lease_is_claimable(self, tmp_path):
        # A running record with no lease is what an older ``serve``
        # left behind when it was killed mid-job: owed work, which the
        # next worker claims and re-runs.
        store = _store(tmp_path)
        _queue(store, "orphan")
        store.update("orphan", state=JobState.RUNNING)
        assert [r["job_id"] for r in store.claimable_records()] == \
            ["orphan"]
        claimed = store.claim_next("heir")
        assert claimed["lease"]["worker_id"] == "heir"
        assert claimed["lease_seq"] == 1

    def test_cancel_requested_queued_not_claimable(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "jq")
        store.update("jq", cancel_requested=True)
        assert store.claim_next("w") is None


class TestHeartbeat:
    def test_ok_heartbeat_extends_expiry(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        claimed = store.claim_next("w1", lease_ttl_s=10.0, now=100.0)
        assert store.heartbeat("j1", claimed["lease_seq"],
                               lease_ttl_s=10.0, now=105.0) == HEARTBEAT_OK
        assert store.load("j1")["lease"]["expires_at"] == 115.0

    def test_heartbeat_after_cancellation_says_cancelled(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        claimed = store.claim_next("w1")
        assert store.request_cancel("j1") == "requested"
        result = store.heartbeat("j1", claimed["lease_seq"])
        assert result == HEARTBEAT_CANCELLED
        # The owner acknowledges by completing ``cancelled``.
        assert store.complete_leased("j1", claimed["lease_seq"],
                                     state=JobState.CANCELLED)
        record = store.load("j1")
        assert record["state"] == JobState.CANCELLED
        assert record["cancel_requested"] is False

    def test_cancelled_heartbeat_still_fences_the_lease(self, tmp_path):
        # Acknowledging a cancel takes time; the lease must keep
        # extending meanwhile so nobody reclaims the job mid-ack.
        store = _store(tmp_path)
        _queue(store, "j1")
        claimed = store.claim_next("w1", lease_ttl_s=10.0, now=100.0)
        store.request_cancel("j1")
        store.heartbeat("j1", claimed["lease_seq"],
                        lease_ttl_s=10.0, now=109.0)
        assert store.load("j1")["lease"]["expires_at"] == 119.0

    def test_heartbeat_lost_after_reclaim(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        first = store.claim_next("w1", lease_ttl_s=0.1, now=100.0)
        # w1's lease expired; w2 reclaims at the next generation.
        second = store.claim_next("w2", lease_ttl_s=30.0, now=200.0)
        assert second["lease_seq"] == first["lease_seq"] + 1
        assert store.heartbeat("j1", first["lease_seq"]) == HEARTBEAT_LOST

    def test_heartbeat_unknown_or_terminal_is_lost(self, tmp_path):
        store = _store(tmp_path)
        assert store.heartbeat("ghost", 1) == HEARTBEAT_LOST
        _queue(store, "j1")
        claimed = store.claim_next("w1")
        store.complete_leased("j1", claimed["lease_seq"],
                              state=JobState.DONE)
        assert store.heartbeat("j1", claimed["lease_seq"]) == HEARTBEAT_LOST


class TestExactlyOnce:
    def test_expired_lease_reclaim_race_two_workers(self, tmp_path):
        # The crash-handoff race: a dead worker's lease expired, and
        # two live workers dive for the record at the same instant.
        store = _store(tmp_path)
        _queue(store, "contested")
        store.claim_next("dead", lease_ttl_s=0.05, now=100.0)
        expired = store.claimable_records(now=200.0)
        assert [r["job_id"] for r in expired] == ["contested"]
        wins, barrier = [], threading.Barrier(2)

        def reclaim(worker_id):
            barrier.wait()
            claimed = store.try_claim(expired[0], worker_id, now=200.0)
            if claimed is not None:
                wins.append((worker_id, claimed["lease_seq"]))

        threads = [threading.Thread(target=reclaim, args=(f"w{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        _winner, generation = wins[0]
        assert generation == 2
        assert store.load("contested")["attempts"] == 2

    def test_restart_mid_lease_completes_exactly_once(self, tmp_path):
        # A worker dies mid-job; its restarted replacement (a fresh
        # process — modelled by a fresh JobStore over the same
        # directory) reclaims and completes.  The first owner's late
        # completion is fenced off: exactly one terminal write lands.
        path = str(tmp_path / "store")
        first_store = JobStore(path)
        record = first_store.make_record(
            job_id="j1", app_id="app.j1",
            apk=build_simple_apk("lease.restart"))
        first_store.save(record)
        first = first_store.claim_next("w1", lease_ttl_s=0.05, now=100.0)

        restarted = JobStore(path)
        second = restarted.claim_next("w1-restarted", now=200.0)
        assert second is not None and second["lease_seq"] == 2
        assert restarted.complete_leased(
            "j1", second["lease_seq"], state=JobState.DONE,
            outcome={"status": "ok"}, now=201.0)
        # The original owner finally finishes — and is rejected.
        assert not first_store.complete_leased(
            "j1", first["lease_seq"], state=JobState.DONE,
            outcome={"status": "ok"}, now=202.0)
        final = restarted.load("j1")
        assert final["state"] == JobState.DONE
        assert final["finished_at"] == 201.0
        assert final["worker_id"] == "w1-restarted"

    def test_double_completion_by_same_owner_lands_once(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        claimed = store.claim_next("w1")
        assert store.complete_leased("j1", claimed["lease_seq"],
                                     state=JobState.DONE)
        assert not store.complete_leased("j1", claimed["lease_seq"],
                                         state=JobState.FAILED)
        assert store.load("j1")["state"] == JobState.DONE

    def test_non_terminal_completion_rejected(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        claimed = store.claim_next("w1")
        try:
            store.complete_leased("j1", claimed["lease_seq"],
                                  state=JobState.RUNNING)
        except ValueError:
            pass
        else:
            raise AssertionError("non-terminal state must be rejected")


class TestHalfClaimRecovery:
    """A claimant that dies between its token and its lease write must
    not park the record forever."""

    def test_same_worker_finishes_its_own_half_claim(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        plan = FaultPlan([FaultRule("jobstore.record.write",
                                    FAULT_OS_ERROR, times=1)])
        with faults.armed(plan):
            with pytest.raises(OSError):
                store.claim_next("w1")
            # The retry (the worker loop's backoff path) walks straight
            # back into its own token and lands the lease write.
            claimed = store.claim_next("w1")
        assert claimed is not None
        assert claimed["job_id"] == "j1"
        assert claimed["lease_seq"] == 1
        assert claimed["attempts"] == 1

    def test_stale_foreign_half_claim_is_stepped_past(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        # A foreign claimant took generation 1's token and died before
        # its lease write; backdate the token past one TTL.
        assert store._take_token("j1.1", payload="dead-worker")
        token = os.path.join(store.claims_dir, "j1.1")
        os.utime(token, (time.time() - 60.0, time.time() - 60.0))
        claimed = store.claim_next("w2", lease_ttl_s=5.0)
        assert claimed is not None
        assert claimed["lease_seq"] == 2
        assert claimed["lease"]["worker_id"] == "w2"

    def test_fresh_foreign_token_is_not_stolen(self, tmp_path):
        # A *live* racer's token (its lease write is in flight) must
        # still win: the loser backs off instead of escalating.
        store = _store(tmp_path)
        _queue(store, "j1")
        assert store._take_token("j1.1", payload="other-worker")
        assert store.claim_next("w2", lease_ttl_s=5.0) is None


class TestCancelAndVisibility:
    def test_cancel_queued_is_terminal_and_excludes_workers(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        assert store.request_cancel("j1", now=50.0) == "cancelled"
        record = store.load("j1")
        assert record["state"] == JobState.CANCELLED
        assert record["finished_at"] == 50.0
        # The cancellation consumed the next claim generation.
        assert store.claim_next("w") is None

    def test_cancel_unknown_or_terminal_is_none(self, tmp_path):
        store = _store(tmp_path)
        assert store.request_cancel("ghost") is None
        _queue(store, "j1")
        claimed = store.claim_next("w1")
        store.complete_leased("j1", claimed["lease_seq"],
                              state=JobState.DONE)
        assert store.request_cancel("j1") is None

    def test_claimable_excludes_live_worker_leases(self, tmp_path):
        # A restarted ``serve`` must not steal a job a fleet worker is
        # actively revealing.
        store = _store(tmp_path)
        _queue(store, "leased")
        _queue(store, "queued")
        store.claim_next("w1", lease_ttl_s=3600.0)
        assert [r["job_id"] for r in store.claimable_records()] == \
            ["queued"]

    def test_worker_leases_dashboard(self, tmp_path):
        store = _store(tmp_path)
        _queue(store, "j1")
        store.claim_next("w1", lease_ttl_s=30.0, now=100.0)
        leases = store.worker_leases(now=110.0)
        assert len(leases) == 1
        assert leases[0]["worker_id"] == "w1"
        assert leases[0]["live"] is True
        assert leases[0]["expires_in_s"] == 20.0
        assert store.worker_leases(now=1000.0)[0]["live"] is False
