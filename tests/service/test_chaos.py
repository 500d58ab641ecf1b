"""Chaos suite: seeded fault schedules against a gateway + worker
fleet.

Each schedule arms one deterministic :class:`FaultPlan` (reproducible
from its printed seed) while real jobs flow submit → claim → reveal →
complete, then asserts the two invariants the fleet promises no matter
what the schedule did:

* **exactly-once completion** — every job lands terminal ``done``
  exactly once (one ``.done`` token, stamped with the winning lease
  generation), however many times its execution was retried;
* **byte-identical artifacts** — the revealed APK served by the
  gateway equals a fault-free in-process reveal of the same input.

Schedules span the three fault families the injection sites group
into: store I/O (torn writes, truncated appends, failed replaces),
network (HTTP 500s, connection resets, delays), and worker death
(``os._exit`` mid-claim / mid-heartbeat / mid-complete, in a real
child process).  On any assertion failure the full schedule —
including its seed — is printed so the run can be replayed.
"""

import multiprocessing
import os
import threading

import pytest

from repro import faults
from repro.faults import (
    FAULT_DELAY,
    FAULT_KILL,
    KILL_EXIT_CODE,
    NETWORK_SITES,
    STORE_SITES,
    FaultPlan,
    FaultRule,
)
from repro.service import (
    ARTIFACT_REVEALED_APK,
    STATUS_OK,
    BatchRevealService,
    GatewayClient,
    JobState,
    JobStore,
    RevealGateway,
    RevealJob,
    RevealWorker,
    artifact_digest,
)
from repro.service.retry import RetryPolicy

from tests.conftest import build_simple_apk

#: One fleet run's job mix.  Packages are deterministic inputs, so the
#: fault-free baseline bytes are computed once for the whole module.
APPS = ("alpha", "beta", "gamma")

#: Generous-but-bounded client/worker retry for chaos runs: seeded
#: rules stack at most three consecutive faults on one site (windows
#: span hits 0..2), so six attempts always converge.
CHAOS_RETRY = RetryPolicy(attempts=6, base_delay_s=0.01, max_delay_s=0.25)

SITE_POOLS = {
    "store": STORE_SITES,
    "network": NETWORK_SITES,
    "mixed": STORE_SITES + NETWORK_SITES,
}

#: The seeded schedules: (name, seed, site pool, rule count).
THREAD_SCHEDULES = [
    ("store-a", 42, "store", 6),
    ("store-b", 1337, "store", 6),
    ("network-a", 7, "network", 6),
    ("network-b", 99, "network", 6),
    ("mixed-a", 5, "mixed", 8),
    ("mixed-b", 2718, "mixed", 8),
]

#: Worker-death schedules, run in a forked child so ``os._exit`` kills
#: a real process mid-protocol and the survivors must reclaim.
KILL_SCHEDULES = [
    ("kill-mid-claim", 11,
     [FaultRule("worker.claim", FAULT_KILL, after=1)]),
    ("kill-mid-complete", 12,
     [FaultRule("worker.complete", FAULT_KILL, after=0)]),
    # A fast reveal can finish before the first beat, so the schedule
    # stretches execution with delays on the stage-event appends
    # (which fire mid-reveal, while the beat thread is live).
    ("kill-mid-heartbeat", 13,
     [FaultRule("jobstore.events.append", FAULT_DELAY,
                delay_s=0.3, times=4, after=1),
      FaultRule("worker.heartbeat", FAULT_KILL, after=0)]),
]


@pytest.fixture(autouse=True)
def _always_disarmed():
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def baseline():
    """Fault-free reference bytes per app, from an in-process reveal."""
    service = BatchRevealService(workers=1)
    reference = {}
    for app in APPS:
        outcome = service.reveal_one(
            RevealJob(app_id=app, apk=build_simple_apk(f"chaos.{app}")))
        assert outcome.status == STATUS_OK
        reference[app] = outcome.revealed_apk.to_bytes()
    return reference


def _submit_all(client: GatewayClient) -> list:
    return [client.submit(RevealJob(app_id=app,
                                    apk=build_simple_apk(f"chaos.{app}")))
            for app in APPS]


def _run_fleet(store: JobStore, *, lease_ttl_s: float = 1.0,
               linger_s: float = 4.0) -> list:
    """Two thread workers draining the store concurrently."""
    workers = [
        RevealWorker(store, worker_id=f"chaos-w{i}",
                     poll_interval_s=0.05, lease_ttl_s=lease_ttl_s,
                     retry=CHAOS_RETRY)
        for i in range(2)
    ]
    reports = [None, None]

    def drain(i: int) -> None:
        reports[i] = workers[i].run(max_jobs=len(APPS) + 3,
                                    linger_s=linger_s)

    threads = [threading.Thread(target=drain, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    return threads


def _assert_exactly_once_and_identical(store, client, handles,
                                       baseline, plan) -> None:
    """The two chaos invariants, with the schedule printed on failure."""
    try:
        for handle in handles:
            record = store.load(handle.job_id)
            assert record is not None, f"record lost: {handle.job_id}"
            assert record["state"] == JobState.DONE
            assert record["outcome"]["status"] == STATUS_OK
            assert int(record.get("attempts", 0)) >= 1
            # Exactly-once witness: the single .done token names the
            # lease generation whose completion landed.
            done_token = f"{handle.job_id}.done"
            assert os.path.exists(os.path.join(store.claims_dir,
                                               done_token))
            assert store._token_payload(done_token) == \
                str(record["lease_seq"])
            # Byte-identical artifacts, straight off the gateway.
            digest = record["artifacts"][ARTIFACT_REVEALED_APK]
            expected = baseline[handle.app_id]
            assert digest == artifact_digest(expected)
            assert client.fetch_artifact(digest) == expected
    except AssertionError:
        print("\nchaos schedule that failed (replay with this seed):\n"
              + plan.describe())
        raise


class TestSeededFaultSchedules:
    @pytest.mark.parametrize("name,seed,pool,count", THREAD_SCHEDULES)
    def test_fleet_completes_under_faults(self, tmp_path, baseline,
                                          name, seed, pool, count):
        plan = FaultPlan.seeded(seed, sites=SITE_POOLS[pool],
                                faults=count, name=f"chaos-{name}")
        store = JobStore(str(tmp_path / "store"))
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url, poll_interval_s=0.05,
                                   retry=CHAOS_RETRY)
            with faults.armed(plan):
                handles = _submit_all(client)
                threads = _run_fleet(store)
                outcomes = client.await_many(handles, timeout=180)
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
            try:
                assert [o.app_id for o in outcomes] == list(APPS)
                assert all(o.status == STATUS_OK for o in outcomes)
            except AssertionError:
                print("\nchaos schedule that failed "
                      "(replay with this seed):\n" + plan.describe())
                raise
            _assert_exactly_once_and_identical(store, client, handles,
                                               baseline, plan)


def _doomed_worker_main(store_path: str, plan_dict: dict,
                        lease_ttl_s: float) -> None:
    """Child-process entry: arm the kill schedule and work until it
    fires (``os._exit(KILL_EXIT_CODE)`` mid-protocol)."""
    faults.arm(FaultPlan.from_dict(plan_dict))
    worker = RevealWorker(store_path, worker_id="doomed",
                          poll_interval_s=0.05, lease_ttl_s=lease_ttl_s,
                          retry=RetryPolicy(attempts=2,
                                            base_delay_s=0.01))
    worker.run(max_jobs=len(APPS) + 3, linger_s=1.0)


class TestWorkerKillSchedules:
    @pytest.mark.parametrize("name,seed,rules", KILL_SCHEDULES)
    def test_killed_worker_jobs_are_reclaimed(self, tmp_path, baseline,
                                              name, seed, rules):
        plan = FaultPlan(rules, seed=seed, name=f"chaos-{name}")
        store = JobStore(str(tmp_path / "store"))
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url, poll_interval_s=0.05)
            handles = _submit_all(client)

        # The victim runs in a real child process so the injected
        # os._exit models a genuine crash: no finally blocks, no
        # lease release, no completion.
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(target=_doomed_worker_main,
                             args=(store.path, plan.to_dict(), 0.5))
        victim.start()
        victim.join(timeout=120)
        assert victim.exitcode == KILL_EXIT_CODE, (
            f"kill fault never fired (exit {victim.exitcode});\n"
            + plan.describe())

        # A clean survivor reclaims whatever the victim left leased
        # (after its short TTL expires) and finishes the queue.
        survivor = RevealWorker(store, worker_id="survivor",
                                poll_interval_s=0.05, lease_ttl_s=1.0)
        survivor.run(max_jobs=len(APPS) + 3, linger_s=4.0)

        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url, poll_interval_s=0.05)
            _assert_exactly_once_and_identical(store, client, handles,
                                               baseline, plan)
