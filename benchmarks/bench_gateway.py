"""Gateway + worker-fleet throughput — the HTTP path priced.

Not a paper table: this measures the fleet front end the reproduction
adds on top of the job store.  One F-Droid corpus goes through three
shapes:

* ``in-process`` — ``BatchRevealService`` in this process, the
  reference cost with no wire and no store journal;
* ``fleet-1``    — HTTP submit through a :class:`RevealGateway`,
  drained by one :class:`RevealWorker`, pricing the store journal,
  the lease protocol and the HTTP round trips;
* ``fleet-2``    — the same corpus raced by two workers, showing the
  lease-claim fan-out actually parallelises.

The assertions pin the fleet semantics — every job lands ``done``,
exactly once, and the fleet outcome bytes match the in-process reveal
— so a correctness regression breaks the build before a perf one.
"""

import threading
import time

from benchmarks.conftest import quick_mode, run_once
from repro.benchsuite import all_fdroid_apps
from repro.harness.tables import render_table
from repro.service import (
    STATUS_OK,
    BatchRevealService,
    GatewayClient,
    JobStore,
    RevealGateway,
    RevealJob,
    RevealWorker,
)


def _corpus_jobs():
    apps = all_fdroid_apps()
    if quick_mode():
        apps = apps[:2]
    return [RevealJob(app.package, app.apk) for app in apps]


def _run_fleet(jobs, fleet, tmp_root):
    store = JobStore(f"{tmp_root}/store-{fleet}")
    started = time.perf_counter()
    with RevealGateway(store) as gateway:
        client = GatewayClient(gateway.url, poll_interval_s=0.05)
        handles = client.submit_many(jobs)
        workers = [
            RevealWorker(store, worker_id=f"bench-w{i}", poll_interval_s=0.05)
            for i in range(fleet)
        ]
        threads = [
            threading.Thread(target=w.run,
                             kwargs={"max_jobs": len(jobs),
                                     "linger_s": 5.0})
            for w in workers
        ]
        for t in threads:
            t.start()
        outcomes = client.await_many(handles, timeout=600)
        # Wall stops when the last outcome lands; the join only waits
        # out the workers' idle linger.
        wall = time.perf_counter() - started
        for t in threads:
            t.join()
        assert len(outcomes) == len(jobs)
        assert all(o.status == STATUS_OK for o in outcomes)
        records = [store.load(h.job_id) for h in handles]
        assert all(r["attempts"] == 1 for r in records)
        return wall, outcomes, len({r["worker_id"] for r in records})


def test_gateway_fleet_throughput(benchmark, tmp_path):
    jobs = _corpus_jobs()
    results = {}

    def run():
        started = time.perf_counter()
        reference = BatchRevealService(workers=1).reveal_batch(jobs)
        results["in-process"] = {
            "wall_s": time.perf_counter() - started,
            "workers": 1,
            "note": f"{reference.total} ok={reference.ok_count}",
        }
        reference_bytes = {
            o.app_id: o.revealed_apk.to_bytes()
            for o in reference.outcomes
        }

        for fleet in (1, 2):
            wall, outcomes, distinct = _run_fleet(
                jobs, fleet, str(tmp_path))
            for outcome in outcomes:
                assert (outcome.revealed_apk.to_bytes()
                        == reference_bytes[outcome.app_id])
            results[f"fleet-{fleet}"] = {
                "wall_s": wall,
                "workers": distinct,
                "note": f"{len(outcomes)} ok, byte-identical, "
                        f"exactly-once",
            }
        return results

    run_once(benchmark, run)

    rows = [
        [name, f"{entry['wall_s']:.2f}s", str(entry["workers"]),
         entry["note"]]
        for name, entry in results.items()
    ]
    print()
    print(render_table(
        "Reveal gateway + fleet (F-Droid corpus)",
        ["Run", "Wall", "Workers", "Note"],
        rows,
    ))
