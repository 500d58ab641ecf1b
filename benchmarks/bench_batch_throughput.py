"""Batch service throughput — serial vs parallel, cold vs warm cache.

Not a paper table: this measures the service layer the reproduction adds
on top of the paper — revealing the whole F-Droid corpus (Table VI's
apps) through :class:`~repro.service.batch.BatchRevealService` three
ways and recording the aggregate numbers the service is judged by:

* ``serial``   — one worker, no shared cache (the old hand-rolled loop);
* ``parallel`` — a ≥2-worker pool against a cold on-disk cache;
* ``warm``     — the same corpus again, same cache directory: every app
  must come back as a cache hit without re-running the pipeline.

The printed table carries wall time, apps/sec, cache hit rate and p50 /
p95 per-app latency for each configuration, plus the speedup relative
to the serial leg.
"""

import gc

from benchmarks.conftest import run_once
from repro.benchsuite import all_fdroid_apps
from repro.harness.tables import render_table
from repro.service import BatchRevealService, RevealJob

WORKERS = 4


def _corpus_jobs():
    return [RevealJob(app.package, app.apk) for app in all_fdroid_apps()]


def test_batch_throughput_and_cache(benchmark, tmp_path):
    jobs = _corpus_jobs()
    cache_dir = str(tmp_path / "reveal-cache")
    reports = {}

    def run():
        # Each leg starts from a collected heap: a full collection of an
        # earlier leg's garbage would otherwise land in whichever leg
        # crosses the threshold and be timed as that leg's.
        gc.collect()
        reports["serial"] = BatchRevealService(workers=1).reveal_batch(jobs)
        gc.collect()
        reports["parallel"] = BatchRevealService(
            workers=WORKERS, cache_dir=cache_dir
        ).reveal_batch(jobs)
        # A fresh service instance against the same directory: only the
        # persisted cache can explain hits.
        gc.collect()
        reports["warm"] = BatchRevealService(
            workers=WORKERS, cache_dir=cache_dir
        ).reveal_batch(jobs)
        return reports

    run_once(benchmark, run)

    serial = reports["serial"]
    rows = []
    for name, report in reports.items():
        speedup = (serial.wall_time_s / report.wall_time_s
                   if report.wall_time_s else float("inf"))
        rows.append([
            name,
            f"{report.workers} thread(s)",
            f"{report.wall_time_s:.2f}s",
            f"{report.apps_per_sec:.2f}",
            f"{report.cache_hit_rate:.0%}",
            f"{report.p50_latency_s * 1000:.0f}ms",
            f"{report.p95_latency_s * 1000:.0f}ms",
            f"{speedup:.2f}x",
        ])
    print()
    print(render_table(
        "Batch reveal throughput (F-Droid corpus)",
        ["Run", "Workers", "Wall", "Apps/s", "Hit Rate", "p50", "p95",
         "vs Serial"],
        rows,
    ))

    # Every run resolves every corpus app, in submission order.
    packages = [job.app_id for job in jobs]
    for report in reports.values():
        assert [o.app_id for o in report.outcomes] == packages
        assert all(o.status for o in report.outcomes)

    # Identical outcomes regardless of worker count or cache provenance.
    statuses = [[o.status for o in r.outcomes] for r in reports.values()]
    assert statuses[0] == statuses[1] == statuses[2]

    # The warm run is served from the cache (the acceptance criterion).
    assert reports["parallel"].cache_hit_rate == 0.0
    assert reports["warm"].cache_hit_rate > 0
    assert reports["warm"].cache_hits == len(jobs)
