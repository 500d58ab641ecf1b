"""BatchRevealService: corpus-scale reveal with workers and caching.

The paper evaluates DexLego one application at a time; its consumers
(static analyzers scanning markets, unpacking services, CI pipelines)
run it over *corpora*.  This module is that production posture:

* a :class:`RevealJob` names one application plus its per-app knobs
  (device profile, drive callable, collect-only mode),
* :class:`BatchRevealService` fans jobs across worker threads (one of
  them for debugging) — with every job isolated so one crashing APK
  produces an ``error`` record instead of aborting the batch,
* results flow through the content-addressed
  :class:`~repro.service.cache.RevealCache`, so re-running a corpus only
  pays for apps whose bytes or pipeline configuration changed,
* the returned :class:`~repro.service.stats.BatchReport` preserves
  submission order and carries throughput aggregates (apps/sec, cache
  hit rate, p50/p95 latency and queue wait).

:meth:`BatchRevealService.reveal_one` is the one path that executes a
job — cache lookup, pipeline run and the job's progress events — and
every front end calls it: library callers directly,
:class:`~repro.service.server.RevealServer` from its worker threads and
the fleet's :class:`~repro.service.worker.RevealWorker` under a lease.
``reveal_batch`` submits every job, cache hits included, to an
ephemeral server and awaits the outcomes.

Reveals spread over processes two ways, neither of them here: across
jobs, a fleet of ``worker`` processes drains one
:class:`~repro.service.jobs.JobStore` (``submit --store`` fills it);
inside one force-execution reveal, ``explore_backend="process"`` runs
the replays in forked workers.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from repro.core.config import RevealConfig
from repro.core.pipeline import Pipeline, open_optional_stores
from repro.errors import StageError, VerificationError
from repro.runtime.apk import Apk
from repro.runtime.device import DeviceProfile
from repro.service.cache import RevealCache, reveal_cache_key
from repro.service.events import (
    EVENT_CACHE_HIT,
    EVENT_CLUSTER,
    EVENT_DEGRADED,
    EVENT_INDEX,
    EVENT_STAGE,
    EVENT_WAVE,
)
from repro.service.outcomes import (
    STATUS_ERROR,
    STATUS_VERIFY_FAILED,
    RevealOutcome,
    classify_result,
)
from repro.service.stats import BatchReport

#: Environment override consulted when a service (or experiment runner)
#: does not pin a worker count; also settable via :func:`set_default_workers`.
WORKERS_ENV_VAR = "DEXLEGO_WORKERS"

_default_workers: int | None = None


def set_default_workers(count: int | None) -> None:
    """Process-wide default worker count (the runner's ``--workers``)."""
    global _default_workers
    _default_workers = count


def default_worker_count() -> int:
    """Resolved default: explicit setting, else env var, else serial."""
    if _default_workers is not None:
        return max(1, _default_workers)
    env = os.environ.get(WORKERS_ENV_VAR, "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


@dataclass
class RevealJob:
    """One unit of batch work.

    Fields:

    * ``app_id`` — identifier the outcome is reported under.
    * ``apk`` — the application to reveal.
    * ``device`` — per-job device profile override (DroidBench samples
      pin emulator vs. handset identity); ``None`` uses the service's.
    * ``drive`` — optional drive callable forwarded to the pipeline
      (e.g. a fuzzer); jobs with a drive are not cacheable unless they
      also set ``cache_salt``, because the cache cannot fingerprint a
      callable.
    * ``collect_only`` — run only the JIT-collection half (Table VI's
      dump-size measurements) and skip reassembly.
    * ``cache_salt`` — extra key material identifying the drive/workload.
    """

    app_id: str
    apk: Apk
    device: DeviceProfile | None = None
    drive: Callable | None = None
    collect_only: bool = False
    cache_salt: str = ""

    @property
    def cacheable(self) -> bool:
        return self.drive is None or bool(self.cache_salt)


class BatchRevealService:
    """Parallel, cached collect→reassemble→verify over an APK corpus.

    ``config`` parameterises every reveal (default ``RevealConfig()``);
    ``workers`` is the thread count of :meth:`reveal_batch`'s server
    (default :func:`default_worker_count`); results are cached in
    ``cache``, or in a :class:`RevealCache` over ``cache_dir``.
    """

    def __init__(
        self,
        *,
        config: RevealConfig | None = None,
        workers: int | None = None,
        cache: RevealCache | None = None,
        cache_dir: str | None = None,
    ) -> None:
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        self.config = config or RevealConfig()
        self.workers = max(1, workers) if workers is not None \
            else default_worker_count()
        self.cache = cache if cache is not None else RevealCache(cache_dir)
        # One CorpusIndex and one ClusterStore, opened once and shared
        # by every job, so a batch dedups and labels against itself.  A
        # store that fails to open warns once here and every reveal
        # carries it in ``degraded``.
        self.stores = open_optional_stores(self.config)

    # -- pipeline construction ---------------------------------------------

    def config_for(self, job: RevealJob) -> RevealConfig:
        """The service config with the job's device override applied."""
        if job.device is None or job.device == self.config.device:
            return self.config
        return self.config.replace(device=job.device)

    def pipeline_for(self, job: RevealJob, observer=None,
                     wave_observer=None) -> Pipeline:
        """A fresh, job-private pipeline over the service's stores
        (runtimes are never shared).

        ``observer`` receives the pipeline's per-stage
        :class:`~repro.core.stages.StageEvent` records and
        ``wave_observer`` the exploration scheduler's wave snapshots.
        """
        config = self.config_for(job)
        if config.archive_dir is not None:
            # Collection files have fixed names, so parallel jobs
            # sharing one archive directory would cross-contaminate
            # their save/load round-trips; scope it per job.
            config = config.replace(
                archive_dir=os.path.join(config.archive_dir, job.app_id))
        return Pipeline(config, observer=observer,
                        wave_observer=wave_observer, stores=self.stores)

    def job_cache_key(self, job: RevealJob) -> str:
        salt = job.cache_salt
        if job.collect_only:
            salt += "|collect-only"
        return reveal_cache_key(job.apk, self.config_for(job), salt)

    # -- single job ---------------------------------------------------------

    def reveal_one(self, job: RevealJob | Apk, *, job_id: str | None = None,
                   bus=None) -> RevealOutcome:
        """Run (or fetch) one job; never raises for per-app failures.

        Routed through :meth:`RevealCache.get_or_compute`, so two
        threads revealing the same bytes under the same config run one
        pipeline and share the admitted record.  The pipeline runs on
        DEX files that intern into pools of their own
        (:meth:`~repro.dex.structures.DexFile.with_own_pools`):
        self-modifying code interns strings and refs into the DEX it
        runs from, and the caller's APK must keep its bytes and its
        key.

        With an :class:`~repro.service.events.EventBus`, the job's
        progress is published under ``job_id``: one ``stage`` event per
        pipeline stage and ``wave`` snapshots while it runs,
        ``cache-hit`` when the cache served it, then the ``index``,
        ``cluster`` and ``degraded`` verdicts.  The lifecycle events
        around them (``submitted``, ``started``, the terminal one)
        belong to the front end.
        """
        job = self._coerce(job)
        cache_key = self.job_cache_key(job) if job.cacheable else ""
        observer = wave_observer = None
        if bus is not None:
            def observer(event) -> None:
                bus.publish(EVENT_STAGE, job_id, job.app_id, payload={
                    "stage": event.stage,
                    "duration_s": event.duration_s,
                    "ok": event.ok,
                    "error": event.error,
                })

            def wave_observer(snapshot: dict) -> None:
                bus.publish(EVENT_WAVE, job_id, job.app_id,
                            payload=dict(snapshot))

        def compute() -> RevealOutcome:
            apk = replace(job.apk, dex_files=[
                dex.with_own_pools() for dex in job.apk.dex_files])
            return self._run_job(replace(job, apk=apk), cache_key,
                                 observer, wave_observer)

        outcome, hit = self.cache.get_or_compute(cache_key, compute)
        if hit:
            outcome.app_id = job.app_id  # content-addressed, not name-addressed
        if bus is None:
            return outcome
        if hit:
            bus.publish(EVENT_CACHE_HIT, job_id, job.app_id,
                        payload={"cache_key": cache_key})
        # The verdicts ride the stream before the front end's terminal
        # event, so dashboards never race the outcome: started → index
        # → cluster → degraded → done.
        if outcome.index_stats:
            bus.publish(EVENT_INDEX, job_id, job.app_id,
                        payload=dict(outcome.index_stats))
        if outcome.cluster_stats:
            bus.publish(EVENT_CLUSTER, job_id, job.app_id,
                        payload=dict(outcome.cluster_stats))
        if outcome.degraded:
            bus.publish(EVENT_DEGRADED, job_id, job.app_id,
                        payload={"subsystems": list(outcome.degraded)})
        return outcome

    # -- batch --------------------------------------------------------------

    def server(self, **kwargs) -> "RevealServer":
        """A :class:`~repro.service.server.RevealServer` owned by this
        service — shared config, shared cache.  Keyword arguments
        (``max_pending=``, ``autostart=``...) pass through."""
        from repro.service.server import RevealServer

        kwargs.setdefault("workers", self.workers)
        return RevealServer(service=self, **kwargs)

    def reveal_batch(self, jobs: Iterable[RevealJob | Apk]) -> BatchReport:
        """Run a corpus; outcomes come back in submission order.

        Every job, cache hits included, is submitted to an ephemeral
        :meth:`server` and runs through :meth:`reveal_one` on its
        in-memory queue.
        """
        started = time.perf_counter()
        with self.server() as server:
            outcomes = server.await_many(server.submit_many(jobs))
        return BatchReport(
            outcomes=outcomes,
            wall_time_s=time.perf_counter() - started,
            workers=self.workers,
        )

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _coerce(job: RevealJob | Apk) -> RevealJob:
        if isinstance(job, RevealJob):
            return job
        return RevealJob(app_id=job.package, apk=job)

    @staticmethod
    def _degraded_for(pipeline: Pipeline, result=None) -> list:
        """Everything this reveal had to bypass: the result's list
        (:attr:`~repro.core.pipeline.RevealResult.degraded`), or, for a
        reveal that produced no result, the stores that failed to
        open."""
        if result is not None:
            return list(result.degraded)
        return sorted(pipeline.degraded)

    def _run_job(self, job: RevealJob, key: str = "", observer=None,
                 wave_observer=None) -> RevealOutcome:
        pipeline = self.pipeline_for(job, observer=observer,
                                     wave_observer=wave_observer)
        started = time.perf_counter()
        try:
            if job.collect_only:
                timings: dict = {}
                collected = pipeline.collect(job.apk, job.drive,
                                             timings=timings)
                return RevealOutcome(
                    app_id=job.app_id,
                    status=classify_result(collected),
                    latency_s=time.perf_counter() - started,
                    dump_size_bytes=collected.dump_size_bytes,
                    collector_stats=collected.collector_stats,
                    error=collected.crash_reason,
                    stage_timings=timings,
                    exploration=(collected.force_report.to_summary()
                                 if collected.force_report else {}),
                    degraded=self._degraded_for(pipeline),
                    cache_key=key,
                )
            result = pipeline.run(job.apk, job.drive)
            status = classify_result(result)
        except StageError as err:
            verify_failed = isinstance(err.cause, VerificationError)
            return RevealOutcome(
                app_id=job.app_id,
                status=STATUS_VERIFY_FAILED if verify_failed else STATUS_ERROR,
                latency_s=time.perf_counter() - started,
                error=(str(err.cause) if verify_failed else
                       f"{type(err.cause).__name__}: {err.cause}"),
                failed_stage=err.stage,
                degraded=self._degraded_for(pipeline),
                cache_key=key,
            )
        except Exception as exc:
            return RevealOutcome(
                app_id=job.app_id,
                status=STATUS_ERROR,
                latency_s=time.perf_counter() - started,
                error="".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip(),
                degraded=self._degraded_for(pipeline),
                cache_key=key,
            )
        return RevealOutcome(
            app_id=job.app_id,
            status=status,
            latency_s=time.perf_counter() - started,
            dump_size_bytes=result.dump_size_bytes,
            collector_stats=result.collector_stats,
            error=result.crash_reason,
            stage_timings=result.stage_timings,
            exploration=(result.force_report.to_summary()
                         if result.force_report else {}),
            index_stats=dict(result.index_stats),
            cluster_stats=dict(result.cluster_stats),
            degraded=self._degraded_for(pipeline, result),
            cache_key=key,
            result=result,
        )

