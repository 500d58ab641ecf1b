"""RevealWorker: a lease-pulling fleet member over a shared JobStore.

The :class:`~repro.service.server.RevealServer` scales to the threads
of one process; the fleet protocol scales reveals to *processes and
hosts*.  Workers share nothing but the store directory (local disk or
a shared mount): the gateway (or the ``submit`` CLI) appends queued
records, and every worker loops

    claim → heartbeat while revealing → store artifacts → complete

with all coordination living in :class:`~repro.service.jobs.JobStore`'s
claim tokens and lease generations.  There is no registration, no
leader and no broker process to keep alive — a worker is *in* the
fleet the moment it points at the store, and *out* of it the moment it
stops (its in-flight lease expires and the job is reclaimed by whoever
gets there first).

Execution is :meth:`~repro.service.batch.BatchRevealService.reveal_one`,
the job path every front end shares — result cache, crash isolation,
outcome classification and progress events — so a job revealed by a
fleet worker is byte-for-byte, and event for event, the job an
in-process server would have produced.  Events are published on the
worker's own bus and journalled to the store's ``events.jsonl``, which
is what the gateway's ``/events`` endpoint and ``watch`` CLI tail.
The ``serve`` CLI is a pool of these workers over one store.
"""

from __future__ import annotations

import io
import logging
import os
import socket
import threading
import time
import uuid
import zipfile
from dataclasses import dataclass, field

from repro import faults
from repro.service.artifacts import ArtifactStore
from repro.service.batch import BatchRevealService, RevealJob
from repro.service.events import (
    EVENT_CANCELLED,
    EVENT_DONE,
    EVENT_FAILED,
    EVENT_STARTED,
)
from repro.service.jobs import (
    HEARTBEAT_LOST,
    HEARTBEAT_OK,
    LEASE_TTL_DEFAULT_S,
    JobState,
    JobStore,
)
from repro.service.outcomes import FAILED_STATUSES, STATUS_ERROR, RevealOutcome
from repro.service.retry import Backoff, RetryPolicy, call_with_retries

logger = logging.getLogger(__name__)

#: Artifact kinds a worker stores per successful reveal, keyed in the
#: record's ``artifacts`` map: the repacked APK, the revealed primary
#: DEX on its own (what a static analyzer actually loads), and the
#: collection archive as a zip of its JSON files.
ARTIFACT_REVEALED_APK = "revealed_apk"
ARTIFACT_REVEALED_DEX = "revealed_dex"
ARTIFACT_COLLECTION = "collection"


def default_worker_id() -> str:
    """Host-qualified so a fleet dashboard reads across machines."""
    host = socket.gethostname().split(".")[0] or "host"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class WorkerReport:
    """What one :meth:`RevealWorker.run` drained, for CLIs and tests.

    ``transient_errors`` counts store failures the claim loop absorbed
    (backed off and resumed instead of dying); ``retries`` counts
    bounded complete/artifact retries that recovered; ``backoff_s`` is
    the total time spent sleeping on either.
    """

    worker_id: str
    processed: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    lost: int = 0
    transient_errors: int = 0
    retries: int = 0
    backoff_s: float = 0.0
    job_ids: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "processed": self.processed,
            "done": self.done,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "lost": self.lost,
            "transient_errors": self.transient_errors,
            "retries": self.retries,
            "backoff_s": round(self.backoff_s, 6),
            "job_ids": list(self.job_ids),
        }


class _HeartbeatThread(threading.Thread):
    """Extends one lease every ``ttl/3`` seconds while a job runs.

    Sets ``cancelled`` when an operator cancel arrives (the reveal
    finishes but its result is discarded and the job resolves
    ``cancelled``) and ``lost`` when the lease was reclaimed (the
    worker abandons the job; its completion would be fenced off
    anyway).  A lost lease stops the beats — there is nothing left to
    extend.

    A beat that fails at the store level (shared mount flaking, an
    injected fault) is *transient*: it is counted and the next beat
    retries at the normal interval — beats fire every ``ttl/3``, so a
    single missed beat leaves two more chances before the lease
    expires.
    """

    def __init__(self, store: JobStore, job_id: str, lease_seq: int,
                 lease_ttl_s: float) -> None:
        super().__init__(name=f"lease-heartbeat-{job_id}", daemon=True)
        self._store = store
        self._job_id = job_id
        self._lease_seq = lease_seq
        self._ttl = lease_ttl_s
        self._halt = threading.Event()
        self.cancelled = threading.Event()
        self.lost = threading.Event()
        self.transient_errors = 0

    def run(self) -> None:
        interval = max(0.05, self._ttl / 3.0)
        while not self._halt.wait(interval):
            try:
                faults.check("worker.heartbeat")
                result = self._store.heartbeat(
                    self._job_id, self._lease_seq, lease_ttl_s=self._ttl)
            except OSError:
                self.transient_errors += 1
                continue
            if result == HEARTBEAT_LOST:
                self.lost.set()
                return
            if result != HEARTBEAT_OK:
                self.cancelled.set()

    def stop(self) -> None:
        self._halt.set()
        self.join()


class RevealWorker:
    """One fleet member: claims, reveals, heartbeats, completes.

    ``store`` is the shared queue (path or :class:`JobStore`);
    ``service`` the pipeline executor (a default
    :class:`BatchRevealService` when omitted, as for
    :class:`RevealServer`).  Artifacts land in ``artifact_store`` —
    default ``<store>/artifacts``, the location the gateway serves from.

    The worker publishes the same event vocabulary as the in-process
    server on its own :class:`EventBus`, with every event journalled to
    the store so followers (gateway ``/events``, ``watch`` CLI) see one
    merged fleet stream.
    """

    def __init__(
        self,
        store: JobStore | str,
        service: BatchRevealService | None = None,
        *,
        worker_id: str | None = None,
        lease_ttl_s: float = LEASE_TTL_DEFAULT_S,
        poll_interval_s: float = 0.2,
        artifact_store: ArtifactStore | str | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.store = JobStore(store) if isinstance(store, str) else store
        self.service = service or BatchRevealService()
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl_s = lease_ttl_s
        self.poll_interval_s = poll_interval_s
        if artifact_store is None:
            artifact_store = os.path.join(self.store.path, "artifacts")
        self.artifacts = (ArtifactStore(artifact_store)
                          if isinstance(artifact_store, str)
                          else artifact_store)
        #: Bounded-retry policy for the store writes that must land for
        #: a job to resolve (artifacts, completion); the claim loop
        #: uses the same policy's curve, uncapped, via a Backoff.
        self.retry = retry if retry is not None else RetryPolicy()
        self.bus = self.store.event_bus()
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def stop(self) -> None:
        """Ask :meth:`run` to return after the in-flight job (if any)."""
        self._stop.set()

    def run(self, *, max_jobs: int | None = None,
            linger_s: float = 0.0) -> WorkerReport:
        """Drain the store: claim and reveal until it is empty.

        ``linger_s`` keeps the worker polling that long after the queue
        drains (a daemonised fleet member uses a large value; tests and
        one-shot CLIs use 0 for "drain and exit").  ``max_jobs`` bounds
        the total processed.

        A store that stops answering (shared mount flake, injected
        fault) does not kill the loop: the failure is counted in the
        report, the worker backs off with escalating jittered delays,
        and the next success resets the backoff.
        """
        report = WorkerReport(worker_id=self.worker_id)
        backoff = Backoff(self.retry)
        deadline = time.monotonic() + linger_s
        while not self._stop.is_set():
            if max_jobs is not None and report.processed >= max_jobs:
                break
            try:
                status = self.run_one(report=report)
            except OSError as exc:
                report.transient_errors += 1
                delay = backoff.next_delay()
                report.backoff_s += delay
                if backoff.failures == 1:
                    logger.warning(
                        "worker %s: store unavailable (%s); backing off",
                        self.worker_id, exc)
                deadline = max(deadline, time.monotonic() + linger_s)
                self._stop.wait(delay)
                continue
            backoff.reset()
            if status is not None:
                report.processed += 1
                report.job_ids.append(status[1])
                setattr(report, status[0],
                        getattr(report, status[0]) + 1)
                deadline = time.monotonic() + linger_s
                continue
            if time.monotonic() >= deadline:
                break
            self._stop.wait(self.poll_interval_s)
        return report

    # -- one job ------------------------------------------------------------

    def run_one(self, report: WorkerReport | None = None
                ) -> tuple[str, str] | None:
        """Claim and finish one job; ``(disposition, job_id)`` where
        disposition is ``done``/``failed``/``cancelled``/``lost``, or
        ``None`` when nothing was claimable."""
        faults.check("worker.claim")
        record = self.store.claim_next(self.worker_id,
                                       lease_ttl_s=self.lease_ttl_s)
        if record is None:
            return None
        job_id = record["job_id"]
        lease_seq = int(record.get("lease_seq", 0) or 0)
        return (self._process(record, job_id, lease_seq, report=report),
                job_id)

    def _process(self, record: dict, job_id: str, lease_seq: int,
                 report: WorkerReport | None = None) -> str:
        app_id = record.get("app_id", "")
        # A cancel requested while the record sat lease-expired is
        # honoured before any pipeline work.
        if record.get("cancel_requested"):
            return self._finish_cancelled(job_id, lease_seq, app_id,
                                          report=report)
        try:
            job = RevealJob(
                app_id=record["app_id"],
                apk=JobStore.decode_apk(record["apk_b64"]),
                device=JobStore.decode_device(record.get("device")),
                collect_only=record.get("collect_only", False),
                cache_salt=record.get("cache_salt", ""),
            )
        except Exception:
            landed = self._complete(report, job_id, lease_seq,
                                    state=JobState.FAILED,
                                    error="unreadable job record")
            if not landed:
                return "lost"
            self.bus.publish(EVENT_FAILED, job_id, app_id,
                             payload={"error": "unreadable job record",
                                      "worker_id": self.worker_id})
            return "failed"

        queue_wait_s = max(0.0, (record.get("started_at") or 0.0)
                           - (record.get("submitted_at") or 0.0))
        self.bus.publish(EVENT_STARTED, job_id, job.app_id, payload={
            "queue_wait_s": queue_wait_s,
            "worker_id": self.worker_id,
            "attempt": int(record.get("attempts", 0) or 0),
        })
        beat = _HeartbeatThread(self.store, job_id, lease_seq,
                                self.lease_ttl_s)
        beat.start()
        try:
            outcome = self.service.reveal_one(job, job_id=job_id,
                                              bus=self.bus)
        except Exception as exc:  # reveal_one never raises; belt and braces
            outcome = RevealOutcome(
                app_id=job.app_id, status=STATUS_ERROR,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            beat.stop()
            if report is not None:
                report.transient_errors += beat.transient_errors
        outcome.queue_wait_s = queue_wait_s
        if beat.lost.is_set():
            # Another worker owns the job now; our result is discarded
            # (its completion would be fenced off regardless).
            return "lost"
        if beat.cancelled.is_set():
            return self._finish_cancelled(job_id, lease_seq, job.app_id,
                                          report=report)
        # Artifact puts are content-addressed, so retrying them is
        # idempotent; a re-run by another worker after a lost lease
        # lands the same digests.
        digests = call_with_retries(
            lambda: self._store_artifacts(outcome),
            policy=self.retry, retryable=self._transient,
            on_retry=self._counter(report))
        failed = outcome.status in FAILED_STATUSES
        landed = self._complete(
            report, job_id, lease_seq,
            state=JobState.FAILED if failed else JobState.DONE,
            outcome=outcome.to_summary(),
            error=outcome.error,
            artifacts=digests,
        )
        if not landed:
            return "lost"
        payload = outcome.to_summary()
        payload["worker_id"] = self.worker_id
        payload["artifacts"] = digests
        self.bus.publish(EVENT_FAILED if failed else EVENT_DONE,
                         job_id, job.app_id, payload=payload)
        return "failed" if failed else "done"

    @staticmethod
    def _transient(exc: Exception) -> bool:
        return isinstance(exc, OSError)

    def _counter(self, report: WorkerReport | None):
        """An ``on_retry`` callback accounting into ``report``."""
        def count(_exc, _attempt, delay: float) -> None:
            if report is not None:
                report.retries += 1
                report.backoff_s += delay
        return count

    def _complete(self, report: WorkerReport | None, job_id: str,
                  lease_seq: int, **kwargs) -> bool:
        """``complete_leased`` under bounded retry — the one write that
        must land for a job to resolve.  Retrying is safe: the store's
        done-token records the winning lease generation, so this owner
        recovers its own half-finished completion, while a different
        generation's attempt is fenced off."""
        def once() -> bool:
            faults.check("worker.complete")
            return self.store.complete_leased(job_id, lease_seq, **kwargs)

        return call_with_retries(once, policy=self.retry,
                                 retryable=self._transient,
                                 on_retry=self._counter(report))

    def _finish_cancelled(self, job_id: str, lease_seq: int,
                          app_id: str,
                          report: WorkerReport | None = None) -> str:
        landed = self._complete(report, job_id, lease_seq,
                                state=JobState.CANCELLED)
        if not landed:
            return "lost"
        self.bus.publish(EVENT_CANCELLED, job_id, app_id,
                         payload={"worker_id": self.worker_id})
        return "cancelled"

    # -- artifacts -----------------------------------------------------------

    def _store_artifacts(self, outcome: RevealOutcome) -> dict:
        """Persist what the job produced; ``{kind: digest}``.

        Collect-only jobs and hard failures produce nothing; disk-cache
        hits carry the APK bytes but no live archive, so they store the
        APK/DEX pair and skip the collection zip.  The outcome then
        drops its live result: the artifacts are the job's product.
        """
        digests: dict[str, str] = {}
        apk = outcome.revealed_apk
        if apk is not None:
            digests[ARTIFACT_REVEALED_APK] = self.artifacts.put(
                apk.to_bytes())
            if apk.dex_files:
                from repro.dex.writer import write_dex
                digests[ARTIFACT_REVEALED_DEX] = self.artifacts.put(
                    write_dex(apk.primary_dex))
        result = outcome.result
        if result is not None and result.archive is not None:
            digests[ARTIFACT_COLLECTION] = self.artifacts.put(
                collection_zip_bytes(result.archive))
        outcome.result = None
        outcome.revealed_apk_bytes = None
        return digests


def collection_zip_bytes(archive) -> bytes:
    """One collection archive as a deterministic zip (sorted names,
    fixed timestamps) — equal archives hash to equal artifacts.  The
    files are zipped from memory, as :meth:`CollectionArchive.files`
    renders them; nothing touches the disk."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, text in sorted(archive.files().items()):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, text.encode("utf-8"))
    return buf.getvalue()
