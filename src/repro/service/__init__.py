"""Batch reveal service: DexLego at corpus scale.

Layer above :mod:`repro.core`: where the core pipeline reveals *one*
application, this package reveals *corpora* — the consumer posture of
the paper's evaluation (markets, app stores, analysis fleets):

* :class:`~repro.service.batch.BatchRevealService` — per-app crash
  isolation and the one job path, ``reveal_one``, that every front end
  below calls; ``reveal_batch`` is submit + await on an ephemeral
  :class:`~repro.service.server.RevealServer`
* :class:`~repro.service.server.RevealServer` — the job-oriented async
  front end: submit / poll / await / cancel, priority lanes,
  backpressure, an in-memory queue
* :class:`~repro.service.events.EventBus` /
  :class:`~repro.service.events.JobEvent` — the unified progress
  stream (lifecycle + pipeline stages + exploration waves + cache hits
  + index / cluster / degraded verdicts)
* :class:`~repro.service.cache.RevealCache` — content-addressed result
  cache keyed on DEX checksum × pipeline-config hash
* :class:`~repro.service.outcomes.RevealOutcome` — uniform per-app
  records (ok / crashed / budget-exceeded / verify-failed / error)
* :class:`~repro.service.stats.BatchReport` — aggregate throughput
  (apps/sec, cache hit rate, p50/p95 latency and queue wait)
* :class:`~repro.service.api.SubmitAPI` — the one submit/poll/await
  protocol :class:`RevealServer` and
  :class:`~repro.service.http_client.GatewayClient` implement
* :class:`~repro.service.jobs.JobStore` — the one durable queue:
  queued records in, claim/lease protocol out
* :class:`~repro.service.gateway.RevealGateway` /
  :class:`~repro.service.worker.RevealWorker` /
  :class:`~repro.service.artifacts.ArtifactStore` — the HTTP front
  end, the lease-pulling workers that drain a store (fleet processes,
  or the threads of ``serve``), and the content-addressed artifact
  store they share
* ``python -m repro.service`` — the batch + server CLI
  (``reveal-batch``, ``reassemble``, ``serve``, ``submit``, ``status``,
  ``watch``, ``gateway``, ``worker``)
"""

from repro.service.api import SubmitAPI
from repro.service.artifacts import (
    ArtifactStore,
    artifact_digest,
    is_artifact_digest,
)
from repro.service.batch import (
    BatchRevealService,
    RevealJob,
    default_worker_count,
    set_default_workers,
)
from repro.service.gateway import RevealGateway
from repro.service.http_client import (
    GatewayClient,
    GatewayError,
    RemoteJobHandle,
)
from repro.service.worker import (
    ARTIFACT_COLLECTION,
    ARTIFACT_REVEALED_APK,
    ARTIFACT_REVEALED_DEX,
    RevealWorker,
    WorkerReport,
)
from repro.service.events import (
    ALL_EVENTS,
    EVENT_CACHE_HIT,
    EVENT_CANCELLED,
    EVENT_CLUSTER,
    EVENT_DEGRADED,
    EVENT_DONE,
    EVENT_FAILED,
    EVENT_INDEX,
    EVENT_STAGE,
    EVENT_STARTED,
    EVENT_SUBMITTED,
    EVENT_WAVE,
    TERMINAL_EVENTS,
    EventBus,
    EventStream,
    JobEvent,
)
from repro.service.jobs import (
    HEARTBEAT_CANCELLED,
    HEARTBEAT_LOST,
    HEARTBEAT_OK,
    LEASE_TTL_DEFAULT_S,
    PRIORITIES,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    JobHandle,
    JobState,
    JobStore,
    resolve_priority,
)
from repro.service.retry import (
    NO_RETRY,
    Backoff,
    RetryPolicy,
    call_with_retries,
)
from repro.service.server import QueueFull, RevealServer
from repro.service.cache import (
    RevealCache,
    apk_content_key,
    reveal_cache_key,
)
from repro.service.outcomes import (
    ALL_STATUSES,
    CACHEABLE_STATUSES,
    FAILED_STATUSES,
    STATUS_BUDGET_EXCEEDED,
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_VERIFY_FAILED,
    RevealOutcome,
    classify_result,
)
from repro.service.stats import BatchReport, percentile

__all__ = [
    "ALL_EVENTS",
    "ALL_STATUSES",
    "ARTIFACT_COLLECTION",
    "ARTIFACT_REVEALED_APK",
    "ARTIFACT_REVEALED_DEX",
    "ArtifactStore",
    "BatchReport",
    "BatchRevealService",
    "CACHEABLE_STATUSES",
    "Backoff",
    "EVENT_CACHE_HIT",
    "EVENT_CANCELLED",
    "EVENT_CLUSTER",
    "EVENT_DEGRADED",
    "EVENT_DONE",
    "EVENT_FAILED",
    "EVENT_INDEX",
    "EVENT_STAGE",
    "EVENT_STARTED",
    "EVENT_SUBMITTED",
    "EVENT_WAVE",
    "EventBus",
    "EventStream",
    "FAILED_STATUSES",
    "GatewayClient",
    "GatewayError",
    "HEARTBEAT_CANCELLED",
    "HEARTBEAT_LOST",
    "HEARTBEAT_OK",
    "JobEvent",
    "JobHandle",
    "JobState",
    "JobStore",
    "LEASE_TTL_DEFAULT_S",
    "NO_RETRY",
    "PRIORITIES",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "QueueFull",
    "RemoteJobHandle",
    "RetryPolicy",
    "RevealCache",
    "RevealGateway",
    "RevealJob",
    "RevealOutcome",
    "RevealServer",
    "RevealWorker",
    "STATUS_BUDGET_EXCEEDED",
    "STATUS_CRASHED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_VERIFY_FAILED",
    "SubmitAPI",
    "TERMINAL_EVENTS",
    "WorkerReport",
    "apk_content_key",
    "artifact_digest",
    "call_with_retries",
    "classify_result",
    "default_worker_count",
    "is_artifact_digest",
    "percentile",
    "resolve_priority",
    "reveal_cache_key",
    "set_default_workers",
]
