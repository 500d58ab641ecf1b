"""Per-application outcome records for batch extraction.

A :class:`RevealOutcome` is the service-layer wrapper around one
pipeline run: the paper's ``reveal`` produces a
:class:`~repro.core.pipeline.RevealResult` (or raises), and the batch
service normalises either into a uniform record so a corpus run can be
summarised, cached, and resumed without losing per-app detail.

Statuses
--------

``ok``
    Collection, reassembly and verification all succeeded.
``crashed``
    The VM crashed while driving the app (``VmCrash``/``VmThrow``); the
    pipeline still reassembles whatever was collected before the crash.
``budget-exceeded``
    The interpreter hit its step budget before the drive finished; the
    revealed DEX covers only the executed prefix.
``verify-failed``
    Reassembly produced a DEX the verifier rejected (paper §IV-C's
    validity requirement) — a pipeline bug, surfaced rather than hidden.
``error``
    Any other Python-level failure (bad input, unregistered native
    library, a crashing drive callable...).  One erroring app must never
    abort the batch; it becomes an ``error`` record instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import RevealResult
from repro.runtime.apk import Apk

STATUS_OK = "ok"
STATUS_CRASHED = "crashed"
STATUS_BUDGET_EXCEEDED = "budget-exceeded"
STATUS_VERIFY_FAILED = "verify-failed"
STATUS_ERROR = "error"

ALL_STATUSES = (
    STATUS_OK,
    STATUS_CRASHED,
    STATUS_BUDGET_EXCEEDED,
    STATUS_VERIFY_FAILED,
    STATUS_ERROR,
)

#: Statuses that are deterministic pipeline outputs and therefore safe to
#: serve from the result cache.  ``verify-failed`` and ``error`` are
#: excluded so a fixed pipeline (or fixed input) gets a fresh run.
CACHEABLE_STATUSES = (STATUS_OK, STATUS_CRASHED, STATUS_BUDGET_EXCEEDED)

#: The rest: statuses that resolve a job ``failed`` rather than ``done``
#: and make ``reveal-batch`` exit non-zero.
FAILED_STATUSES = (STATUS_VERIFY_FAILED, STATUS_ERROR)


def classify_result(result) -> str:
    """Map a completed pipeline result to an outcome status.

    Accepts anything carrying the drive-outcome flags — a full
    :class:`RevealResult` or a collect-only
    :class:`~repro.core.stages.CollectResult`.
    """
    if result.crashed:
        return STATUS_CRASHED
    if result.budget_exhausted:
        return STATUS_BUDGET_EXCEEDED
    return STATUS_OK


@dataclass
class RevealOutcome:
    """One application's result inside a batch run.

    Fields:

    * ``app_id`` — caller-chosen identifier (usually the package name).
    * ``status`` — one of :data:`ALL_STATUSES` above.
    * ``cache_hit`` — True when the record was served from the result
      cache instead of running the pipeline.
    * ``latency_s`` — wall-clock seconds for this app's pipeline run
      (the *original* run's latency when served from cache).
    * ``dump_size_bytes`` — total size of the collection files
      (Table VI's "Dump File Size" column).
    * ``collector_stats`` — :meth:`DexLegoCollector.stats` snapshot.
    * ``error`` — human-readable failure reason for non-``ok`` records.
    * ``failed_stage`` — which pipeline stage died (``collect`` /
      ``reassemble`` / ``verify`` / ``repack``) for ``verify-failed``
      and stage-level ``error`` records; empty otherwise.
    * ``stage_timings`` — per-stage wall-clock seconds from the
      pipeline run, keyed by stage name.
    * ``exploration`` — force-execution scheduler digest
      (:meth:`~repro.core.force_execution.ForceExecutionReport.to_summary`:
      strategy, paths explored, UCBs discovered vs. covered, replays
      saved by dedup, coverage curve); empty when the coverage module
      did not run.
    * ``index_stats`` — corpus-index dedup accounting when the service
      ran with an ``index_dir``: method bodies replayed from the
      :class:`~repro.index.corpus.CorpusIndex` vs emitted fresh, plus
      how many of this app's methods the corpus already knew; empty
      when no index was attached.
    * ``cluster_stats`` — auto-labeling verdict when the service ran
      with a ``cluster_dir``: the family the
      :class:`~repro.cluster.labels.AutoLabeler` assigned, per-method
      known / near-miss counts and nearest-known-method evidence; empty
      when no cluster store was attached.
    * ``queue_wait_s`` — seconds the job sat queued before a worker
      started it (submit→start); 0.0 for direct ``reveal_one`` calls
      that never queued.  ``latency_s`` remains start→finish.
    * ``degraded`` — names of optional subsystems (``index``,
      ``cluster``, ``cache``) that were unavailable or corrupt during
      this reveal and were bypassed under the graceful-degradation
      policy.  Empty for a fully-provisioned run; a non-empty list
      never changes ``status`` (that is the point).
    * ``cache_key`` — content-addressed key the record is stored under.
    * ``result`` — the live :class:`RevealResult` when the pipeline ran
      for this outcome; ``None`` for cache hits, outcomes rebuilt from a
      summary and outcomes a server stripped (``keep_results=False``).
    * ``revealed_apk_bytes`` — serialised revealed APK; set when the
      record came from the cache or a worker fleet's artifact, where no
      live result object exists.
    """

    app_id: str
    status: str
    cache_hit: bool = False
    latency_s: float = 0.0
    dump_size_bytes: int = 0
    collector_stats: dict = field(default_factory=dict)
    error: str = ""
    failed_stage: str = ""
    stage_timings: dict = field(default_factory=dict)
    exploration: dict = field(default_factory=dict)
    index_stats: dict = field(default_factory=dict)
    cluster_stats: dict = field(default_factory=dict)
    queue_wait_s: float = 0.0
    degraded: list = field(default_factory=list)
    cache_key: str = ""
    result: RevealResult | None = None
    revealed_apk_bytes: bytes | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def revealed_apk(self) -> Apk | None:
        """The revealed application, whatever the record's provenance."""
        if self.result is not None:
            return self.result.revealed_apk
        if self.revealed_apk_bytes is not None:
            return Apk.from_bytes(self.revealed_apk_bytes)
        return None

    @property
    def reassembled_dex(self):
        """Primary DEX of the revealed APK (None when unavailable)."""
        apk = self.revealed_apk
        return apk.primary_dex if apk is not None and apk.dex_files else None

    @classmethod
    def from_summary(cls, summary: dict,
                     revealed_apk_bytes: bytes | None = None
                     ) -> "RevealOutcome":
        """Rebuild an outcome from a :meth:`to_summary` digest.

        The inverse the HTTP client needs: a gateway job record carries
        the summary (and artifact digests), not the live result object.
        Round-trips everything ``to_summary`` emits; the APK bytes are
        grafted back on when the caller fetched the artifact.
        """
        return cls(
            app_id=summary.get("app_id", ""),
            status=summary.get("status", STATUS_ERROR),
            cache_hit=bool(summary.get("cache_hit", False)),
            latency_s=float(summary.get("latency_s", 0.0) or 0.0),
            dump_size_bytes=int(summary.get("dump_size_bytes", 0) or 0),
            error=summary.get("error", "") or "",
            failed_stage=summary.get("failed_stage", "") or "",
            stage_timings=dict(summary.get("stage_timings") or {}),
            exploration=dict(summary.get("exploration") or {}),
            index_stats=dict(summary.get("index_stats") or {}),
            cluster_stats=dict(summary.get("cluster_stats") or {}),
            queue_wait_s=float(summary.get("queue_wait_s", 0.0) or 0.0),
            degraded=list(summary.get("degraded") or []),
            cache_key=summary.get("cache_key", "") or "",
            revealed_apk_bytes=revealed_apk_bytes,
        )

    def to_summary(self) -> dict:
        """JSON-safe digest (no APK payload) for reports and the CLI."""
        return {
            "app_id": self.app_id,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "latency_s": round(self.latency_s, 6),
            "dump_size_bytes": self.dump_size_bytes,
            "error": self.error,
            "failed_stage": self.failed_stage,
            "stage_timings": {
                stage: round(seconds, 6)
                for stage, seconds in self.stage_timings.items()
            },
            "exploration": self.exploration,
            "index_stats": self.index_stats,
            "cluster_stats": self.cluster_stats,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "degraded": list(self.degraded),
            "cache_key": self.cache_key,
        }
