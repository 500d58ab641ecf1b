"""RevealServer: a job-oriented, asynchronous front end for reveals.

:meth:`~repro.service.batch.BatchRevealService.reveal_batch` is
call-and-wait: hand over a corpus, block, get a report (it is this
server's ``submit_many`` + ``await_many`` underneath).  Production
consumers (market scanners, CI queues, analyst tooling) need the dual
posture — submit work incrementally, watch it progress, prioritise the
sample an analyst is waiting on over the nightly backfill, and cancel
what stopped mattering.

* :meth:`RevealServer.submit` enqueues one
  :class:`~repro.service.batch.RevealJob` into a priority lane
  (``high`` / ``normal`` / ``low``) and returns a
  :class:`~repro.service.jobs.JobHandle` immediately.  A bounded queue
  (``max_pending``) applies backpressure: a full queue rejects with
  :class:`QueueFull`, or blocks when ``block=True``.
* A pool of worker threads pops jobs best-lane-first (FIFO within a
  lane), runs each through
  :meth:`~repro.service.batch.BatchRevealService.reveal_one` — the job
  path every front end shares: result cache, crash isolation, outcome
  classification and the job's progress events — and resolves each
  handle ``queued → running → done/failed``.
* :meth:`RevealServer.cancel` on a queued job resolves it
  ``cancelled`` without ever starting its pipeline.
* Every transition, pipeline stage, exploration wave, cache hit and
  index/cluster/degraded verdict flows through one
  :class:`~repro.service.events.EventBus` — consumable as an iterator
  (:meth:`RevealServer.events`) or an observer callback
  (:meth:`RevealServer.add_observer`).

The server's queue lives in memory.  A queue that must survive a
restart is a :class:`~repro.service.jobs.JobStore`: ``submit --store``
or the gateway journal jobs into it, and ``serve`` or ``worker``
processes drain it under the store's claim/lease protocol.
"""

from __future__ import annotations

import heapq
import threading
import time
import uuid

from repro.service.api import SubmitAPI
from repro.service.batch import BatchRevealService, RevealJob
from repro.service.events import (
    EVENT_CANCELLED,
    EVENT_DONE,
    EVENT_FAILED,
    EVENT_STARTED,
    EVENT_SUBMITTED,
    EventBus,
    EventStream,
)
from repro.service.jobs import (
    PRIORITY_NORMAL,
    JobHandle,
    JobState,
    resolve_priority,
)
from repro.service.outcomes import FAILED_STATUSES, STATUS_ERROR, RevealOutcome


class QueueFull(RuntimeError):
    """Raised by ``submit`` when the bounded queue is at ``max_pending``."""


class RevealServer(SubmitAPI):
    """Async job server over a :class:`BatchRevealService`.

    ``service`` supplies the pipeline configuration, result cache and
    per-job execution; construct one explicitly to configure the
    reveals or share its cache with other consumers, or omit it and the
    server builds a default :class:`BatchRevealService`.

    ``workers`` threads execute jobs (default: the service's worker
    count).  ``max_pending`` bounds the queue; ``None`` is unbounded.
    ``autostart=False`` delays the worker pool until :meth:`start` —
    useful to stage submissions.
    """

    def __init__(
        self,
        service: BatchRevealService | None = None,
        *,
        workers: int | None = None,
        max_pending: int | None = None,
        autostart: bool = True,
        observers=None,
        keep_results: bool = True,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.service = service or BatchRevealService()
        #: With ``keep_results=False`` terminal outcomes are stripped of
        #: their live result and serialised APK before landing on the
        #: handle — a long-lived server would otherwise retain one
        #: revealed-APK-sized object per completed job forever.
        #: Consumers then read artefacts from the cache, not the handle.
        self.keep_results = keep_results
        self.workers = max(1, workers if workers is not None
                           else self.service.workers)
        self.max_pending = max_pending
        self.bus = EventBus()
        # Registered before any publish, so a constructor-supplied
        # observer sees the whole stream.
        for callback in observers or ():
            self.bus.add_observer(callback)
        self._cv = threading.Condition()
        self._heap: list[tuple[int, int, str]] = []  # (lane, seq, job_id)
        self._seq = 0
        self._queued = 0
        self._running = 0
        self._handles: dict[str, JobHandle] = {}
        self._jobs: dict[str, RevealJob] = {}
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stop = False
        self._closed = False
        if autostart:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "RevealServer":
        """Spin up the worker pool (idempotent)."""
        with self._cv:
            if self._started or self._closed:
                return self
            self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"reveal-server-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def __enter__(self) -> "RevealServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True) -> None:
        """Shut down: finish the queue (``drain=True``) or cancel it.

        Either way every worker exits and the event bus closes so
        ``events()`` iterators end.  Idempotent.
        """
        with self._cv:
            if self._closed:
                return
        if drain and not self._started:
            # Draining owes the queued jobs a worker pool.
            self.start()
        if not drain:
            for handle in self.pending_handles():
                self.cancel(handle.job_id)
        with self._cv:
            if drain:
                while self._queued or self._running:
                    self._cv.wait()
            self._stop = True
            self._closed = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join()
        self.bus.close()

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        job: RevealJob | object,
        *,
        priority: int | str = PRIORITY_NORMAL,
        job_id: str | None = None,
        block: bool = False,
        timeout: float | None = None,
    ) -> JobHandle:
        """Enqueue one job; returns its handle immediately.

        ``priority`` is a lane (``"high"``/``"normal"``/``"low"`` or
        the matching int); within a lane jobs run in submission order.
        When the queue holds ``max_pending`` jobs, raises
        :class:`QueueFull` — or, with ``block=True``, waits up to
        ``timeout`` seconds for space.
        """
        job = BatchRevealService._coerce(job)
        lane = resolve_priority(priority)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            if self._closed:
                raise RuntimeError("server is closed")
            while (self.max_pending is not None
                   and self._queued >= self.max_pending):
                if not block:
                    raise QueueFull(
                        f"queue full: {self._queued} pending >= "
                        f"max_pending={self.max_pending}"
                    )
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise QueueFull(
                        f"queue still full after {timeout}s "
                        f"(max_pending={self.max_pending})"
                    )
                if not self._cv.wait(remaining):
                    raise QueueFull(
                        f"queue still full after {timeout}s "
                        f"(max_pending={self.max_pending})"
                    )
                if self._closed:
                    raise RuntimeError("server is closed")
            job_id = job_id or f"job-{uuid.uuid4().hex[:10]}"
            if job_id in self._handles:
                raise ValueError(f"duplicate job_id {job_id!r}")
            handle = JobHandle(job_id, job.app_id, lane)
            self._handles[job_id] = handle
            self._jobs[job_id] = job
            self._queued += 1  # slot reserved before the heap push below
        return self._announce(job_id, handle, lane)

    def _announce(self, job_id: str, handle: JobHandle,
                  lane: int) -> JobHandle:
        """Publish ``submitted`` and make the job poppable.

        The event goes out before the heap push, so per-job order is
        submitted → started even against an idle worker pool.  A
        cancel() that raced in before the announcement deferred its
        ``cancelled`` event to us (lifecycle order beats wall-clock
        order); such a job never reaches the heap.
        """
        self.bus.publish(EVENT_SUBMITTED, job_id, handle.app_id,
                         payload={"priority": lane})
        with self._cv:
            handle._announced = True
            cancelled = handle.state == JobState.CANCELLED
            if not cancelled:
                heapq.heappush(self._heap, (lane, self._next_seq(), job_id))
                # notify_all, not notify: the condition is shared with
                # wait_idle/close waiters and blocked submitters, and a
                # single wakeup landing on one of those would leave the
                # job enqueued with every worker still asleep.
                self._cv.notify_all()
        if cancelled:
            self._finish_cancel(job_id, handle)
        return handle

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    @staticmethod
    def _transition(handle: JobHandle, target: str) -> None:
        """State change enforced against :data:`JobState.TRANSITIONS`
        (caller holds the queue lock)."""
        if not JobState.can_transition(handle.state, target):
            raise RuntimeError(
                f"illegal job transition {handle.state!r} -> {target!r} "
                f"for {handle.job_id}"
            )
        handle.state = target

    # -- queue introspection ------------------------------------------------

    def poll(self, job_id: str) -> JobHandle:
        """The handle for one job id (KeyError when unknown)."""
        with self._cv:
            return self._handles[job_id]

    def handles(self) -> list[JobHandle]:
        """Every handle this server knows, in submission order."""
        with self._cv:
            return list(self._handles.values())

    def pending_handles(self) -> list[JobHandle]:
        with self._cv:
            return [h for h in self._handles.values()
                    if h.state == JobState.QUEUED]

    def status_counts(self) -> dict[str, int]:
        counts = {state: 0 for state in JobState.ALL}
        for handle in self.handles():
            counts[handle.state] += 1
        return counts

    # -- waiting ------------------------------------------------------------
    # ``submit_many`` / ``await_many`` / ``await_job`` come from
    # :class:`SubmitAPI`.

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until nothing is queued or running; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while self._queued or self._running:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(remaining)
            return True

    # -- cancellation -------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; its pipeline never starts.

        Returns False when the job is already running or terminal —
        in-flight work is never killed.
        """
        with self._cv:
            handle = self._handles.get(job_id)
            if handle is None or handle.state != JobState.QUEUED:
                return False
            self._transition(handle, JobState.CANCELLED)
            handle.finished_at = time.time()
            self._queued -= 1
            self._jobs.pop(job_id, None)  # the APK is no longer needed
            announced = handle._announced
            self._cv.notify_all()
        if not announced:
            # submit() has not published ``submitted`` yet; it will see
            # the cancelled state and emit both events in order.
            return True
        self._finish_cancel(job_id, handle)
        return True

    def _finish_cancel(self, job_id: str, handle: JobHandle) -> None:
        self.bus.publish(EVENT_CANCELLED, job_id, handle.app_id)
        handle._mark_terminal()

    # -- events -------------------------------------------------------------

    def events(self) -> EventStream:
        """Subscribe to the unified stream (iterator; ends on close)."""
        return self.bus.subscribe()

    def add_observer(self, callback) -> None:
        self.bus.add_observer(callback)

    # -- worker loop --------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cv:
                while not self._stop and not self._heap:
                    self._cv.wait()
                if not self._heap:
                    return  # stopping and nothing left to pop
                _lane, _seq, job_id = heapq.heappop(self._heap)
                handle = self._handles[job_id]
                if handle.state != JobState.QUEUED:
                    continue  # cancelled while queued; slot already freed
                self._transition(handle, JobState.RUNNING)
                handle.started_at = time.time()
                self._queued -= 1
                self._running += 1
                self._cv.notify_all()  # wake backpressure waiters
            try:
                self._run_one(job_id, handle)
            finally:
                with self._cv:
                    self._running -= 1
                    self._cv.notify_all()

    def _run_one(self, job_id: str, handle: JobHandle) -> None:
        job = self._jobs[job_id]
        self.bus.publish(EVENT_STARTED, job_id, job.app_id,
                         payload={"queue_wait_s": handle.queue_wait_s})
        try:
            outcome = self.service.reveal_one(job, job_id=job_id,
                                              bus=self.bus)
        except Exception as exc:  # reveal_one never raises; belt and braces
            outcome = RevealOutcome(
                app_id=job.app_id,
                status=STATUS_ERROR,
                error=f"{type(exc).__name__}: {exc}",
            )
        outcome.queue_wait_s = handle.queue_wait_s
        if not self.keep_results:
            outcome.result = None
            outcome.revealed_apk_bytes = None
        failed = outcome.status in FAILED_STATUSES
        with self._cv:
            self._transition(handle,
                             JobState.FAILED if failed else JobState.DONE)
            handle.finished_at = time.time()
            handle.outcome = outcome
            handle.error = outcome.error
            # Release the RevealJob (and its APK): a lingering server
            # must not retain one APK-sized object per completed job.
            self._jobs.pop(job_id, None)
        self.bus.publish(
            EVENT_FAILED if failed else EVENT_DONE,
            job_id, job.app_id, payload=outcome.to_summary(),
        )
        handle._mark_terminal()
