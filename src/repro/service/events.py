"""Unified job event stream for the reveal server.

Before this module, progress signals were split across two incompatible
observer paths: :data:`~repro.core.pipeline.PipelineObserver` delivered
per-stage :class:`~repro.core.stages.StageEvent` records, while batch
callers bolted ad-hoc callbacks onto their jobs.  A consumer that
wanted "what is my corpus doing right now" had to stitch both together
and still missed queue-level transitions (submitted, cancelled) and
cache hits entirely.

:class:`JobEvent` is the one envelope everything flows through:

* lifecycle transitions — ``submitted``, ``started``, ``done``,
  ``failed``, ``cancelled``;
* ``stage`` events wrapping the pipeline's :class:`StageEvent`
  (stage name, duration, ok/error in the payload);
* ``wave`` events carrying exploration scheduler snapshots from
  :class:`~repro.core.exploration.ExplorationScheduler` (wave size,
  paths explored, frontier depth) while force execution iterates;
* ``cache-hit`` events when a job is served from the
  :class:`~repro.service.cache.RevealCache` instead of running;
* ``index`` events carrying the corpus-index dedup accounting of a
  finished reveal (bodies replayed from the
  :class:`~repro.index.corpus.CorpusIndex` vs emitted fresh) when the
  service runs with an ``index_dir``;
* ``cluster`` events carrying the auto-labeling verdict of a finished
  reveal (family, known / near-miss method counts, nearest-known-method
  evidence from the :class:`~repro.cluster.labels.AutoLabeler`) when
  the service runs with a ``cluster_dir``;
* ``degraded`` events naming the optional subsystems (index, cluster,
  cache) a reveal had to bypass under the graceful-degradation policy
  — published before the terminal event so dashboards can flag
  reveals that succeeded at reduced fidelity.

:class:`EventBus` fans events out two ways at once: *push* (observer
callbacks, registered with :meth:`EventBus.add_observer`) and *pull*
(:meth:`EventBus.subscribe` returns an iterator that blocks until the
next event and ends when the bus closes).  Publication is serialised
under one lock: sequence numbers and subscriber queues follow one
global total order, and the per-job sequence is always
lifecycle-consistent — ``submitted`` before ``started`` before any
``stage`` before the terminal event.  Observer *callbacks* run outside
the lock (a slow callback must not stall publishers), so they keep the
per-job order but may interleave across jobs; order-sensitive
consumers should sort by ``seq`` (as :meth:`JobStore.events` does) or
subscribe instead.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

EVENT_SUBMITTED = "submitted"
EVENT_STARTED = "started"
EVENT_STAGE = "stage"
EVENT_WAVE = "wave"
EVENT_CACHE_HIT = "cache-hit"
EVENT_INDEX = "index"
EVENT_CLUSTER = "cluster"
EVENT_DEGRADED = "degraded"
EVENT_DONE = "done"
EVENT_FAILED = "failed"
EVENT_CANCELLED = "cancelled"

ALL_EVENTS = (
    EVENT_SUBMITTED,
    EVENT_STARTED,
    EVENT_STAGE,
    EVENT_WAVE,
    EVENT_CACHE_HIT,
    EVENT_INDEX,
    EVENT_CLUSTER,
    EVENT_DEGRADED,
    EVENT_DONE,
    EVENT_FAILED,
    EVENT_CANCELLED,
)

#: Events that end a job's lifecycle; nothing for that job follows one.
TERMINAL_EVENTS = frozenset((EVENT_DONE, EVENT_FAILED, EVENT_CANCELLED))

#: Observer signature for the unified stream.
JobEventObserver = Callable[["JobEvent"], None]

_CLOSE = object()  # sentinel ending subscriber iteration


@dataclass(frozen=True)
class JobEvent:
    """One notification on the unified stream.

    ``seq`` is the bus-global sequence number (monotone across all
    jobs); ``payload`` is JSON-safe detail whose shape depends on
    ``kind`` — stage events carry ``stage``/``duration_s``/``ok``,
    terminal events carry the outcome digest, wave events carry the
    scheduler snapshot.
    """

    kind: str
    job_id: str
    app_id: str = ""
    seq: int = 0
    timestamp: float = 0.0
    payload: dict = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_EVENTS

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "job_id": self.job_id,
            "app_id": self.app_id,
            "seq": self.seq,
            "timestamp": self.timestamp,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobEvent":
        return cls(
            kind=data["kind"],
            job_id=data["job_id"],
            app_id=data.get("app_id", ""),
            seq=data.get("seq", 0),
            timestamp=data.get("timestamp", 0.0),
            payload=dict(data.get("payload", {})),
        )

    # -- wire frames ---------------------------------------------------------

    @classmethod
    def from_frame(cls, line: bytes | str) -> "JobEvent | None":
        """Parse one frame; ``None`` for a torn/undecodable line (a
        killed writer's partial tail must not break a follower)."""
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                return None
        line = line.strip()
        if not line:
            return None
        try:
            data = json.loads(line)
            return cls.from_dict(data)
        except (ValueError, TypeError, KeyError):
            return None


def event_to_frame(event: "JobEvent | dict") -> bytes:
    """Serialise one event (or its dict) as an NDJSON frame."""
    data = event.to_dict() if isinstance(event, JobEvent) else event
    return (json.dumps(data, separators=(",", ":")) + "\n").encode("utf-8")


def events_from_frames(blob: bytes | Iterable[bytes]) -> list["JobEvent"]:
    """Every parseable event in a frame blob (or iterable of lines);
    torn frames are skipped, order preserved."""
    lines = blob.split(b"\n") if isinstance(blob, bytes) else blob
    events = []
    for line in lines:
        event = JobEvent.from_frame(line)
        if event is not None:
            events.append(event)
    return events


class EventStream:
    """Blocking iterator over events published after subscription.

    Iteration ends when the bus closes (or :meth:`close` detaches this
    subscriber).  ``next(stream, None)`` after close returns ``None``
    rather than blocking forever.
    """

    def __init__(self, bus: "EventBus") -> None:
        self._bus = bus
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False

    def _push(self, item) -> None:
        self._queue.put(item)

    def __iter__(self) -> Iterator[JobEvent]:
        return self

    def __next__(self) -> JobEvent:
        if self._closed:
            raise StopIteration
        item = self._queue.get()
        if item is _CLOSE:
            self._closed = True
            raise StopIteration
        return item

    def next(self, timeout: float | None = None) -> JobEvent | None:
        """One event, or ``None`` on timeout / closed bus."""
        if self._closed:
            return None
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is _CLOSE:
            self._closed = True
            return None
        return item

    def close(self) -> None:
        self._bus._detach(self)
        self._push(_CLOSE)


class EventBus:
    """Thread-safe publisher with observer and iterator consumers.

    Observer exceptions are swallowed: a broken progress callback must
    never kill the worker thread publishing the event.  ``history``
    keeps the most recent events (bounded) so late consumers — a
    ``status`` CLI, a test asserting on ordering — can read what
    happened without having subscribed up front.
    """

    def __init__(self, history_limit: int = 10_000) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._observers: list[JobEventObserver] = []
        self._streams: list[EventStream] = []
        self._closed = False
        self.history_limit = history_limit
        self.history: list[JobEvent] = []

    def publish(self, kind: str, job_id: str, app_id: str = "",
                payload: dict | None = None) -> JobEvent:
        """Stamp, record and fan out one event (no-op after close)."""
        with self._lock:
            if self._closed:
                return JobEvent(kind, job_id, app_id, seq=-1,
                                payload=payload or {})
            event = JobEvent(
                kind=kind,
                job_id=job_id,
                app_id=app_id,
                seq=self._seq,
                timestamp=time.time(),
                payload=payload or {},
            )
            self._seq += 1
            self.history.append(event)
            if len(self.history) > self.history_limit:
                del self.history[: len(self.history) - self.history_limit]
            observers = list(self._observers)
            for stream in self._streams:
                stream._push(event)
        for callback in observers:
            try:
                callback(event)
            except Exception:
                pass  # progress consumers must not break the pipeline
        return event

    def add_observer(self, callback: JobEventObserver) -> None:
        with self._lock:
            self._observers.append(callback)

    def subscribe(self) -> EventStream:
        stream = EventStream(self)
        with self._lock:
            if self._closed:
                stream._push(_CLOSE)
            else:
                self._streams.append(stream)
        return stream

    def _detach(self, stream: EventStream) -> None:
        with self._lock:
            if stream in self._streams:
                self._streams.remove(stream)

    def events_for(self, job_id: str) -> list[JobEvent]:
        """This job's retained history, in publication order."""
        with self._lock:
            return [e for e in self.history if e.job_id == job_id]

    def close(self) -> None:
        """End every subscriber's iteration; further publishes no-op."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            streams = list(self._streams)
            self._streams.clear()
        for stream in streams:
            stream._push(_CLOSE)
