"""Job lifecycle primitives: states, handles, and the durable queue.

A *job* is one application's trip through the service:
``queued → running → done | failed | cancelled``.  This module owns
three pieces:

* :class:`JobState` — the five states and the legal transitions;
* :class:`JobHandle` — the caller's view of one submitted job: state,
  timestamps (submit / start / finish), priority, the final
  :class:`~repro.service.outcomes.RevealOutcome`, and a blocking
  :meth:`JobHandle.wait`;
* :class:`JobStore` — the one durable queue: a JSON-on-disk journal of
  job records plus an append-only event log.  Work enters it through
  :meth:`JobStore.submit` (the gateway, ``submit --store``) and leaves
  it through the claim/lease protocol below (fleet workers, ``serve``),
  so a queue outlives any process that feeds or drains it.

Store layout
------------

``<store>/jobs/<job_id>.json``
    One record per job, rewritten atomically on every state change.
    The serialised APK travels inside the record (base64), so any
    worker can rebuild the :class:`~repro.service.batch.RevealJob`
    without the submitting process.
``<store>/events.jsonl``
    Every :class:`~repro.service.events.JobEvent` published on a bus
    from :meth:`JobStore.event_bus`, one JSON object per line — what
    ``python -m repro.service watch`` tails.

A ``drive`` callable cannot be serialised, so records carry none; a
worker runs every job with the default drive.

Worker-fleet leases
-------------------

The store is the queue a fleet of
:class:`~repro.service.worker.RevealWorker` processes drains.  A worker
*claims* the best queued record (priority lane, then submission order)
by winning an exclusive *claim token* — ``claims/<job_id>.<generation>``
created with ``O_CREAT | O_EXCL`` — so two workers racing the same
record resolve to exactly one owner per lease generation, including
across processes and hosts sharing the store directory.  A claim stamps
the record with a *lease* (worker id, expiry, generation in
``lease_seq``); the owner extends it with :meth:`JobStore.heartbeat`
and finishes with :meth:`JobStore.complete_leased`.

Crash-safe handoff falls out of the generations: a worker that dies
mid-job stops heartbeating, its lease expires, and the record becomes
claimable again at the *next* generation.  Writes from the dead (or
merely slow) first owner are *fenced* — heartbeat and completion verify
the record still carries their generation, and completion additionally
takes a once-only ``claims/<job_id>.done`` token — so a job revealed by
two overlapping owners still completes exactly once.  A ``running``
record with no lease at all (an older ``serve`` killed mid-job) is owed
work too, and is claimed the same way.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import threading
import time
import uuid

from repro import faults
from repro.runtime.apk import Apk
from repro.runtime.device import DeviceProfile
from repro.service.events import EVENT_SUBMITTED, EventBus
from repro.service.outcomes import RevealOutcome

STORE_FORMAT_VERSION = 1

#: Default seconds a worker lease stays live without a heartbeat.
LEASE_TTL_DEFAULT_S = 30.0

#: ``JobStore.heartbeat`` results: keep going, stop (operator cancel),
#: or abandon (another worker holds the lease now).
HEARTBEAT_OK = "ok"
HEARTBEAT_CANCELLED = "cancelled"
HEARTBEAT_LOST = "lost"

PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Name ↔ lane mapping for CLIs and JSON records.
PRIORITIES = {
    "high": PRIORITY_HIGH,
    "normal": PRIORITY_NORMAL,
    "low": PRIORITY_LOW,
}

PRIORITY_NAMES = {lane: name for name, lane in PRIORITIES.items()}


def resolve_priority(priority) -> int:
    """Accept a lane int or a name; reject anything else."""
    if isinstance(priority, bool):
        raise ValueError(f"not a priority: {priority!r}")
    if isinstance(priority, int):
        if priority not in PRIORITY_NAMES:
            raise ValueError(
                f"priority {priority!r} not one of "
                f"{sorted(PRIORITY_NAMES)}"
            )
        return priority
    if isinstance(priority, str) and priority in PRIORITIES:
        return PRIORITIES[priority]
    raise ValueError(
        f"priority {priority!r} not one of {sorted(PRIORITIES)}"
    )


class JobState:
    """The lifecycle states and the transitions between them."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = frozenset((DONE, FAILED, CANCELLED))

    #: Legal next states; anything else is a server bug.  A running job
    #: may resolve ``CANCELLED`` (an operator cancel the owning worker
    #: acknowledged at its next heartbeat).
    TRANSITIONS = {
        QUEUED: frozenset((RUNNING, CANCELLED)),
        RUNNING: frozenset((DONE, FAILED, CANCELLED)),
        DONE: frozenset(),
        FAILED: frozenset(),
        CANCELLED: frozenset(),
    }

    @classmethod
    def can_transition(cls, current: str, target: str) -> bool:
        return target in cls.TRANSITIONS.get(current, frozenset())


class JobHandle:
    """The caller's view of one submitted job.

    State mutation belongs to the server (under its queue lock); the
    handle exposes reads, the blocking :meth:`wait`, and derived
    latencies.  ``queue_wait_s`` is submit→start — the number the
    backpressure design is judged by — and ``run_s`` is start→finish.
    """

    def __init__(self, job_id: str, app_id: str,
                 priority: int = PRIORITY_NORMAL,
                 submitted_at: float | None = None) -> None:
        self.job_id = job_id
        self.app_id = app_id
        self.priority = priority
        self.state = JobState.QUEUED
        self.submitted_at = (time.time() if submitted_at is None
                             else submitted_at)
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.outcome: RevealOutcome | None = None
        self.error: str = ""
        #: Fleet bookkeeping (populated from journalled records): which
        #: worker holds/held the lease, how many times the job was
        #: claimed, and the content digests of its stored artifacts.
        self.worker_id: str = ""
        self.attempts: int = 0
        self.artifacts: dict = {}
        # The outcome digest when the full RevealOutcome is not in this
        # process (a handle rebuilt from a store record or a gateway
        # response); ``to_dict`` falls back to it.
        self._outcome_summary: dict | None = None
        self._terminal = threading.Event()
        # Server bookkeeping: True once the ``submitted`` event is on
        # the bus, so a cancel racing submit() defers its ``cancelled``
        # event instead of publishing it first.
        self._announced = False

    # -- derived views ------------------------------------------------------

    @property
    def done(self) -> bool:
        """Terminal in any flavour — done, failed or cancelled."""
        return self.state in JobState.TERMINAL

    @property
    def cancelled(self) -> bool:
        return self.state == JobState.CANCELLED

    @property
    def queue_wait_s(self) -> float:
        """Seconds from submit to start (0 until the job starts)."""
        if self.started_at is None:
            return 0.0
        return max(0.0, self.started_at - self.submitted_at)

    @property
    def run_s(self) -> float:
        """Seconds from start to finish (0 until the job finishes)."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return max(0.0, self.finished_at - self.started_at)

    # -- waiting ------------------------------------------------------------

    def wait(self, timeout: float | None = None) -> RevealOutcome | None:
        """Block until terminal; the outcome, or ``None`` on timeout or
        cancellation (cancelled jobs never produce one)."""
        self._terminal.wait(timeout)
        return self.outcome

    def _mark_terminal(self) -> None:
        self._terminal.set()

    # -- presentation -------------------------------------------------------

    def outcome_summary(self) -> dict | None:
        """The outcome digest, whatever the handle's provenance."""
        if self.outcome is not None:
            return self.outcome.to_summary()
        return self._outcome_summary

    def to_dict(self) -> dict:
        """JSON-safe digest (no outcome payload beyond the summary).

        This is *the* job-status wire shape: the ``status``/``watch``
        CLI and the gateway's ``GET /v1/jobs/<id>`` all serialise it,
        so every surface reports one vocabulary.
        """
        summary = self.outcome_summary()
        return {
            "job_id": self.job_id,
            "app_id": self.app_id,
            "priority": PRIORITY_NAMES.get(self.priority, self.priority),
            "state": self.state,
            "status": (summary or {}).get("status", ""),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "run_s": round(self.run_s, 6),
            "error": self.error,
            "worker_id": self.worker_id,
            "attempts": self.attempts,
            "artifacts": dict(self.artifacts),
            "outcome": summary,
        }

    @classmethod
    def from_record(cls, record: dict) -> "JobHandle":
        """Rebuild a handle from a journalled store record.

        The single path every status surface shares — a handle built
        here renders via :meth:`to_dict` exactly like a live server
        handle does.  Terminal records arrive pre-resolved (``wait``
        returns immediately); non-terminal ones have no waiter wired
        up, so callers poll the store rather than block.
        """
        try:
            priority = resolve_priority(
                record.get("priority", PRIORITY_NORMAL))
        except ValueError:
            priority = PRIORITY_NORMAL
        handle = cls(
            record.get("job_id", ""),
            record.get("app_id", ""),
            priority,
            submitted_at=record.get("submitted_at"),
        )
        state = record.get("state")
        if state in JobState.ALL:
            handle.state = state
        handle.started_at = record.get("started_at")
        handle.finished_at = record.get("finished_at")
        handle.error = record.get("error", "") or ""
        handle._outcome_summary = record.get("outcome")
        lease = record.get("lease") or {}
        handle.worker_id = (record.get("worker_id", "")
                            or lease.get("worker_id", ""))
        handle.attempts = int(record.get("attempts", 0) or 0)
        handle.artifacts = dict(record.get("artifacts") or {})
        if handle.done:
            handle._mark_terminal()
        return handle


class JobStore:
    """JSON-on-disk journal of job records plus an event log.

    Every mutation rewrites the job's record atomically
    (``.tmp`` + ``os.replace``), so a server killed mid-write leaves
    either the old record or the new one, never a torn file.  Records
    the journal cannot parse are skipped on load — a corrupt entry
    costs one job, not the queue — and *counted* in
    :attr:`corrupt_records` (torn event-journal lines likewise in
    :attr:`corrupt_event_lines`), so an operator can tell a clean store
    from one that has been shedding data.
    """

    def __init__(self, path: str, create: bool = True) -> None:
        self.path = path
        self.jobs_dir = os.path.join(path, "jobs")
        self.claims_dir = os.path.join(path, "claims")
        self.events_path = os.path.join(path, "events.jsonl")
        self._lock = threading.Lock()
        #: Unparseable job records seen by this instance (zero-byte or
        #: torn JSON; foreign versions are *not* corrupt, see
        #: :meth:`foreign_version_jobs`).
        self.corrupt_records = 0
        #: Undecodable event-journal lines skipped by :meth:`events`.
        self.corrupt_event_lines = 0
        # ``create=False`` opens for inspection only: status/watch CLIs
        # pointed at a mistyped path must not conjure a store skeleton
        # inside whatever directory happens to be there.
        if create:
            os.makedirs(self.jobs_dir, exist_ok=True)
            os.makedirs(self.claims_dir, exist_ok=True)

    # -- records ------------------------------------------------------------

    @staticmethod
    def encode_apk(apk: Apk) -> str:
        return base64.b64encode(apk.to_bytes()).decode("ascii")

    @staticmethod
    def decode_apk(blob: str) -> Apk:
        return Apk.from_bytes(base64.b64decode(blob.encode("ascii")))

    @staticmethod
    def encode_device(device: DeviceProfile | None) -> dict | None:
        return None if device is None else dataclasses.asdict(device)

    @staticmethod
    def decode_device(data: dict | None) -> DeviceProfile | None:
        return None if not data else DeviceProfile(**data)

    def make_record(self, *, job_id: str, app_id: str, apk: Apk,
                    priority: int = PRIORITY_NORMAL,
                    collect_only: bool = False, cache_salt: str = "",
                    device: DeviceProfile | None = None,
                    submitted_at: float | None = None,
                    metadata: dict | None = None) -> dict:
        """A fresh ``queued`` record, not yet saved.

        ``metadata`` is a JSON-safe caller payload carried verbatim
        (the CLI stores the benchsuite corpus name there so a serving
        process can re-register the corpus's native libraries, which
        are process-global and never travel with the APK bytes).
        """
        return {
            "version": STORE_FORMAT_VERSION,
            "job_id": job_id,
            "app_id": app_id,
            "priority": priority,
            "state": JobState.QUEUED,
            "submitted_at": (time.time() if submitted_at is None
                             else submitted_at),
            "started_at": None,
            "finished_at": None,
            "collect_only": collect_only,
            "cache_salt": cache_salt,
            # The per-job device override travels whole, like it does
            # for process workers; only ``drive`` callables cannot.
            "device": self.encode_device(device),
            "apk_b64": self.encode_apk(apk),
            "outcome": None,
            "error": "",
            "meta": dict(metadata or {}),
            # Fleet fields: which lease generation owns the record (0 =
            # never claimed), by whom, and what it produced.
            "lease_seq": 0,
            "lease": None,
            "worker_id": "",
            "attempts": 0,
            "cancel_requested": False,
            "artifacts": {},
        }

    def save(self, record: dict) -> None:
        self._write(record["job_id"], record)

    def submit(self, bus: EventBus, **fields) -> dict:
        """Journal one fresh ``queued`` record and announce it on
        ``bus``: how the gateway and ``submit --store`` put work in.
        ``fields`` are :meth:`make_record`'s, minus the job id."""
        record = self.make_record(job_id=f"job-{uuid.uuid4().hex[:10]}",
                                  **fields)
        self.save(record)
        bus.publish(EVENT_SUBMITTED, record["job_id"], record["app_id"],
                    payload={"priority": record["priority"],
                             "tenant": record["meta"].get("tenant", "")})
        return record

    def update(self, job_id: str, **fields) -> dict | None:
        """Read-modify-write one record; returns the new record."""
        with self._lock:
            record = self._read(job_id)
            if record is None:
                return None
            record.update(fields)
            self._write_locked(job_id, record)
            return record

    def load(self, job_id: str) -> dict | None:
        with self._lock:
            return self._read(job_id)

    def load_all(self) -> list[dict]:
        """Every parseable record, oldest submission first."""
        with self._lock:
            records = []
            for name in self._job_names():
                if not name.endswith(".json"):
                    continue
                record = self._read(name[: -len(".json")])
                if record is not None:
                    records.append(record)
        records.sort(key=lambda r: (r.get("submitted_at", 0.0),
                                    r.get("job_id", "")))
        return records

    # -- worker leases -------------------------------------------------------

    @staticmethod
    def _lease_live(record: dict, now: float) -> bool:
        lease = record.get("lease")
        return bool(lease) and lease.get("expires_at", 0.0) > now

    def claimable_records(self, now: float | None = None) -> list[dict]:
        """Records a worker may lease, best first (lane, then age).

        Queued records (unless an operator already requested their
        cancellation) and running records without a live lease — the
        crash-handoff case: a worker whose lease expired, or a
        lease-less record an older ``serve`` was running when killed.
        """
        now = time.time() if now is None else now
        claimable = []
        for record in self.load_all():
            state = record.get("state")
            if state == JobState.QUEUED:
                if not record.get("cancel_requested"):
                    claimable.append(record)
            elif state == JobState.RUNNING \
                    and not self._lease_live(record, now):
                claimable.append(record)
        claimable.sort(key=lambda r: (r.get("priority", PRIORITY_NORMAL),
                                      r.get("submitted_at", 0.0),
                                      r.get("job_id", "")))
        return claimable

    def try_claim(self, record: dict, worker_id: str, *,
                  lease_ttl_s: float = LEASE_TTL_DEFAULT_S,
                  now: float | None = None) -> dict | None:
        """Attempt to lease one record; the stamped record, or ``None``.

        Ownership is decided by exclusive creation of the generation's
        claim token, so of N workers (threads, processes or hosts on a
        shared mount) racing one record, exactly one wins — the losers
        see ``FileExistsError`` and move to the next candidate.  The
        winner's generation lands in the record as ``lease_seq``; every
        later heartbeat/completion is fenced against it.

        A claimant can die (or its store write can fail) *between*
        taking the token and landing the lease write; the record then
        still shows the old ``lease_seq``, so every later claim would
        recompute the same generation and bounce off the orphaned token
        forever.  Two recoveries close that hole: the token carries the
        claimant's ``worker_id``, so the same worker retrying simply
        finishes its own half-claim; and a *foreign* token whose lease
        never landed within one TTL is stepped past to the next
        generation (record-level fencing keeps a late riser harmless —
        its heartbeat and completion lose to the newer ``lease_seq``).
        """
        now = time.time() if now is None else now
        job_id = record.get("job_id", "")
        if not job_id:
            return None
        generation = int(record.get("lease_seq", 0) or 0) + 1
        while True:
            token = f"{job_id}.{generation}"
            if self._take_token(token, payload=worker_id):
                break
            if self._token_payload(token) == worker_id:
                # Our own half-claim: the lease write crashed after the
                # token landed.  Finish it now.
                break
            if not self._token_stale(token, lease_ttl_s, now=now):
                return None
            generation += 1
        return self.update(
            job_id,
            state=JobState.RUNNING,
            started_at=now,
            lease_seq=generation,
            lease={
                "worker_id": worker_id,
                "acquired_at": now,
                "heartbeat_at": now,
                "expires_at": now + max(0.1, lease_ttl_s),
            },
            attempts=int(record.get("attempts", 0) or 0) + 1,
        )

    def claim_next(self, worker_id: str, *,
                   lease_ttl_s: float = LEASE_TTL_DEFAULT_S,
                   now: float | None = None) -> dict | None:
        """Lease the best claimable record; ``None`` when the queue is
        drained (or every candidate was won by somebody else)."""
        now = time.time() if now is None else now
        for record in self.claimable_records(now):
            claimed = self.try_claim(record, worker_id,
                                     lease_ttl_s=lease_ttl_s, now=now)
            if claimed is not None:
                return claimed
        return None

    def heartbeat(self, job_id: str, lease_seq: int, *,
                  lease_ttl_s: float = LEASE_TTL_DEFAULT_S,
                  now: float | None = None) -> str:
        """Extend a held lease; one of :data:`HEARTBEAT_OK` /
        :data:`HEARTBEAT_CANCELLED` / :data:`HEARTBEAT_LOST`.

        ``cancelled`` tells the owner to stop work and acknowledge with
        :meth:`complete_leased` (state ``cancelled``); ``lost`` means
        the lease expired and another worker claimed the job — the
        caller must abandon it (its eventual completion would be fenced
        off anyway).
        """
        now = time.time() if now is None else now
        with self._lock:
            record = self._read(job_id)
            if record is None:
                return HEARTBEAT_LOST
            if record.get("state") == JobState.CANCELLED:
                return HEARTBEAT_LOST
            if int(record.get("lease_seq", 0) or 0) != lease_seq \
                    or record.get("state") != JobState.RUNNING:
                return HEARTBEAT_LOST
            # The cancelled path still extends the lease: the owner
            # keeps the job fenced while it acknowledges the cancel.
            lease = dict(record.get("lease") or {})
            lease["heartbeat_at"] = now
            lease["expires_at"] = now + max(0.1, lease_ttl_s)
            record["lease"] = lease
            self._write_locked(job_id, record)
            if record.get("cancel_requested"):
                return HEARTBEAT_CANCELLED
            return HEARTBEAT_OK

    def complete_leased(self, job_id: str, lease_seq: int, *,
                        state: str, outcome: dict | None = None,
                        error: str = "", artifacts: dict | None = None,
                        now: float | None = None) -> bool:
        """Terminal write by a lease owner; True when it landed.

        Exactly-once completion rests on two fences: the record must
        still carry the caller's generation in ``lease_seq`` (a
        reclaimed job rejects its previous owner), and the terminal
        write itself takes the once-only ``<job_id>.done`` claim token
        — so even two owners whose fence reads interleave resolve to a
        single completion.  The token records the generation that won
        it, which makes a crashed completion *recoverable*: an owner
        that took the token and then died before the record write finds
        its own generation inside on retry and finishes the write,
        while any other generation still bounces off.
        """
        if state not in JobState.TERMINAL:
            raise ValueError(f"not a terminal state: {state!r}")
        now = time.time() if now is None else now
        with self._lock:
            record = self._read(job_id)
            if record is None:
                return False
            if int(record.get("lease_seq", 0) or 0) != lease_seq \
                    or record.get("state") != JobState.RUNNING:
                return False
            if not JobState.can_transition(record["state"], state):
                return False
            if not self._take_token(f"{job_id}.done",
                                    payload=str(lease_seq)):
                if self._token_payload(f"{job_id}.done") != str(lease_seq):
                    return False
            record["state"] = state
            record["finished_at"] = now
            record["outcome"] = outcome
            record["error"] = error
            if artifacts:
                record["artifacts"] = dict(artifacts)
            # The lease is spent, but who completed the job survives it.
            record["worker_id"] = (record.get("lease")
                                   or {}).get("worker_id", "")
            record["lease"] = None
            record["cancel_requested"] = False
            self._write_locked(job_id, record)
            return True

    def request_cancel(self, job_id: str,
                       now: float | None = None) -> str | None:
        """Ask for a job to stop; how far the request got, or ``None``.

        * ``"cancelled"`` — the job was still queued; it is terminal
          now (the claim token taken here excludes a racing worker).
        * ``"requested"`` — the job is running; the flag is set and the
          owning worker will observe it at its next heartbeat.
        * ``None`` — unknown job, or already terminal.
        """
        now = time.time() if now is None else now
        record = self.load(job_id)
        if record is None:
            return None
        state = record.get("state")
        if state == JobState.QUEUED:
            # Cancellation *is* a claim: winning the next generation's
            # token means no worker can start this record afterwards.
            generation = int(record.get("lease_seq", 0) or 0) + 1
            if not self._take_token(f"{job_id}.{generation}"):
                return None  # a worker just started it; retry as running
            self.update(job_id, state=JobState.CANCELLED,
                        finished_at=now, lease_seq=generation)
            return "cancelled"
        if state == JobState.RUNNING:
            self.update(job_id, cancel_requested=True)
            return "requested"
        return None

    def worker_leases(self, now: float | None = None) -> list[dict]:
        """Live leases (one dict per running worker-held job) for
        fleet dashboards: worker id, job id, expiry headroom."""
        now = time.time() if now is None else now
        leases = []
        for record in self.load_all():
            if record.get("state") != JobState.RUNNING:
                continue
            lease = record.get("lease")
            if not lease:
                continue
            leases.append({
                "job_id": record.get("job_id", ""),
                "app_id": record.get("app_id", ""),
                "worker_id": lease.get("worker_id", ""),
                "lease_seq": record.get("lease_seq", 0),
                "expires_in_s": round(
                    lease.get("expires_at", 0.0) - now, 3),
                "live": self._lease_live(record, now),
            })
        return leases

    def _take_token(self, name: str, payload: str = "") -> bool:
        """Win (or lose) one exclusive claim token.  ``payload`` is a
        breadcrumb stored inside (the ``.done`` token keeps the winning
        generation there, see :meth:`complete_leased`)."""
        faults.check("jobstore.claim.token")
        try:
            fd = os.open(os.path.join(self.claims_dir, name),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # A store created by an older build has no claims/ yet;
            # materialise it once and retry rather than failing the
            # claim (the token is the correctness anchor).
            try:
                os.makedirs(self.claims_dir, exist_ok=True)
                fd = os.open(os.path.join(self.claims_dir, name),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError:
                return False
        if payload:
            os.write(fd, payload.encode("utf-8"))
        os.close(fd)
        return True

    def _token_payload(self, name: str) -> str:
        """Breadcrumb inside an existing claim token ('' when absent or
        unreadable — an empty read is treated as *not mine*, so a racer
        that lost simply retries later)."""
        try:
            with open(os.path.join(self.claims_dir, name),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return ""

    def _token_stale(self, name: str, ttl_s: float, *,
                     now: float | None = None) -> bool:
        """True when an existing claim token outlived one lease TTL
        without its lease write ever landing — the claimant died
        between the token and the record stamp.  A live racer's token
        is younger than that (its write lands within milliseconds), so
        fresh tokens are never stale; a missing token is not stale
        either (the loser just retries)."""
        now = time.time() if now is None else now
        try:
            taken_at = os.path.getmtime(os.path.join(self.claims_dir, name))
        except OSError:
            return False
        return now - taken_at > max(0.1, ttl_s)

    def foreign_version_jobs(self) -> list[tuple[str, object]]:
        """``(job_id, version)`` for parseable records this build cannot
        read (``version`` != :data:`STORE_FORMAT_VERSION`).

        ``load_all`` silently skips such records so a mixed-version
        store stays usable for the jobs it *can* read; inspection
        commands call this first so a foreign store errors loudly
        instead of rendering as an empty (or forever-pending) queue.
        """
        with self._lock:
            foreign = []
            for name in sorted(self._job_names()):
                if not name.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(self.jobs_dir, name),
                              encoding="utf-8") as fh:
                        record = json.load(fh)
                except (OSError, ValueError):
                    continue
                version = record.get("version")
                if version != STORE_FORMAT_VERSION:
                    foreign.append((name[: -len(".json")], version))
            return foreign

    # -- event log ----------------------------------------------------------

    def event_bus(self) -> EventBus:
        """A fresh bus that journals every event it publishes here."""
        bus = EventBus()
        bus.add_observer(lambda event: self.append_event(event.to_dict()))
        return bus

    def append_event(self, event_dict: dict) -> None:
        with self._lock:
            with open(self.events_path, "a", encoding="utf-8") as fh:
                faults.append_line(fh, json.dumps(event_dict) + "\n",
                                   site="jobstore.events.append")

    def events(self) -> list[dict]:
        """Every journalled event, ordered by bus sequence number.

        Append order can transpose neighbouring events from different
        jobs (observer callbacks run outside the bus lock), so the read
        path restores the global order by ``seq``; torn tail lines (a
        killed server mid-write) are skipped.
        """
        try:
            with open(self.events_path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return []
        events = []
        for line in lines:
            try:
                events.append(json.loads(line))
            except ValueError:
                self.corrupt_event_lines += 1
                continue
        # Timestamp first: sequence numbers restart at 0 with every
        # server process, so a journal spanning a restart would
        # interleave the two runs if sorted by seq alone.
        events.sort(key=lambda e: (e.get("timestamp", 0.0),
                                   e.get("seq", 0)))
        return events

    def tail_events(self, offset: int = 0) -> tuple[list[dict], int]:
        """Events appended after byte ``offset``: ``(events, new_offset)``.

        The incremental read a follower (``watch --follow``) uses so an
        idle poll costs one seek, not a whole-journal re-parse.  Only
        complete lines are consumed; a torn tail stays unconsumed for
        the next call.
        """
        try:
            with open(self.events_path, "rb") as fh:
                fh.seek(offset)
                blob = fh.read()
        except OSError:
            return [], offset
        end = blob.rfind(b"\n")
        if end < 0:
            return [], offset
        events = []
        for line in blob[:end].split(b"\n"):
            try:
                events.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                continue
        return events, offset + end + 1

    # -- internals ----------------------------------------------------------

    def _job_names(self) -> list[str]:
        """Entries of ``jobs/``; empty when the directory is absent
        (a ``create=False`` store opened on a non-store path)."""
        try:
            return os.listdir(self.jobs_dir)
        except OSError:
            return []

    def _json_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def _read(self, job_id: str) -> dict | None:
        try:
            with open(self._json_path(job_id), encoding="utf-8") as fh:
                record = json.load(fh)
        except OSError:
            return None
        except ValueError:
            # Zero-byte or torn JSON: report, don't silently swallow.
            self.corrupt_records += 1
            return None
        if record.get("version") != STORE_FORMAT_VERSION:
            return None
        return record

    def _write(self, job_id: str, record: dict) -> None:
        with self._lock:
            self._write_locked(job_id, record)

    def _write_locked(self, job_id: str, record: dict) -> None:
        faults.atomic_write_json(self._json_path(job_id), record,
                                 site="jobstore.record.write")
