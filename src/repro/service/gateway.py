"""RevealGateway: the HTTP front door for DexLego-as-a-service.

Everything the service layer grew — the journal, priority lanes, the
event stream, the worker fleet, content-addressed artifacts — becomes
reachable from *outside the process* here, over plain HTTP/1.1 served
by the stdlib's ``ThreadingHTTPServer`` (no web framework, matching
the repo's no-new-dependencies rule):

``POST /v1/jobs``
    Submit an APK for revealing.  Raw APK bytes (``X-Reveal-App-Id``
    and ``X-Reveal-Priority`` headers) or a JSON envelope
    (``{"app_id", "apk_b64", "priority", "collect_only",
    "cache_salt", "meta"}``; a field of the wrong JSON type is a
    ``400``).  Returns ``201`` with the job id.  An
    ``Idempotency-Key`` header makes retries safe: the same key
    returns the original job (``200``, ``"deduplicated": true``)
    instead of enqueuing a duplicate.
``GET /v1/jobs/<id>``
    The job's :meth:`~repro.service.jobs.JobHandle.to_dict` digest —
    the same wire shape the ``status`` CLI prints.
``GET /v1/jobs/<id>/events``
    The job's event stream as NDJSON.  ``?follow=1`` switches to
    chunked transfer and tails the journal live until the job's
    terminal event (or ``?timeout=`` seconds).
``POST /v1/jobs/<id>/cancel``
    Queued jobs cancel immediately; running ones get the cancel flag
    their worker observes at its next heartbeat.
``GET /v1/artifacts/<digest>``
    Revealed DEX / repacked APK / collection zip by content digest.
``GET /v1/stats`` / ``GET /v1/healthz``
    Fleet dashboard (state counts, live worker leases, artifact store
    totals) and a liveness probe.

Multi-tenancy is token-scoped: construct with ``tenants`` (a
``token -> tenant name`` map) and every request must carry
``Authorization: Bearer <token>`` (else ``401``).  Two throttles guard
the queue — a sliding-window request rate limit (``429`` with
``Retry-After``) and a per-tenant cap on jobs simultaneously queued or
running (``429``).  Uploads over ``max_upload_bytes`` get ``413``.

The gateway never runs a pipeline itself: it appends queued records
(:meth:`~repro.service.jobs.JobStore.submit`) that
:class:`~repro.service.worker.RevealWorker` members — fleet ``worker``
processes or the threads of a ``serve`` process — lease and reveal.
That asymmetry is the scaling story: front ends and workers scale
independently, coordinated only by the store directory.
"""

from __future__ import annotations

import base64
import collections
import hashlib
import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import faults
from repro.runtime.apk import Apk
from repro.service.artifacts import ArtifactStore, is_artifact_digest
from repro.service.events import TERMINAL_EVENTS, event_to_frame
from repro.service.jobs import (
    PRIORITY_NORMAL,
    JobHandle,
    JobState,
    JobStore,
    resolve_priority,
)

#: Default cap on one uploaded APK (bytes).  Generous for the corpus
#: apps this repo builds, small enough that a confused client cannot
#: buffer the gateway into the ground.
MAX_UPLOAD_BYTES_DEFAULT = 64 * 1024 * 1024

#: ``?follow=1`` tails stop after this many seconds without a terminal
#: event unless the client asked for a different ``?timeout=``.
FOLLOW_TIMEOUT_DEFAULT_S = 30.0

#: The JSON envelope's optional fields, the type each must have (its
#: empty value is the default), and how a 400 names that type.
_ENVELOPE_TYPES = (
    ("app_id", str, "a string"),
    ("cache_salt", str, "a string"),
    ("collect_only", bool, "a boolean"),
    ("meta", dict, "a JSON object"),
)


class _RateLimiter:
    """Sliding-window request limiter, one window per identity."""

    def __init__(self, limit: int, window_s: float = 60.0) -> None:
        self.limit = limit
        self.window_s = window_s
        self._lock = threading.Lock()
        self._hits: dict[str, collections.deque] = {}

    def allow(self, identity: str, now: float | None = None
              ) -> tuple[bool, float]:
        """``(allowed, retry_after_s)`` for one request."""
        now = time.time() if now is None else now
        with self._lock:
            hits = self._hits.setdefault(identity, collections.deque())
            horizon = now - self.window_s
            while hits and hits[0] <= horizon:
                hits.popleft()
            if len(hits) >= self.limit:
                return False, max(0.0, hits[0] + self.window_s - now)
            hits.append(now)
            return True, 0.0


class RevealGateway:
    """The HTTP server object: construct, :meth:`start`, submit over
    HTTP, :meth:`close`.

    ``port=0`` binds an ephemeral port (tests); read :attr:`url` after
    :meth:`start`.  ``tenants`` maps bearer tokens to tenant names;
    ``None`` serves anonymously.  ``rate_limit_per_min`` and
    ``max_active_per_tenant`` are off (``None``) by default.
    """

    def __init__(
        self,
        store: JobStore | str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        artifact_store: ArtifactStore | str | None = None,
        tenants: dict[str, str] | None = None,
        rate_limit_per_min: int | None = None,
        max_active_per_tenant: int | None = None,
        max_upload_bytes: int = MAX_UPLOAD_BYTES_DEFAULT,
    ) -> None:
        self.store = JobStore(store) if isinstance(store, str) else store
        if artifact_store is None:
            artifact_store = os.path.join(self.store.path, "artifacts")
        self.artifacts = (ArtifactStore(artifact_store)
                          if isinstance(artifact_store, str)
                          else artifact_store)
        self.tenants = dict(tenants) if tenants else None
        self.max_active_per_tenant = max_active_per_tenant
        self.max_upload_bytes = max_upload_bytes
        self._limiter = (None if rate_limit_per_min is None
                         else _RateLimiter(rate_limit_per_min))
        self._idempotency_dir = os.path.join(self.store.path, "idempotency")
        os.makedirs(self._idempotency_dir, exist_ok=True)
        self.bus = self.store.event_bus()
        self._host = host
        self._port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.started_at = time.time()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "RevealGateway":
        if self._httpd is not None:
            return self
        gateway = self

        class Handler(_GatewayHandler):
            pass

        Handler.gateway = gateway
        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="reveal-gateway", daemon=True)
        self._thread.start()
        return self

    def __enter__(self) -> "RevealGateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
        self._httpd = None
        self._thread = None
        self.bus.close()

    @property
    def address(self) -> tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("gateway not started")
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- request-side helpers (called from handler threads) -----------------

    def authenticate(self, header: str | None) -> str | None:
        """Tenant name for one ``Authorization`` header; ``None`` means
        rejected.  Anonymous gateways accept everything as ``""``."""
        if self.tenants is None:
            return ""
        if not header or not header.startswith("Bearer "):
            return None
        return self.tenants.get(header[len("Bearer "):].strip())

    def throttle(self, tenant: str) -> tuple[bool, float]:
        if self._limiter is None:
            return True, 0.0
        return self._limiter.allow(tenant or "anonymous")

    def active_jobs(self, tenant: str) -> int:
        """Queued-or-running records submitted by one tenant."""
        count = 0
        for record in self.store.load_all():
            if record.get("state") not in (JobState.QUEUED,
                                           JobState.RUNNING):
                continue
            if (record.get("meta") or {}).get("tenant", "") == tenant:
                count += 1
        return count

    def idempotent_job_id(self, tenant: str, key: str) -> str | None:
        """The job id a prior submit stored under this key, if any."""
        try:
            with open(self._idempotency_path(tenant, key),
                      encoding="utf-8") as fh:
                return fh.read().strip() or None
        except OSError:
            return None

    def remember_idempotency(self, tenant: str, key: str,
                             job_id: str) -> None:
        path = self._idempotency_path(tenant, key)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(job_id)
            os.replace(tmp, path)
        except OSError:
            pass  # dedup is best-effort; the job itself is journalled

    def _idempotency_path(self, tenant: str, key: str) -> str:
        digest = hashlib.sha256(
            f"{tenant}\x00{key}".encode("utf-8")).hexdigest()
        return os.path.join(self._idempotency_dir, digest)

    def stats(self) -> dict:
        counts = {state: 0 for state in JobState.ALL}
        index = {"apps_indexed": 0, "bodies_emitted": 0,
                 "bodies_replayed": 0}
        cluster = {"apps_labeled": 0, "labels_assigned": 0}
        degraded: dict = {"reveals_degraded": 0, "by_subsystem": {}}
        for record in self.store.load_all():
            state = record.get("state")
            if state in counts:
                counts[state] += 1
            # Fleet-wide dedup and labeling rates, straight off the
            # outcome digests — operators should not need to read job
            # stores to see whether the index/cluster dirs are earning
            # their keep.
            outcome = record.get("outcome") or {}
            index_stats = outcome.get("index_stats") or {}
            if index_stats:
                index["apps_indexed"] += 1
                index["bodies_emitted"] += index_stats.get(
                    "bodies_emitted", 0)
                index["bodies_replayed"] += index_stats.get(
                    "bodies_replayed", 0)
            cluster_stats = outcome.get("cluster_stats") or {}
            if cluster_stats:
                cluster["apps_labeled"] += 1
                cluster["labels_assigned"] += cluster_stats.get(
                    "labels_assigned", 0)
            # Degradation visibility: reveals that completed while
            # bypassing a broken optional subsystem, per subsystem —
            # the dashboard signal that an index/cluster/cache dir
            # needs operator attention even though jobs still succeed.
            subsystems = outcome.get("degraded") or []
            if subsystems:
                degraded["reveals_degraded"] += 1
                for name in subsystems:
                    degraded["by_subsystem"][name] = \
                        degraded["by_subsystem"].get(name, 0) + 1
        return {
            "jobs": counts,
            "workers": self.store.worker_leases(),
            "artifacts": self.artifacts.stats(),
            "index": index,
            "cluster": cluster,
            "degraded": degraded,
            "store": {
                "corrupt_records": self.store.corrupt_records,
                "corrupt_event_lines": self.store.corrupt_event_lines,
            },
            "uptime_s": round(time.time() - self.started_at, 3),
            "tenants": (sorted(set(self.tenants.values()))
                        if self.tenants else []),
        }


class _GatewayHandler(BaseHTTPRequestHandler):
    """Route table for one connection; ``gateway`` is injected by
    :meth:`RevealGateway.start` on a per-gateway subclass."""

    gateway: RevealGateway
    protocol_version = "HTTP/1.1"
    server_version = "RevealGateway/1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass  # request logging is the caller's job, not stderr's

    def _send_json(self, code: int, payload: dict,
                   headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str,
               headers: dict | None = None) -> None:
        self._send_json(code, {"error": message}, headers)

    def _tenant(self) -> str | None:
        tenant = self.gateway.authenticate(
            self.headers.get("Authorization"))
        if tenant is None:
            self._error(401, "missing or unknown bearer token")
        return tenant

    def _inject_fault(self) -> bool:
        """Chaos hook: apply one armed ``gateway.request`` fault at the
        HTTP boundary.  ``True`` means the request was consumed (the
        client saw a 5xx or a dead socket and is expected to retry);
        delays fall through to normal handling."""
        rule = faults.decide("gateway.request")
        if rule is None:
            return False
        if rule.kind == faults.FAULT_DELAY:
            time.sleep(rule.delay_s)
            return False
        if rule.kind == faults.FAULT_HTTP_500:
            self._error(500, "injected fault")
            return True
        # Connection reset: drop the socket without any response.
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        return True

    def _read_body(self) -> bytes | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "bad Content-Length")
            return None
        if length <= 0:
            self._error(400, "empty body")
            return None
        if length > self.gateway.max_upload_bytes:
            self._error(413, f"upload over {self.gateway.max_upload_bytes}"
                             f" bytes")
            return None
        return self.rfile.read(length)

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        if self._inject_fault():
            return
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        if parts == ["v1", "healthz"]:
            self._send_json(200, {"ok": True})
            return
        tenant = self._tenant()
        if tenant is None:
            return
        if parts == ["v1", "stats"]:
            self._send_json(200, self.gateway.stats())
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._get_job(parts[2])
        elif (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                and parts[3] == "events"):
            self._get_events(parts[2], query)
        elif len(parts) == 3 and parts[:2] == ["v1", "artifacts"]:
            self._get_artifact(parts[2])
        else:
            self._error(404, f"no route for GET {parsed.path}")

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        if self._inject_fault():
            return
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        tenant = self._tenant()
        if tenant is None:
            return
        allowed, retry_after = self.gateway.throttle(tenant)
        if not allowed:
            self._error(429, "rate limit exceeded",
                        headers={"Retry-After": str(int(retry_after) + 1)})
            return
        if parts == ["v1", "jobs"]:
            self._post_job(tenant)
        elif (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                and parts[3] == "cancel"):
            self._post_cancel(parts[2])
        else:
            self._error(404, f"no route for POST {parsed.path}")

    # -- handlers ------------------------------------------------------------

    def _post_job(self, tenant: str) -> None:
        gateway = self.gateway
        idem_key = (self.headers.get("Idempotency-Key") or "").strip()
        if idem_key:
            prior = gateway.idempotent_job_id(tenant, idem_key)
            if prior is not None and gateway.store.load(prior) is not None:
                self._send_json(200, {"job_id": prior,
                                      "deduplicated": True})
                return
        if gateway.max_active_per_tenant is not None \
                and gateway.active_jobs(tenant) \
                >= gateway.max_active_per_tenant:
            self._error(429, f"tenant quota: "
                             f"{gateway.max_active_per_tenant} active jobs")
            return
        body = self._read_body()
        if body is None:
            return
        content_type = (self.headers.get("Content-Type") or "").lower()
        meta: dict = {}
        collect_only = False
        cache_salt = ""
        if "json" in content_type:
            try:
                envelope = json.loads(body.decode("utf-8"))
            except ValueError:
                self._error(400, "undecodable JSON envelope")
                return
            if not isinstance(envelope, dict):
                self._error(400, "envelope must be a JSON object")
                return
            for name, kind, noun in _ENVELOPE_TYPES:
                if not isinstance(envelope.get(name, kind()), kind):
                    self._error(400, f"envelope field {name!r} must be {noun}")
                    return
            app_id = envelope.get("app_id", "")
            try:
                apk_bytes = base64.b64decode(envelope["apk_b64"])
            except Exception:
                self._error(400, "envelope carries no decodable apk_b64")
                return
            priority_raw = envelope.get("priority", PRIORITY_NORMAL)
            collect_only = envelope.get("collect_only", False)
            cache_salt = envelope.get("cache_salt", "")
            meta = dict(envelope.get("meta", {}))
        else:
            apk_bytes = body
            app_id = self.headers.get("X-Reveal-App-Id", "")
            priority_raw = self.headers.get("X-Reveal-Priority",
                                            PRIORITY_NORMAL)
        try:
            priority = resolve_priority(priority_raw)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        try:
            apk = Apk.from_bytes(apk_bytes)
        except Exception:
            self._error(400, "body is not a serialised APK "
                             "(Apk.to_bytes format)")
            return
        app_id = app_id or apk.package or "app"
        meta["tenant"] = tenant
        record = gateway.store.submit(
            gateway.bus, app_id=app_id, apk=apk, priority=priority,
            collect_only=collect_only, cache_salt=cache_salt, metadata=meta,
        )
        if idem_key:
            gateway.remember_idempotency(tenant, idem_key,
                                         record["job_id"])
        self._send_json(201, {
            "job_id": record["job_id"],
            "app_id": app_id,
            "state": JobState.QUEUED,
            "priority": priority,
            "deduplicated": False,
        })

    def _get_job(self, job_id: str) -> None:
        record = self.gateway.store.load(job_id)
        if record is None:
            self._error(404, f"no job {job_id!r}")
            return
        self._send_json(200, JobHandle.from_record(record).to_dict())

    def _get_events(self, job_id: str, query: dict) -> None:
        gateway = self.gateway
        if gateway.store.load(job_id) is None:
            self._error(404, f"no job {job_id!r}")
            return
        follow = query.get("follow", ["0"])[0] in ("1", "true", "yes")
        if not follow:
            frames = b"".join(
                event_to_frame(e) for e in gateway.store.events()
                if e.get("job_id") == job_id)
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(len(frames)))
            self.end_headers()
            self.wfile.write(frames)
            return
        try:
            timeout = float(query.get("timeout",
                                      [FOLLOW_TIMEOUT_DEFAULT_S])[0])
        except ValueError:
            timeout = FOLLOW_TIMEOUT_DEFAULT_S
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        deadline = time.monotonic() + max(0.0, timeout)
        offset = 0
        terminal = False
        try:
            while not terminal and time.monotonic() < deadline:
                events, offset = gateway.store.tail_events(offset)
                for event in events:
                    if event.get("job_id") != job_id:
                        continue
                    self._write_chunk(event_to_frame(event))
                    if event.get("kind") in TERMINAL_EVENTS:
                        terminal = True
                if not terminal:
                    time.sleep(0.1)
            self._write_chunk(b"")  # final zero-length chunk
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-tail; nothing to clean up

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _get_artifact(self, digest: str) -> None:
        if not is_artifact_digest(digest):
            self._error(400, "not an artifact digest")
            return
        data = self.gateway.artifacts.get(digest)
        if data is None:
            self._error(404, f"no artifact {digest[:12]}…")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Artifact-Digest", digest)
        self.end_headers()
        self.wfile.write(data)

    def _post_cancel(self, job_id: str) -> None:
        disposition = self.gateway.store.request_cancel(job_id)
        if disposition is None:
            record = self.gateway.store.load(job_id)
            if record is None:
                self._error(404, f"no job {job_id!r}")
            else:
                self._send_json(200, {"job_id": job_id,
                                      "cancel": "already-terminal",
                                      "state": record.get("state")})
            return
        self._send_json(200, {"job_id": job_id, "cancel": disposition})
