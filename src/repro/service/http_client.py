"""GatewayClient: the SubmitAPI implementation that crosses the wire.

The remote twin of :class:`~repro.service.server.RevealServer`: the
same ``submit`` / ``poll`` / ``await_many`` vocabulary, executed by a
worker fleet behind a :class:`~repro.service.gateway.RevealGateway`
instead of threads in this process.  Code written against
:class:`~repro.service.api.SubmitAPI` moves onto the fleet by swapping
the constructor:

    client = GatewayClient("http://reveal.internal:8080", token="…")
    handles = client.submit_many(jobs)
    outcomes = client.await_many(handles)

Handles are :class:`RemoteJobHandle` — a
:class:`~repro.service.jobs.JobHandle` whose state refreshes from
``GET /v1/jobs/<id>`` and whose ``wait`` polls instead of blocking on
a local event.  A finished job's outcome is rebuilt from the journal
summary (:meth:`RevealOutcome.from_summary`), with the revealed APK
bytes grafted back on from the artifact store — so
``outcome.revealed_apk`` works identically to the in-process path,
byte for byte.

Transport is ``urllib.request`` (stdlib only, like the gateway).

Transient failures — a connection refused while the gateway restarts,
a 5xx, a socket timeout — are retried with capped exponential backoff
and full jitter (:class:`~repro.service.retry.RetryPolicy`), but *only*
for requests that are safe to repeat: every GET, and POSTs carrying an
``Idempotency-Key`` header.  A non-idempotent POST is never retried —
re-sending it could duplicate the job.  ``submit`` therefore stamps a
fresh idempotency key on every call by default (``auto_idempotency``),
which makes submission retry-safe end to end.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
import uuid

from repro import faults
from repro.service.api import SubmitAPI
from repro.service.batch import BatchRevealService
from repro.service.events import JobEvent, events_from_frames
from repro.service.jobs import (
    PRIORITY_NORMAL,
    JobHandle,
    JobState,
    JobStore,
    resolve_priority,
)
from repro.service.outcomes import RevealOutcome
from repro.service.retry import NO_RETRY, RetryPolicy, call_with_retries
from repro.service.worker import ARTIFACT_REVEALED_APK


class GatewayError(RuntimeError):
    """A gateway response the client cannot act on; carries the HTTP
    status in ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"gateway returned {status}: {message}")
        self.status = status


class RemoteJobHandle(JobHandle):
    """A job handle whose source of truth lives behind the gateway.

    ``refresh()`` pulls the current record; ``wait()`` polls until the
    job is terminal, then resolves the outcome (fetching the revealed
    APK artifact once).  Everything else — ``to_dict``, latencies,
    ``done`` — is inherited, so remote and local handles render
    identically.
    """

    def __init__(self, client: "GatewayClient", job_id: str, app_id: str,
                 priority: int = PRIORITY_NORMAL,
                 submitted_at: float | None = None) -> None:
        super().__init__(job_id, app_id, priority,
                         submitted_at=submitted_at)
        self._client = client

    def refresh(self) -> "RemoteJobHandle":
        """One ``GET /v1/jobs/<id>`` round trip into this handle."""
        self._apply(self._client.job(self.job_id))
        return self

    def _apply(self, data: dict) -> None:
        state = data.get("state")
        if state in JobState.ALL:
            self.state = state
        if data.get("submitted_at") is not None:
            self.submitted_at = data["submitted_at"]
        self.started_at = data.get("started_at")
        self.finished_at = data.get("finished_at")
        self.error = data.get("error", "") or ""
        self.worker_id = data.get("worker_id", "") or ""
        self.attempts = int(data.get("attempts", 0) or 0)
        self.artifacts = dict(data.get("artifacts") or {})
        self._outcome_summary = data.get("outcome")
        if self.done:
            self._resolve_outcome()
            self._mark_terminal()

    def _resolve_outcome(self) -> None:
        if self.outcome is not None or self.cancelled:
            return
        summary = self._outcome_summary
        if not summary:
            return
        apk_bytes = None
        digest = self.artifacts.get(ARTIFACT_REVEALED_APK, "")
        if digest:
            apk_bytes = self._client.fetch_artifact(digest)
        self.outcome = RevealOutcome.from_summary(
            summary, revealed_apk_bytes=apk_bytes)

    def wait(self, timeout: float | None = None) -> RevealOutcome | None:
        """Poll until terminal; the outcome, or ``None`` on timeout or
        cancellation — the in-process contract, over HTTP."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            self.refresh()
            if self.done:
                return self.outcome
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                return None
            interval = self._client.poll_interval_s
            time.sleep(interval if remaining is None
                       else min(interval, remaining))


class GatewayClient(SubmitAPI):
    """HTTP :class:`SubmitAPI` over one gateway.

    ``token`` is the tenant bearer token (omit against an anonymous
    gateway).  ``poll_interval_s`` paces ``wait``/``await_many``
    polling; ``request_timeout_s`` bounds every single HTTP call.
    ``retry`` governs transient-failure retries for idempotent
    requests (pass :data:`~repro.service.retry.NO_RETRY` to disable);
    ``auto_idempotency`` stamps a fresh ``Idempotency-Key`` on every
    ``submit`` so job submission is retry-safe.  ``retries`` counts
    the retries this client has performed.
    """

    def __init__(self, base_url: str, *, token: str | None = None,
                 poll_interval_s: float = 0.2,
                 request_timeout_s: float = 30.0,
                 retry: RetryPolicy | None = None,
                 auto_idempotency: bool = True) -> None:
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.poll_interval_s = poll_interval_s
        self.request_timeout_s = request_timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.auto_idempotency = auto_idempotency
        #: Transient failures retried (and recovered from) so far.
        self.retries = 0
        self._handles: dict[str, RemoteJobHandle] = {}

    # -- transport -----------------------------------------------------------

    @staticmethod
    def _transient(exc: Exception) -> bool:
        """Is this failure worth retrying?  Server-side 5xx (the
        gateway answered but could not serve) and socket-level OSErrors
        (refused, reset, timed out) are; any 4xx is the caller's bug."""
        if isinstance(exc, GatewayError):
            return exc.status >= 500
        return isinstance(exc, OSError)

    def _request(self, method: str, path: str, *,
                 body: bytes | None = None,
                 headers: dict | None = None,
                 stream: bool = False):
        """One logical round trip; the parsed JSON (or the raw response
        object with ``stream=True``).  Non-2xx raises
        :class:`GatewayError`.  Transient failures are retried under
        ``self.retry`` — but only when the request is idempotent: any
        GET, or a POST carrying an ``Idempotency-Key`` header.  Other
        POSTs get exactly one try."""
        headers = dict(headers or {})
        idempotent = method == "GET" or "Idempotency-Key" in headers
        policy = self.retry if idempotent else NO_RETRY

        def count(_exc, _attempt, _delay) -> None:
            self.retries += 1

        return call_with_retries(
            lambda: self._request_once(method, path, body=body,
                                       headers=headers, stream=stream),
            policy=policy, retryable=self._transient, on_retry=count)

    def _request_once(self, method: str, path: str, *,
                      body: bytes | None = None,
                      headers: dict | None = None,
                      stream: bool = False):
        faults.check("client.request")
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method)
        if self.token:
            request.add_header("Authorization", f"Bearer {self.token}")
        for name, value in (headers or {}).items():
            request.add_header(name, value)
        try:
            response = urllib.request.urlopen(
                request, timeout=self.request_timeout_s)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8")) \
                    .get("error", "")
            except Exception:
                pass
            raise GatewayError(exc.code, detail or exc.reason) from None
        if stream:
            return response
        with response:
            payload = response.read()
        return json.loads(payload.decode("utf-8")) if payload else {}

    # -- SubmitAPI primitives ------------------------------------------------

    def submit(self, job, *, priority: int | str = PRIORITY_NORMAL,
               idempotency_key: str | None = None,
               meta: dict | None = None, **kwargs) -> RemoteJobHandle:
        """POST one job; returns its remote handle immediately.

        Without an explicit ``idempotency_key``, a fresh one is minted
        per call (when ``auto_idempotency`` is on) so a retried POST
        deduplicates server-side instead of enqueueing twice.
        """
        if kwargs:
            raise TypeError(
                f"unsupported submit options over HTTP: {sorted(kwargs)}")
        job = BatchRevealService._coerce(job)
        lane = resolve_priority(priority)
        if idempotency_key is None and self.auto_idempotency:
            idempotency_key = f"auto-{uuid.uuid4().hex}"
        envelope = {
            "app_id": job.app_id,
            "apk_b64": JobStore.encode_apk(job.apk),
            "priority": lane,
            "collect_only": job.collect_only,
            "cache_salt": job.cache_salt,
            "meta": dict(meta or {}),
        }
        headers = {"Content-Type": "application/json"}
        if idempotency_key:
            headers["Idempotency-Key"] = idempotency_key
        data = self._request("POST", "/v1/jobs",
                             body=json.dumps(envelope).encode("utf-8"),
                             headers=headers)
        job_id = data["job_id"]
        if data.get("deduplicated") and job_id in self._handles:
            return self._handles[job_id]
        handle = RemoteJobHandle(self, job_id, job.app_id, lane)
        self._handles[job_id] = handle
        return handle

    def poll(self, job_id: str) -> RemoteJobHandle:
        handle = self._handles.get(job_id)
        if handle is None:
            # Adopt a job another client submitted (KeyError when the
            # gateway does not know it either — the SubmitAPI contract).
            try:
                data = self.job(job_id)
            except GatewayError as exc:
                if exc.status == 404:
                    raise KeyError(job_id) from None
                raise
            handle = RemoteJobHandle(self, job_id,
                                     data.get("app_id", ""))
            handle._apply(data)
            self._handles[job_id] = handle
            return handle
        return handle.refresh()

    def cancel(self, job_id: str) -> bool:
        """True only when the job was still queued and is cancelled
        now — the in-process contract.  A running job gets the cancel
        flag its worker honours at the next heartbeat, but that is
        reported False here, like ``RevealServer.cancel``."""
        try:
            data = self._request("POST", f"/v1/jobs/{job_id}/cancel",
                                 body=b"")
        except GatewayError as exc:
            if exc.status == 404:
                return False
            raise
        return data.get("cancel") == "cancelled"

    def handles(self) -> list[RemoteJobHandle]:
        return list(self._handles.values())

    # -- gateway extras ------------------------------------------------------

    def job(self, job_id: str) -> dict:
        """The raw job digest (``JobHandle.to_dict`` shape)."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def events(self, job_id: str, *, follow: bool = False,
               timeout: float | None = None):
        """The job's events.  ``follow=False``: a list, one call.
        ``follow=True``: a generator yielding events live until the
        job's terminal event (or the server-side timeout)."""
        if not follow:
            response = self._request(
                "GET", f"/v1/jobs/{job_id}/events", stream=True)
            with response:
                return events_from_frames(response.read())
        query = "?follow=1"
        if timeout is not None:
            query += f"&timeout={timeout}"
        response = self._request(
            "GET", f"/v1/jobs/{job_id}/events{query}", stream=True)

        def tail():
            with response:
                for line in response:
                    event = JobEvent.from_frame(line)
                    if event is not None:
                        yield event
        return tail()

    def fetch_artifact(self, digest: str) -> bytes | None:
        """Artifact bytes by digest; ``None`` when the gateway has no
        such artifact."""
        try:
            response = self._request(
                "GET", f"/v1/artifacts/{digest}", stream=True)
        except GatewayError as exc:
            if exc.status == 404:
                return None
            raise
        with response:
            return response.read()

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def healthz(self) -> bool:
        try:
            return bool(self._request("GET", "/v1/healthz").get("ok"))
        except (GatewayError, OSError):
            return False
