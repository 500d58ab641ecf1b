"""SubmitAPI: the one submit/poll/await surface every front end shares.

One protocol defines the vocabulary for "run these jobs and give me
the outcomes":

* :meth:`SubmitAPI.submit` — one job in, one
  :class:`~repro.service.jobs.JobHandle` out, immediately;
* :meth:`SubmitAPI.submit_many` — a corpus in, handles out;
* :meth:`SubmitAPI.await_many` — block until the given handles (default:
  everything submitted here) resolve; outcomes in handle order,
  cancelled jobs skipped;
* :meth:`SubmitAPI.await_job` / :meth:`SubmitAPI.poll` /
  :meth:`SubmitAPI.cancel` / :meth:`SubmitAPI.handles` — the per-job
  verbs.

Implementations: :class:`~repro.service.server.RevealServer` (in-process
thread pool; ``BatchRevealService.server()`` builds one over a
service) and :class:`~repro.service.http_client.GatewayClient` (jobs
run by a worker fleet behind a
:class:`~repro.service.gateway.RevealGateway`).  Code written against
this protocol moves between them by swapping the constructor.
"""

from __future__ import annotations

import abc
import time

from repro.service.jobs import PRIORITY_NORMAL, JobHandle
from repro.service.outcomes import RevealOutcome


class SubmitAPI(abc.ABC):
    """Abstract submit/poll/await surface over reveal jobs.

    Subclasses provide the four primitives (``submit``, ``poll``,
    ``cancel``, ``handles``); the corpus-level verbs are derived here
    so their semantics cannot drift between front ends.
    """

    # -- primitives (per implementation) ------------------------------------

    @abc.abstractmethod
    def submit(self, job, *, priority: int | str = PRIORITY_NORMAL,
               **kwargs) -> JobHandle:
        """Enqueue one job (a ``RevealJob`` or a bare ``Apk``); returns
        its handle immediately."""

    @abc.abstractmethod
    def poll(self, job_id: str) -> JobHandle:
        """The current handle for one job id (``KeyError`` if unknown)."""

    @abc.abstractmethod
    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; False once it is running or terminal."""

    @abc.abstractmethod
    def handles(self) -> list[JobHandle]:
        """Every handle this front end knows, in submission order."""

    # -- derived corpus verbs ------------------------------------------------

    def submit_many(self, jobs, *,
                    priority: int | str = PRIORITY_NORMAL) -> list[JobHandle]:
        """Submit a corpus; handles in submission order."""
        return [self.submit(job, priority=priority) for job in jobs]

    def await_many(self, handles: list[JobHandle] | None = None,
                   timeout: float | None = None) -> list[RevealOutcome]:
        """Outcomes of the given handles (default: all of
        :meth:`handles`), in handle order; jobs that produced no
        outcome — cancelled, or still pending at ``timeout`` — are
        skipped."""
        handles = self.handles() if handles is None else list(handles)
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes = []
        for handle in handles:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            outcome = handle.wait(remaining)
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes

    def await_job(self, job_id: str,
                  timeout: float | None = None) -> RevealOutcome | None:
        return self.poll(job_id).wait(timeout)
