"""The two load generators: closed loops over a host process, and a
fleet drain over HTTP.

Both return a :class:`Measured`: what one timed phase produced, plus
the set-up times of every boot that preceded it.  Set-up is process
start to ready -- imports, server / gateway / worker boot and one
untimed warm-up op -- and is measured ``boots`` times, each in fresh
processes; the last boot runs the timed phase.

Every time in a :class:`Measured` is divided by the slowness the
process that did the work measured around it (``calibrate.py``): a
boot's by the samples it took once ready, an op's by the samples of the
ops at most ``calibrate.WINDOW`` away, and a whole phase's wall and CPU
time by the median of all of them.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field

import calibrate
import corpus
from procs import (
    HERE,
    WORK,
    BenchError,
    cpu_seconds,
    peak_rss_mb,
    read_line,
    start,
    stop,
)

#: How often the fleet client polls a job it is waiting on.  Latency
#: comes from the job's own ``finished_at``, so the cadence only sets
#: the gateway's share of the load.
STATUS_POLL_S = 0.05
#: Fleet jobs queued or running at once.  Enough that the worker never
#: idles, few enough that a job's latency spans a few service times
#: rather than the whole run (see ``README.md``).
BACKLOG = 4
TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Measured:
    setup_s: list[float]
    latencies: list[float]
    attempted: int
    failures: list[str]
    #: The timed phase: for closed loops the ops' own spans (the load
    #: generator's hydration and oracle checks between ops excluded),
    #: for the fleet first submit to last ``finished_at``.
    wall_s: float
    #: User + system CPU of the system under test during the phase.
    cpu_s: float
    peak_rss_mb: float
    #: Median slowness over the timed phase, and the set-up times
    #: before scaling (both for people).
    slowness: float = 1.0
    raw_setup_s: list = field(default_factory=list)
    trace: dict | None = None
    #: Per-layer inputs only the load generator sees (queue waits,
    #: client-side HTTP timings), per op.
    extra: dict = field(default_factory=dict)
    #: Op ids of the timed phase (what a traced rollup keeps).
    op_ids: list = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - len(self.failures)


def closed_loop(workload: str, corpus_stem: str, ops: int, seed: int,
                boots: int, trace: bool, deadline: float) -> Measured:
    """``boots`` host processes; the last runs the timed ops."""
    setups, raw_setups = [], []
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"host-{os.getpid()}.json")
    for boot in range(boots):
        last = boot == boots - 1
        args = [os.path.join(HERE, "host.py"), "--workload", workload,
                "--corpus", corpus_stem, "--ops", str(ops),
                "--seed", str(seed), "--out", out]
        began = time.perf_counter()
        proc = start(args + (["--trace"] if trace else []),
                     stdin=subprocess.PIPE,
                     stdout=subprocess.PIPE)
        try:
            if read_line(proc, deadline - time.monotonic()) != "READY":
                raise BenchError("host did not report ready")
            raw_setups.append(time.perf_counter() - began)
            proc.stdin.write("GO\n" if last else "EXIT\n")
            proc.stdin.flush()
            word, slowness = read_line(
                proc, deadline - time.monotonic()).split()
            if word != "CALIBRATED":
                raise BenchError(f"host printed {word!r}")
            setups.append(raw_setups[-1] / float(slowness))
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            code = stop(proc)
        if code != 0:
            raise BenchError(f"host exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    os.unlink(out)
    ops = report["ops"]
    slowness = calibrate.smooth([op["slowness"] for op in ops])
    latencies = [op["latency_s"] / s for op, s in zip(ops, slowness)]
    return Measured(
        setup_s=setups,
        latencies=latencies,
        attempted=len(ops),
        failures=[f"{op['app']}: {op['error']}" for op in ops if op["error"]],
        wall_s=sum(latencies),
        cpu_s=sum(op["cpu_s"] / s for op, s in zip(ops, slowness)),
        peak_rss_mb=report["peak_rss_mb"],
        slowness=statistics.median(slowness),
        raw_setup_s=raw_setups,
        trace=report["trace"],
        extra={"server.queue_wait_s": sum(op["queue_wait_s"] for op in ops)
               / max(1, len(ops))},
        op_ids=list(range(len(ops))),
    )


class Fleet:
    """One gateway and one worker process over a fresh store, index
    and cluster directory."""

    def __init__(self, trace_out: str | None) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="fleet-", dir=WORK)
        self.trace_out = trace_out
        self.gateway = self.worker = None
        #: The worker's slowness samples by job id, the warm-up job's
        #: id, and ``(finished_at, job id, latency)`` of every drained
        #: job that finished.
        self.calibration = os.path.join(self.dir, "calibration.jsonl")
        self.samples: dict = {}
        self.warm_id = ""
        self.done: list = []
        #: ``GET /v1/jobs/<id>`` calls made so far, and their time.
        self.status_calls = 0
        self.status_s = 0.0

    def boot(self, warmup: dict, deadline: float) -> float:
        """Start both processes and drain one warm-up job; returns the
        set-up time, process start to the job's ``finished_at``."""
        from repro.runtime.apk import Apk
        from repro.service.batch import RevealJob
        from repro.service.http_client import GatewayClient

        store = os.path.join(self.dir, "store")
        began = time.time()
        self.gateway = start(["-m", "repro.service", "gateway",
                              "--store", store, "--port", "0", "--json"],
                             stdout=subprocess.PIPE)
        launcher = [os.path.join(HERE, "worker_launcher.py"),
                    "--calibration-out", self.calibration]
        if self.trace_out:
            launcher += ["--trace-out", self.trace_out]
        self.worker = start(launcher + [
            "--", "worker", "--store", store,
            "--index-dir", os.path.join(self.dir, "index"),
            "--cluster-dir", os.path.join(self.dir, "cluster"),
            "--linger", "3600", "--poll-interval", "0.05", "--json",
        ], stdout=subprocess.DEVNULL)
        url = json.loads(read_line(self.gateway,
                                   deadline - time.monotonic()))["url"]
        self.client = GatewayClient(url)
        job = RevealJob(warmup["app_id"], Apk.from_bytes(warmup["apk"]))
        self.warm_id = self.client.submit(job).job_id
        record = self._await(self.warm_id, deadline)
        if record["status"] != "ok":
            raise BenchError(f"warm-up job ended {record['state']}: "
                             f"{record['error']}")
        # The worker samples its slowness once the warm-up job is done;
        # let it finish before anything else reaches the fleet.
        self.read_samples()
        while self.warm_id not in self.samples:
            if time.monotonic() > deadline:
                raise BenchError("the worker took no slowness sample")
            time.sleep(0.01)
            self.read_samples()
        return record["finished_at"] - began

    def read_samples(self) -> None:
        """Load the worker's slowness samples so far."""
        try:
            with open(self.calibration, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            lines = []
        for line in lines:
            try:
                row = json.loads(line)
            except ValueError:  # a line the worker is still writing
                continue
            self.samples[row["job"]] = row["slowness"]

    def _await(self, job_id: str, deadline: float) -> dict:
        while True:
            began = time.perf_counter()
            record = self.client.job(job_id)
            self.status_s += time.perf_counter() - began
            self.status_calls += 1
            if record["state"] in TERMINAL:
                return record
            if time.monotonic() > deadline:
                raise BenchError(f"job {job_id} still {record['state']}")
            time.sleep(STATUS_POLL_S)

    def drain(self, entries: list[dict], deadline: float) -> Measured:
        """Keep ``BACKLOG`` jobs in the fleet until every entry ran.

        Jobs finish in submission order, so the client waits for the
        oldest outstanding one before submitting the next."""
        from repro.dex.reader import read_dex
        from repro.runtime.apk import Apk
        from repro.service.batch import RevealJob

        jobs = [RevealJob(e["app_id"], Apk.from_bytes(e["apk"]))
                for e in entries]
        pids = (self.gateway.pid, self.worker.pid)
        cpu0 = sum(cpu_seconds(pid) for pid in pids)
        client = self.client
        self.status_calls, self.status_s = 0, 0.0
        submitted = []
        records: dict = {}
        outstanding: deque = deque()
        submit_s = 0.0
        errors = 0
        for job in jobs:
            if len(outstanding) >= BACKLOG:
                oldest = outstanding.popleft()
                records[oldest] = self._await(oldest, deadline)
            began = time.time()
            t0 = time.perf_counter()
            try:
                job_id = client.submit(job).job_id
            except Exception as exc:  # counted as a failed op
                errors += 1
                submitted.append((None, began, f"submit: {exc}"))
                continue
            finally:
                submit_s += time.perf_counter() - t0
            submitted.append((job_id, began, ""))
            outstanding.append(job_id)
        del jobs
        while outstanding:
            oldest = outstanding.popleft()
            records[oldest] = self._await(oldest, deadline)
        cpu = sum(cpu_seconds(pid) for pid in pids) - cpu0
        rss = peak_rss_mb(self.worker.pid)

        failures, waits = [], []
        first = min(began for _, began, _ in submitted)
        last = first
        for entry, (job_id, began, error) in zip(entries, submitted):
            record = records.get(job_id)
            if record is None:
                failures.append(f"{entry['app_id']}: {error}")
                continue
            self.done.append((record["finished_at"], job_id,
                              record["finished_at"] - began))
            last = max(last, record["finished_at"])
            waits.append(record["started_at"] - record["submitted_at"])
            # The oracle runs after the timed phase, on the revealed DEX
            # fetched back over HTTP like any client would.
            digest = record["artifacts"].get("revealed_dex")
            if record["status"] != "ok" or not digest:
                failures.append(f"{entry['app_id']}: {record['state']} "
                                f"{record['status']} {record['error']}")
                continue
            verdict = corpus.check(read_dex(client.fetch_artifact(digest)),
                                   entry)
            if verdict:
                failures.append(f"{entry['app_id']}: {verdict}")
        ops = max(1, len(entries))
        wall = last - first
        return Measured(
            setup_s=[],
            latencies=[],
            attempted=len(entries),
            failures=failures,
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=rss,
            extra={
                "jobs.queue_wait_s": sum(waits) / ops,
                "http.submit_s": submit_s / ops,
                "http.status_s": self.status_s / ops,
                "http.requests_per_job": (len(submitted) + self.status_calls)
                / ops,
                "http.errors": (errors + client.retries) / ops,
                "fleet.wall_s": wall,
            },
            op_ids=[job_id for job_id, _, _ in submitted if job_id],
        )

    def scale(self, measured: Measured) -> None:
        """Divide the drain's times by the worker's slowness: each
        latency by the samples of the jobs that finished around it, the
        wall and CPU time by their median.  A job whose sample the stop
        cut short takes that median."""
        self.done.sort()
        found = [self.samples.get(job_id) for _, job_id, _ in self.done]
        known = [s for s in found if s is not None]
        if not known:
            raise BenchError("the worker took no slowness samples")
        typical = statistics.median(known)
        slowness = calibrate.smooth([typical if s is None else s
                                     for s in found])
        measured.latencies = [latency / s for (_, _, latency), s
                              in zip(self.done, slowness)]
        measured.wall_s /= typical
        measured.cpu_s /= typical
        measured.slowness = typical

    def stop(self) -> None:
        for proc in (self.worker, self.gateway):
            if proc is not None:
                stop(proc)
        self.read_samples()
        shutil.rmtree(self.dir, ignore_errors=True)


def fleet_drain(data: dict, jobs: int, boots: int, trace: bool,
                deadline: float) -> Measured:
    """``boots`` fleets; the last drains the first ``jobs`` apps."""
    setups, raw_setups = [], []
    trace_out = os.path.join(WORK, f"worker-spans-{os.getpid()}.json")
    for boot in range(boots):
        last = boot == boots - 1
        fleet = Fleet(trace_out if trace and last else None)
        try:
            raw_setups.append(fleet.boot(data["warmup"], deadline))
            if last:
                measured = fleet.drain(data["apps"][:jobs], deadline)
        finally:
            fleet.stop()
        setups.append(raw_setups[-1] / fleet.samples[fleet.warm_id])
    fleet.scale(measured)
    measured.setup_s = setups
    measured.raw_setup_s = raw_setups
    if trace:
        with open(trace_out, encoding="utf-8") as fh:
            measured.trace = json.load(fh)
        os.unlink(trace_out)
    return measured
