"""Reveal benchmark: three front ends, end-to-end metrics, per-layer ledger.

    python3 perfbench/run.py --workload plain-server --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``plain-server`` -- ``RevealServer(workers=1)``, one client, one job
  outstanding; generated F-Droid-profile apps of 1k to 20k instructions.
* ``force-library`` -- ``reveal_apk`` with force execution under a
  fixed replay budget, one caller; small generated apps.
* ``fleet-drain`` -- a gateway and one worker process; the shared-
  library corpus is submitted over HTTP with four jobs kept in the
  fleet until all have run.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the first half of that work untraced and then the
same half traced, and prints the per-layer ledger (self time per op at
each layer boundary, counts per op, tracing overhead and unattributed
time).  The last line of stdout is the JSON result; the lines before
it are for people.

Work is sized from ``--seconds`` alone (whole corpus passes, or a job
count), never from measured speed, so two commits run the same ops.
Times are scaled to the reference machine speed (``calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from procs import WORK, BenchError  # noqa: E402
from stats import tail  # noqa: E402

#: Ops per second of ``--seconds`` each run's work is sized by (rounded
#: to whole corpus passes, so at ``--seconds 20`` ``plain-server`` runs
#: 64 ops in ~25 s, ``force-library`` 48 in ~16 s and ``fleet-drain``
#: 26 jobs in ~14 s), and set-up boots per untraced run (their median
#: is ``setup_s``).
RATES = {"plain-server": 3.2, "force-library": 2.4, "fleet-drain": 1.3}
SETUP_BOOTS = 5
#: Every run must end within 180 s; leave room for teardown.
RUN_DEADLINE_S = 170.0

#: The op root span of each workload (see ``host.py`` and the worker's
#: ``RevealWorker.run_one``).
ROOTS = {"plain-server": "server.op", "force-library": "library.op",
         "fleet-drain": "worker.run_one"}

#: Span name -> per-layer metric: self time per op at that boundary.
SPAN_METRICS = {
    "collect": "collect.s",
    "collect.drive": "collect.drive_s",
    "collect.add_tree": "collect.add_tree_s",
    "collect.archive": "collect.archive_s",
    "explore.replay": "explore.replay_s",
    "explore.delta_serialize": "explore.delta_serialize_s",
    "explore.delta_absorb": "explore.delta_absorb_s",
    "explore.schedule": "explore.schedule_s",
    "reassemble": "reassemble.s",
    "reassemble.emit": "reassemble.emit_s",
    "dex.write": "dex.write_s",
    "dex.read": "dex.read_s",
    "dex.verify": "dex.verify_s",
    "repack": "repack.s",
    "index.probe": "index.probe_s",
    "index.register": "index.register_s",
    "cluster.label": "cluster.label_s",
    "cluster.register": "cluster.register_s",
    "jobs.claim": "jobs.claim_s",
    "jobs.complete": "jobs.complete_s",
    "jobs.heartbeat": "jobs.heartbeat_s",
    "artifacts.put": "artifacts.put_s",
    "archive.zip": "archive.zip_s",
}
#: Counter -> per-layer metric: count per op.
COUNT_METRICS = {
    "collect.instructions": "collect.instructions",
    "collect.trees_offered": "collect.trees_offered",
    "collect.trees_kept": "collect.trees_kept",
    "explore.replays": "explore.replays",
    "explore.waves": "explore.waves",
    "explore.deduped": "explore.deduped",
    "explore.steps": "explore.steps",
    "dex.bytes": "dex.bytes",
    "artifacts.bytes": "artifacts.bytes",
}
#: Pipeline stage spans: what ``server.overhead_s`` subtracts.
STAGES = ("collect", "reassemble", "dex.verify", "repack")


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(m) -> tuple[dict, list[str]]:
    """The six user-facing metrics of one untraced run.

    Latencies exist only for ops that produced a result.  When so many
    failed that fewer than eleven remain, the tail (and, with none left,
    the median) is ``None``: the run still reports its failure count,
    and ``correct`` is already false."""
    found = tail(m.latencies)
    metrics = {
        "apps_per_s": (ratio(m.ok, m.wall_s), "1/s"),
        "latency_p50_s": (statistics.median(m.latencies)
                          if m.latencies else None, "s"),
        "latency_tail_s": (found[0] if found else None, "s"),
        "cpu_s_per_app": (ratio(m.cpu_s, m.attempted), "s"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
        "setup_s": (statistics.median(m.setup_s), "s"),
    }
    notes = ["setup_s is the median of " + ", ".join(
        f"{s:.3f}" for s in m.setup_s) + " s (unscaled " + ", ".join(
        f"{s:.3f}" for s in m.raw_setup_s) + " s)",
        f"times are scaled to the reference speed; the timed phase ran "
        f"at slowness {m.slowness:.3f}"]
    if found:
        _value, pct, n = found
        notes.insert(0, f"latency_tail_s is p{pct:.1f} of {n} samples "
                        f"({n - round(n * pct / 100)} beyond it)")
    else:
        notes.insert(0, f"latency_tail_s: only {len(m.latencies)} ops "
                        f"have a latency, fewer than 11")
    return metrics, notes


def ledger(workload: str, untraced, traced) -> tuple[dict, list[str]]:
    """The per-layer metrics of one traced run (zero where a workload
    never reaches a layer)."""
    from spans import rollup

    trace = traced.trace
    ops = max(1, len(traced.op_ids))
    r = rollup(trace["spans"], traced.op_ids, roots=(ROOTS[workload],))
    c = r.counts
    per_op = {metric: r.self_s.get(span, 0.0) / ops
              for span, metric in SPAN_METRICS.items()}
    per_op.update({metric: c.get(key, 0) / ops
                   for key, metric in COUNT_METRICS.items()})
    server = r.total_s.get("server.op", 0.0)
    per_op.update({
        "server.overhead_s": (server - sum(r.total_s.get(s, 0.0)
                                           for s in STAGES)) / ops
        if server else 0.0,
        "server.queue_wait_s": traced.extra.get("server.queue_wait_s", 0.0),
        "collect.tree_keep_ratio": ratio(c.get("collect.trees_kept", 0),
                                         c.get("collect.trees_offered", 0)),
        "explore.merge_keep_ratio": ratio(c.get("explore.merge_kept", 0),
                                          c.get("explore.merge_offered", 0)),
        "index.replayed_ratio": ratio(
            c.get("index.bodies_replayed", 0),
            c.get("index.bodies_replayed", 0)
            + c.get("index.bodies_emitted", 0)),
        "jobs.claims_per_job": r.calls.get("jobs.claim", 0) / ops,
        "jobs.records_scanned": ratio(c.get("jobs.records", 0),
                                      c.get("jobs.load_all", 0)),
        "jobs.queue_wait_s": traced.extra.get("jobs.queue_wait_s", 0.0),
        "worker.busy_ratio": ratio(r.total_s.get("worker.run_one", 0.0),
                                   traced.extra.get("fleet.wall_s", 0.0)),
        "worker.retries": trace["loose"].get("worker.retries", 0) / ops,
        "trace.overhead_ratio": ratio(ratio(traced.ok, traced.wall_s),
                                      ratio(untraced.ok, untraced.wall_s)),
        "trace.covered_share": ratio(r.covered_s, r.root_s),
        "trace.unattributed_s": (r.root_s - r.covered_s) / ops,
    })
    for key in ("http.submit_s", "http.status_s", "http.requests_per_job",
                "http.errors"):
        per_op[key] = traced.extra.get(key, 0.0)
    units = {}
    for name in per_op:
        if name.endswith(("_s", ".s")):
            units[name] = "s/op"
        elif name.endswith("_ratio") or name.endswith("_share"):
            units[name] = "ratio"
        elif name.endswith(".bytes"):
            units[name] = "bytes/op"
        else:
            units[name] = "count/op"
    metrics = {name: (value, units[name]) for name, value in per_op.items()}
    notes = [
        f"traced {ops} ops; layer spans cover "
        f"{100 * ratio(r.covered_s, r.root_s):.1f}% of op wall time, "
        f"{(r.root_s - r.covered_s) / ops * 1e3:.2f} ms/op unattributed",
        f"tracing overhead: {ratio(traced.ok, traced.wall_s):.3f} apps/s "
        f"traced vs {ratio(untraced.ok, untraced.wall_s):.3f} untraced",
    ]
    return metrics, notes


def fleet_jobs(seconds: float) -> int:
    """At least 16 jobs, so the tail percentile exists."""
    return max(16, round(seconds * RATES["fleet-drain"]))


def measure(workload: str, data: dict, corpus_stem: str, seed: int,
            ops: int, boots: int, trace: bool, deadline: float):
    import loops

    if workload == "fleet-drain":
        return loops.fleet_drain(data, ops, boots, trace, deadline)
    return loops.closed_loop(workload, corpus_stem, ops, seed, boots,
                             trace, deadline)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RATES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"run.py: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    import corpus

    apps = fleet_jobs(args.seconds) if args.workload == "fleet-drain" else 0
    data, stem = corpus.load(args.workload, args.seed, apps, WORK)
    print(f"corpus {args.workload} seed {args.seed}: {len(data['apps'])} "
          f"apps, sha256 {corpus.digest(data)}")
    ops = len(data["apps"]) if args.workload == "fleet-drain" else \
        corpus.ops_for(args.seconds, RATES[args.workload], len(data["apps"]))
    if args.trace:
        # A traced run measures the first half of the work twice.
        ops //= 2
    try:
        untraced = measure(args.workload, data, stem, args.seed, ops,
                           1 if args.trace else SETUP_BOOTS, False, deadline)
        runs = [untraced]
        if args.trace:
            traced = measure(args.workload, data, stem, args.seed, ops,
                             1, True, deadline)
            runs.append(traced)
            metrics, notes = ledger(args.workload, untraced, traced)
        else:
            metrics, notes = end_to_end(untraced)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    attempted = sum(m.attempted for m in runs)
    failures = [f for m in runs for f in m.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        shown = "-" if value is None else f"{value:.6f}"
        print(f"{name:28s} {shown:>14s} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
