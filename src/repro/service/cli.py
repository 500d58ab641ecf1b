"""``python -m repro.service`` — batch reveal and the job server CLI.

Usage::

    python -m repro.service reveal-batch                      # F-Droid corpus
    python -m repro.service reveal-batch --corpus aosp --workers 4
    python -m repro.service reveal-batch --cache-dir /tmp/dexlego-cache
    python -m repro.service reassemble /path/to/archive --out revealed.dex

    # The job server, over a shared on-disk JobStore:
    python -m repro.service submit --store /tmp/q --corpus fdroid --limit 2
    python -m repro.service serve  --store /tmp/q --workers 2
    python -m repro.service status --store /tmp/q
    python -m repro.service watch  --store /tmp/q --follow

    # The HTTP gateway and the worker fleet over the same store:
    python -m repro.service gateway --store /tmp/q --port 8080
    python -m repro.service worker  --store /tmp/q --linger 60
    python -m repro.service submit  --url http://127.0.0.1:8080 --limit 2

    # The corpus index (cross-app method dedup):
    python -m repro.service reveal-batch --index-dir /tmp/idx
    python -m repro.service index build --index-dir /tmp/idx /path/to/archive
    python -m repro.service index query --index-dir /tmp/idx --signature SIG
    python -m repro.service index stats --index-dir /tmp/idx

    # Family clustering and auto-labeling over the index:
    python -m repro.service reveal-batch --cluster-dir /tmp/fam
    python -m repro.service cluster build --index-dir /tmp/idx \
        --cluster-dir /tmp/fam
    python -m repro.service cluster label --cluster-dir /tmp/fam /path/to/archive
    python -m repro.service cluster neighbors --cluster-dir /tmp/fam --digest D
    python -m repro.service cluster stats --cluster-dir /tmp/fam

``reveal-batch`` builds the requested benchsuite corpus, runs it
through a :class:`~repro.service.batch.BatchRevealService`, prints one
row per application (status, cache provenance, latency, dump size) and
the aggregate throughput block.  Exit status is 0 when every app
resolved to a deterministic outcome (``ok``/``crashed``/
``budget-exceeded``), and 1 when any app errored or failed
verification **or** no app at all resolved ``ok`` (an all-failure
report must not look like success to a calling script — mirroring the
``reassemble`` error path).

``reassemble`` runs only the offline half of the pipeline
(:func:`~repro.core.pipeline.reveal_from_archive`) over a directory of
saved collection files — re-running reassembly after a reassembler fix
without re-driving the application — and writes the verified DEX to
``--out``.

The server subcommands speak through a
:class:`~repro.service.jobs.JobStore` directory, so they compose across
processes: ``submit`` journals queued job records (no server needed),
``serve`` drains the store with ``--workers`` lease-pulling
:class:`~repro.service.worker.RevealWorker` threads — the same drain
loop as one ``worker`` process, so jobs a killed ``serve`` or worker
still owed are reclaimed once their lease expires — and exits cleanly
(``--linger`` keeps it polling for new submissions), ``status``
renders the journal, and ``watch`` prints the unified event stream
(``--follow`` tails it).
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time

from repro.core.config import RevealConfig
from repro.core.exploration import (
    ALL_STRATEGIES,
    BACKEND_SERIAL,
    EXPLORE_BACKENDS,
    STRATEGY_BFS,
)
from repro.service.batch import BatchRevealService, RevealJob
from repro.service.cli_contract import (
    EXIT_OK,
    EXIT_USAGE,
    exit_for_failures,
    failure,
    usage_error,
)
from repro.service.jobs import (
    LEASE_TTL_DEFAULT_S,
    PRIORITIES,
    STORE_FORMAT_VERSION,
    JobHandle,
    JobState,
    JobStore,
    resolve_priority,
)
from repro.service.outcomes import FAILED_STATUSES

CORPORA = ("fdroid", "aosp", "launch", "packed", "droidbench")


def build_corpus_jobs(corpus: str, limit: int | None = None) -> list[RevealJob]:
    """Materialise one named benchsuite corpus as reveal jobs.

    ``limit`` caps *generation*, not just the returned list, for the
    spec-driven corpora: ``--limit 1`` must not pay for synthesising
    the four apps it will never reveal.
    """
    jobs: list[RevealJob] = []
    if corpus == "fdroid":
        from repro.benchsuite.fdroid_apps import (
            FDROID_APP_SPECS,
            build_fdroid_app,
        )

        specs = FDROID_APP_SPECS if limit is None else FDROID_APP_SPECS[:limit]
        jobs = [RevealJob(pkg, build_fdroid_app(pkg).apk)
                for pkg, *_ in specs]
    elif corpus == "aosp":
        from repro.benchsuite.aosp_apps import AOSP_APP_SPECS, build_aosp_app

        specs = AOSP_APP_SPECS if limit is None else AOSP_APP_SPECS[:limit]
        jobs = [RevealJob(name, build_aosp_app(name).apk)
                for name, *_ in specs]
    elif corpus == "launch":
        from repro.benchsuite import all_launch_apps

        jobs = [RevealJob(app.package, app.apk) for app in all_launch_apps()]
    elif corpus == "packed":
        from repro.benchsuite import all_market_apps

        jobs = [RevealJob(app.package, app.packed_apk)
                for app in all_market_apps()]
    elif corpus == "droidbench":
        from repro.benchsuite import droidbench_samples

        jobs = [
            RevealJob(sample.name, sample.build_apk(), device=sample.device)
            for sample in droidbench_samples()
        ]
    else:
        raise ValueError(f"unknown corpus {corpus!r}; pick one of {CORPORA}")
    if limit is not None:
        jobs = jobs[:limit]
    return jobs


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    """Pipeline knobs shared by ``reveal-batch`` and ``serve``."""
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result-cache directory")
    parser.add_argument("--index-dir", default=None,
                        help="persistent corpus-index directory: method "
                             "bodies other apps already revealed are "
                             "replayed instead of re-emitted, and every "
                             "reveal registers its methods back")
    parser.add_argument("--cluster-dir", default=None,
                        help="persistent cluster-store directory: every "
                             "reveal is auto-labeled with its family and "
                             "nearest-known-method evidence, then absorbed "
                             "for future labeling")
    parser.add_argument("--force-execution", action="store_true",
                        help="enable the code coverage improvement module")
    parser.add_argument("--budget", type=int, default=2_000_000,
                        help="interpreter step budget per run")
    parser.add_argument("--strategy", choices=ALL_STRATEGIES,
                        default=STRATEGY_BFS,
                        help="force-execution frontier order "
                             "(default: bfs)")
    parser.add_argument("--max-paths", type=int, default=None,
                        help="total replay budget for force execution "
                             "(default: unbounded)")
    parser.add_argument("--path-budget", type=int, default=None,
                        help="interpreter step budget per replay "
                             "(default: same as --budget)")
    parser.add_argument("--explore-workers", type=int, default=1,
                        help="worker processes replaying one wave of "
                             "path files under --explore-backend process "
                             "(default: 1)")
    parser.add_argument("--explore-backend", choices=EXPLORE_BACKENDS,
                        default=BACKEND_SERIAL,
                        help="how a wave of replays executes: serial or "
                             "process workers — results are "
                             "bit-identical either way (default: serial)")


def registry_warmer():
    """A once-per-app native-library warmer over journalled records.

    Generated corpus apps register their native libraries as a
    process-global side effect of generation; journalled APK bytes
    carry only the library *names*.  The returned callable regenerates
    each app named in a record's ``meta.corpus`` once, so the process
    executing it (``serve`` loop or fleet ``worker``) can run its
    native methods — per-app for the spec-driven corpora, whole-corpus
    otherwise.
    """
    warmed: set[tuple[str, str]] = set()

    def warm(records: list[dict]) -> None:
        for record in records:
            corpus = record.get("meta", {}).get("corpus")
            key = (corpus or "", record.get("app_id", ""))
            if not corpus or key in warmed:
                continue
            warmed.add(key)
            try:
                if corpus == "fdroid":
                    from repro.benchsuite.fdroid_apps import build_fdroid_app

                    build_fdroid_app(record["app_id"])
                elif corpus == "aosp":
                    from repro.benchsuite.aosp_apps import build_aosp_app

                    build_aosp_app(record["app_id"])
                elif (corpus, "") not in warmed:
                    warmed.add((corpus, ""))
                    build_corpus_jobs(corpus)
            except Exception:
                pass  # unknown corpus/app: its jobs run without natives

    return warm


def _service_from(args, workers: int | None = None) -> BatchRevealService:
    config = RevealConfig(
        use_force_execution=args.force_execution,
        run_budget=args.budget,
        exploration_strategy=args.strategy,
        max_paths=args.max_paths,
        path_budget=args.path_budget,
        explore_workers=args.explore_workers,
        explore_backend=args.explore_backend,
        index_dir=args.index_dir,
        cluster_dir=args.cluster_dir,
    )
    return BatchRevealService(config=config, workers=workers,
                              cache_dir=args.cache_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Corpus-scale DexLego: batch reveal and the job server.",
    )
    sub = parser.add_subparsers(dest="command")
    batch = sub.add_parser(
        "reveal-batch",
        help="reveal a benchsuite corpus through the batch service",
    )
    batch.add_argument("--corpus", choices=CORPORA, default="fdroid",
                       help="which benchsuite corpus to reveal")
    batch.add_argument("--limit", type=int, default=None,
                       help="cap the corpus at the first N apps")
    batch.add_argument("--workers", type=int, default=2,
                       help="worker-pool size (default: 2)")
    _add_pipeline_flags(batch)
    batch.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")
    reasm = sub.add_parser(
        "reassemble",
        help="offline reassembly over saved collection files (no drive)",
    )
    reasm.add_argument("archive",
                       help="directory of collection files saved by the "
                            "collect stage (class_data.json, bytecode.json, ...)")
    reasm.add_argument("--out", default=None,
                       help="path for the emitted DEX "
                            "(default: <archive>/reassembled.dex)")
    reasm.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")

    serve = sub.add_parser(
        "serve",
        help="boot a reveal server against a job store and drain it",
    )
    serve.add_argument("--store", required=True,
                       help="job-store directory (shared with submit/status)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker-pool size (default: 2)")
    serve.add_argument("--linger", type=float, default=0.0,
                       help="after draining, keep polling the store for new "
                            "submissions for this many seconds (default: "
                            "exit once drained)")
    serve.add_argument("--poll-interval", type=float, default=0.5,
                       help="store poll period while lingering (default: 0.5s)")
    _add_pipeline_flags(serve)
    serve.add_argument("--json", action="store_true",
                       help="emit a machine-readable run summary")

    submit = sub.add_parser(
        "submit",
        help="journal corpus jobs into a store (no server required) "
             "or POST them to a gateway with --url",
    )
    submit.add_argument("--store", default=None,
                        help="job-store directory the server will drain")
    submit.add_argument("--url", default=None,
                        help="submit over HTTP to a running gateway "
                             "instead of writing the store directly")
    submit.add_argument("--token", default=None,
                        help="bearer token for a tenant-scoped gateway "
                             "(--url only)")
    submit.add_argument("--corpus", choices=CORPORA, default="fdroid",
                        help="which benchsuite corpus to submit")
    submit.add_argument("--limit", type=int, default=None,
                        help="cap the corpus at the first N apps")
    submit.add_argument("--priority", choices=sorted(PRIORITIES),
                        default="normal",
                        help="priority lane for these jobs (default: normal)")
    submit.add_argument("--collect-only", action="store_true",
                        help="run only the JIT-collection half")
    submit.add_argument("--json", action="store_true",
                        help="emit the submitted job ids as JSON")

    gateway = sub.add_parser(
        "gateway",
        help="serve the HTTP reveal API in front of a job store",
    )
    gateway.add_argument("--store", required=True,
                         help="job-store directory the fleet shares")
    gateway.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    gateway.add_argument("--port", type=int, default=8080,
                         help="bind port; 0 picks an ephemeral one "
                              "(default: 8080)")
    gateway.add_argument("--tenant", action="append", default=None,
                         metavar="TOKEN:NAME",
                         help="add one tenant (repeatable); with any "
                              "--tenant, requests must send "
                              "'Authorization: Bearer TOKEN'")
    gateway.add_argument("--rate-limit", type=int, default=None,
                         help="per-tenant requests per minute "
                              "(default: unlimited)")
    gateway.add_argument("--max-active", type=int, default=None,
                         help="per-tenant cap on jobs queued or running "
                              "(default: unlimited)")
    gateway.add_argument("--duration", type=float, default=None,
                         help="serve for this many seconds then exit "
                              "(default: until interrupted)")
    gateway.add_argument("--json", action="store_true",
                         help="announce the bound URL as JSON")

    worker = sub.add_parser(
        "worker",
        help="join the worker fleet: lease jobs from a store and "
             "reveal them",
    )
    worker.add_argument("--store", required=True,
                        help="job-store directory the fleet shares")
    worker.add_argument("--worker-id", default=None,
                        help="stable fleet identity "
                             "(default: host-pid-random)")
    worker.add_argument("--lease-ttl", type=float,
                        default=LEASE_TTL_DEFAULT_S,
                        help="seconds a lease survives without a "
                             f"heartbeat (default: {LEASE_TTL_DEFAULT_S})")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after this many jobs (default: "
                             "drain the store)")
    worker.add_argument("--linger", type=float, default=0.0,
                        help="after draining, keep polling for new work "
                             "this many seconds (default: exit once "
                             "drained)")
    worker.add_argument("--poll-interval", type=float, default=0.5,
                        help="store poll period while lingering "
                             "(default: 0.5s)")
    _add_pipeline_flags(worker)
    worker.add_argument("--json", action="store_true",
                        help="emit a machine-readable drain report")

    index_p = sub.add_parser(
        "index",
        help="build, query and summarise a persistent corpus index",
    )
    index_sub = index_p.add_subparsers(dest="index_command")
    ibuild = index_sub.add_parser(
        "build",
        help="register saved collection archives into a corpus index",
    )
    ibuild.add_argument("--index-dir", required=True,
                        help="corpus-index directory (created if absent)")
    ibuild.add_argument("archives", nargs="+",
                        help="collection-archive directories to register")
    ibuild.add_argument("--app-id", default=None,
                        help="app id the archives are registered under "
                             "(default: each archive's directory name)")
    ibuild.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    iquery = index_sub.add_parser(
        "query",
        help="look up methods in a corpus index by digest or signature",
    )
    iquery.add_argument("--index-dir", required=True,
                        help="corpus-index directory to read")
    iquery.add_argument("--exact", default=None,
                        help="canonical bytecode digest to look up")
    iquery.add_argument("--norm", default=None,
                        help="normalized (register/pool-insensitive) "
                             "digest to look up")
    iquery.add_argument("--signature", default=None,
                        help="method signature to look up")
    iquery.add_argument("--nearest", default=None,
                        help="fuzzy digest: rank the corpus by "
                             "similarity distance to it")
    iquery.add_argument("--limit", type=int, default=5,
                        help="result cap for --nearest (default: 5)")
    iquery.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    istats = index_sub.add_parser(
        "stats",
        help="summarise a corpus index (apps, methods, digests, bodies)",
    )
    istats.add_argument("--index-dir", required=True,
                        help="corpus-index directory to read")
    istats.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")

    cluster_p = sub.add_parser(
        "cluster",
        help="family clustering, LSH nearest-neighbor and auto-labels "
             "over a corpus index",
    )
    cluster_sub = cluster_p.add_subparsers(dest="cluster_command")
    cbuild = cluster_sub.add_parser(
        "build",
        help="absorb a corpus index into a cluster store and "
             "(re)compute family assignments",
    )
    cbuild.add_argument("--index-dir", required=True,
                        help="corpus-index directory to cluster")
    cbuild.add_argument("--cluster-dir", required=True,
                        help="cluster-store directory (created if absent)")
    cbuild.add_argument("--threshold", type=float, default=None,
                        help="weighted-Jaccard similarity at which two "
                             "apps join one family (default: 0.5)")
    cbuild.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    clabel = cluster_sub.add_parser(
        "label",
        help="auto-label a saved collection archive against a "
             "cluster store (read-only)",
    )
    clabel.add_argument("archive",
                        help="collection-archive directory to label")
    clabel.add_argument("--cluster-dir", required=True,
                        help="cluster-store directory to label against")
    clabel.add_argument("--index-dir", default=None,
                        help="corpus index supplying apps_with_norm "
                             "provenance (default: the cluster store's "
                             "own members)")
    clabel.add_argument("--app-id", default=None,
                        help="app id the archive is labeled as "
                             "(default: the archive's directory name)")
    clabel.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    cneigh = cluster_sub.add_parser(
        "neighbors",
        help="rank cluster members by fuzzy distance to a digest "
             "(banded LSH; --exhaustive scans linearly)",
    )
    cneigh.add_argument("--cluster-dir", required=True,
                        help="cluster-store directory to read")
    cneigh.add_argument("--digest", required=True,
                        help="fuzzy digest to rank against")
    cneigh.add_argument("--limit", type=int, default=5,
                        help="result cap (default: 5)")
    cneigh.add_argument("--exhaustive", action="store_true",
                        help="bypass the LSH buckets and scan every "
                             "member (the oracle path)")
    cneigh.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    cstats = cluster_sub.add_parser(
        "stats",
        help="summarise a cluster store (members, families, LSH shape)",
    )
    cstats.add_argument("--cluster-dir", required=True,
                        help="cluster-store directory to read")
    cstats.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")

    status = sub.add_parser(
        "status",
        help="render a job store's journal (states, waits, outcomes)",
    )
    status.add_argument("--store", required=True,
                        help="job-store directory to inspect")
    status.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of a table")

    watch = sub.add_parser(
        "watch",
        help="print the unified event stream from a store's journal",
    )
    watch.add_argument("--store", required=True,
                       help="job-store directory to watch")
    watch.add_argument("--follow", action="store_true",
                       help="keep tailing until every job is terminal")
    watch.add_argument("--timeout", type=float, default=60.0,
                       help="give up following after this many seconds "
                            "(default: 60)")
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "reassemble":
        return _run_reassemble(args)
    if args.command == "index":
        return _run_index(args, parser)
    if args.command == "cluster":
        return _run_cluster(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "gateway":
        return _run_gateway(args)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "watch":
        return _run_watch(args)

    jobs = build_corpus_jobs(args.corpus, args.limit)
    try:
        service = _service_from(args, workers=args.workers)
    except OSError as exc:
        return usage_error(f"cannot use cache dir {args.cache_dir!r}: {exc}")
    report = service.reveal_batch(jobs)

    if args.json:
        print(json.dumps(
            {
                "corpus": args.corpus,
                "summary": report.summary(),
                "outcomes": [o.to_summary() for o in report.outcomes],
            },
            indent=2,
        ))
    else:
        # Deferred import: repro.harness imports this package back.
        from repro.harness.tables import human_size, render_table

        rows = [
            [
                o.app_id,
                o.status,
                "hit" if o.cache_hit else "miss",
                f"{o.latency_s * 1000:.1f}ms",
                human_size(o.dump_size_bytes),
                o.error[:60],
            ]
            for o in report.outcomes
        ]
        print(render_table(
            f"Batch reveal — {args.corpus} corpus",
            ["App", "Status", "Cache", "Latency", "Dump Size", "Detail"],
            rows,
        ))
        print()
        print(report.render())

    if any(o.status in FAILED_STATUSES for o in report.outcomes):
        return failure()
    # An all-failure report (nothing resolved ``ok``) must not exit 0:
    # a calling script would read total failure as success.
    if report.total and report.ok_count == 0:
        return failure()
    return EXIT_OK


def _run_serve(args) -> int:
    """The ``serve`` subcommand: drain a job store, exit cleanly.

    ``--workers`` fleet workers, one thread each, share one pipeline
    service and claim from the store like ``worker`` processes do —
    fresh submissions and jobs a killed predecessor still owed alike
    — until it is drained (and, with ``--linger``, stays drained).
    """
    from repro.service.worker import RevealWorker

    try:
        store = JobStore(args.store)
        service = _service_from(args)
        workers = [RevealWorker(store, service=service,
                                poll_interval_s=args.poll_interval)
                   for _ in range(max(1, args.workers))]
    except OSError as exc:
        return usage_error(f"cannot use store {args.store!r}: {exc}")
    if not args.json:
        for worker in workers:
            worker.bus.add_observer(
                lambda e: print(f"[{e.seq:>4}] {e.kind:<10} {e.job_id} "
                                f"({e.app_id})"))
    totals = _drain(store, workers, args)
    processed = {state: totals[state]
                 for state in (JobState.DONE, JobState.FAILED,
                               JobState.CANCELLED) if totals[state]}
    if args.json:
        print(json.dumps({"store": args.store, "jobs": processed}, indent=2))
    else:
        breakdown = "  ".join(f"{s}={n}" for s, n in processed.items()) \
            or "(nothing queued)"
        print(f"serve: drained {sum(processed.values())} job(s) "
              f"[{breakdown}]; clean shutdown")
    # Mirror reveal-batch's exit-code contract: a drain that left
    # failed jobs behind must not look like success to the caller.
    return exit_for_failures(totals["failed"])


def _drain(store: JobStore, workers: list, args) -> dict:
    """The drain loop ``serve`` and ``worker`` share.

    Each sweep warms the native registries for what the store holds,
    then runs every worker until nothing is claimable: the first on
    the calling thread, each other one on a thread of its own.  Sweeps
    repeat until the store has stayed drained for ``--linger`` seconds
    or ``--max-jobs`` were processed, so corpus jobs submitted while
    lingering still find their native libraries registered.  Returns
    the workers' summed report counters.
    """
    warm_native_registries = registry_warmer()
    max_jobs = getattr(args, "max_jobs", None)
    totals = {"processed": 0, "done": 0, "failed": 0,
              "cancelled": 0, "lost": 0}
    deadline = time.monotonic() + max(0.0, args.linger)
    while True:
        warm_native_registries(store.load_all())
        remaining = (None if max_jobs is None
                     else max_jobs - totals["processed"])
        reports = [None] * len(workers)

        def sweep(i: int) -> None:
            reports[i] = workers[i].run(max_jobs=remaining)

        # Daemon threads: an interrupted drain exits without waiting
        # for their jobs, whose leases then expire into other hands.
        threads = [threading.Thread(target=sweep, args=(i,), daemon=True,
                                    name=f"serve-worker-{i}")
                   for i in range(1, len(workers))]
        for thread in threads:
            thread.start()
        sweep(0)
        for thread in threads:
            thread.join()
        before = totals["processed"]
        for report in reports:
            if report is not None:  # None: its thread died (see stderr)
                for key in totals:
                    totals[key] += getattr(report, key)
        if totals["processed"] > before:
            deadline = time.monotonic() + max(0.0, args.linger)
        if max_jobs is not None and totals["processed"] >= max_jobs:
            break
        if time.monotonic() >= deadline:
            break
        time.sleep(min(args.poll_interval,
                       max(0.0, deadline - time.monotonic())))
    return totals


def _run_submit(args) -> int:
    """The ``submit`` subcommand: journal queued records (``--store``)
    or POST them to a running gateway (``--url``)."""
    if bool(args.store) == bool(args.url):
        return usage_error("pass exactly one of --store or --url")
    try:
        jobs = build_corpus_jobs(args.corpus, args.limit)
    except ValueError as exc:
        return usage_error(str(exc))
    lane = resolve_priority(args.priority)
    job_ids = []
    if args.url:
        from repro.service.http_client import GatewayClient, GatewayError

        client = GatewayClient(args.url, token=args.token)
        try:
            for job in jobs:
                job.collect_only = args.collect_only
                handle = client.submit(job, priority=lane,
                                       meta={"corpus": args.corpus})
                job_ids.append({"job_id": handle.job_id,
                                "app_id": job.app_id})
        except GatewayError as exc:
            return usage_error(str(exc))
        except OSError as exc:
            return usage_error(f"cannot reach gateway {args.url!r}: {exc}")
        target = args.url
    else:
        try:
            store = JobStore(args.store)
        except OSError as exc:
            return usage_error(f"cannot use store {args.store!r}: {exc}")
        bus = store.event_bus()
        for job in jobs:
            record = store.submit(
                bus, app_id=job.app_id, apk=job.apk, priority=lane,
                collect_only=args.collect_only, cache_salt=job.cache_salt,
                device=job.device, metadata={"corpus": args.corpus},
            )
            job_ids.append({"job_id": record["job_id"],
                            "app_id": job.app_id})
        target = args.store
    if args.json:
        print(json.dumps({"target": target, "store": args.store,
                          "url": args.url, "submitted": job_ids},
                         indent=2))
    else:
        for entry in job_ids:
            print(f"queued {entry['job_id']} ({entry['app_id']})")
        print(f"submitted {len(job_ids)} job(s) to {target}")
    return EXIT_OK


def _run_gateway(args) -> int:
    """The ``gateway`` subcommand: HTTP front end over one store."""
    from repro.service.gateway import RevealGateway

    tenants: dict[str, str] = {}
    for spec in args.tenant or ():
        token, sep, name = spec.partition(":")
        if not sep or not token or not name:
            return usage_error(f"--tenant expects TOKEN:NAME, "
                               f"got {spec!r}")
        tenants[token] = name
    try:
        gateway = RevealGateway(
            JobStore(args.store),
            host=args.host, port=args.port,
            tenants=tenants or None,
            rate_limit_per_min=args.rate_limit,
            max_active_per_tenant=args.max_active,
        ).start()
    except OSError as exc:
        return usage_error(f"cannot serve store {args.store!r}: {exc}")
    if args.json:
        print(json.dumps({"url": gateway.url, "store": args.store,
                          "tenants": sorted(tenants.values())}),
              flush=True)
    else:
        print(f"gateway listening on {gateway.url} "
              f"(store {args.store})", flush=True)
    try:
        if args.duration is None:
            while True:
                time.sleep(3600)
        else:
            time.sleep(max(0.0, args.duration))
    except KeyboardInterrupt:
        pass
    finally:
        gateway.close()
    return EXIT_OK


def _run_worker(args) -> int:
    """The ``worker`` subcommand: one fleet member draining a store."""
    from repro.service.worker import RevealWorker

    try:
        store = JobStore(args.store)
        service = _service_from(args)
        worker = RevealWorker(
            store, service=service, worker_id=args.worker_id,
            lease_ttl_s=args.lease_ttl,
            poll_interval_s=args.poll_interval,
        )
    except OSError as exc:
        return usage_error(f"cannot use store {args.store!r}: {exc}")
    if not args.json:
        worker.bus.add_observer(
            lambda e: e.terminal and print(
                f"[{worker.worker_id}] finished {e.job_id}"))
    totals = _drain(store, [worker], args)
    if args.json:
        print(json.dumps({"store": args.store,
                          "worker_id": worker.worker_id, **totals},
                         indent=2))
    else:
        breakdown = "  ".join(f"{k}={n}" for k, n in totals.items() if n) \
            or "(nothing claimed)"
        print(f"worker {worker.worker_id}: {totals['processed']} job(s) "
              f"[{breakdown}]")
    return exit_for_failures(totals["failed"])


def _open_store_readonly(path: str) -> JobStore | None:
    """A store for inspection commands: never create the directory —
    a typo'd path must error, not masquerade as an empty queue — and
    refuse stores written by a different format version, which
    ``load_all`` would silently skip (``watch --follow`` would then
    tail an apparently-empty queue until its timeout)."""
    if not os.path.isdir(os.path.join(path, "jobs")):
        # Covers a nonexistent path, a plain file, and a real directory
        # that simply is not a store — none of which may be mutated
        # (JobStore would otherwise scaffold ``jobs/`` inside it).
        usage_error(f"no job store at {path!r}")
        return None
    try:
        store = JobStore(path, create=False)
        foreign = store.foreign_version_jobs()
    except OSError as exc:
        usage_error(f"cannot read store {path!r}: {exc}")
        return None
    if foreign:
        job_id, version = foreign[0]
        usage_error(f"store {path!r} holds {len(foreign)} record(s) with "
                    f"format version {version!r} (e.g. {job_id}); this "
                    f"build reads version {STORE_FORMAT_VERSION}")
        return None
    return store


def _run_status(args) -> int:
    """The ``status`` subcommand: the journal as a table (or JSON).

    Rows are :meth:`JobHandle.to_dict` — the same wire shape the
    gateway's ``GET /v1/jobs/<id>`` serves, so scripts parse one
    vocabulary whichever surface they read.
    """
    store = _open_store_readonly(args.store)
    if store is None:
        return EXIT_USAGE
    rows = [JobHandle.from_record(record).to_dict()
            for record in store.load_all()]
    if args.json:
        counts: dict[str, int] = {}
        for row in rows:
            counts[row["state"]] = counts.get(row["state"], 0) + 1
        print(json.dumps({"store": args.store, "counts": counts,
                          "jobs": rows}, indent=2))
        return 0
    from repro.harness.tables import render_table

    print(render_table(
        f"Job store — {args.store}",
        ["Job", "App", "State", "Wait", "Run", "Status", "Detail"],
        [
            [
                row["job_id"],
                row["app_id"],
                row["state"],
                f"{row['queue_wait_s'] * 1000:.1f}ms",
                f"{row['run_s'] * 1000:.1f}ms",
                row["status"],
                row["error"][:40],
            ]
            for row in rows
        ],
    ))
    return 0


def _run_watch(args) -> int:
    """The ``watch`` subcommand: print (and optionally tail) events."""
    store = _open_store_readonly(args.store)
    if store is None:
        return EXIT_USAGE

    def render(event: dict) -> str:
        payload = event.get("payload", {})
        detail = ""
        if event.get("kind") == "stage":
            detail = (f" {payload.get('stage')} "
                      f"{payload.get('duration_s', 0) * 1000:.1f}ms")
        elif event.get("kind") == "wave":
            detail = (f" wave={payload.get('wave_size')} "
                      f"explored={payload.get('paths_explored')}")
        elif event.get("kind") in ("done", "failed"):
            detail = f" status={payload.get('status', '')}"
        return (f"[{event.get('seq', 0):>4}] {event.get('kind', '?'):<10} "
                f"{event.get('job_id', '?')} ({event.get('app_id', '')})"
                f"{detail}")

    if not args.follow:
        for event in store.events():
            print(render(event))
        return 0

    # Follow mode tails the journal incrementally (one seek per idle
    # poll, not a whole-file re-parse) and only re-reads job records
    # when a terminal event suggests the queue may have drained.
    offset = 0
    check_terminal = True
    deadline = time.monotonic() + max(0.0, args.timeout)
    while True:
        events, offset = store.tail_events(offset)
        for event in events:
            print(render(event))
        check_terminal = check_terminal or any(
            e.get("kind") in ("done", "failed", "cancelled")
            for e in events
        )
        if check_terminal:
            records = store.load_all()
            if records and all(r.get("state") in JobState.TERMINAL
                               for r in records):
                break
            check_terminal = False
        if time.monotonic() >= deadline:
            return failure("watch: timeout with jobs still pending")
        time.sleep(0.2)
    return EXIT_OK


def _open_index_readonly(path: str):
    """A corpus index for query/stats: never create the directory — a
    typo'd path must error, not render an empty index — and surface
    format-version refusals as one-line diagnostics."""
    from repro.index.corpus import CorpusIndex

    try:
        return CorpusIndex(path, create=False)
    except FileNotFoundError:
        usage_error(f"no corpus index at {path!r}")
        return None
    except OSError as exc:
        usage_error(f"cannot read index {path!r}: {exc}")
        return None
    except ValueError as exc:
        usage_error(str(exc))
        return None


def _run_index(args, parser) -> int:
    """The ``index`` subcommand group: build / query / stats.

    Mirrors ``reassemble``'s error contract: bad input (missing
    archive, foreign index version, malformed digest) exits 2 with a
    one-line diagnostic, reassembly failures exit 1, tracebacks never
    escape.
    """
    if args.index_command is None:
        return usage_error("usage: python -m repro.service index "
                           "{build,query,stats} ...")
    if args.index_command == "build":
        return _run_index_build(args)
    if args.index_command == "query":
        return _run_index_query(args)
    return _run_index_stats(args)


def _run_index_build(args) -> int:
    from repro.core.collection_files import CollectionArchive
    from repro.core.stages import ReassembleStage
    from repro.errors import StageError
    from repro.index.corpus import CorpusIndex

    try:
        index = CorpusIndex(args.index_dir)
    except OSError as exc:
        return usage_error(f"cannot use index {args.index_dir!r}: {exc}")
    except ValueError as exc:
        return usage_error(str(exc))
    stage = ReassembleStage(index=index)
    registered = []
    try:
        for path in args.archives:
            app_id = args.app_id or os.path.basename(os.path.normpath(path))
            try:
                archive = CollectionArchive.load(path)
                _dex, stats = stage.run(archive, app_id=app_id,
                                        artifact=path)
            except OSError as exc:
                return usage_error(f"cannot read archive {path!r}: {exc}")
            except ValueError as exc:
                return usage_error(f"corrupt archive {path!r}: {exc}")
            except StageError as err:
                return failure(f"reassembly failed in the {err.stage} "
                               f"stage for {path!r}: {err.cause}")
            registered.append({"archive": path, "app_id": app_id,
                               **stats})
    finally:
        index.close()
    if args.json:
        print(json.dumps({"index_dir": args.index_dir,
                          "registered": registered,
                          "stats": index.stats()}, indent=2))
    else:
        for entry in registered:
            print(f"registered {entry['app_id']} ({entry['archive']}): "
                  f"{entry.get('corpus_known', 0)} known / "
                  f"{entry.get('corpus_new', 0)} new method(s), "
                  f"{entry.get('bodies_replayed', 0)} replayed body(ies)")
        stats = index.stats()
        print(f"index now holds {stats['methods']} method(s) across "
              f"{stats['apps']} app(s)")
    return 0


def _run_index_query(args) -> int:
    index = _open_index_readonly(args.index_dir)
    if index is None:
        return EXIT_USAGE
    selectors = [name for name in ("exact", "norm", "signature", "nearest")
                 if getattr(args, name)]
    if len(selectors) != 1:
        return usage_error("pass exactly one of --exact / --norm / "
                           "--signature / --nearest")
    mode = selectors[0]
    try:
        if mode == "exact":
            results = [(None, e) for e in index.lookup_exact(args.exact)]
        elif mode == "norm":
            results = [(None, e) for e in index.lookup_norm(args.norm)]
        elif mode == "signature":
            results = [(None, e)
                       for e in index.lookup_signature(args.signature)]
        else:
            # Accelerate the similarity ranking with the banded LSH;
            # candidates are rescored with the exact distance, so the
            # results match the linear scan.
            index.attach_lsh()
            results = index.nearest(args.nearest, limit=max(1, args.limit),
                                    kind=None)
    except ValueError as exc:
        return usage_error(f"bad digest: {exc}")
    if args.json:
        print(json.dumps({
            "index_dir": args.index_dir,
            "query": {mode: getattr(args, mode)},
            "results": [
                {**entry.to_dict(),
                 **({} if distance is None else {"distance": distance})}
                for distance, entry in results
            ],
        }, indent=2))
        return 0
    if not results:
        print("no matches")
        return 0
    for distance, entry in results:
        prefix = "" if distance is None else f"d={distance:<4} "
        target = entry.method if entry.method else entry.class_desc
        print(f"{prefix}{entry.kind:<6} {entry.app_id:<24} {target}")
    return 0


def _run_index_stats(args) -> int:
    index = _open_index_readonly(args.index_dir)
    if index is None:
        return EXIT_USAGE
    stats = index.stats()
    if args.json:
        print(json.dumps({"index_dir": args.index_dir, **stats}, indent=2))
    else:
        print(f"corpus index {args.index_dir} (format v{stats['version']})")
        print(f"  apps:          {stats['apps']}")
        print(f"  methods:       {stats['methods']}")
        print(f"  classes:       {stats['classes']}")
        print(f"  exact digests: {stats['exact_digests']}")
        print(f"  norm digests:  {stats['norm_digests']}")
        print(f"  bodies:        {stats['bodies']}")
        print(f"  segments:      {stats['segments']}")
        if stats["corrupt_lines"]:
            print(f"  corrupt lines skipped: {stats['corrupt_lines']}")
    return 0


def _open_cluster_readonly(path: str):
    """A cluster store for label/neighbors/stats: never create the
    directory — a typo'd path must error, not render an empty store —
    and surface format-version refusals as one-line diagnostics."""
    from repro.cluster.store import ClusterStore

    try:
        return ClusterStore(path, create=False)
    except FileNotFoundError:
        usage_error(f"no cluster store at {path!r}")
        return None
    except OSError as exc:
        usage_error(f"cannot read cluster store {path!r}: {exc}")
        return None
    except ValueError as exc:
        usage_error(str(exc))
        return None


def _run_cluster(args) -> int:
    """The ``cluster`` subcommand group: build / label / neighbors /
    stats, under the codified exit contract — bad input (missing
    store, foreign format version, malformed digest, unreadable
    archive) exits 2 with a one-line diagnostic, tracebacks never
    escape."""
    if args.cluster_command is None:
        return usage_error("usage: python -m repro.service cluster "
                           "{build,label,neighbors,stats} ...")
    if args.cluster_command == "build":
        return _run_cluster_build(args)
    if args.cluster_command == "label":
        return _run_cluster_label(args)
    if args.cluster_command == "neighbors":
        return _run_cluster_neighbors(args)
    return _run_cluster_stats(args)


def _run_cluster_build(args) -> int:
    from repro.cluster.families import DEFAULT_FAMILY_THRESHOLD
    from repro.cluster.store import ClusterStore

    index = _open_index_readonly(args.index_dir)
    if index is None:
        return EXIT_USAGE
    try:
        store = ClusterStore(args.cluster_dir)
    except OSError as exc:
        return usage_error(f"cannot use cluster store "
                           f"{args.cluster_dir!r}: {exc}")
    except ValueError as exc:
        return usage_error(str(exc))
    threshold = (DEFAULT_FAMILY_THRESHOLD if args.threshold is None
                 else args.threshold)
    if not 0.0 < threshold <= 1.0:
        return usage_error(f"--threshold must be in (0, 1], "
                           f"got {threshold}")
    try:
        absorbed = store.register_index(index)
        assignment = store.build_families(threshold=threshold)
    finally:
        store.close()
    stats = store.stats()
    if args.json:
        print(json.dumps({
            "cluster_dir": args.cluster_dir,
            "index_dir": args.index_dir,
            "absorbed": absorbed,
            "families": assignment.to_dict(),
            "stats": stats,
        }, indent=2))
        return 0
    print(f"absorbed {absorbed} member(s) from {args.index_dir}")
    print(f"{stats['apps']} app(s) -> {len(assignment.families)} "
          f"famil(ies) at threshold {assignment.threshold}")
    for family in assignment.families:
        members = ", ".join(family["apps"][:4])
        if family["size"] > 4:
            members += f", ... (+{family['size'] - 4})"
        print(f"  {family['family']}  size={family['size']:<3} {members}")
    return 0


def _run_cluster_label(args) -> int:
    from repro.cluster.labels import AutoLabeler
    from repro.core.collection_files import CollectionArchive

    store = _open_cluster_readonly(args.cluster_dir)
    if store is None:
        return EXIT_USAGE
    index = None
    if args.index_dir is not None:
        index = _open_index_readonly(args.index_dir)
        if index is None:
            return EXIT_USAGE
    try:
        archive = CollectionArchive.load(args.archive)
        records = archive.collector.method_store.executed_records()
    except OSError as exc:
        return usage_error(f"cannot read archive {args.archive!r}: {exc}")
    except ValueError as exc:
        return usage_error(f"corrupt archive {args.archive!r}: {exc}")
    app_id = args.app_id or os.path.basename(os.path.normpath(args.archive))
    verdict = AutoLabeler(store, index=index).label_records(records, app_id)
    if args.json:
        print(json.dumps({"cluster_dir": args.cluster_dir,
                          "archive": args.archive, "app_id": app_id,
                          **verdict}, indent=2))
        return 0
    family = verdict["family"] or "(no family)"
    print(f"{app_id}: {family} "
          f"(score {verdict['family_score']:.2f}, "
          f"{verdict['methods_known']} known + "
          f"{verdict['methods_near_miss']} near-miss of "
          f"{verdict['methods_total']} method(s))")
    for row in verdict["nearest"]:
        print(f"  d={row['distance']:<4} {row['kind']:<9} "
              f"{row['app_id']:<24} {row['match']}")
    return 0


def _run_cluster_neighbors(args) -> int:
    store = _open_cluster_readonly(args.cluster_dir)
    if store is None:
        return EXIT_USAGE
    try:
        results = store.nearest(args.digest, limit=max(1, args.limit),
                                exhaustive=args.exhaustive)
    except ValueError as exc:
        return usage_error(f"bad digest: {exc}")
    if args.json:
        print(json.dumps({
            "cluster_dir": args.cluster_dir,
            "digest": args.digest,
            "exhaustive": args.exhaustive,
            "results": [{**member.to_dict(), "distance": distance}
                        for distance, member in results],
        }, indent=2))
        return 0
    if not results:
        print("no members with fuzzy digests")
        return 0
    for distance, member in results:
        target = member.method if member.method else member.class_desc
        print(f"d={distance:<4} {member.kind:<6} {member.app_id:<24} "
              f"{target}")
    return 0


def _run_cluster_stats(args) -> int:
    store = _open_cluster_readonly(args.cluster_dir)
    if store is None:
        return EXIT_USAGE
    stats = store.stats()
    if args.json:
        print(json.dumps({"cluster_dir": args.cluster_dir, **stats},
                         indent=2))
        return 0
    print(f"cluster store {args.cluster_dir} (format v{stats['version']})")
    print(f"  apps:      {stats['apps']}")
    print(f"  members:   {stats['members']}")
    print(f"  families:  {stats['families']}"
          + (f" (threshold {stats['family_threshold']})"
             if stats["family_threshold"] is not None else ""))
    print(f"  segments:  {stats['segments']}")
    lsh = stats["lsh"]
    print(f"  lsh:       {lsh['items']} item(s) in {lsh['buckets']} "
          f"bucket(s) ({lsh['bands']} bands x {lsh['band_width']} chars, "
          f"largest bucket {lsh['largest_bucket']})")
    if stats["corrupt_lines"]:
        print(f"  corrupt lines skipped: {stats['corrupt_lines']}")
    return 0


def _run_reassemble(args) -> int:
    """The ``reassemble`` subcommand: archive dir → verified DEX file.

    Bad input never escapes as a traceback: an archive that cannot be
    read or does not parse exits 2, a reassembly failure exits 1, each
    with a one-line diagnostic.
    """
    from repro.core import reveal_from_archive
    from repro.dex.writer import write_dex
    from repro.errors import StageError

    try:
        result = reveal_from_archive(args.archive)
    except OSError as exc:
        return usage_error(f"cannot read archive {args.archive!r}: {exc}")
    except ValueError as exc:
        return usage_error(f"corrupt archive {args.archive!r}: {exc}")
    except StageError as err:
        return failure(f"reassembly failed in the {err.stage} stage: "
                       f"{err.cause}")

    dex = result.reassembled_dex
    payload = write_dex(dex)
    out = args.out or os.path.join(args.archive, "reassembled.dex")
    try:
        with open(out, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        return usage_error(f"cannot write DEX to {out!r}: {exc}")

    summary = {
        "archive": args.archive,
        "out": out,
        "dex_size_bytes": len(payload),
        "classes": len(dex.class_defs),
        "archive_size_bytes": result.dump_size_bytes,
        "stage_timings": {
            stage: round(seconds, 6)
            for stage, seconds in result.stage_timings.items()
        },
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        timings = " ".join(
            f"{stage}={seconds * 1000:.1f}ms"
            for stage, seconds in result.stage_timings.items()
        )
        print(f"reassembled {summary['classes']} classes "
              f"({summary['dex_size_bytes']} bytes) -> {out}")
        print(f"stages: {timings}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
