"""cProfile one full reveal and print the top cumulative-time functions.

Future perf PRs start from data, not vibes::

    make profile                 # default: first benchsuite F-Droid app
    PYTHONPATH=src python tools/profile_reveal.py --app <package> \\
        --top 30 --sort tottime --force-execution

The profiled call is ``BatchRevealService.reveal_one`` on one
benchsuite application, read from its APK bytes as a job carries it:
exactly what a server or fleet worker runs per app.  That is the
pipeline (collect -> reassemble -> verify -> repack) plus the service's
own work around it: the cache key, the dump size and the cache put.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--app", default=None,
        help="benchsuite F-Droid package to reveal (default: the first)",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="rows to print (default 20)"
    )
    parser.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key (default cumulative)",
    )
    parser.add_argument(
        "--force-execution", action="store_true",
        help="profile with force execution enabled (slower, deeper)",
    )
    parser.add_argument(
        "--out", default=None,
        help="also dump raw pstats data to this path (for snakeviz etc.)",
    )
    args = parser.parse_args(argv)

    from repro.benchsuite import FDROID_APP_SPECS, build_fdroid_app
    from repro.core import RevealConfig
    from repro.runtime import Apk
    from repro.service import BatchRevealService, RevealJob

    # Only the profiled app is generated: the larger ones take seconds.
    packages = [spec[0] for spec in FDROID_APP_SPECS]
    package = packages[0] if args.app is None else args.app
    if package not in packages:
        print(f"unknown app {package!r}; known: {', '.join(packages)}",
              file=sys.stderr)
        return 2
    app = build_fdroid_app(package)

    service = BatchRevealService(
        config=RevealConfig(use_force_execution=args.force_execution))
    job = RevealJob(app.package, Apk.from_bytes(app.apk.to_bytes()))

    profiler = cProfile.Profile()
    profiler.enable()
    outcome = service.reveal_one(job)
    profiler.disable()

    stats_snapshot = outcome.collector_stats
    print(f"revealed {app.package}: status={outcome.status} "
          f"methods={stats_snapshot.get('methods_executed')} "
          f"instructions={stats_snapshot.get('instructions_observed')} "
          f"dump_size_bytes={outcome.dump_size_bytes}")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw profile written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
