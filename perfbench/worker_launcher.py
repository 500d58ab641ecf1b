"""Start one fleet worker, timing the reference kernel after each job.

    python perfbench/worker_launcher.py --calibration-out FILE \\
        [--trace-out FILE] -- worker --store S ...

Everything after ``--`` goes to the ``python -m repro.service`` entry
point unchanged.  After every job the worker finishes (its
``finished_at`` is already stamped), the launcher takes one slowness
sample (``calibrate.py``) -- the median of eight after the first, the
set-up's warm-up job -- and appends it to the calibration file as one
JSON line, ``{"job": <id>, "slowness": <sample>}``.  With
``--trace-out`` the launcher also installs the same wrappers the
closed-loop host uses, and writes the worker's spans when the worker
exits: on its own or on SIGINT, which is how the benchmark stops it.
The samples are taken outside the ``run_one`` span.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import calibrate


def calibrate_jobs(out) -> None:
    """Sample the slowness after each job ``RevealWorker.run_one`` ran,
    one line to ``out`` each."""
    from repro.service.worker import RevealWorker

    run_one = RevealWorker.run_one
    jobs = []

    @functools.wraps(run_one)
    def calibrated(self, *args, **kwargs):
        status = run_one(self, *args, **kwargs)
        if status is not None:
            slowness = calibrate.median_sample(
                1 if jobs else calibrate.SETUP_SAMPLES)
            jobs.append(status[1])
            out.write(json.dumps({"job": status[1], "slowness": slowness})
                      + "\n")
            out.flush()
        return status
    RevealWorker.run_one = calibrated


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calibration-out", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv[:split])

    tracer = None
    if args.trace_out:
        import probes
        from spans import Tracer

        tracer = Tracer()
        probes.install(tracer)
    from repro.service.cli import main as service_main

    try:
        with open(args.calibration_out, "a", encoding="utf-8") as out:
            calibrate_jobs(out)
            return service_main(argv[split + 1:])
    except KeyboardInterrupt:
        return 0
    finally:
        if tracer is not None:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
