"""System-under-test host for the closed-loop workloads.

One process per run, started by ``run.py``: it imports the program,
boots the front end, runs one untimed warm-up op and prints ``READY``.
It then waits for one line on stdin, times the reference kernel
(``calibrate.py``) and prints ``CALIBRATED <slowness>`` for the set-up
measurement.  ``EXIT`` ends it there; ``GO`` reads the timed apps of
the corpus, runs the timed ops and writes them to ``--out``.  Before
``READY`` it reads only the warm-up app, so set-up time holds no
load-generator work.

* ``plain-server``: an in-process ``RevealServer(workers=1)`` with no
  store, index or cluster; one job outstanding at a time.  The server
  keeps no live results (``keep_results=False``, the lingering-server
  posture); the revealed APK is read back from its result cache for
  the oracle, and the cache is then replaced so the heap stays flat.
* ``force-library``: ``reveal_apk`` with force execution under a fixed
  replay budget, one call at a time.

Each op's APK is hydrated from bytes and one slowness sample is taken
just before the op, and its output is checked against the corpus oracle
just after it, all outside its timing.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import calibrate
import corpus


class PlainServer:
    root = "server.op"

    def __init__(self) -> None:
        from repro.service.batch import RevealJob
        from repro.service.cache import RevealCache
        from repro.service.server import RevealServer

        self._job = RevealJob
        self._cache = RevealCache
        self.server = RevealServer(workers=1, keep_results=False)

    def reveal(self, app_id: str, apk):
        handle = self.server.submit(self._job(app_id, apk))
        return handle, handle.wait()

    def settle(self, handle, outcome) -> tuple[object, str, float]:
        """(revealed DEX or None, error, queue wait) once the op ended."""
        from repro.runtime.apk import Apk

        if outcome is None or outcome.status != "ok":
            error = "no outcome" if outcome is None else \
                f"{outcome.status}: {outcome.error}"
            return None, error, handle.queue_wait_s
        cached = self.server.service.cache.get(outcome.cache_key)
        self.server.service.cache = self._cache()
        if cached is None or cached.revealed_apk_bytes is None:
            return None, "revealed APK missing from the result cache", 0.0
        dex = Apk.from_bytes(cached.revealed_apk_bytes).primary_dex
        return dex, "", handle.queue_wait_s

    def close(self) -> None:
        self.server.close()


class ForceLibrary:
    root = "library.op"

    def __init__(self) -> None:
        from repro.core.config import RevealConfig
        from repro.core.pipeline import reveal_apk

        self._reveal = reveal_apk
        self.config = RevealConfig(use_force_execution=True,
                                   max_paths=corpus.FORCE_MAX_PATHS)

    def reveal(self, app_id: str, apk):
        return None, self._reveal(apk, config=self.config)

    def settle(self, handle, result) -> tuple[object, str, float]:
        return result.reassembled_dex, "", 0.0

    def close(self) -> None:
        pass


FRONTS = {"plain-server": PlainServer, "force-library": ForceLibrary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(FRONTS), required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import probes
        from spans import Tracer

        tracer = Tracer()
        probes.install(tracer)
    from repro.runtime.apk import Apk

    front = FRONTS[args.workload]()
    warm, = corpus.read(args.corpus, "warmup")
    handle, result = front.reveal(warm["app_id"], Apk.from_bytes(warm["apk"]))
    dex, error, _wait = front.settle(handle, result)
    error = error or corpus.check(dex, warm)
    if error:
        print(f"host: warm-up op failed: {error}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    command = sys.stdin.readline().strip()
    print(f"CALIBRATED {calibrate.median_sample()!r}", flush=True)
    if command != "GO":
        front.close()
        return 0

    apps = corpus.read(args.corpus, "apps")
    ops = []
    for op, index in enumerate(corpus.schedule(len(apps), args.ops,
                                               args.seed)):
        entry = apps[index]
        apk = Apk.from_bytes(entry["apk"])
        slowness = calibrate.sample()
        if tracer is not None:
            tracer.op = op
            root = tracer.open(front.root)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            handle, result = front.reveal(entry["app_id"], apk)
            error = ""
        except Exception as exc:  # a failed op is counted, not fatal
            handle = result = None
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.close(root)
            tracer.op = None
        queue_wait = 0.0
        if not error:
            dex, error, queue_wait = front.settle(handle, result)
            error = error or corpus.check(dex, entry)
        ops.append({"app": entry["app_id"], "latency_s": latency,
                    "cpu_s": cpu, "queue_wait_s": queue_wait,
                    "slowness": slowness, "error": error})
        del apk, handle, result
    front.close()
    report = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
