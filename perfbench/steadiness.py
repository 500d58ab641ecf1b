"""Steadiness report: do two sets of runs of one commit agree?

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --load .perfbench-work/steadiness-*.jsonl

Runs ``run.py --trace 0`` ten times per workload of ``BENCHMARK.json``
in each of two sets, every run on its own seed (1, 2, ...), and appends
every result to a JSONL file under ``.perfbench-work``.  Then, per
workload and end-to-end metric, it prints each set's median and
quartiles, its spread (quartile distance as a share of the median),
and the gap between the two set medians.  The gap is measured both
ways -- the larger median over the smaller -- because the two sets run
the same code, so either one may stand for the parent.  It names every
pair that breaks its bound: a spread or a gap wider than the metric's
``bound``.  Exit status is 1 when any pair breaks its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from procs import ROOT, WORK
from stats import quartiles, spread

RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def gap(first: float, second: float) -> float:
    """How much worse the better of two medians of one commit would
    read against the other: the larger over the smaller, minus one."""
    low, high = sorted((first, second))
    return high / low - 1 if low else float("inf")


def report(rows: list[dict], spec: dict) -> list[str]:
    """Print the table; return the pairs that break their bound."""
    broken = []
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"\n{workload}")
        print(f"  {'metric':16s} {'set':>3s} {'median':>10s} {'q1':>10s} "
              f"{'q3':>10s} {'spread':>7s} {'gap':>7s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = sorted({r["set"] for r in rows if r["workload"] == workload})
            medians = []
            for s in sets:
                values = [r["result"]["metrics"][name]["value"] for r in rows
                          if r["workload"] == workload and r["set"] == s]
                q1, q2, q3 = quartiles(values)
                medians.append(q2)
                width = spread(values)
                shown = ""
                if len(medians) == 2:
                    between = gap(*medians)
                    shown = f"{100 * between:6.1f}%"
                    if between > bound:
                        broken.append(f"{workload}/{name}: set medians "
                                      f"{medians[0]:.4f} and {medians[1]:.4f} "
                                      f"differ by {100 * between:.1f}%")
                if width > bound:
                    broken.append(f"{workload}/{name}: set {s} spread "
                                  f"{100 * width:.1f}% > {100 * bound:.0f}%")
                print(f"  {name:16s} {s:3d} {q2:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{100 * width:6.1f}% {shown:>7s} {100 * bound:5.0f}%")
        failed = sum(r["result"]["failed"] for r in rows
                     if r["workload"] == workload)
        attempted = sum(r["result"]["attempted"] for r in rows
                        if r["workload"] == workload)
        print(f"  ops failed: {failed} of {attempted}")
    return broken


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--load", nargs="*", default=None,
                        help="report on saved JSONL results instead")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    rows = []
    if args.load is not None:
        for path in args.load:
            with open(path, encoding="utf-8") as fh:
                rows.extend(json.loads(line) for line in fh if line.strip())
    else:
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"steadiness-{int(time.time())}.jsonl")
        seed = 1
        with open(path, "a", encoding="utf-8") as out:
            for s in range(1, SETS + 1):
                for _ in range(RUNS):
                    for workload in [w["name"] for w in spec["workloads"]]:
                        row = {"workload": workload, "set": s, "seed": seed,
                               "result": run_once(workload, seed,
                                                  spec["run_seconds"])}
                        out.write(json.dumps(row) + "\n")
                        out.flush()
                        rows.append(row)
                    seed += 1
        print(f"results: {path}")
    broken = report(rows, spec)
    for line in broken:
        print(f"BREAKS BOUND {line}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
