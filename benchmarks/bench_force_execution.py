"""Force-execution exploration — serial vs parallel, fifo vs rarity-first.

Not a paper table: this measures the exploration scheduler the
reproduction adds on top of §IV-E's iterative loop.  One benchsuite
F-Droid application (generated with the §V-D reachable / gated / dead
coverage structure) is explored four ways:

* ``serial fifo``      — ``bfs`` strategy, one replay at a time: the
  paper-shaped baseline (shallowest path files first, offer order);
* ``serial dfs``       — deepest-prefix-first, which front-loads
  branch-rich regions (visible in the mid-budget coverage column);
* ``serial rarity``    — least-observed branch sites first;
* ``parallel rarity``  — the same, replaying each wave across a
  4-process pool of forked workers.

Every leg reports replays executed, the *naive-equivalent* replay count
(replays + replays saved by decision-prefix dedup — what a dedup-free
FIFO explorer would have burned for the identical covered set, since
replaying an identical prefix reproduces an identical trace), final
covered branch sites, coverage half-way through the replay budget, and
wall time.  The dedup counter includes per-iteration re-proposals of
still-uncovered flips (a dedup-free loop would replay each of them),
so the savings grow with the iteration cap; it measures proposals
collapsed, not a delta against the previous engine's attempted-flip
filter.

Asserted invariants (all exploration is deterministic, so these are
exact, not statistical):

* every strategy converges to the same covered-UCB count;
* parallel rarity-first reaches the serial fifo baseline's covered-UCB
  count with fewer replays than the naive baseline spends (the dedup
  savings are the mechanism, and are reported per leg);
* the parallel leg reproduces the serial rarity leg bit-for-bit
  (identical exploration order), so worker count is throughput-only.
"""

import os
import time

from benchmarks.conftest import quick_mode, run_once
from repro.benchsuite import all_fdroid_apps
from repro.core import ForceExecutionEngine
from repro.dex import assemble
from repro.dex.instructions import Instruction
from repro.harness.tables import render_table
from repro.runtime import Apk, register_native_library

ITERATIONS = 3
WORKERS = 4

LEGS = (
    ("serial fifo", "bfs", "serial", 1),
    ("serial dfs", "dfs", "serial", 1),
    ("serial rarity", "rarity-first", "serial", 1),
    ("parallel rarity", "rarity-first", "process", WORKERS),
)


def _explore(apk, strategy: str, backend: str, workers: int):
    engine = ForceExecutionEngine(
        apk, max_iterations=ITERATIONS, strategy=strategy, backend=backend,
        workers=workers,
    )
    started = time.perf_counter()
    report = engine.run()
    return report, time.perf_counter() - started


def test_exploration_strategies(benchmark):
    app = all_fdroid_apps()[0]
    results = {}

    def run():
        for name, strategy, backend, workers in LEGS:
            results[name] = _explore(app.apk, strategy, backend, workers)
        return results

    run_once(benchmark, run)

    baseline, baseline_wall = results["serial fifo"]
    naive_baseline_replays = baseline.paths_executed + baseline.paths_deduped
    rows = []
    for name, _strategy, _backend, workers in LEGS:
        report, wall = results[name]
        half = report.coverage_curve[
            min(len(report.coverage_curve) - 1, report.paths_executed // 2)
        ]
        rows.append([
            name,
            f"{workers}",
            report.paths_executed,
            report.paths_executed + report.paths_deduped,
            report.paths_deduped,
            half,
            report.fully_covered_sites,
            f"{wall:.2f}s",
            f"{baseline_wall / wall:.2f}x" if wall else "inf",
        ])
    print()
    print(render_table(
        f"Force-execution exploration — {app.package} "
        f"({ITERATIONS} iterations)",
        ["Leg", "Workers", "Replays", "Naive Replays", "Dedup Saved",
         "Covered@Half", "Covered", "Wall", "vs FIFO"],
        rows,
    ))
    print(f"naive serial baseline (fifo, no dedup): "
          f"{naive_baseline_replays} replays for "
          f"{baseline.fully_covered_sites} covered sites")

    # Every strategy converges to the same covered-UCB count.
    covered = {report.fully_covered_sites for report, _ in results.values()}
    assert covered == {baseline.fully_covered_sites}

    # Parallel rarity-first reaches the serial baseline's covered-UCB
    # count with fewer replays than the naive (dedup-free) serial
    # explorer spends — the reported dedup savings are the difference.
    par_report, _ = results["parallel rarity"]
    assert par_report.fully_covered_sites >= baseline.fully_covered_sites
    assert par_report.paths_executed < naive_baseline_replays
    assert par_report.paths_deduped > 0

    # Worker count is throughput-only: the parallel exploration is
    # bit-for-bit the serial one.
    serial_report, _ = results["serial rarity"]
    assert par_report.exploration_order == serial_report.exploration_order
    assert par_report.coverage_curve == serial_report.coverage_curve


# -- serial vs process replay throughput -------------------------------------
# A packer-style workload: a native "unpacker" flips the payload guard at
# runtime (self-modifying code), the revealed payload burns a hot
# interpreter loop, and a row of one-sided gates leaves UCBs for the
# engine to replay.  Replays are pure Python interpretation, so serial
# replays use one core, while forked worker processes execute replays
# genuinely in parallel.  The determinism contract makes the comparison
# exact: both backends produce bit-identical exploration, only wall
# clock may differ.

PACK_CLS = "Lb/Packer;"
PACK_SIG = f"{PACK_CLS}->payload()V"
PACK_GATES = 6
PACK_LOOP = 4_000 if quick_mode() else 40_000
#: Process replays must beat serial replays by this factor — asserted
#: only where parallelism is physically possible (≥2 usable cores and
#: not the quick lane); a single-core runner still checks determinism
#: and prints the measured ratio.
SPEEDUP_FLOOR = 1.5


def _pack_unpack(ctx, this):
    units = ctx.method_code_units(PACK_SIG)
    pos = 0
    while pos < len(units):
        ins = Instruction.decode_at(units, pos)
        if ins.name == "if-eqz":
            flipped = Instruction.make("if-nez", *ins.operands).encode()
            ctx.patch_code(PACK_SIG, pos, flipped)
            return
        pos += ins.unit_count


register_native_library("libb_packer",
                        {f"{PACK_CLS}->unpack()V": _pack_unpack})


def _packer_apk() -> Apk:
    gates = "\n".join(
        f"""    const/4 v2, 0
    if-nez v2, :locked{i}
    :next{i}"""
        for i in range(PACK_GATES)
    )
    locked = "\n".join(
        f"""    :locked{i}
    sget v3, {PACK_CLS}->a:I
    add-int/lit8 v3, v3, 1
    sput v3, {PACK_CLS}->a:I
    goto :next{i}"""
        for i in range(PACK_GATES)
    )
    text = f"""
.class public {PACK_CLS}
.super Landroid/app/Activity;
.field public static a:I = 0

.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    invoke-virtual {{p0}}, {PACK_CLS}->unpack()V
    invoke-virtual {{p0}}, {PACK_SIG}
    return-void
.end method

.method public payload()V
    .registers 5
    const/4 v0, 0
    if-eqz v0, :decoy
    const/16 v1, 0
    :hot
    add-int/lit8 v1, v1, 1
    const v4, {PACK_LOOP}
    if-ne v1, v4, :hot
{gates}
    return-void
    :decoy
    nop
    goto :hot
{locked}
.end method

.method public native unpack()V
.end method
"""
    return Apk("b.packer", PACK_CLS, [assemble(text)],
               native_libraries=["libb_packer"])


def test_replay_backend_throughput(benchmark):
    results = {}

    def run():
        for backend, workers in (("serial", 1), ("process", WORKERS)):
            engine = ForceExecutionEngine(
                _packer_apk(), max_iterations=4, workers=workers,
                backend=backend,
            )
            started = time.perf_counter()
            report = engine.run()
            results[backend] = (report, time.perf_counter() - started)
        return results

    run_once(benchmark, run)

    rows = []
    for backend, (report, wall) in results.items():
        throughput = report.replay_steps / wall if wall else 0.0
        rows.append([
            backend,
            f"{report.workers}",
            report.paths_executed,
            report.replay_steps,
            f"{wall:.2f}s",
            f"{throughput / 1000:.0f}k steps/s",
        ])
    serial_report, serial_wall = results["serial"]
    process_report, process_wall = results["process"]
    ratio = serial_wall / process_wall if process_wall else float("inf")
    cores = len(os.sched_getaffinity(0))
    print()
    print(render_table(
        f"Replay backends — packer workload ({PACK_GATES} gates, "
        f"{PACK_LOOP}-step payload loop, {cores} core(s))",
        ["Backend", "Workers", "Replays", "Replay Steps", "Wall",
         "Throughput"],
        rows,
    ))
    print(f"process vs serial replay throughput: {ratio:.2f}x "
          f"(floor {SPEEDUP_FLOOR}x, asserted on >=2 cores)")

    # Bit-identical exploration is unconditional: same order, same
    # curve, same covered set, same replay step total.
    assert (process_report.exploration_order
            == serial_report.exploration_order)
    assert process_report.coverage_curve == serial_report.coverage_curve
    assert process_report.ucbs_covered == serial_report.ucbs_covered
    assert process_report.replay_steps == serial_report.replay_steps
    assert process_report.replay_steps > 0  # the lane really replayed

    # The speedup claim needs hardware that can express it: forked
    # workers on one core only add scheduling overhead.
    if cores >= 2 and not quick_mode():
        assert ratio >= SPEEDUP_FLOOR, (
            f"process backend {ratio:.2f}x vs serial; expected "
            f">= {SPEEDUP_FLOOR}x on {cores} cores"
        )
