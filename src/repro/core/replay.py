"""Exploration replay as values: ReplaySpec in, TraceDelta out.

Force execution replays path files on isolated runtimes, in the
engine's process or in forked workers.  Either way the unit of work is
a *value*, not a closure over engine state:

* :class:`ReplaySpec` — what one replay runs under besides the app:
  its identity, the device profile, the path file (decision prefix
  plus flip), the per-replay step budget and whether to collect.
* :class:`TraceDelta` — everything one replay produced: the ordered
  branch decisions, the replay's private collector (classes, method
  trees, reflection targets, instruction counts), the steps consumed
  and the outcome flags.  The engine merges deltas strictly in pop
  order, which is the whole determinism contract: because *results*
  travel as values and only the engine merges them, in order, the
  covered-site set, collector stats and exploration order are
  bit-for-bit identical at any worker count on either backend.
* :func:`execute_replay` — the one replay body both backends share:
  build a fresh runtime + tracer + private collector over the given
  APK, drive, and return the delta.  Both backends build the private
  collector against the engine's collector as its known trees, so it
  logs each frame's first visits and keeps nothing for a frame whose
  tree the engine holds, decided at method exit, nor for a class the
  engine holds with every method it declares: the serial backend calls
  it against the engine's APK and collector and hands the engine its
  collector live; the process backend calls it in a forked worker,
  against the collector the worker inherited, and its collector travels
  back as :meth:`DexLegoCollector.delta_dict` — the wire format.  A
  replay with no known trees (``known=None``) collects everything, the
  reference the skip is diffed against.

The module-level ``_process_worker_*`` functions are the process-pool
protocol (initializer + task); they live at module scope so the pool
can pickle references to them.  Workers are created with the ``fork``
start method, so the initializer's arguments — the engine's live
:class:`~repro.runtime.apk.Apk` and collector among them — reach each
child without being pickled, as does the process-wide native-library
registry (:data:`repro.runtime.apk.NATIVE_LIBRARY_REGISTRY`) that
sample and packer generation populate in the parent.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field

from repro.core.collector import DexLegoCollector
from repro.core.exploration import BranchSite, Decision, PathFile
from repro.errors import BudgetExceeded, VmCrash
from repro.runtime.apk import Apk
from repro.runtime.art import AndroidRuntime
from repro.runtime.device import NEXUS_5X, DeviceProfile
from repro.runtime.events import AppDriver, DriveReport
from repro.runtime.exceptions import VmThrow
from repro.runtime.hooks import BranchController, RuntimeListener

__all__ = [
    "BranchTraceListener",
    "ForcedPathController",
    "ReplaySpec",
    "TraceDelta",
    "execute_replay",
]


class BranchTraceListener(RuntimeListener):
    """Records the ordered conditional-branch decisions of one run."""

    def __init__(self) -> None:
        self.trace: list[Decision] = []

    def on_branch(self, frame, dex_pc: int, ins, taken: bool) -> None:
        method = frame.method
        if method.declaring_class.source_dex is None:
            return
        self.trace.append((method.ref.signature, dex_pc, taken))


class ForcedPathController(BranchController):
    """Forces the interpreter along a path file's decisions, in order."""

    def __init__(self, path: PathFile) -> None:
        self.queue: deque[Decision] = deque(path.decisions)
        self.mismatches = 0
        self.forced = 0

    def decide(self, frame, dex_pc: int, ins, concrete_taken: bool) -> bool | None:
        if not self.queue:
            return None  # past the UCB: free execution
        signature, expected_pc, outcome = self.queue[0]
        if (
            frame.method.declaring_class.source_dex is not None
            and frame.method.ref.signature == signature
            and dex_pc == expected_pc
        ):
            self.queue.popleft()
            self.forced += 1
            return outcome
        if frame.method.declaring_class.source_dex is not None:
            self.mismatches += 1
        return None

    @property
    def reached_target(self) -> bool:
        """True once every decision (including the flip) was forced."""
        return not self.queue


@dataclass
class ReplaySpec:
    """One replay as a value, apart from the app it runs on.

    ``app_id`` names the application it replays.  ``path`` is
    ``None`` for a baseline (unforced) run.  ``collect`` turns the
    per-replay collector off for engines that only measure coverage —
    the delta then carries no collector payload.
    """

    app_id: str
    device: DeviceProfile = NEXUS_5X
    path: PathFile | None = None
    step_budget: int = 2_000_000
    collect: bool = True

    def with_path(self, path: PathFile | None) -> "ReplaySpec":
        return dataclasses.replace(self, path=path)


@dataclass
class TraceDelta:
    """What one replay produced, as a value the engine merges in order.

    ``trace`` is the run's ordered branch decisions; ``collector`` is
    the replay's private :class:`DexLegoCollector` (``None`` when the
    spec disabled collection) — live from an in-process replay, rebuilt
    from its :meth:`~DexLegoCollector.delta_dict` when the delta was
    pickled — for the engine to
    :meth:`~DexLegoCollector.absorb`; ``steps`` is the interpreter
    steps the run consumed.  The flags mirror what the engine's in-process
    execution used to observe directly: budget exhaustion, a crash, how
    many decisions the controller forced and whether the flip itself
    was reached.  ``worker_lost`` marks a replay whose worker process
    died — the delta is empty and the engine counts the loss without
    failing the wave.
    """

    trace: list[Decision] = field(default_factory=list)
    collector: DexLegoCollector | None = None
    steps: int = 0
    budget_hit: bool = False
    crashed: bool = False
    forced: int = 0
    reached_target: bool = False
    worker_lost: bool = False

    def covered_sites(self) -> set[BranchSite]:
        """The branch sites this replay touched (either outcome)."""
        return {(signature, dex_pc) for signature, dex_pc, _ in self.trace}


def execute_replay(
    spec: ReplaySpec,
    apk: Apk,
    drive=None,
    extra_listeners: tuple = (),
    known: DexLegoCollector | None = None,
) -> TraceDelta:
    """The one replay body both backends share.

    Builds an isolated runtime for ``spec`` over ``apk`` and returns
    its delta, the private collector in it live.  ``apk`` is the
    engine's live object, or a forked worker's inherited copy of it;
    runs on one object share its warm decode stores.  ``drive`` and
    ``extra_listeners`` exist for the serial backend only — a custom
    drive callable and live listeners cannot ship to another process,
    which is why the engine refuses to combine them with the process
    backend.  ``known`` is the engine's collector, or a forked worker's
    inherited copy of it, read-only: frames that repeat one of its
    trees and classes it holds whole are skipped, since the merge would
    drop them as duplicates (see :class:`DexLegoCollector`).  A worker's
    copy is the collector as it was when the worker forked, a subset of
    the trees the merge will hold, so it skips less, never more.
    """
    runtime = AndroidRuntime(spec.device, max_steps=spec.step_budget)
    runtime.tolerate_exceptions = True
    controller = None
    if spec.path is not None:
        controller = ForcedPathController(spec.path)
        runtime.branch_controller = controller
    tracer = BranchTraceListener()
    runtime.add_listener(tracer)
    collector = DexLegoCollector(known) if spec.collect else None
    if collector is not None:
        runtime.add_listener(collector)
    for listener in extra_listeners:
        runtime.add_listener(listener)
    driver = AppDriver(runtime, apk)
    drive = drive or (lambda d: d.run_standard_session())
    budget_hit = crashed = False
    try:
        outcome = drive(driver)
    except BudgetExceeded:
        budget_hit = True
    except (VmCrash, VmThrow):
        # Native crashes (and any exception escaping the tolerant
        # interpreter) end the run but keep what was collected.
        crashed = True
    else:
        # Standard drivers absorb budget/crash endings into their
        # DriveReport instead of raising; fold those flags in so
        # starved replays are counted as such.
        if isinstance(outcome, DriveReport):
            budget_hit = outcome.budget_exhausted
            crashed = outcome.crashed
    return TraceDelta(
        trace=tracer.trace,
        collector=collector,
        steps=runtime.steps,
        budget_hit=budget_hit,
        crashed=crashed,
        forced=controller.forced if controller is not None else 0,
        reached_target=(controller.reached_target
                        if controller is not None else False),
    )


# -- process-pool protocol --------------------------------------------------
# The initializer keeps the APK and the known trees the worker inherited
# through the fork; one replay per task.  The APK persists across tasks,
# so its shared decode stores stay warm for every replay the worker
# executes — the process-level equivalent of the engine reusing its own
# APK across a wave.

_WORKER_APK: Apk | None = None
_WORKER_SPEC: ReplaySpec | None = None
_WORKER_KNOWN: DexLegoCollector | None = None


def _process_worker_init(apk: Apk, spec: ReplaySpec,
                         known: DexLegoCollector | None) -> None:
    global _WORKER_APK, _WORKER_SPEC, _WORKER_KNOWN
    _WORKER_APK = apk
    _WORKER_SPEC = spec
    _WORKER_KNOWN = known


def _process_worker_replay(path_json: str) -> TraceDelta:
    spec = _WORKER_SPEC.with_path(PathFile.from_json(path_json))
    return execute_replay(spec, _WORKER_APK, known=_WORKER_KNOWN)
