"""Iterative force execution (paper §III-C, §IV-E, Figure 4).

The engine repeats: run the app, identify Uncovered Conditional Branches
(UCBs — branch sites where only one outcome has ever been observed),
compute a *path file* to each UCB (the branch-decision prefix of the run
that reached it, with the final decision flipped), then replay with a
:class:`ForcedPathController` that manipulates conditional outcomes in
the interpreter.  Unhandled exceptions are cleared
(``runtime.tolerate_exceptions``) so infeasible paths don't kill the
process.  Iteration stops when no new UCBs appear.

Scheduling is delegated to
:class:`~repro.core.exploration.ExplorationScheduler`: candidates are
*offered* (decision-prefix dedup collapses repeats), popped back in
strategy order (``bfs`` / ``dfs`` / ``rarity-first``), and capped by a
total replay budget.  Each wave of replays runs on isolated
:class:`~repro.runtime.art.AndroidRuntime` instances through one of
two backends — ``serial`` in this process, or a ``process`` pool of
forked workers — and every replay comes back as a
:class:`~repro.core.replay.TraceDelta` that the engine merges strictly
in pop order.  Because results travel as values and only the engine
merges them, in order, the covered-site set, the collector's records
and the exploration order are bit-for-bit identical at any worker
count on either backend.  The whole exploration state serialises via
:meth:`ForceExecutionEngine.state_dict` and resumes via
``resume_state=``, which is how an interrupted exploration continues
out of a collection archive.
"""

from __future__ import annotations

import copy
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.core.collector import DexLegoCollector
from repro.core.exploration import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    EXPLORE_BACKENDS,
    STRATEGY_BFS,
    BranchSite,
    Decision,
    ExplorationScheduler,
    FlipKey,
    PathFile,
)
from repro.core.replay import (
    BranchTraceListener,
    ForcedPathController,
    ReplaySpec,
    TraceDelta,
    _process_worker_init,
    _process_worker_replay,
    execute_replay,
)
from repro.runtime.device import NEXUS_5X, DeviceProfile
from repro.runtime.hooks import RuntimeListener

__all__ = [
    "BranchSite",
    "BranchTraceListener",
    "Decision",
    "ExplorationFrontier",
    "ForceExecutionEngine",
    "ForceExecutionReport",
    "ForcedPathController",
    "PathFile",
    "ReplaySpec",
    "TraceDelta",
]


@dataclass
class ForceExecutionReport:
    """Outcome of one engine run (or one resumed continuation)."""

    iterations: int = 0
    runs: int = 0
    paths_executed: int = 0
    native_crashes: int = 0
    budget_exhausted_runs: int = 0
    branch_sites: int = 0
    fully_covered_sites: int = 0
    # -- exploration-scheduler view ----------------------------------------
    strategy: str = STRATEGY_BFS
    backend: str = BACKEND_SERIAL
    workers: int = 1
    ucbs_discovered: int = 0
    ucbs_covered: int = 0
    paths_deduped: int = 0
    forced_decisions: int = 0
    paths_reaching_target: int = 0
    #: Interpreter steps consumed by replays (not the baseline run),
    #: summed from the per-replay deltas — deterministic across
    #: backends, unlike wall clock.
    replay_steps: int = 0
    #: Replays whose worker process died; each cost one path, never
    #: the wave (see the crash-isolation contract in `_replay_wave`).
    workers_lost: int = 0
    coverage_curve: list[int] = field(default_factory=list)
    exploration_order: list[FlipKey] = field(default_factory=list)
    frontier_pending: int = 0
    resumed: bool = False

    @property
    def branch_outcome_coverage(self) -> float:
        if not self.branch_sites:
            return 1.0
        return self.fully_covered_sites / self.branch_sites

    def to_summary(self) -> dict:
        """JSON-safe digest for outcome records and batch reports."""
        return {
            "strategy": self.strategy,
            "backend": self.backend,
            "workers": self.workers,
            "iterations": self.iterations,
            "runs": self.runs,
            "paths_explored": self.paths_executed,
            "ucbs_discovered": self.ucbs_discovered,
            "ucbs_covered": self.ucbs_covered,
            "replays_saved_by_dedup": self.paths_deduped,
            "paths_reaching_target": self.paths_reaching_target,
            "forced_decisions": self.forced_decisions,
            "replay_steps": self.replay_steps,
            "workers_lost": self.workers_lost,
            "branch_sites": self.branch_sites,
            "fully_covered_sites": self.fully_covered_sites,
            "branch_outcome_coverage": round(self.branch_outcome_coverage, 4),
            "native_crashes": self.native_crashes,
            "budget_exhausted_runs": self.budget_exhausted_runs,
            "frontier_pending": self.frontier_pending,
            "resumed": self.resumed,
            "coverage_curve": list(self.coverage_curve),
        }


#: Counter keys that survive a save/resume round trip (state_dict's
#: ``report`` section); the scheduler owns the replay counts and curves.
_REPORT_COUNTER_KEYS = (
    "iterations",
    "runs",
    "native_crashes",
    "budget_exhausted_runs",
    "forced_decisions",
    "paths_reaching_target",
    "replay_steps",
    "workers_lost",
)


class ForceExecutionEngine:
    """Drives iterative force execution over fresh runtime instances.

    One iteration = one UCB/path analysis plus one *wave* of replays
    popped from the scheduler (at most ``max_paths_per_iteration``).
    ``backend`` picks how a wave executes:

    * ``serial`` (the default) — replays run one after another in this
      process;
    * ``process`` — path files ship to a ``workers``-wide pool of
      forked worker processes; each worker inherits the engine's
      :class:`~repro.runtime.apk.Apk` through the fork — same model,
      pool indices and warm decode stores — and keeps it across
      replays.  ``workers`` only sizes this pool.

    Every replay returns a :class:`~repro.core.replay.TraceDelta` and
    the engine merges the deltas strictly in pop order — traces into
    the covered-outcome map, replay collectors into ``collector`` —
    so exploration state *and* collection output are identical at any
    worker count on either backend.  Replays read ``collector`` as
    their known trees and skip re-building the ones it holds: serial
    replays read it live, process workers the copy they inherited when
    they forked.  ``shared_listeners`` still attach
    live to serial replays (they cannot cross a process boundary;
    combining them with the process backend is an error — ship a
    ``collector`` instead).  Without the ``fork`` start method the
    engine falls back to ``serial``.

    A worker process dying mid-wave (a replay tripping a hard native
    fault) costs exactly that replay: completed results are kept, the
    pool is rebuilt, the remaining paths retry, and the lost path is
    charged as ``workers_lost`` with an empty delta.

    ``resume_state`` (a dict from :meth:`state_dict`, usually loaded
    from a collection archive) restores the frontier, covered-outcome
    map and counters; the constructor's ``max_paths`` then applies as
    this session's replay budget, while the recorded strategy continues
    (frontier priorities were stamped under it).
    """

    def __init__(
        self,
        apk,
        drive=None,
        device: DeviceProfile = NEXUS_5X,
        shared_listeners: list[RuntimeListener] | None = None,
        collector: DexLegoCollector | None = None,
        run_budget: int = 2_000_000,
        max_iterations: int = 25,
        max_paths_per_iteration: int = 64,
        strategy: str = STRATEGY_BFS,
        max_paths: int | None = None,
        path_budget: int | None = None,
        workers: int = 1,
        backend: str = BACKEND_SERIAL,
        resume_state: dict | None = None,
        wave_observer=None,
    ) -> None:
        if backend not in EXPLORE_BACKENDS:
            raise ValueError(
                f"unknown explore backend {backend!r}; "
                f"pick one of {EXPLORE_BACKENDS}"
            )
        self.apk = apk
        self._custom_drive = drive is not None
        self.drive = drive or (lambda driver: driver.run_standard_session())
        self.device = device
        self.shared_listeners = shared_listeners or []
        self.collector = collector
        if backend == BACKEND_PROCESS:
            if self._custom_drive:
                raise ValueError(
                    "the process backend cannot ship a custom drive "
                    "callable to worker processes; use the serial "
                    "backend (or the default drive)"
                )
            if self.shared_listeners:
                raise ValueError(
                    "the process backend cannot attach shared listeners "
                    "across a process boundary; pass collector= (its "
                    "records travel back as TraceDeltas) or use the "
                    "serial backend"
                )
            if "fork" not in multiprocessing.get_all_start_methods():
                # Workers inherit the app and the native-library
                # registry through fork; without it, run serially.
                backend = BACKEND_SERIAL
        self.backend = backend
        self.run_budget = run_budget
        self.max_iterations = max_iterations
        self.max_paths_per_iteration = max_paths_per_iteration
        self.path_budget = path_budget if path_budget is not None else run_budget
        self.workers = max(1, workers)
        self.outcomes: dict[BranchSite, set[bool]] = {}
        # First-reaching trace per site, stored as (trace, index) so long
        # traces are shared rather than copied per site.
        self.site_trace: dict[BranchSite, tuple[list[Decision], int]] = {}
        # Candidate path files by flip key; a site's prefix never
        # changes once site_trace holds it, so build each once.
        self._candidates: dict[FlipKey, PathFile] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._report_seed: dict | None = None
        self._resumed = False
        self.last_report: ForceExecutionReport | None = None
        if resume_state is not None:
            self.load_state(resume_state)
            # This session's replay budget starts fresh — resuming with
            # the interrupting config must continue, not no-op — and
            # prefixes whose replay never covered its flip (starved or
            # diverged) become offerable again, so a resume with a
            # larger path_budget can actually retry them.
            self.scheduler.begin_session(max_paths)
            self.scheduler.release_uncovered(self.outcomes)
        else:
            self.scheduler = ExplorationScheduler(strategy, max_paths)
        # Progress channel: the scheduler pushes a snapshot after every
        # merged wave (session-local, never part of the resume state).
        self.scheduler.wave_observer = wave_observer

    # -- one run ------------------------------------------------------------

    def _run_baseline(self) -> TraceDelta:
        """The "previous execution" baseline of Figure 4."""
        return self._execute_inprocess(None, self.run_budget)

    def _replay_inprocess(self, path: PathFile) -> TraceDelta:
        # Round-trip through the serialised path-file format, exactly
        # like a path shipped to a worker process would.
        return self._execute_inprocess(PathFile.from_json(path.to_json()),
                                       self.path_budget)

    def _spec(self, path: PathFile | None, budget: int) -> ReplaySpec:
        return ReplaySpec(
            app_id=self.apk.package,
            device=self.device,
            path=path,
            step_budget=budget,
            collect=self.collector is not None,
        )

    def _execute_inprocess(self, path: PathFile | None,
                           budget: int) -> TraceDelta:
        """One run in this process, on the engine's APK (its warm
        decode stores shared across the wave) with the engine's
        collector as the known trees — it is only read while a wave
        runs, since deltas merge after it."""
        return execute_replay(self._spec(path, budget), self.apk,
                              drive=self.drive,
                              extra_listeners=tuple(self.shared_listeners),
                              known=self.collector)

    def _merge_trace(self, trace: list[Decision]) -> None:
        for index, (signature, dex_pc, taken) in enumerate(trace):
            site = (signature, dex_pc)
            self.outcomes.setdefault(site, set()).add(taken)
            if site not in self.site_trace:
                # Remember the first trace reaching this site (shared ref).
                self.site_trace[site] = (trace, index)

    def _covered_sites(self) -> int:
        return sum(1 for seen in self.outcomes.values() if len(seen) == 2)

    def _absorb_delta(self, delta: TraceDelta, path: PathFile | None,
                      report: ForceExecutionReport) -> None:
        """Deterministic post-replay merge, the only writer of shared
        state: trace, rarity, curve, order, collector records and
        report counters — all in pop order."""
        self._merge_trace(delta.trace)
        self.scheduler.observe_trace(delta.trace)
        if path is not None:
            self.scheduler.note_replayed(path)
            report.replay_steps += delta.steps
        self.scheduler.record_coverage(self._covered_sites())
        if self.collector is not None and delta.collector is not None:
            self.collector.absorb(delta.collector)
        report.runs += 1
        if delta.budget_hit:
            report.budget_exhausted_runs += 1
        if delta.crashed:
            report.native_crashes += 1
        if delta.worker_lost:
            report.workers_lost += 1
        report.forced_decisions += delta.forced
        if delta.reached_target:
            report.paths_reaching_target += 1

    # -- UCB analysis ----------------------------------------------------------

    def _uncovered_branches(self) -> list[PathFile]:
        """Branch analysis + path analysis of Figure 4.

        Produces *every* current candidate, in a deterministic site
        order; prioritisation and dedup belong to the scheduler, which
        collapses re-proposals of prefixes it has already seen.
        """
        paths: list[PathFile] = []
        for site, seen in sorted(self.outcomes.items()):
            if len(seen) == 2:
                continue
            missing = not next(iter(seen))
            key = (site[0], site[1], missing)
            path = self._candidates.get(key)
            if path is None:
                located = self.site_trace.get(site)
                if located is None:
                    continue
                trace, index = located
                decisions = trace[:index] + [(site[0], site[1], missing)]
                path = PathFile(site, missing, decisions)
                self._candidates[key] = path
            paths.append(path)
        return paths

    # -- wave replay --------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The lazy worker pool, built after the baseline ran.  ``fork``
        hands the initializer's arguments over without pickling, so the
        workers inherit the engine's APK itself — the model, pool
        indices and warm decode stores serial replays run on — and its
        collector as the known trees their replays skip."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_process_worker_init,
                initargs=(self.apk, self._spec(None, self.path_budget),
                          self.collector),
            )
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _replay_wave_process(self, wave: list[PathFile]) -> list[TraceDelta]:
        """One wave on the worker pool, with crash isolation.

        Paths ship as serialised path files; results come back as
        deltas and are collected in wave (pop) order.  A worker dying
        breaks the whole pool, so the recovery path keeps every result
        that already completed, rebuilds the pool, and resubmits the
        rest; a path whose replay kills its worker twice is charged as
        a lost replay (empty delta, ``worker_lost``) instead of
        poisoning the wave.
        """
        results: list[TraceDelta | None] = [None] * len(wave)
        attempts = [0] * len(wave)
        futures: list = [None] * len(wave)

        def submit_pending() -> None:
            pool = self._ensure_pool()
            for j, path in enumerate(wave):
                if results[j] is None:
                    futures[j] = pool.submit(_process_worker_replay,
                                             path.to_json())

        def harvest_done() -> None:
            for j in range(len(wave)):
                future = futures[j]
                if results[j] is None and future is not None and future.done():
                    try:
                        results[j] = future.result()
                    except Exception:
                        pass  # its turn in the main loop handles retry

        submit_pending()
        for j in range(len(wave)):
            while results[j] is None:
                try:
                    results[j] = futures[j].result()
                except Exception:
                    attempts[j] += 1
                    harvest_done()
                    self._shutdown_pool()
                    if attempts[j] >= 2:
                        results[j] = TraceDelta(crashed=True,
                                                worker_lost=True)
                    submit_pending()
        return results

    def _replay_wave(self, wave: list[PathFile]) -> list[TraceDelta]:
        """Replay one wave of path files on isolated runtimes.

        Deltas come back in wave (pop) order regardless of backend, so
        the merged exploration state is worker-count-independent.
        """
        if self.backend == BACKEND_PROCESS:
            return self._replay_wave_process(wave)
        return [self._replay_inprocess(path) for path in wave]

    # -- iteration loop -----------------------------------------------------------

    def run(self) -> ForceExecutionReport:
        report = self._new_report()
        scheduler = self.scheduler
        try:
            if not self._resumed:
                self._absorb_delta(self._run_baseline(), None, report)
            # The iteration cap, like max_paths, is a per-session budget:
            # report.iterations stays cumulative across resumes, the cap
            # governs only this session's analysis rounds.
            session_iterations = 0
            while session_iterations < self.max_iterations:
                for path in self._uncovered_branches():
                    scheduler.offer(path)
                wave = scheduler.pop_wave(self.max_paths_per_iteration)
                if not wave:
                    break
                session_iterations += 1
                report.iterations += 1
                deltas = self._replay_wave(wave)
                for path, delta in zip(wave, deltas):
                    self._absorb_delta(delta, path, report)
                scheduler.notify_wave(len(wave))
                if scheduler.replays_remaining() == 0:
                    break
        finally:
            self._shutdown_pool()
        self._finalize(report)
        self.last_report = report
        return report

    def _new_report(self) -> ForceExecutionReport:
        report = ForceExecutionReport()
        seed = self._report_seed
        if seed is not None:
            for key in _REPORT_COUNTER_KEYS:
                setattr(report, key, seed.get(key, 0))
            report.resumed = True
        return report

    def _finalize(self, report: ForceExecutionReport) -> None:
        report.branch_sites = len(self.outcomes)
        report.fully_covered_sites = self._covered_sites()
        self.scheduler.finalize_covered(self.outcomes)
        stats = self.scheduler.stats
        # The scheduler's stats are the single source for replay
        # counters; the report mirrors them (cumulative across resumes).
        report.paths_executed = stats.paths_explored
        report.strategy = self.scheduler.strategy
        report.backend = self.backend
        report.workers = self.workers
        report.ucbs_discovered = stats.ucbs_discovered
        report.ucbs_covered = stats.ucbs_covered
        report.paths_deduped = stats.replays_saved_by_dedup
        report.coverage_curve = list(stats.coverage_curve)
        report.exploration_order = list(stats.exploration_order)
        report.frontier_pending = self.scheduler.pending

    # -- state (resume) -----------------------------------------------------

    def frontier(self) -> "ExplorationFrontier":
        """This engine's exploration state, to serialise later: what
        :meth:`state_dict` reads, by reference, without the engine."""
        # Counters come from the finished run, or — for a resumed
        # engine checkpointed before/without run() completing — from
        # the seed loaded out of resume_state, so cumulative run counts
        # survive a save that happens between sessions.
        if self.last_report is not None:
            seed = {
                key: getattr(self.last_report, key)
                for key in _REPORT_COUNTER_KEYS
            }
        else:
            seed = self._report_seed or {}
        counters = {
            key: seed.get(key, 0) for key in _REPORT_COUNTER_KEYS
        }
        # The scheduler's state, shared; not its session-local observer.
        scheduler = copy.copy(self.scheduler)
        scheduler.wave_observer = None
        return ExplorationFrontier(getattr(self.apk, "main_activity", None),
                                   scheduler, self.outcomes, self.site_trace,
                                   counters)

    def state_dict(self) -> dict:
        """JSON-safe exploration state: frontier, coverage, counters.

        Serialised into the collection archive by the collect stage;
        feeding it back as ``resume_state`` continues the exploration
        (no baseline re-run, frontier and dedup set intact).
        """
        return self.frontier().state_dict()

    def load_state(self, state: dict) -> None:
        recorded = state.get("apk_main_activity")
        current = getattr(self.apk, "main_activity", None)
        if recorded is not None and current is not None \
                and recorded != current:
            raise ValueError(
                f"exploration state belongs to an app with main activity "
                f"{recorded!r}, not {current!r}; refusing to merge two "
                "applications"
            )
        self.scheduler = ExplorationScheduler.from_dict(state["scheduler"])
        self.outcomes = {
            (signature, dex_pc): {bool(v) for v in seen}
            for signature, dex_pc, seen in state.get("outcomes", [])
        }
        traces = [
            [(d[0], d[1], bool(d[2])) for d in trace]
            for trace in state.get("traces", [])
        ]
        self.site_trace = {
            (signature, dex_pc): (traces[tid], index)
            for signature, dex_pc, tid, index in state.get("site_traces", [])
        }
        self._report_seed = state.get("report", {})
        self._resumed = True


class ExplorationFrontier:
    """An engine's exploration state apart from the engine: the
    scheduler, the covered-outcome map, each site's first-reaching
    trace and the run counters, held by reference, so taking one
    (:meth:`ForceExecutionEngine.frontier`) costs nothing.

    :meth:`state_dict` builds the JSON-safe dict.  The collect stage
    hands a frontier to its archive, which builds the dict only when it
    is read: saved, zipped, merged or resumed from.  It keeps no APK,
    runtime or decode store alive, and it reads the engine's structures
    as they are then, so it is taken once the engine is done.
    """

    __slots__ = ("main_activity", "scheduler", "outcomes", "site_trace",
                 "counters")

    def __init__(self, main_activity: str | None,
                 scheduler: ExplorationScheduler,
                 outcomes: dict[BranchSite, set[bool]],
                 site_trace: dict[BranchSite, tuple[list[Decision], int]],
                 counters: dict) -> None:
        self.main_activity = main_activity
        self.scheduler = scheduler
        self.outcomes = outcomes
        self.site_trace = site_trace
        self.counters = counters

    def state_dict(self) -> dict:
        """The frontier as ``resume_state`` reads it (see
        :meth:`ForceExecutionEngine.state_dict`)."""
        # Serialise each distinct trace once and point sites at it by
        # (trace id, index) — mirroring the in-memory sharing; copying
        # trace[:index] per site would blow the file up quadratically.
        traces: list[list[Decision]] = []
        trace_ids: dict[int, int] = {}
        site_refs: list[list] = []
        for (signature, dex_pc), (trace, index) in sorted(
                self.site_trace.items()):
            tid = trace_ids.get(id(trace))
            if tid is None:
                tid = len(traces)
                trace_ids[id(trace)] = tid
                traces.append(trace)
            site_refs.append([signature, dex_pc, tid, index])
        return {
            "version": 1,
            # Which application this frontier belongs to (the main
            # activity anchors the signature space the path files
            # reference); resuming against a different app is rejected
            # instead of silently merging two apps' collections.
            "apk_main_activity": self.main_activity,
            "scheduler": self.scheduler.to_dict(),
            "outcomes": [
                [signature, dex_pc, sorted(seen)]
                for (signature, dex_pc), seen in sorted(self.outcomes.items())
            ],
            "traces": [[list(d) for d in trace] for trace in traces],
            "site_traces": site_refs,
            # Run-level counters the scheduler does not own; replay
            # counts and curves live in (and resume from) the
            # scheduler's own stats above.
            "report": self.counters,
        }
