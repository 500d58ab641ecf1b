"""Priority-driven exploration scheduling for force execution.

The paper's code coverage improvement module (§III-C, §IV-E) walks an
implicit frontier: every Uncovered Conditional Branch discovered so far
is a candidate path file waiting to be replayed.  The original engine
modelled that frontier as a serial FIFO; this module makes it a
first-class subsystem:

* :class:`PathFile` — a decision prefix ending in one flipped branch,
  JSON-round-trippable (it *is* the paper's on-disk path file);
* :class:`ExplorationScheduler` — a priority frontier of path files
  with decision-prefix hashing for dedup (flipping the same prefix
  twice schedules one replay), pluggable strategies, a total replay
  budget (``max_paths``), and JSON state serialisation so an
  interrupted exploration resumes from the collection archive instead
  of restarting;
* :class:`ExplorationStats` — what the frontier did: paths explored,
  UCBs discovered vs. covered, replays saved by dedup, and the
  coverage curve (covered sites after every replay).

Strategies
----------

``bfs``
    Shallowest decision prefix first — wide, breadth-first sweeps that
    flip entry-point gates before deep worker-method branches.
``dfs``
    Deepest prefix first — drills down one execution corridor before
    widening, cheap when deep state unlocks whole subtrees.
``rarity-first``
    Branch sites observed *least often* across all traces explore
    first: a site seen once is likelier to guard unvisited code than a
    loop header seen ten thousand times.

Priorities are stamped when a path is offered, so the exploration
order is a pure function of configuration plus the (deterministic)
traces — independent of ``explore_workers``.  Replays of one wave run
on isolated runtimes and their traces merge in pop order, which is why
a parallel exploration reproduces the serial one bit-for-bit.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from typing import Callable

BranchSite = tuple[str, int]  # (method signature, dex_pc)
Decision = tuple[str, int, bool]
FlipKey = tuple[str, int, bool]

STRATEGY_BFS = "bfs"
STRATEGY_DFS = "dfs"
STRATEGY_RARITY = "rarity-first"

ALL_STRATEGIES = (STRATEGY_BFS, STRATEGY_DFS, STRATEGY_RARITY)

#: How one wave of replays executes: in this process, one after
#: another, or across forked worker processes.  The exploration outcome
#: (order, covered-UCB set, collector records) is contractually
#: identical across both — backends trade wall clock, never results.
BACKEND_SERIAL = "serial"
BACKEND_PROCESS = "process"

EXPLORE_BACKENDS = (BACKEND_SERIAL, BACKEND_PROCESS)


@dataclass
class PathFile:
    """A path to one UCB: decision prefix plus the final flip (§IV-E)."""

    target: BranchSite
    forced_outcome: bool
    decisions: list[Decision] = field(default_factory=list)

    @property
    def flip_key(self) -> FlipKey:
        return (self.target[0], self.target[1], self.forced_outcome)

    def prefix_hash(self) -> str:
        """Stable SHA-256 of the decision prefix (incl. target + flip).

        Two path files hash equal exactly when replaying them would
        force the identical branch sequence — the scheduler's dedup key.
        Memoized on first call (the engine treats a path file as
        immutable once built and re-offers the same object each
        analysis round), so per-iteration re-proposals cost a dict hit,
        not a re-serialisation.
        """
        cached = self.__dict__.get("_prefix_hash")
        if cached is None:
            blob = json.dumps(
                {
                    "target": list(self.target),
                    "forced_outcome": self.forced_outcome,
                    "decisions": [list(d) for d in self.decisions],
                },
                sort_keys=True,
            )
            cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            self.__dict__["_prefix_hash"] = cached
        return cached

    def to_dict(self) -> dict:
        return {
            "target": list(self.target),
            "forced_outcome": self.forced_outcome,
            "decisions": [list(d) for d in self.decisions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PathFile":
        return cls(
            (data["target"][0], data["target"][1]),
            bool(data["forced_outcome"]),
            [(d[0], d[1], bool(d[2])) for d in data["decisions"]],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PathFile":
        return cls.from_dict(json.loads(text))


@dataclass
class ExplorationStats:
    """What the frontier did across one (possibly resumed) exploration."""

    paths_explored: int = 0
    ucbs_discovered: int = 0
    ucbs_covered: int = 0
    #: Every offered candidate whose decision prefix was already
    #: scheduled — including the UCB analysis re-proposing a
    #: still-uncovered flip on each later iteration, which a dedup-free
    #: explorer would replay every time.
    replays_saved_by_dedup: int = 0
    #: Fully-covered branch sites after the baseline run and after every
    #: replay, in execution order — ``curve[i]`` is coverage once ``i``
    #: replays have merged.
    coverage_curve: list[int] = field(default_factory=list)
    #: The flips actually replayed, in execution order.
    exploration_order: list[FlipKey] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "paths_explored": self.paths_explored,
            "ucbs_discovered": self.ucbs_discovered,
            "ucbs_covered": self.ucbs_covered,
            "replays_saved_by_dedup": self.replays_saved_by_dedup,
            "coverage_curve": list(self.coverage_curve),
            "exploration_order": [list(k) for k in self.exploration_order],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplorationStats":
        return cls(
            paths_explored=data.get("paths_explored", 0),
            ucbs_discovered=data.get("ucbs_discovered", 0),
            ucbs_covered=data.get("ucbs_covered", 0),
            replays_saved_by_dedup=data.get("replays_saved_by_dedup", 0),
            coverage_curve=list(data.get("coverage_curve", [])),
            exploration_order=[
                (k[0], k[1], bool(k[2]))
                for k in data.get("exploration_order", [])
            ],
        )


class ExplorationScheduler:
    """Priority frontier of path files with dedup, budget and state.

    The engine *offers* every candidate the UCB analysis produces; the
    scheduler decides which replays actually happen and in what order.
    An offer whose decision prefix was already scheduled is dropped and
    counted as a saved replay.  ``pop_wave`` hands back the next batch
    in strategy order, never exceeding the remaining ``max_paths``
    budget.  The whole frontier serialises to a JSON-safe dict, so an
    interrupted exploration can continue exactly where it stopped.
    """

    def __init__(self, strategy: str = STRATEGY_BFS,
                 max_paths: int | None = None) -> None:
        if strategy not in ALL_STRATEGIES:
            raise ValueError(
                f"unknown exploration strategy {strategy!r}; "
                f"pick one of {ALL_STRATEGIES}"
            )
        self.strategy = strategy
        self.max_paths = max_paths
        self._heap: list[tuple[tuple, int, PathFile]] = []
        self._seq = 0
        # prefix digest -> the flip it schedules (the value exists so a
        # resumed session can release still-uncovered entries).
        self._scheduled: dict[str, FlipKey] = {}
        self._discovered: set[FlipKey] = set()
        # Replays already spent when the current session's budget was
        # set; ``max_paths`` limits replays *since* this point, so a
        # resumed exploration gets a fresh budget (session-local state,
        # deliberately not serialised).
        self._budget_base = 0
        #: How often each branch site appeared across all merged traces
        #: (the rarity signal).
        self.site_observations: dict[BranchSite, int] = {}
        self.stats = ExplorationStats()
        #: Optional progress callback: called with a JSON-safe snapshot
        #: after each replayed wave merges (see :meth:`notify_wave`).
        #: Session-local — never serialised with the frontier.
        self.wave_observer: Callable[[dict], None] | None = None

    # -- trace feedback -----------------------------------------------------

    def observe_trace(self, trace: list[Decision]) -> None:
        """Fold one run's branch decisions into the rarity counts."""
        for signature, dex_pc, _taken in trace:
            site = (signature, dex_pc)
            self.site_observations[site] = \
                self.site_observations.get(site, 0) + 1

    # -- scheduling ---------------------------------------------------------

    def _priority(self, path: PathFile) -> tuple:
        """Strategy-dependent sort key, stamped at offer time.

        The tail (target site + outcome) breaks ties deterministically,
        and the monotone sequence number below it keeps equal-priority
        paths in offer order — the order never depends on worker count.
        """
        depth = len(path.decisions)
        if self.strategy == STRATEGY_DFS:
            head: tuple = (-depth,)
        elif self.strategy == STRATEGY_RARITY:
            head = (self.site_observations.get(path.target, 0), depth)
        else:  # bfs
            head = (depth,)
        return head + (path.target[0], path.target[1], path.forced_outcome)

    def offer(self, path: PathFile) -> bool:
        """Schedule a candidate; False when dedup collapsed it.

        Dedup is by decision-prefix digest: two offers collapse exactly
        when replaying them would force the identical branch sequence.
        The per-iteration re-proposal case stays cheap because the
        digest is memoized on the path object the engine reuses.
        """
        self._discovered.add(path.flip_key)
        self.stats.ucbs_discovered = len(self._discovered)
        digest = path.prefix_hash()
        if digest in self._scheduled:
            self.stats.replays_saved_by_dedup += 1
            return False
        self._scheduled[digest] = path.flip_key
        heapq.heappush(self._heap, (self._priority(path), self._seq, path))
        self._seq += 1
        return True

    @property
    def pending(self) -> int:
        return len(self._heap)

    def begin_session(self, max_paths: int | None) -> None:
        """Start a (resumed) session: ``max_paths`` applies afresh.

        Without this, resuming an exploration with the same config that
        interrupted it would find its budget already spent and replay
        nothing.
        """
        self.max_paths = max_paths
        self._budget_base = self.stats.paths_explored

    def release_uncovered(self, outcomes: dict[BranchSite, set[bool]]) -> int:
        """Forget scheduled prefixes whose target is still uncovered.

        A replay that starved (per-path budget) or diverged never
        covered its flip; keeping its digest in the dedup set would
        block every future session from retrying it — e.g. a resume
        with a larger ``path_budget``.  Prefixes still waiting in the
        frontier keep their digests (releasing them would double-
        schedule).  Called by the engine when a session resumes;
        returns how many prefixes became offerable again.
        """
        waiting = {path.prefix_hash() for _, _, path in self._heap}
        released = 0
        for digest, (signature, dex_pc, _outcome) in list(
                self._scheduled.items()):
            if digest in waiting:
                continue
            if len(outcomes.get((signature, dex_pc), ())) < 2:
                del self._scheduled[digest]
                released += 1
        return released

    def replays_remaining(self) -> int | None:
        """Replays left under this session's ``max_paths``; None means
        unbounded."""
        if self.max_paths is None:
            return None
        spent = self.stats.paths_explored - self._budget_base
        return max(0, self.max_paths - spent)

    def pop_wave(self, limit: int | None = None) -> list[PathFile]:
        """The next batch of paths, best-first, within every budget."""
        count = self.pending
        if limit is not None:
            count = min(count, max(0, limit))
        remaining = self.replays_remaining()
        if remaining is not None:
            count = min(count, remaining)
        return [heapq.heappop(self._heap)[2] for _ in range(count)]

    def note_replayed(self, path: PathFile) -> None:
        """Record one executed replay (budget + order bookkeeping)."""
        self.stats.paths_explored += 1
        self.stats.exploration_order.append(path.flip_key)

    def record_coverage(self, covered_sites: int) -> None:
        self.stats.coverage_curve.append(covered_sites)

    def wave_snapshot(self, wave_size: int) -> dict:
        """JSON-safe progress digest after one wave of replays merged."""
        curve = self.stats.coverage_curve
        return {
            "wave_size": wave_size,
            "paths_explored": self.stats.paths_explored,
            "ucbs_discovered": self.stats.ucbs_discovered,
            "replays_saved_by_dedup": self.stats.replays_saved_by_dedup,
            "frontier_pending": self.pending,
            "covered_sites": curve[-1] if curve else 0,
            "strategy": self.strategy,
        }

    def notify_wave(self, wave_size: int) -> None:
        """Push a wave snapshot to the observer (which must not be able
        to break the exploration — exceptions are swallowed)."""
        if self.wave_observer is None:
            return
        try:
            self.wave_observer(self.wave_snapshot(wave_size))
        except Exception:
            pass

    def finalize_covered(self, outcomes: dict[BranchSite, set[bool]]) -> None:
        """How many discovered UCB flips ended up actually covered."""
        self.stats.ucbs_covered = sum(
            1
            for signature, dex_pc, _outcome in self._discovered
            if len(outcomes.get((signature, dex_pc), ())) == 2
        )

    # -- state serialisation ------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe frontier snapshot (heap order preserved exactly)."""
        return {
            "strategy": self.strategy,
            "max_paths": self.max_paths,
            "seq": self._seq,
            "frontier": [
                [list(priority), seq, path.to_dict()]
                for priority, seq, path in sorted(
                    self._heap, key=lambda entry: (entry[0], entry[1])
                )
            ],
            "scheduled": [
                [digest, list(key)]
                for digest, key in sorted(self._scheduled.items())
            ],
            "discovered": [list(key) for key in sorted(self._discovered)],
            "site_observations": [
                [signature, dex_pc, count]
                for (signature, dex_pc), count in sorted(
                    self.site_observations.items()
                )
            ],
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplorationScheduler":
        scheduler = cls(data.get("strategy", STRATEGY_BFS),
                        data.get("max_paths"))
        scheduler._seq = data.get("seq", 0)
        for priority, seq, path_data in data.get("frontier", []):
            scheduler._heap.append(
                (tuple(priority), seq, PathFile.from_dict(path_data))
            )
        heapq.heapify(scheduler._heap)
        scheduler._scheduled = {
            digest: (key[0], key[1], bool(key[2]))
            for digest, key in data.get("scheduled", [])
        }
        scheduler._discovered = {
            (k[0], k[1], bool(k[2])) for k in data.get("discovered", [])
        }
        scheduler.site_observations = {
            (signature, dex_pc): count
            for signature, dex_pc, count in data.get("site_observations", [])
        }
        scheduler.stats = ExplorationStats.from_dict(data.get("stats", {}))
        return scheduler
