"""Exploration scheduler: strategies, dedup, determinism, resume."""

import gc
import json

import pytest

from repro.core import (
    ALL_STRATEGIES,
    CollectionArchive,
    CollectStage,
    ExplorationScheduler,
    ForceExecutionEngine,
    PathFile,
    Pipeline,
    RevealConfig,
    resume_exploration,
    reveal_apk,
)
from repro.core.collection_files import EXPLORATION_STATE_FILE
from repro.core.exploration import (
    STRATEGY_BFS,
    STRATEGY_DFS,
    STRATEGY_RARITY,
)
from repro.core.force_execution import ExplorationFrontier
from repro.dex import assemble
from repro.dex.code_units import CodeUnits
from repro.dex.structures import DexFile
from repro.runtime import Apk

SIG = "Lx/Multi;->onCreate(Landroid/os/Bundle;)V"


def _multi_apk(package: str = "x.multi") -> Apk:
    """A loop (branch seen 3x) plus three one-sided gates at different
    depths — enough UCBs for the three strategies to order differently:
    bfs flips the shallow in-loop gate first, dfs the deepest gate,
    rarity-first the once-observed gates before the thrice-observed one."""
    text = """
.class public Lx/Multi;
.super Landroid/app/Activity;
.field public static a:I = 0
.field public static b:I = 0
.field public static c:I = 0

.method public onCreate(Landroid/os/Bundle;)V
    .registers 6
    const/4 v0, 0
    :loop
    const/4 v3, 0
    if-nez v3, :locked0
    :skip0
    add-int/lit8 v0, v0, 1
    const/4 v4, 3
    if-ne v0, v4, :loop
    const/4 v1, 0
    if-nez v1, :locked1
    :next1
    const/4 v1, 0
    if-nez v1, :locked2
    :next2
    return-void
    :locked0
    sget v2, Lx/Multi;->a:I
    add-int/lit8 v2, v2, 1
    sput v2, Lx/Multi;->a:I
    goto :skip0
    :locked1
    sget v2, Lx/Multi;->b:I
    add-int/lit8 v2, v2, 1
    sput v2, Lx/Multi;->b:I
    goto :next1
    :locked2
    sget v2, Lx/Multi;->c:I
    add-int/lit8 v2, v2, 1
    sput v2, Lx/Multi;->c:I
    goto :next2
.end method
"""
    return Apk(package, "Lx/Multi;", [assemble(text)])


def _covered(engine: ForceExecutionEngine) -> set:
    return {site for site, seen in engine.outcomes.items() if len(seen) == 2}


# ---------------------------------------------------------------------------
# Scheduler unit behaviour
# ---------------------------------------------------------------------------


class TestScheduler:
    def _path(self, pc: int, depth: int) -> PathFile:
        decisions = [(SIG, i, False) for i in range(depth)]
        return PathFile((SIG, pc), True, decisions + [(SIG, pc, True)])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            ExplorationScheduler("breadth")

    def test_all_strategies_constructible(self):
        for strategy in ALL_STRATEGIES:
            assert ExplorationScheduler(strategy).strategy == strategy

    def test_same_prefix_offered_twice_schedules_once(self):
        scheduler = ExplorationScheduler()
        path = self._path(pc=10, depth=2)
        assert scheduler.offer(path) is True
        assert scheduler.offer(self._path(pc=10, depth=2)) is False
        assert scheduler.pending == 1
        assert scheduler.stats.replays_saved_by_dedup == 1
        assert scheduler.stats.ucbs_discovered == 1

    def test_bfs_pops_shallowest_first(self):
        scheduler = ExplorationScheduler(STRATEGY_BFS)
        scheduler.offer(self._path(pc=50, depth=9))
        scheduler.offer(self._path(pc=10, depth=1))
        wave = scheduler.pop_wave()
        assert [p.target[1] for p in wave] == [10, 50]

    def test_dfs_pops_deepest_first(self):
        scheduler = ExplorationScheduler(STRATEGY_DFS)
        scheduler.offer(self._path(pc=10, depth=1))
        scheduler.offer(self._path(pc=50, depth=9))
        wave = scheduler.pop_wave()
        assert [p.target[1] for p in wave] == [50, 10]

    def test_rarity_pops_least_observed_first(self):
        scheduler = ExplorationScheduler(STRATEGY_RARITY)
        # Site 10 observed three times, site 50 once.
        scheduler.observe_trace([(SIG, 10, False)] * 3 + [(SIG, 50, False)])
        scheduler.offer(self._path(pc=10, depth=1))   # shallow but common
        scheduler.offer(self._path(pc=50, depth=9))   # deep but rare
        wave = scheduler.pop_wave()
        assert [p.target[1] for p in wave] == [50, 10]

    def test_max_paths_budget_limits_waves(self):
        scheduler = ExplorationScheduler(max_paths=2)
        for pc in (10, 20, 30):
            scheduler.offer(self._path(pc=pc, depth=1))
        wave = scheduler.pop_wave()
        assert len(wave) == 2
        for path in wave:
            scheduler.note_replayed(path)
        assert scheduler.replays_remaining() == 0
        assert scheduler.pop_wave() == []
        assert scheduler.pending == 1  # the survivor stays in the frontier

    def test_pop_wave_limit_caps_batch(self):
        scheduler = ExplorationScheduler()
        for pc in (10, 20, 30):
            scheduler.offer(self._path(pc=pc, depth=1))
        assert len(scheduler.pop_wave(limit=2)) == 2
        assert scheduler.pending == 1

    def test_state_json_round_trip_preserves_order_and_dedup(self):
        scheduler = ExplorationScheduler(STRATEGY_RARITY, max_paths=5)
        scheduler.observe_trace([(SIG, 10, False), (SIG, 10, True)])
        for pc in (10, 20, 30):
            scheduler.offer(self._path(pc=pc, depth=pc))
        scheduler.note_replayed(self._path(pc=99, depth=0))
        blob = json.dumps(scheduler.to_dict())  # genuinely JSON-safe
        again = ExplorationScheduler.from_dict(json.loads(blob))
        assert again.strategy == STRATEGY_RARITY
        assert again.max_paths == 5
        assert again.pending == scheduler.pending
        assert again.stats.paths_explored == 1
        assert again.site_observations == scheduler.site_observations
        # Dedup set survives: re-offering is still collapsed.
        assert again.offer(self._path(pc=20, depth=20)) is False
        # Frontier drains in the identical order.
        assert [p.target for p in again.pop_wave()] == \
            [p.target for p in scheduler.pop_wave()]


# ---------------------------------------------------------------------------
# Engine: strategy order, determinism, dedup, budgets
# ---------------------------------------------------------------------------


class TestEngineStrategies:
    def test_strategies_order_the_frontier_differently(self):
        orders = {}
        for strategy in ALL_STRATEGIES:
            engine = ForceExecutionEngine(
                _multi_apk("x.ord"), max_iterations=8, strategy=strategy
            )
            report = engine.run()
            assert report.fully_covered_sites == report.branch_sites == 4
            orders[strategy] = tuple(report.exploration_order)
        # bfs starts at the shallow in-loop gate; dfs at the deepest
        # gate; rarity-first at a gate observed once (not the loop one).
        assert len(set(orders.values())) == 3

    def test_report_carries_scheduler_view(self):
        engine = ForceExecutionEngine(_multi_apk("x.view"), max_iterations=8,
                                      strategy=STRATEGY_RARITY, workers=2)
        report = engine.run()
        assert report.strategy == STRATEGY_RARITY
        assert report.workers == 2
        assert report.ucbs_discovered == 3
        assert report.ucbs_covered == 3
        assert report.paths_executed == 3
        assert report.frontier_pending == 0
        # Curve: baseline point plus one per replay, monotone.
        assert len(report.coverage_curve) == 1 + report.paths_executed
        assert report.coverage_curve == sorted(report.coverage_curve)
        summary = report.to_summary()
        json.dumps(summary)
        assert summary["replays_saved_by_dedup"] == report.paths_deduped
        assert summary["paths_explored"] == 3


class TestEngineDeterminism:
    def test_same_config_reproduces_exactly(self):
        reports = [
            ForceExecutionEngine(_multi_apk("x.det"), max_iterations=8).run()
            for _ in range(2)
        ]
        assert reports[0].exploration_order == reports[1].exploration_order
        assert reports[0].coverage_curve == reports[1].coverage_curve

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_parallel_matches_serial_exactly(self, strategy):
        engines = [
            ForceExecutionEngine(_multi_apk("x.par"), max_iterations=8,
                                 strategy=strategy, workers=workers,
                                 backend=backend)
            for backend, workers in (("serial", 1), ("process", 4))
        ]
        serial, parallel = [engine.run() for engine in engines]
        assert serial.exploration_order == parallel.exploration_order
        assert serial.coverage_curve == parallel.coverage_curve
        assert serial.fully_covered_sites == parallel.fully_covered_sites
        assert _covered(engines[0]) == _covered(engines[1])


class TestEngineDedupAndBudgets:
    def test_starved_replays_are_not_rescheduled(self):
        # A tiny per-path budget stops every replay before its flip, so
        # the same prefixes are re-proposed next iteration — and must be
        # collapsed by dedup instead of replayed again.
        engine = ForceExecutionEngine(_multi_apk("x.dedup"), max_iterations=4,
                                      path_budget=10)
        report = engine.run()
        assert report.budget_exhausted_runs >= 2
        assert report.fully_covered_sites < report.branch_sites  # starved
        assert report.paths_deduped >= 2
        flips = report.exploration_order
        assert len(flips) == len(set(flips))  # no prefix replayed twice

    def test_max_paths_truncates_and_leaves_frontier(self):
        engine = ForceExecutionEngine(_multi_apk("x.budget"),
                                      max_iterations=8, max_paths=1)
        report = engine.run()
        assert report.paths_executed == 1
        assert report.frontier_pending >= 1  # interrupted, not converged

    def test_path_budget_defaults_to_run_budget(self):
        engine = ForceExecutionEngine(_multi_apk("x.pb"), run_budget=123)
        assert engine.path_budget == 123
        engine = ForceExecutionEngine(_multi_apk("x.pb2"), run_budget=123,
                                      path_budget=7)
        assert engine.path_budget == 7


# ---------------------------------------------------------------------------
# Resume: engine state, archive round trip, pipeline entry point
# ---------------------------------------------------------------------------


class TestResume:
    def test_engine_state_round_trip_continues_exploration(self):
        full = ForceExecutionEngine(_multi_apk("x.full"), max_iterations=8)
        full_report = full.run()

        partial = ForceExecutionEngine(_multi_apk("x.part"),
                                       max_iterations=8, max_paths=1)
        partial_report = partial.run()
        assert partial_report.paths_executed == 1

        state = json.loads(json.dumps(partial.state_dict()))
        resumed = ForceExecutionEngine(_multi_apk("x.res"), max_iterations=8,
                                       resume_state=state)
        resumed_report = resumed.run()
        assert resumed_report.resumed
        # No baseline re-run: the resumed session only pays for replays.
        assert resumed_report.runs == partial_report.runs + \
            (resumed_report.paths_executed - partial_report.paths_executed)
        # Interrupted + resumed converges to the uninterrupted result.
        assert _covered(resumed) == _covered(full)
        assert resumed_report.fully_covered_sites == \
            full_report.fully_covered_sites
        assert resumed_report.paths_executed == full_report.paths_executed

    def test_archive_persists_exploration_state(self, tmp_path):
        config = RevealConfig(use_force_execution=True, max_paths=1,
                              force_iterations=8)
        collected = CollectStage(config).run(_multi_apk("x.arch"))
        state = collected.archive.exploration_state()
        assert state is not None
        collected.archive.save(str(tmp_path))
        assert (tmp_path / "exploration_state.json").exists()
        loaded = CollectionArchive.load(str(tmp_path))
        assert loaded.exploration_state() == state

    def test_save_removes_stale_exploration_state(self, tmp_path):
        # Re-saving a force-less archive over a directory that held an
        # exploration must not resurrect the old frontier on load.
        explored = CollectStage(
            RevealConfig(use_force_execution=True, force_iterations=8)
        ).run(_multi_apk("x.stale"))
        explored.archive.save(str(tmp_path))
        assert (tmp_path / "exploration_state.json").exists()
        plain = CollectStage(RevealConfig()).run(_multi_apk("x.stale2"))
        plain.archive.save(str(tmp_path))
        assert not (tmp_path / "exploration_state.json").exists()
        assert CollectionArchive.load(str(tmp_path)) \
            .exploration_state() is None

    def test_archives_without_state_still_load(self, tmp_path):
        collected = CollectStage(RevealConfig()).run(_multi_apk("x.nostate"))
        assert collected.archive.exploration_state() is None
        collected.archive.save(str(tmp_path))
        assert CollectionArchive.load(str(tmp_path)) \
            .exploration_state() is None

    def test_resume_exploration_from_archive_dir(self, tmp_path):
        apk = _multi_apk("x.resarch")
        config = RevealConfig(use_force_execution=True, max_paths=1,
                              force_iterations=8)
        collected = CollectStage(config).run(apk)
        assert collected.force_report.frontier_pending >= 1
        collected.archive.save(str(tmp_path))

        result = resume_exploration(
            str(tmp_path), apk,
            config=RevealConfig(use_force_execution=True, force_iterations=8),
        )
        report = result.force_report
        assert report is not None and report.resumed
        assert report.frontier_pending == 0
        assert report.fully_covered_sites == report.branch_sites == 4
        # The finished exploration's state rides in the result archive.
        assert result.archive.exploration_state() is not None
        assert result.revealed_apk is not None

    def test_resumed_archive_merges_prior_collection(self, tmp_path):
        # The resumed session's collector only sees its own replays;
        # the result archive must still carry everything the earlier
        # session collected.
        apk = _multi_apk("x.merge")
        config = RevealConfig(use_force_execution=True, max_paths=1,
                              force_iterations=8)
        collected = CollectStage(config).run(apk)
        prior_classes = set(collected.archive.collector.classes)
        assert prior_classes  # baseline drive collected the app
        collected.archive.save(str(tmp_path))
        result = resume_exploration(str(tmp_path), apk, config=config)
        resumed_classes = set(result.archive.collector.classes)
        assert prior_classes <= resumed_classes
        assert result.reassembled_dex.class_defs

    def test_resuming_a_finished_exploration_is_a_safe_noop(self, tmp_path):
        # A completed exploration's archive (empty frontier) must
        # resume into the same reveal — zero new runs, and the saved
        # archive must NOT be clobbered with empty collection files.
        apk = _multi_apk("x.noop")
        config = RevealConfig(use_force_execution=True, force_iterations=8,
                              archive_dir=str(tmp_path))
        first = Pipeline(config).run(apk)
        assert first.force_report.frontier_pending == 0
        classes_before = set(first.archive.collector.classes)

        again = resume_exploration(str(tmp_path), apk, config=config)
        assert again.force_report.runs == first.force_report.runs  # no re-run
        assert set(again.archive.collector.classes) == classes_before
        # The on-disk archive still reassembles to the same classes.
        on_disk = CollectionArchive.load(str(tmp_path))
        assert set(on_disk.collector.classes) == classes_before
        assert again.reassembled_dex.class_defs

    def test_merged_archive_dedupes_bytecode_trees(self):
        collected = CollectStage(
            RevealConfig(use_force_execution=True, force_iterations=8)
        ).run(_multi_apk("x.treedup"))
        once = CollectionArchive.merged(collected.archive, collected.archive)
        assert len(json.loads(once.files()["bytecode.json"])) == \
            len(json.loads(collected.archive.files()["bytecode.json"]))

    def test_resume_with_bigger_path_budget_retries_starved_paths(self):
        # Session 1 starves every replay before its flip; resuming with
        # a workable per-path budget must retry those prefixes (their
        # dedup entries are released), not no-op at partial coverage.
        starved = ForceExecutionEngine(_multi_apk("x.starve"),
                                       max_iterations=4, path_budget=10)
        starved_report = starved.run()
        assert starved_report.fully_covered_sites < \
            starved_report.branch_sites

        resumed = ForceExecutionEngine(_multi_apk("x.starve2"),
                                       max_iterations=8,
                                       resume_state=starved.state_dict())
        resumed_report = resumed.run()
        assert resumed_report.runs > starved_report.runs  # replays happened
        assert resumed_report.fully_covered_sites == \
            resumed_report.branch_sites == 4

    def test_resume_with_same_budget_continues(self, tmp_path):
        # Resuming with the very config that interrupted the run must
        # apply max_paths afresh, not find the budget already spent.
        apk = _multi_apk("x.samecfg")
        config = RevealConfig(use_force_execution=True, max_paths=1,
                              force_iterations=8)
        collected = CollectStage(config).run(apk)
        assert collected.force_report.paths_executed == 1
        collected.archive.save(str(tmp_path))
        result = resume_exploration(str(tmp_path), apk, config=config)
        assert result.force_report.paths_executed == 2  # one more replay

    def test_resume_after_iteration_cap_continues(self):
        # Same for the iteration cap: it limits this session's rounds.
        partial = ForceExecutionEngine(_multi_apk("x.iter"),
                                       max_iterations=1,
                                       max_paths_per_iteration=1)
        partial_report = partial.run()
        assert partial_report.paths_executed == 1
        resumed = ForceExecutionEngine(_multi_apk("x.iter2"),
                                       max_iterations=1,
                                       max_paths_per_iteration=1,
                                       resume_state=partial.state_dict())
        resumed_report = resumed.run()
        assert resumed_report.paths_executed == 2
        assert resumed_report.iterations == 2  # cumulative across sessions

    def test_checkpoint_before_run_preserves_counters(self):
        # state_dict() on a freshly resumed engine (before run())
        # must round-trip the cumulative run counters, not zero them.
        first = ForceExecutionEngine(_multi_apk("x.ckpt"),
                                     max_iterations=8, max_paths=1)
        first_report = first.run()
        idle = ForceExecutionEngine(_multi_apk("x.ckpt2"),
                                    resume_state=first.state_dict())
        checkpoint = idle.state_dict()  # no run() in between
        assert checkpoint["report"]["runs"] == first_report.runs
        assert checkpoint["report"]["iterations"] == first_report.iterations

    def test_resume_against_a_different_app_is_rejected(self, tmp_path):
        # A frontier references one app's signature space; resuming it
        # against another app must fail loudly, not merge the two.
        engine = ForceExecutionEngine(_multi_apk("x.appa"),
                                      max_iterations=8, max_paths=1)
        engine.run()
        from repro.dex import assemble
        from repro.runtime import Apk

        other = Apk("x.appb", "Ly/Other;", [assemble("""
.class public Ly/Other;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 2
    return-void
.end method
""")])
        with pytest.raises(ValueError, match="refusing to merge"):
            ForceExecutionEngine(other, resume_state=engine.state_dict())

    def test_dump_size_excludes_exploration_state(self):
        collected = CollectStage(
            RevealConfig(use_force_execution=True, force_iterations=8)
        ).run(_multi_apk("x.dumpsize"))
        archive = collected.archive
        assert archive.exploration_state() is not None
        without_state = CollectionArchive(archive.collector)
        assert without_state.total_size_bytes() == \
            archive.total_size_bytes()  # metric unchanged

    def test_resume_without_state_is_rejected(self, tmp_path):
        collected = CollectStage(RevealConfig()).run(_multi_apk("x.rej"))
        collected.archive.save(str(tmp_path))
        with pytest.raises(ValueError, match="exploration_state"):
            resume_exploration(str(tmp_path), _multi_apk("x.rej2"))


class TestLazyFrontier:
    """The collect stage hands its archive the engine's frontier, and
    the archive serialises it only when it is read."""

    @pytest.fixture
    def state_dict_calls(self, monkeypatch):
        calls = []
        original = ExplorationFrontier.state_dict

        def counting(frontier):
            calls.append(frontier)
            return original(frontier)
        monkeypatch.setattr(ExplorationFrontier, "state_dict", counting)
        return calls

    def test_an_unsaved_reveal_never_builds_the_state(self,
                                                      state_dict_calls):
        result = reveal_apk(_multi_apk("x.lazy"), config=RevealConfig(
            use_force_execution=True, max_paths=4))
        assert result.force_report.paths_executed >= 1
        assert state_dict_calls == []

    def test_a_save_builds_it_once(self, state_dict_calls, tmp_path):
        result = reveal_apk(_multi_apk("x.lazy"), config=RevealConfig(
            use_force_execution=True, max_paths=4,
            archive_dir=str(tmp_path / "archive")))
        assert len(state_dict_calls) == 1
        archive = result.archive
        archive.save(str(tmp_path / "again"))
        assert archive.exploration_state()["version"] == 1
        assert len(state_dict_calls) == 1
        for directory in ("archive", "again"):
            saved = (tmp_path / directory / EXPLORATION_STATE_FILE)
            assert saved.read_text() == json.dumps(
                archive.exploration_state(), indent=1)

    def test_the_state_equals_the_engines(self):
        engine = ForceExecutionEngine(_multi_apk("x.same"),
                                      max_iterations=8, max_paths=2)
        engine.run()
        frontier = engine.frontier()
        assert json.dumps(frontier.state_dict()) == \
            json.dumps(engine.state_dict())

    def test_the_frontier_keeps_no_engine_app_or_decode_store(self):
        collected = CollectStage(RevealConfig(
            use_force_execution=True, max_paths=4)).run(_multi_apk("x.refs"))
        frontier = collected.archive._exploration_state
        assert isinstance(frontier, ExplorationFrontier)
        seen, stack = set(), [frontier]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (str, int, type)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (ForceExecutionEngine, Apk,
                                        CodeUnits, DexFile)), obj
            stack.extend(gc.get_referents(obj))
        assert len(seen) > 10  # it did walk the frontier's state


# ---------------------------------------------------------------------------
# Config knobs
# ---------------------------------------------------------------------------


class TestConfigKnobs:
    def test_knobs_feed_config_hash(self):
        base = RevealConfig().config_hash()
        assert base != RevealConfig(
            exploration_strategy=STRATEGY_DFS).config_hash()
        assert base != RevealConfig(max_paths=10).config_hash()
        assert base != RevealConfig(path_budget=10).config_hash()
        assert base != RevealConfig(explore_workers=2).config_hash()

    def test_invalid_strategy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="strategy"):
            RevealConfig(exploration_strategy="random")

    def test_pipeline_passes_knobs_to_engine(self):
        cfg = RevealConfig(use_force_execution=True, force_iterations=8,
                           exploration_strategy=STRATEGY_DFS,
                           explore_workers=2, max_paths=50)
        result = Pipeline(cfg).run(_multi_apk("x.facade"))
        assert result.force_report.strategy == STRATEGY_DFS
        assert result.force_report.workers == 2
        assert result.force_report.fully_covered_sites == 4
