"""Composable pipeline stages: collect → reassemble → verify → repack.

The paper's central separability claim (§III, Figure 1) is that
just-in-time collection happens *on-device* while reassembly is an
*offline* step over the collection files.  This module makes that
boundary first-class: each stage is an object with one typed ``run``
method, so consumers can execute any suffix of the pipeline on its own
— most importantly re-running reassembly over a saved archive after a
reassembler fix, without re-driving the application.

* :class:`CollectStage` — APK + drive → :class:`CollectResult`
  (archive + drive outcome; nothing downstream, no fake fields)
* :class:`ReassembleStage` — :class:`CollectionArchive` → ``DexFile``
  (offline reassembly plus the binary round-trip; the one stage that
  touches the corpus index)
* :class:`VerifyStage` — ``DexFile`` → verified ``DexFile``, or a
  structured :class:`~repro.errors.StageError`
* :class:`RepackStage` — APK + DEX → revealed APK

In process the archive holds the live collector and reassembly reads it
directly; ``archive_dir`` and ``reveal_from_archive`` run the same
reassembly over the collection files alone.

Failures inside a stage surface as :class:`~repro.errors.StageError`
carrying the stage name and the original cause; drive-level VM crashes
and budget exhaustion are *not* failures — collection up to that point
is the result (the paper reveals the executed prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.collection_files import CollectionArchive
from repro.core.collector import DexLegoCollector
from repro.core.config import RevealConfig
from repro.core.force_execution import ForceExecutionEngine, ForceExecutionReport
from repro.core.reassembler import Reassembler
from repro.dex.reader import read_dex
from repro.dex.structures import DexFile
from repro.dex.verify import assert_valid
from repro.dex.writer import write_dex
from repro.errors import BudgetExceeded, StageError, VmCrash
from repro.runtime.apk import Apk
from repro.runtime.art import AndroidRuntime
from repro.runtime.events import AppDriver, DriveReport
from repro.runtime.exceptions import VmThrow

STAGE_COLLECT = "collect"
STAGE_REASSEMBLE = "reassemble"
STAGE_VERIFY = "verify"
STAGE_REPACK = "repack"

ALL_STAGES = (STAGE_COLLECT, STAGE_REASSEMBLE, STAGE_VERIFY, STAGE_REPACK)


@dataclass
class StageEvent:
    """One observer notification: a stage finished (or failed)."""

    stage: str
    duration_s: float
    ok: bool = True
    error: str = ""


@dataclass
class CollectResult:
    """What JIT collection produced: the archive plus the drive outcome.

    Carries only what the collect stage actually knows — the collected
    state, as an archive, and how the drive ended.  Downstream artefacts
    (reassembled DEX, revealed APK) belong to later stages.
    """

    archive: CollectionArchive
    collector_stats: dict = field(default_factory=dict)
    force_report: ForceExecutionReport | None = None
    crashed: bool = False
    crash_reason: str = ""
    budget_exhausted: bool = False

    @property
    def dump_size_bytes(self) -> int:
        return self.archive.total_size_bytes()


class CollectStage:
    """Drive the app inside the instrumented runtime; keep what ran.

    VM crashes and budget exhaustion end the drive but not the stage:
    the archive covers the executed prefix and the outcome flags say
    why it stopped.  Only non-VM exceptions (a crashing drive callable,
    bad input) are stage failures.
    """

    name = STAGE_COLLECT

    def __init__(self, config: RevealConfig | None = None,
                 wave_observer=None) -> None:
        self.config = config or RevealConfig()
        #: Optional exploration progress callback, forwarded to the
        #: force-execution scheduler (callables cannot live on the
        #: frozen, hashable config, so this travels beside it).
        self.wave_observer = wave_observer

    def run(self, apk: Apk, drive=None,
            resume_state: dict | None = None) -> CollectResult:
        """Drive (or resume) collection.

        ``resume_state`` is a force-execution frontier snapshot (the
        archive's ``exploration_state.json``); passing one continues an
        interrupted exploration — force execution is implied even when
        the config flag is off, because the state only exists for it.
        """
        config = self.config
        collector = DexLegoCollector()
        engine = None
        force_report = None
        crashed = False
        crash_reason = ""
        budget_exhausted = False
        try:
            if config.use_force_execution or resume_state is not None:
                # ``drive`` passes through as-is: the engine must see
                # ``None`` for the default drive so the process backend
                # knows nothing un-shippable was requested.
                engine = ForceExecutionEngine(
                    apk,
                    drive=drive,
                    device=config.device,
                    collector=collector,
                    run_budget=config.run_budget,
                    max_iterations=config.force_iterations,
                    strategy=config.exploration_strategy,
                    max_paths=config.max_paths,
                    path_budget=config.path_budget,
                    workers=config.explore_workers,
                    backend=config.explore_backend,
                    resume_state=resume_state,
                    wave_observer=self.wave_observer,
                )
                force_report = engine.run()
            else:
                runtime = AndroidRuntime(config.device,
                                         max_steps=config.run_budget)
                runtime.add_listener(collector)
                driver = AppDriver(runtime, apk)
                drive = drive or \
                    (lambda driver: driver.run_standard_session())
                try:
                    outcome = drive(driver)
                except BudgetExceeded:
                    budget_exhausted = True
                except (VmCrash, VmThrow) as exc:
                    crashed = True
                    crash_reason = str(exc)
                else:
                    # Drivers absorb VM failures into their DriveReport
                    # (run_standard_session and launch both do); fold
                    # those flags into the result rather than losing them.
                    if isinstance(outcome, DriveReport):
                        crashed = outcome.crashed
                        crash_reason = outcome.crash_reason
                        budget_exhausted = outcome.budget_exhausted
        except StageError:
            raise
        except Exception as exc:
            raise StageError(self.name, exc) from exc
        # The frontier goes with the collection files, so the archive is
        # enough to continue an interrupted exploration; the archive
        # serialises it only if it is read.
        frontier = engine.frontier() if engine is not None else None
        return CollectResult(
            archive=CollectionArchive.from_collector(collector, frontier),
            collector_stats=collector.stats(),
            force_report=force_report,
            crashed=crashed,
            crash_reason=crash_reason,
            budget_exhausted=budget_exhausted,
        )


class ReassembleStage:
    """Offline reassembly: collection files in, binary-faithful DEX out.

    Includes the binary round-trip (serialise, re-read) so the returned
    model is exactly what a consumer would load from disk.
    """

    name = STAGE_REASSEMBLE

    def __init__(self, index=None) -> None:
        #: Optional :class:`~repro.index.corpus.CorpusIndex`, the one
        #: the pipeline opened: probed for how much of this app the
        #: corpus already revealed, used as the reassembler's body cache
        #: (already-revealed bodies are replayed instead of re-emitted)
        #: and given this reveal's digests.
        self.index = index

    def run(self, archive: CollectionArchive, app_id: str | None = None,
            artifact: str | None = None) -> tuple[DexFile, dict]:
        """Reassemble ``archive``; with an index, its entries name
        ``app_id`` and ``artifact``.

        Returns the DEX and its dedup accounting (empty without an
        index): the probe's known vs executed methods, then bodies
        emitted vs replayed and corpus known vs new, or ``degraded``
        with the reason an index write failed.
        """
        try:
            store = archive.collector.method_store
            digests = None
            stats: dict = {}
            if self.index is not None:
                digests = archive.method_digests(self.index)
                stats = self.index.probe_method_store(store, digests)
            reassembler = Reassembler(
                archive.collector.classes,
                store,
                archive.collector.reflection_sites,
                body_cache=self.index,
                digests=digests,
            )
            dex = reassembler.reassemble()
            if self.index is not None:
                # The index is an optional subsystem: failing to store a
                # body or journal this reveal's digests costs future
                # dedup savings, never the reveal itself.
                failure = reassembler.body_write_error
                try:
                    stats.update(self.index.register_reassembly(
                        store, reassembler, app_id, digests,
                        artifact=artifact))
                except OSError as exc:
                    failure = exc
                if failure is not None:
                    stats["degraded"] = str(failure)
            return read_dex(write_dex(dex)), stats
        except Exception as exc:
            raise StageError(self.name, exc) from exc


class VerifyStage:
    """The §IV-C validity gate: the revealed DEX must verify."""

    name = STAGE_VERIFY

    def run(self, dex: DexFile) -> DexFile:
        try:
            assert_valid(dex)
        except Exception as exc:
            raise StageError(self.name, exc) from exc
        return dex


class RepackStage:
    """Swap the reassembled DEX into a copy of the original APK: its
    manifest, assets and native libraries in fresh containers, without
    re-serialising it."""

    name = STAGE_REPACK

    def run(self, apk: Apk, dex: DexFile) -> Apk:
        try:
            return Apk(
                package=apk.package,
                main_activity=apk.main_activity,
                dex_files=[dex],  # merged: includes dynamically-loaded code
                assets=dict(apk.assets),
                native_libraries=list(apk.native_libraries),
                activities=list(apk.activities),
                version=apk.version,
            )
        except Exception as exc:
            raise StageError(self.name, exc) from exc
