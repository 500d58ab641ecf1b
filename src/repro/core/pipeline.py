"""End-to-end DexLego pipeline (paper Figure 1), as composed stages.

:class:`Pipeline` chains the four first-class stages of
:mod:`repro.core.stages` — collect → reassemble → verify → repack —
under one :class:`~repro.core.config.RevealConfig`, recording per-stage
wall-clock timings and notifying an optional observer after every
stage.  Because the stages are separable, the pipeline also exposes
suffix entry points: :meth:`Pipeline.collect` runs only the on-device
half, and :func:`reveal_from_archive` runs only the offline half over
previously saved collection files (re-run reassembly after a
reassembler fix without re-driving the app).

A :class:`~repro.core.config.RevealConfig` is the one way to configure
a reveal, and :class:`Pipeline` the one class that runs it;
:func:`reveal_apk` is ``Pipeline(config).run(apk)``.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.collection_files import CollectionArchive
from repro.core.config import RevealConfig
from repro.core.force_execution import ForceExecutionReport
from repro.core.stages import (
    STAGE_COLLECT,
    STAGE_REASSEMBLE,
    STAGE_REPACK,
    STAGE_VERIFY,
    CollectResult,
    CollectStage,
    ReassembleStage,
    RepackStage,
    StageEvent,
    VerifyStage,
)
from repro.dex.structures import DexFile
from repro.errors import StageError
from repro.runtime.apk import Apk

logger = logging.getLogger(__name__)

#: Observer signature: called once per finished (or failed) stage.
PipelineObserver = Callable[[StageEvent], None]


@dataclass
class OptionalStores:
    """The optional stores a reveal may use, and the ones it cannot.

    ``index`` is a :class:`~repro.index.corpus.CorpusIndex` and
    ``cluster`` a :class:`~repro.cluster.store.ClusterStore` (``None``
    when not configured or not openable); ``degraded`` maps each store
    that failed to open to the reason.  Both stores are thread-safe, so
    one instance can serve every pipeline of a service.
    """

    index: object = None
    cluster: object = None
    degraded: dict[str, str] = field(default_factory=dict)


def _note_degraded(degraded: dict[str, str], subsystem: str, reason) -> None:
    if isinstance(reason, Exception):
        reason = f"{type(reason).__name__}: {reason}"
    degraded[subsystem] = reason
    logger.warning("%s unavailable (%s); revealing without it",
                   subsystem, reason)


def open_optional_stores(config: RevealConfig) -> OptionalStores:
    """Open ``config.index_dir`` and ``config.cluster_dir``: the one
    place that decides whether an optional store degrades.

    A corrupt or foreign-version directory degrades to revealing
    without that store, with one warning — dedup and labeling are
    optimisations, never prerequisites for a reveal.
    """
    stores = OptionalStores()
    if config.index_dir is not None:
        # Lazy imports keep repro.core free of module-level
        # dependencies on repro.index and repro.cluster (which import
        # back into core).
        from repro.index.corpus import CorpusIndex

        try:
            stores.index = CorpusIndex(config.index_dir)
        except (OSError, ValueError) as exc:
            _note_degraded(stores.degraded, "index", exc)
    if config.cluster_dir is not None:
        from repro.cluster.store import ClusterStore

        try:
            stores.cluster = ClusterStore(config.cluster_dir)
        except (OSError, ValueError) as exc:
            _note_degraded(stores.degraded, "cluster", exc)
    return stores


@dataclass
class RevealResult:
    """Everything DexLego produced for one application.

    Fields:

    * ``revealed_apk`` — the repacked application whose ``classes.dex``
      is the reassembled DEX (the artefact handed to static analyzers).
      ``None`` for archive-only runs with no original APK to repack.
    * ``reassembled_dex`` — the offline-reassembled DEX after a binary
      round-trip and verification.
    * ``archive`` — the collection output (Figure 2's five on-disk
      intermediates plus reflection records), holding its collector.
    * ``collector_stats`` — :meth:`DexLegoCollector.stats` snapshot:
      classes/methods/instructions observed during the drive (empty for
      archive-only runs, where no collector was live).
    * ``force_report`` — force-execution iteration report when the code
      coverage improvement module ran, else ``None``.
    * ``crashed`` / ``crash_reason`` — the drive died with a VM crash or
      uncaught application throw; collection up to that point is kept.
    * ``budget_exhausted`` — the interpreter step budget expired before
      the drive finished; the reveal covers only the executed prefix.
    * ``stage_timings`` — wall-clock seconds per executed stage, keyed
      by stage name (``collect``/``reassemble``/``verify``/``repack``).
    * ``index_stats`` — corpus-index dedup accounting when
      ``RevealConfig.index_dir`` is set (bodies replayed vs emitted,
      methods the corpus already knew); empty otherwise.
    * ``cluster_stats`` — auto-labeling verdict when
      ``RevealConfig.cluster_dir`` is set (family, per-method known /
      near-miss counts, nearest-known-method evidence); empty
      otherwise.
    * ``degraded`` — sorted names of the optional stores (``index``,
      ``cluster``) this reveal bypassed: ones that failed to open, and
      ones whose write failed mid-reveal.  A failed index write also
      puts its reason in ``index_stats["degraded"]``.
    """

    revealed_apk: Apk | None
    reassembled_dex: DexFile
    archive: CollectionArchive
    collector_stats: dict
    force_report: ForceExecutionReport | None = None
    crashed: bool = False
    crash_reason: str = ""
    budget_exhausted: bool = False
    stage_timings: dict[str, float] = field(default_factory=dict)
    index_stats: dict = field(default_factory=dict)
    cluster_stats: dict = field(default_factory=dict)
    degraded: list[str] = field(default_factory=list)

    @property
    def dump_size_bytes(self) -> int:
        return self.archive.total_size_bytes()


class Pipeline:
    """Stage conductor: one config, four stages, timed and observable.

    ``stores`` are the optional corpus index and cluster store (see
    :func:`open_optional_stores`); a pipeline handed none opens its
    own from the config.
    """

    def __init__(
        self,
        config: RevealConfig | None = None,
        observer: PipelineObserver | None = None,
        wave_observer=None,
        stores: OptionalStores | None = None,
    ) -> None:
        self.config = config or RevealConfig()
        self.observer = observer
        if stores is None:
            stores = open_optional_stores(self.config)
        self.index = stores.index
        self.cluster = stores.cluster
        #: Optional stores this pipeline had to bypass (name -> reason).
        self.degraded: dict[str, str] = dict(stores.degraded)
        self.collect_stage = CollectStage(self.config,
                                          wave_observer=wave_observer)
        self.reassemble_stage = ReassembleStage(index=self.index)
        self.verify_stage = VerifyStage()
        self.repack_stage = RepackStage()

    # -- stage execution ----------------------------------------------------

    def _timed(self, stage: str, timings: dict[str, float], fn, *args):
        started = time.perf_counter()
        try:
            result = fn(*args)
        except StageError as err:
            duration = time.perf_counter() - started
            timings[stage] = duration
            self._notify(StageEvent(stage, duration, ok=False,
                                    error=str(err.cause)))
            raise
        duration = time.perf_counter() - started
        timings[stage] = duration
        self._notify(StageEvent(stage, duration))
        return result

    def _notify(self, event: StageEvent) -> None:
        if self.observer is not None:
            self.observer(event)

    # -- entry points -------------------------------------------------------

    def collect(self, apk: Apk, drive=None,
                timings: dict[str, float] | None = None) -> CollectResult:
        """The on-device half only: drive the app, return the archive."""
        timings = timings if timings is not None else {}
        return self._timed(STAGE_COLLECT, timings,
                           self.collect_stage.run, apk, drive)

    def run(self, apk: Apk, drive=None) -> RevealResult:
        """The full Figure-1 pipeline for one application."""
        timings: dict[str, float] = {}
        collected = self.collect(apk, drive, timings=timings)
        return self._finish_run(apk, collected, timings)

    def resume(self, apk: Apk, source: "CollectionArchive | str | os.PathLike",
               drive=None) -> RevealResult:
        """Continue an interrupted force-execution exploration.

        ``source`` is a saved collection archive (or directory) whose
        ``exploration_state.json`` carries the frontier of a previous
        run; collection restarts *from that frontier* — no baseline
        re-drive, dedup set intact — then the offline half runs as
        usual.  Raises ``ValueError`` when the archive has no
        exploration state to resume.
        """
        if isinstance(source, (str, os.PathLike)):
            archive = CollectionArchive.load(os.fspath(source))
        else:
            archive = source
        state = archive.exploration_state()
        if state is None:
            raise ValueError(
                "archive carries no exploration_state.json to resume; "
                "run collection with use_force_execution first"
            )
        timings: dict[str, float] = {}
        collected = self._timed(STAGE_COLLECT, timings,
                                self.collect_stage.run, apk, drive, state)
        # The session's collector saw only this session's replays; merge
        # with the archive being resumed so code executed only by the
        # earlier session (baseline drive, prior replays) stays revealed
        # — and a no-op resume (empty frontier) degrades to the saved
        # archive instead of clobbering it with empty collection files.
        collected.archive = CollectionArchive.merged(archive,
                                                     collected.archive)
        return self._finish_run(apk, collected, timings)

    def _finish_run(self, apk: Apk, collected: CollectResult,
                    timings: dict[str, float]) -> RevealResult:
        """Shared archive-persistence + offline suffix after collection."""
        if self.config.archive_dir is not None:
            # The offline boundary: reassemble from the saved files.
            # Persistence failures belong to the collect stage (its
            # output could not be written) and surface as a StageError;
            # no extra observer event — the stage itself already
            # notified once, and the contract is one event per stage.
            try:
                collected.archive.save(self.config.archive_dir)
                collected.archive = CollectionArchive.load(
                    self.config.archive_dir)
            except OSError as exc:
                raise StageError(STAGE_COLLECT, exc) from exc
        return self._offline(collected, apk, timings)

    def reveal_from_archive(
        self,
        source: CollectionArchive | str | os.PathLike,
        apk: Apk | None = None,
    ) -> RevealResult:
        """The offline half only: saved collection files → verified DEX.

        ``source`` is a :class:`CollectionArchive` or a directory it was
        saved to.  When ``apk`` is provided the DEX is also repacked
        into a revealed application; otherwise ``revealed_apk`` is
        ``None`` and the reassembled DEX is the product.
        """
        if isinstance(source, (str, os.PathLike)):
            archive = CollectionArchive.load(os.fspath(source))
        else:
            archive = source
        return self._offline(CollectResult(archive), apk, {})

    def _offline(self, collected: CollectResult, apk: Apk | None,
                 timings: dict[str, float]) -> RevealResult:
        """Shared reassemble → verify → (repack) suffix, then the
        cluster store, over ``collected.archive``."""
        archive = collected.archive
        app_id = apk.package if apk is not None else None
        dex, index_stats = self._timed(STAGE_REASSEMBLE, timings,
                                       self.reassemble_stage.run, archive,
                                       app_id, self.config.archive_dir)
        dex = self._timed(STAGE_VERIFY, timings, self.verify_stage.run, dex)
        revealed = None
        if apk is not None:
            revealed = self._timed(STAGE_REPACK, timings,
                                   self.repack_stage.run, apk, dex)
        degraded = set(self.degraded)
        if "degraded" in index_stats:
            degraded.add("index")
        cluster_stats = self._cluster_stats(archive, app_id)
        if cluster_stats is None:
            degraded.add("cluster")
        return RevealResult(
            revealed_apk=revealed,
            reassembled_dex=dex,
            archive=archive,
            collector_stats=collected.collector_stats,
            force_report=collected.force_report,
            crashed=collected.crashed,
            crash_reason=collected.crash_reason,
            budget_exhausted=collected.budget_exhausted,
            stage_timings=timings,
            index_stats=index_stats,
            cluster_stats=cluster_stats or {},
            degraded=sorted(degraded),
        )

    def _cluster_stats(self, archive: CollectionArchive,
                       app_id: str | None) -> dict | None:
        """Auto-label this reveal, then absorb it for future labeling.

        Labeling runs *before* registration so the reveal never matches
        itself; the app-id filter in the labeler guards the re-reveal
        case.  Both read the archive's digests, the ones reassembly
        used.  A cluster store failure returns ``None``: the reveal
        degrades to no labels, never fails.
        """
        if self.cluster is None:
            return {}
        from repro.cluster.labels import AutoLabeler

        app = app_id or "<unknown-app>"
        records = archive.collector.method_store.executed_records()
        try:
            digests = archive.method_digests(self.index)
            labeler = AutoLabeler(self.cluster, index=self.index)
            stats = labeler.label_records(records, app, digests)
            self.cluster.register_records(app, records, digests)
        except (OSError, ValueError):
            return None
        return stats


def reveal_apk(apk: Apk, config: RevealConfig | None = None) -> RevealResult:
    """Convenience one-shot: ``Pipeline(config).run(apk)``."""
    return Pipeline(config).run(apk)


def reveal_from_archive(
    source: CollectionArchive | str | os.PathLike,
    apk: Apk | None = None,
    config: RevealConfig | None = None,
    observer: PipelineObserver | None = None,
) -> RevealResult:
    """Standalone offline entry point: saved collection files in,
    verified (optionally repacked) DEX out — no runtime, no drive."""
    return Pipeline(config, observer=observer).reveal_from_archive(
        source, apk)


def resume_exploration(
    source: CollectionArchive | str | os.PathLike,
    apk: Apk,
    config: RevealConfig | None = None,
    drive=None,
    observer: PipelineObserver | None = None,
) -> RevealResult:
    """Continue an interrupted force-execution run from a saved archive.

    The archive's ``exploration_state.json`` restores the scheduler
    frontier, covered-outcome map and dedup set; replays pick up where
    the previous session's budget stopped them (``config.max_paths``
    applies afresh to this session).
    """
    return Pipeline(config, observer=observer).resume(apk, source, drive)
