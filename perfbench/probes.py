"""Wrappers around each layer's public functions, for the traced run.

:func:`install` patches, in this process, the boundaries the per-layer
ledger times: each wrapper opens a span named after its layer, calls
the original, closes the span and then records its counts on it.  The
untraced run never imports this module, so its numbers come from the
program exactly as shipped.
"""

from __future__ import annotations

import functools

#: The replay-delta merge span: tree dedup inside it is merge time.
ABSORB = "explore.delta_absorb"


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``, keeping class-
    and static-method binding intact."""
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    func = raw.__func__ if binder is not None else raw
    wrapped = functools.wraps(func)(make(func))
    setattr(owner, attr, binder(wrapped) if binder is not None else wrapped)


def install(tracer) -> None:
    """Wrap every boundary in the ledger's table; call once per
    process."""
    from repro.cluster.labels import AutoLabeler
    from repro.cluster.store import ClusterStore
    from repro.core import force_execution, stages
    from repro.core.collection_files import CollectionArchive
    from repro.core.collector import DexLegoCollector
    from repro.core.exploration import ExplorationScheduler
    from repro.core.method_store import MethodRecord
    from repro.core.reassembler import Reassembler
    from repro.index.corpus import CorpusIndex
    from repro.runtime.events import AppDriver
    from repro.service import worker as worker_module
    from repro.service.artifacts import ArtifactStore
    from repro.service.jobs import JobStore
    from repro.service.worker import RevealWorker

    def span(owner, attr: str, name: str, after=None) -> None:
        def make(func):
            def traced(*args, **kwargs):
                opened = tracer.open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close(opened)
                if after is not None:
                    after(opened, args, result)
                return result
            return traced
        _patch(owner, attr, make)

    def count(owner, attr: str, after) -> None:
        def make(func):
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                after(tracer.current(), args, result)
                return result
            return counted
        _patch(owner, attr, make)

    add = tracer.add

    # -- collector, tree and method store (repro.runtime + core) --------
    span(stages.CollectStage, "run", "collect",
         lambda s, a, r: add(s, "collect.instructions",
                             r.collector_stats.get("instructions_observed", 0)))
    span(AppDriver, "run_standard_session", "collect.drive")
    span(CollectionArchive, "from_collector", "collect.archive")

    def add_tree(func):
        # Inside a replay-delta merge the tree dedup is part of the
        # merge's own time; elsewhere it is the collector's.
        def traced(record, tree):
            outer = tracer.current()
            if outer is not None and outer.name == ABSORB:
                kept = func(record, tree)
                add(outer, "explore.merge_offered")
                add(outer, "explore.merge_kept", int(kept))
                return kept
            opened = tracer.open("collect.add_tree")
            try:
                kept = func(record, tree)
            finally:
                tracer.close(opened)
            add(opened, "collect.trees_offered")
            add(opened, "collect.trees_kept", int(kept))
            return kept
        return traced
    _patch(MethodRecord, "add_tree", add_tree)

    # -- force execution, exploration and replay ------------------------
    def replayed(s, args, delta) -> None:
        if args[0].path is not None:
            add(s, "explore.replays")
            add(s, "explore.steps", delta.steps)
    span(force_execution, "execute_replay", "explore.replay", replayed)
    span(DexLegoCollector, "delta_dict", "explore.delta_serialize")
    span(DexLegoCollector, "absorb", ABSORB)
    span(ExplorationScheduler, "offer", "explore.schedule",
         lambda s, a, r: add(s, "explore.deduped", int(not r)))
    span(ExplorationScheduler, "pop_wave", "explore.schedule",
         lambda s, a, r: add(s, "explore.waves", int(bool(r))))

    # -- reassembly, DEX round trip, verify, repack ---------------------
    span(stages.ReassembleStage, "run", "reassemble")
    span(Reassembler, "reassemble", "reassemble.emit")
    span(stages, "write_dex", "dex.write",
         lambda s, a, r: add(s, "dex.bytes", len(r)))
    span(stages, "read_dex", "dex.read")
    span(stages.VerifyStage, "run", "dex.verify")
    span(stages.RepackStage, "run", "repack")

    # -- corpus index and clusters --------------------------------------
    span(CorpusIndex, "probe_method_store", "index.probe")

    def registered(s, args, stats) -> None:
        add(s, "index.bodies_replayed", stats.get("bodies_replayed", 0))
        add(s, "index.bodies_emitted", stats.get("bodies_emitted", 0))
    span(CorpusIndex, "register_reassembly", "index.register", registered)
    span(AutoLabeler, "label_records", "cluster.label")
    span(ClusterStore, "register_records", "cluster.register")

    # -- job store, worker, artifacts -----------------------------------
    span(JobStore, "claim_next", "jobs.claim")

    def scanned(s, args, records) -> None:
        add(s, "jobs.load_all")
        add(s, "jobs.records", len(records))
    count(JobStore, "load_all", scanned)
    span(JobStore, "complete_leased", "jobs.complete")
    span(JobStore, "heartbeat", "jobs.heartbeat")

    def claimed(s, args, status) -> None:
        # The job id is known once the claim returns; spans opened under
        # this one inherit it at rollup time.
        s.op = status[1] if status else None
    span(RevealWorker, "run_one", "worker.run_one", claimed)
    count(RevealWorker, "run",
          lambda s, a, report: add(s, "worker.retries",
                                   report.retries + report.transient_errors))
    span(ArtifactStore, "put", "artifacts.put",
         lambda s, a, r: add(s, "artifacts.bytes", len(a[1])))
    span(worker_module, "collection_zip_bytes", "archive.zip")
