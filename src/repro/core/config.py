"""First-class pipeline configuration.

The paper separates *what* DexLego does (collect, reassemble, verify,
repack) from *how* it is parameterised (device identity, execution
budget, force-execution knobs).  :class:`RevealConfig` is that second
half as a value object: frozen (hashable, safe as a dict key or cache
key component) and self-hashing (``config_hash()`` is the sole
configuration input to the service layer's content-addressed cache
keys).  It is the one way to configure a reveal, and
:class:`~repro.core.pipeline.Pipeline` the one class that runs it.

``archive_dir``, ``index_dir`` and ``cluster_dir`` are deliberately
excluded from the identity hash: where the collection files land on
disk (or which corpus index accelerates reassembly, or which cluster
store labels the reveal) does not change what the pipeline computes,
only where its intermediates live and how fast it runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from repro.core.exploration import (
    ALL_STRATEGIES,
    BACKEND_SERIAL,
    EXPLORE_BACKENDS,
    STRATEGY_BFS,
)
from repro.runtime.device import NEXUS_5X, DeviceProfile


@dataclass(frozen=True)
class RevealConfig:
    """Everything that parameterises one pipeline run.

    Fields:

    * ``device`` — simulated device identity (feeds sources and
      emulator-detection branches; the whole profile is identity, not
      just its name).
    * ``use_force_execution`` — run the code coverage improvement
      module (iterative force execution) instead of a single drive.
    * ``run_budget`` — interpreter step budget per run; the analogue of
      the paper's wall-clock execution budget.
    * ``archive_dir`` — when set, collection files are serialised here
      and reloaded before reassembly, proving the offline boundary.
      Not part of the configuration identity.
    * ``force_iterations`` — iteration cap for force execution.
    * ``exploration_strategy`` — frontier order for force execution:
      ``bfs`` / ``dfs`` / ``rarity-first``
      (:data:`~repro.core.exploration.ALL_STRATEGIES`).
    * ``max_paths`` — total replay budget across the exploration
      (``None`` = unbounded; the frontier serialises for resume).
    * ``path_budget`` — interpreter step budget per *replay* run
      (``None`` = same as ``run_budget``).
    * ``explore_workers`` — width of the ``process`` backend's worker
      pool; the ``serial`` backend ignores it.
    * ``explore_backend`` — how a wave of replays executes: ``serial``
      (in this process, the default) or ``process`` (forked workers)
      (:data:`~repro.core.exploration.EXPLORE_BACKENDS`).  Replays come
      back as :class:`~repro.core.replay.TraceDelta` values merged in
      pop order, so exploration state *and* collection output are
      identical across backends and worker counts; the knob still
      feeds the identity hash — deliberately conservative, like the
      rest of the inert force-execution knobs.
    * ``index_dir`` — when set, a persistent
      :class:`~repro.index.corpus.CorpusIndex` at this path is
      consulted during reassembly (already-revealed method bodies are
      replayed instead of re-emitted, across *different* apps) and every
      reveal registers its methods back.  Excluded from the identity
      hash like ``archive_dir``: replayed bodies are byte-identical to
      re-emitted ones, so the index changes cost, never output.
    * ``cluster_dir`` — when set, a persistent
      :class:`~repro.cluster.store.ClusterStore` at this path labels
      every reveal with its family + nearest-known-method evidence
      (``RevealResult.cluster_stats``) and absorbs the reveal's digests
      for future labeling.  Excluded from the identity hash like
      ``index_dir``: labels annotate the result, they never change the
      revealed bytes.
    """

    device: DeviceProfile = NEXUS_5X
    use_force_execution: bool = False
    run_budget: int = 2_000_000
    archive_dir: str | None = None
    force_iterations: int = 25
    exploration_strategy: str = STRATEGY_BFS
    max_paths: int | None = None
    path_budget: int | None = None
    explore_workers: int = 1
    explore_backend: str = BACKEND_SERIAL
    index_dir: str | None = None
    cluster_dir: str | None = None

    def __post_init__(self) -> None:
        if self.exploration_strategy not in ALL_STRATEGIES:
            raise ValueError(
                f"unknown exploration_strategy {self.exploration_strategy!r}; "
                f"pick one of {ALL_STRATEGIES}"
            )
        if self.explore_backend not in EXPLORE_BACKENDS:
            raise ValueError(
                f"unknown explore_backend {self.explore_backend!r}; "
                f"pick one of {EXPLORE_BACKENDS}"
            )

    # -- derivation ---------------------------------------------------------

    def replace(self, **changes) -> "RevealConfig":
        """A copy with some fields swapped (frozen-friendly)."""
        return dataclasses.replace(self, **changes)

    # -- identity -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "device": dataclasses.asdict(self.device),
            "use_force_execution": self.use_force_execution,
            "run_budget": self.run_budget,
            "archive_dir": self.archive_dir,
            "force_iterations": self.force_iterations,
            "exploration_strategy": self.exploration_strategy,
            "max_paths": self.max_paths,
            "path_budget": self.path_budget,
            "explore_workers": self.explore_workers,
            "explore_backend": self.explore_backend,
            "index_dir": self.index_dir,
            "cluster_dir": self.cluster_dir,
        }

    def fingerprint(self) -> dict:
        """The identity-relevant slice: everything except the two paths.

        Force-execution knobs (``force_iterations`` and the exploration
        set) participate even when ``use_force_execution`` is off —
        deliberately conservative: over-keying the cache costs at most
        a recompute, while normalising inert knobs risks serving a
        stale record if a future pipeline consults them elsewhere.
        ``archive_dir``, ``index_dir`` and ``cluster_dir`` are excluded
        because none of them can change what the pipeline computes: the
        archive is a persistence location, index-replayed bodies are
        byte-identical to re-emitted ones by construction, and cluster
        labels annotate the result without touching the revealed bytes.
        """
        identity = self.to_dict()
        del identity["archive_dir"]
        del identity["index_dir"]
        del identity["cluster_dir"]
        return identity

    def config_hash(self) -> str:
        """Stable SHA-256 of the configuration identity (64 hex chars)."""
        blob = json.dumps(self.fingerprint(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
