"""DexLego core: JIT collection, tree model, reassembly, force execution.

This package is the paper's primary contribution:

* :class:`~repro.core.collector.DexLegoCollector` — Algorithm 1 JIT
  collection attached to the runtime
* :class:`~repro.core.tree.CollectionTree` — the divergence-tree model
* :class:`~repro.core.reassembler.Reassembler` — offline DEX reassembly
* :class:`~repro.core.force_execution.ForceExecutionEngine` — iterative
  force execution (the code coverage improvement module)
* :class:`~repro.core.config.RevealConfig` — frozen, hashable,
  self-hashing pipeline configuration: the one way to configure a
  reveal
* :mod:`repro.core.stages` — the four composable stages
  (collect → reassemble → verify → repack)
* :class:`~repro.core.pipeline.Pipeline` — the stage conductor, the one
  class that runs a reveal, with :func:`~repro.core.pipeline.reveal_apk`
  as its one-shot and :func:`~repro.core.pipeline.reveal_from_archive`
  as the offline-only entry point
"""

from repro.core.collection_files import CollectionArchive
from repro.core.collector import DexLegoCollector
from repro.core.config import RevealConfig
from repro.core.exploration import (
    ALL_STRATEGIES,
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    EXPLORE_BACKENDS,
    STRATEGY_BFS,
    STRATEGY_DFS,
    STRATEGY_RARITY,
    ExplorationScheduler,
    ExplorationStats,
)
from repro.core.force_execution import (
    BranchTraceListener,
    ForcedPathController,
    ForceExecutionEngine,
    ForceExecutionReport,
    PathFile,
)
from repro.core.replay import ReplaySpec, TraceDelta, execute_replay
from repro.core.method_store import MethodRecord, MethodStore
from repro.core.pipeline import (
    Pipeline,
    RevealResult,
    resume_exploration,
    reveal_apk,
    reveal_from_archive,
)
from repro.core.reassembler import INSTRUMENT_CLASS, Reassembler
from repro.core.stages import (
    ALL_STAGES,
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
from repro.core.tree import CollectedInstruction, CollectionTree, TreeNode
from repro.errors import StageError

__all__ = [
    "ALL_STAGES",
    "ALL_STRATEGIES",
    "BACKEND_PROCESS",
    "BACKEND_SERIAL",
    "BranchTraceListener",
    "EXPLORE_BACKENDS",
    "ExplorationScheduler",
    "ExplorationStats",
    "STRATEGY_BFS",
    "STRATEGY_DFS",
    "STRATEGY_RARITY",
    "CollectedInstruction",
    "CollectionArchive",
    "CollectionTree",
    "CollectResult",
    "CollectStage",
    "DexLegoCollector",
    "ForceExecutionEngine",
    "ForceExecutionReport",
    "ForcedPathController",
    "INSTRUMENT_CLASS",
    "MethodRecord",
    "MethodStore",
    "PathFile",
    "Pipeline",
    "Reassembler",
    "ReassembleStage",
    "RepackStage",
    "ReplaySpec",
    "RevealConfig",
    "RevealResult",
    "TraceDelta",
    "STAGE_COLLECT",
    "STAGE_REASSEMBLE",
    "STAGE_REPACK",
    "STAGE_VERIFY",
    "StageError",
    "StageEvent",
    "TreeNode",
    "VerifyStage",
    "execute_replay",
    "resume_exploration",
    "reveal_apk",
    "reveal_from_archive",
]
