"""DexLego reproduction: reassembleable bytecode extraction for aiding
static analysis (Ning & Zhang, DSN 2018).

Layer map (bottom-up):

* :mod:`repro.dex` — Dalvik Executable substrate: binary container,
  instruction set, assembler/disassembler, verifier.
* :mod:`repro.runtime` — the simulated Android Runtime: class linker,
  interpreter with instrumentation hooks, framework stubs, APKs.
* :mod:`repro.packers` — packing-platform analogues.
* :mod:`repro.core` — **DexLego itself**: just-in-time collection
  (Algorithm 1), collection trees, offline reassembly, reflection
  rewriting, force execution.
* :mod:`repro.analysis` — comparator tools: static taint analyses
  (FlowDroid/DroidSafe/HornDroid profiles), dynamic taint trackers
  (TaintDroid/TaintART profiles), method-level unpackers
  (DexHunter/AppSpear), call graphs, metrics.
* :mod:`repro.benchsuite` — the DroidBench analogue (134 samples) and
  procedurally generated application corpora.
* :mod:`repro.coverage` — coverage measurement, fuzzing, CF-Bench.
* :mod:`repro.service` — corpus-scale batch reveal: worker pools,
  content-addressed result cache, per-app outcomes, throughput stats.
* :mod:`repro.harness` — one experiment runner per paper table/figure.

Quickstart::

    from repro import Apk, assemble, flowdroid, reveal_apk

    apk = Apk("com.example", "Lcom/example/Main;", [assemble(SMALI)])
    revealed = reveal_apk(apk).revealed_apk
    print(flowdroid().analyze(revealed).flows)
"""

from repro.analysis import (
    droidsafe,
    flowdroid,
    horndroid,
    taintart,
    taintdroid,
)
from repro.core import (
    DexLegoCollector,
    Pipeline,
    RevealConfig,
    RevealResult,
    resume_exploration,
    reveal_apk,
    reveal_from_archive,
)
from repro.dex import (
    DexBuilder,
    DexFile,
    assemble,
    disassemble,
    read_dex,
    verify_dex,
    write_dex,
)
from repro.errors import ReproError
from repro.runtime import AndroidRuntime, Apk, AppDriver, register_native_library
from repro.service import BatchRevealService, RevealJob, RevealOutcome

__version__ = "1.0.0"

__all__ = [
    "AndroidRuntime",
    "Apk",
    "AppDriver",
    "BatchRevealService",
    "DexBuilder",
    "DexFile",
    "DexLegoCollector",
    "Pipeline",
    "ReproError",
    "RevealConfig",
    "RevealJob",
    "RevealOutcome",
    "RevealResult",
    "assemble",
    "disassemble",
    "droidsafe",
    "flowdroid",
    "horndroid",
    "read_dex",
    "register_native_library",
    "resume_exploration",
    "reveal_apk",
    "reveal_from_archive",
    "taintart",
    "taintdroid",
    "verify_dex",
    "write_dex",
    "__version__",
]
