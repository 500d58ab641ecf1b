"""The three static analysis tool analogues.

Each is the same engine (:mod:`repro.analysis.dataflow`) under a
capability profile reproducing the documented strengths and weaknesses
of its namesake:

* **FlowDroid-like** — flow- and field-sensitive with a strong
  lifecycle/callback model (its headline feature), but no implicit
  flows and no inter-component (ICC) model (FlowDroid alone predates
  IccTA), constant-string reflection only.
* **DroidSafe-like** — flow-INsensitive (its analysis is based on a
  points-to abstraction without statement ordering) and field-blurred,
  but with the broadest Android model: ICC and threads included.  Finds
  more flows, reports more false positives.
* **HornDroid-like** — value-sensitive and flow-sensitive with implicit
  flow support (its Horn-clause encoding covers control dependencies)
  and more precise array handling.  Highest accuracy of the three.

None of them can see through packing, runtime self-modification,
dynamically loaded DEX in assets, or string-free reflection — those are
exactly the gaps DexLego closes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import AnalysisConfig, DetectedFlow, StaticTaintAnalysis
from repro.runtime.apk import Apk

FLOWDROID_LIKE = AnalysisConfig(
    name="FlowDroid",
    flow_sensitive=True,
    field_sensitive=True,
    implicit_flows=False,
    resolve_constant_reflection=True,
    handle_callbacks=True,
    model_threads=True,
    model_icc=False,
    precise_arrays=False,
)

DROIDSAFE_LIKE = AnalysisConfig(
    name="DroidSafe",
    flow_sensitive=False,
    field_sensitive=False,
    implicit_flows=False,
    resolve_constant_reflection=True,
    handle_callbacks=True,
    model_threads=True,
    model_icc=True,
    precise_arrays=False,
)

HORNDROID_LIKE = AnalysisConfig(
    name="HornDroid",
    flow_sensitive=True,
    field_sensitive=True,
    implicit_flows=True,
    resolve_constant_reflection=True,
    handle_callbacks=True,
    model_threads=True,
    model_icc=True,
    precise_arrays=True,
)

ALL_TOOLS: dict[str, AnalysisConfig] = {
    "FlowDroid": FLOWDROID_LIKE,
    "DroidSafe": DROIDSAFE_LIKE,
    "HornDroid": HORNDROID_LIKE,
}


@dataclass
class StaticAnalysisResult:
    """Outcome of one tool run on one APK."""

    tool: str
    apk_package: str
    flows: list[DetectedFlow]

    @property
    def detected(self) -> bool:
        return bool(self.flows)

    @property
    def tags(self) -> set[str]:
        return {flow.source_tag for flow in self.flows}


class StaticTool:
    """One configured static analysis tool."""

    def __init__(self, config: AnalysisConfig) -> None:
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    def analyze(self, apk: Apk) -> StaticAnalysisResult:
        """Analyze the APK's visible DEX files (assets are invisible)."""
        analysis = StaticTaintAnalysis(list(apk.dex_files), self.config)
        flows = analysis.run()
        return StaticAnalysisResult(self.name, apk.package, flows)


def flowdroid() -> StaticTool:
    return StaticTool(FLOWDROID_LIKE)


def droidsafe() -> StaticTool:
    return StaticTool(DROIDSAFE_LIKE)


def horndroid() -> StaticTool:
    return StaticTool(HORNDROID_LIKE)


def all_tools() -> list[StaticTool]:
    return [StaticTool(config) for config in ALL_TOOLS.values()]
