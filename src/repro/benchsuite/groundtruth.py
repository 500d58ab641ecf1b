"""Ground-truth model for benchmark samples.

Every sample declares whether it *actually* leaks at runtime (the
DroidBench-style label), how many distinct (source tag, sink channel)
pairs flow, and which categories it belongs to.  Labels are validated by
executing each sample against the runtime's provenance oracle in the
test-suite — the declared truth must match observed behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.runtime.apk import Apk
from repro.runtime.device import NEXUS_5X, DeviceProfile


@dataclass(frozen=True)
class Sample:
    """One benchmark application with ground truth."""

    name: str
    category: str
    leaky: bool
    build: Callable[[], Apk]
    # Distinct (tag, sink signature) pairs the runtime provenance oracle
    # observes under the standard drive.  -1 means "default": 1 for leaky
    # samples, 0 for benign.  Implicit-flow samples are leaky with
    # expected_leaks=0 — ground truth says they leak, but no *explicit*
    # flow exists for the oracle (or any explicit-only tracker) to see.
    expected_leaks: int = -1
    description: str = ""
    device: DeviceProfile = NEXUS_5X
    added_by_paper: bool = False  # one of the 15 samples the paper contributes

    def build_apk(self) -> Apk:
        return self.build()

    def __post_init__(self) -> None:
        if self.expected_leaks < 0:
            object.__setattr__(self, "expected_leaks", 1 if self.leaky else 0)


@dataclass
class SampleOutcome:
    """Per-sample, per-tool observation used for Table II/III scoring."""

    sample: Sample
    detected: bool
    flow_count: int = 0
