"""CF-Bench analogue (Figure 6) and launch-time measurement (Table VIII).

*Java score*: throughput of a bytecode-interpreted arithmetic workload
(instructions per second, scaled).  *Native score*: throughput of the
same arithmetic executed inside a native (Python-level) method, which
instrumentation only touches at the call boundary.  *Overall score*: the
weighted mean CF-Bench reports.  The interesting quantity is the ratio
between an unmodified runtime and one with the DexLego collector
attached — Java work slows far more than native work, as in the paper.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.dex.builder import DexBuilder
from repro.runtime.apk import Apk, register_native_library
from repro.runtime.art import AndroidRuntime
from repro.runtime.events import AppDriver
from repro.runtime.hooks import RuntimeListener

_BENCH_CLS = "Leu/chainfire/cfbench/Bench;"


def _build_bench_apk(java_iterations: int) -> Apk:
    builder = DexBuilder()
    cls = builder.add_class(_BENCH_CLS, superclass="Landroid/app/Activity;")

    mb = cls.method("javaWork", "I", ("I",), locals_count=4)
    mb.move(0, mb.p(1))
    mb.const(1, java_iterations)
    mb.label("loop")
    mb.raw("add-int/lit8", 0, 0, 13)
    mb.raw("xor-int/lit8", 0, 0, 55)
    mb.raw("mul-int/lit8", 0, 0, 3)
    mb.raw("and-int/lit8", 2, 0, 127)
    mb.raw("or-int/lit8", 0, 2, 1)
    mb.raw("add-int/lit8", 1, 1, -1)
    mb.if_zero("ne", 1, "loop")
    mb.ret(0)
    mb.build()

    cls.method("nativeWork", "I", ("I",), native=True).build()
    builder_apk = Apk(
        "eu.chainfire.cfbench", _BENCH_CLS, [builder.build()],
        native_libraries=["libcfbench"],
    )
    return builder_apk


def _native_work(ctx, this, iterations: int) -> int:
    value = 7
    for _ in range(iterations):
        value = ((value + 13) ^ 55) * 3 & 0xFFFF | 1
    return value


register_native_library(
    "libcfbench", {f"{_BENCH_CLS}->nativeWork(I)I": _native_work}
)


@dataclass
class CfBenchScore:
    java_score: float
    native_score: float

    @property
    def overall_score(self) -> float:
        # CF-Bench's overall blends both workloads; interpreted (Java)
        # throughput carries double weight, as in the original benchmark's
        # score mix where Java MIPS dominate the aggregate.
        return (2 * self.java_score + self.native_score) / 3


def run_cfbench(
    listeners: list[RuntimeListener] | None = None,
    java_iterations: int = 4_000,
    native_iterations: int = 120_000,
    runs: int = 5,
) -> CfBenchScore:
    """One CF-Bench measurement (median of ``runs``)."""
    apk = _build_bench_apk(java_iterations)
    java_rates = []
    native_rates = []
    for _ in range(runs):
        runtime = AndroidRuntime()
        for listener in listeners or []:
            runtime.add_listener(listener)
        runtime.install_apk(apk)
        bench_cls = runtime.class_linker.lookup(_BENCH_CLS)
        runtime.class_linker.ensure_initialized(bench_cls)
        from repro.runtime.values import VmObject

        bench = VmObject(bench_cls)

        start = time.perf_counter()
        runtime.call(f"{_BENCH_CLS}->javaWork(I)I", bench, 7)
        java_elapsed = time.perf_counter() - start
        java_rates.append((java_iterations * 7) / java_elapsed)

        start = time.perf_counter()
        runtime.call(f"{_BENCH_CLS}->nativeWork(I)I", bench, native_iterations)
        native_elapsed = time.perf_counter() - start
        native_rates.append(native_iterations / native_elapsed)
    # Normalisation constants put both scores on the same ~10^4 scale
    # (score units are arbitrary, as in CF-Bench itself; ratios matter).
    return CfBenchScore(
        java_score=statistics.median(java_rates) / 20.0,
        native_score=statistics.median(native_rates) / 400.0,
    )


@dataclass
class LaunchTiming:
    """Launch-time statistics over N launches (Table VIII)."""

    mean_ms: float
    std_ms: float


def measure_launch_time(
    apk: Apk,
    listeners_factory=None,
    launches: int = 30,
) -> LaunchTiming:
    """Wall-clock activity launch time, fresh runtime per launch.

    One untimed launch runs first.  The first launch on an APK decodes
    every instruction it runs into the APK's shared decode stores
    (``CodeUnits.shared``), and later launches reuse them; untimed, that
    cost no longer lands on whichever configuration is measured first.
    """
    _fresh_driver(apk, listeners_factory).launch()
    times = []
    for _ in range(launches):
        driver = _fresh_driver(apk, listeners_factory)
        start = time.perf_counter()
        driver.launch()
        times.append((time.perf_counter() - start) * 1000.0)
    return LaunchTiming(
        mean_ms=statistics.fmean(times),
        std_ms=statistics.pstdev(times),
    )


def _fresh_driver(apk: Apk, listeners_factory) -> AppDriver:
    runtime = AndroidRuntime()
    if listeners_factory is not None:
        for listener in listeners_factory():
            runtime.add_listener(listener)
    return AppDriver(runtime, apk)
