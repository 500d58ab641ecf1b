"""Coverage collector, fuzzer and CF-Bench tests."""

import time

from repro.benchsuite import AppProfile, generate_app
from repro.coverage import (
    CoverageCollector,
    SapienzFuzzer,
    measure_launch_time,
    run_cfbench,
)
from repro.runtime import AndroidRuntime, AppDriver

from tests.conftest import build_simple_apk


class TestCoverageCollector:
    def test_full_coverage_on_straightline_app(self):
        apk = build_simple_apk("cov.full")
        collector = CoverageCollector()
        runtime = AndroidRuntime()
        runtime.add_listener(collector)
        AppDriver(runtime, apk).launch()
        report = collector.report(apk.dex_files)
        assert report.classes == 1.0
        assert report.methods == 1.0
        assert report.instructions == 1.0
        assert report.branches == 1.0  # loop branch sees both outcomes

    def test_zero_coverage_without_execution(self):
        apk = build_simple_apk("cov.zero")
        report = CoverageCollector().report(apk.dex_files)
        assert report.instructions == 0.0
        assert report.classes == 0.0

    def test_partial_branch_coverage(self):
        from repro.dex import assemble
        from repro.runtime import Apk

        text = """
.class public Lcv/P;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    const/4 v0, 1
    if-eqz v0, :dead
    return-void
    :dead
    const/4 v1, 2
    return-void
.end method
"""
        apk = Apk("cv.p", "Lcv/P;", [assemble(text)])
        collector = CoverageCollector()
        runtime = AndroidRuntime()
        runtime.add_listener(collector)
        AppDriver(runtime, apk).launch()
        report = collector.report(apk.dex_files)
        assert report.branches == 0.5  # one outcome of one branch
        assert report.instructions < 1.0

    def test_accumulates_across_runs(self):
        apk = build_simple_apk("cov.acc")
        collector = CoverageCollector()
        for _ in range(2):
            runtime = AndroidRuntime()
            runtime.add_listener(collector)
            AppDriver(runtime, apk).launch()
        assert collector.report(apk.dex_files).instructions == 1.0

    def test_as_row_formats_percentages(self):
        apk = build_simple_apk("cov.row")
        row = CoverageCollector().report(apk.dex_files).as_row()
        assert row["Instruction"] == "0%"


class TestSapienz:
    def test_population_is_deterministic(self):
        a = SapienzFuzzer(seed=9).generate_population()
        b = SapienzFuzzer(seed=9).generate_population()
        assert [(s.extra, s.events) for s in a] == [(s.extra, s.events) for s in b]

    def test_fuzzing_misses_gated_code(self):
        app = generate_app("cov.fz", 2500, seed=10,
                           profile=AppProfile(gated=0.55))
        collector = CoverageCollector()
        report = SapienzFuzzer(population=6).drive(app.apk, [collector])
        assert report.sequences_run == 6
        coverage = collector.report(app.apk.dex_files)
        assert 0.15 < coverage.instructions < 0.7

    def test_force_execution_closes_the_gap(self):
        from repro.core import ForceExecutionEngine

        app = generate_app("cov.fe", 2500, seed=11,
                           profile=AppProfile(gated=0.55))
        collector = CoverageCollector()
        SapienzFuzzer(population=6).drive(app.apk, [collector])
        before = collector.report(app.apk.dex_files).instructions
        ForceExecutionEngine(
            app.apk, shared_listeners=[collector],
            max_iterations=5, max_paths_per_iteration=120,
        ).run()
        after = collector.report(app.apk.dex_files).instructions
        assert after > before + 0.25


class TestCfBench:
    def test_instrumentation_slows_java_more_than_native(self):
        from repro.core import DexLegoCollector

        baseline = run_cfbench(runs=2, java_iterations=1500,
                               native_iterations=30_000)
        instrumented = run_cfbench(listeners=[DexLegoCollector()], runs=2,
                                   java_iterations=1500,
                                   native_iterations=30_000)
        java_overhead = baseline.java_score / instrumented.java_score
        native_overhead = baseline.native_score / instrumented.native_score
        assert java_overhead > 1.3
        assert java_overhead > native_overhead

    def test_launch_time_measurement(self):
        from repro.core import DexLegoCollector

        apk = build_simple_apk("cov.launch")

        def best_mean_ms(listeners) -> float:
            # The lowest of three 5-launch means: one slow launch cannot
            # tip the comparison of two sub-millisecond figures.
            return min(measure_launch_time(apk, listeners, launches=5).mean_ms
                       for _ in range(3))

        base = best_mean_ms(None)
        inst = best_mean_ms(lambda: [DexLegoCollector()])
        assert base > 0
        assert inst > base * 0.8  # sanity: comparable scale

    def test_no_timed_launch_decodes(self, monkeypatch):
        """The first launch on an APK decodes every instruction it runs
        into the APK's shared decode stores; timed, it would charge that
        decoding to whichever configuration is measured first."""
        from repro.core import DexLegoCollector
        from repro.coverage import cfbench
        from repro.dex.instructions import Instruction

        class Clock:
            """``cfbench.time`` stand-in: a launch is timed between two
            ``perf_counter`` reads."""

            timing = False

            def perf_counter(self):
                self.timing = not self.timing
                return time.perf_counter()

        clock = Clock()
        timed_decodes = []
        decode_at = Instruction.decode_at

        def counting_decode_at(cls, units, pos):
            if clock.timing:
                timed_decodes.append(pos)
            return decode_at(units, pos)

        monkeypatch.setattr(cfbench, "time", clock)
        monkeypatch.setattr(Instruction, "decode_at",
                            classmethod(counting_decode_at))
        apk = build_simple_apk("cov.launch.warm")
        measure_launch_time(apk, None, launches=3)
        measure_launch_time(apk, lambda: [DexLegoCollector()], launches=3)
        assert not clock.timing
        assert timed_decodes == []
