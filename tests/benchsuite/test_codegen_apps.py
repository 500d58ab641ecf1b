"""Procedural app generation and app corpora tests."""


from repro.benchsuite import (
    AppProfile,
    add_leak_sites,
    build_aosp_app,
    build_fdroid_app,
    build_market_app,
    generate_app,
)
from repro.dex import assert_valid, read_dex, write_dex
from repro.runtime import AndroidRuntime, AppDriver


class TestGenerateApp:
    def test_deterministic(self):
        a = generate_app("g.det", 2000, seed=5)
        b = generate_app("g.det", 2000, seed=5)
        assert a.instruction_count == b.instruction_count
        assert write_dex(a.apk.primary_dex) == write_dex(b.apk.primary_dex)

    def test_size_close_to_target(self):
        for target in (500, 3000, 12000):
            app = generate_app("g.size", target, seed=2)
            assert 0.8 * target <= app.instruction_count <= 1.35 * target

    def test_generated_dex_is_valid(self):
        app = generate_app("g.valid", 1500, seed=3)
        assert_valid(read_dex(write_dex(app.apk.primary_dex)))

    def test_plain_profile_executes_everything(self):
        app = generate_app("g.run", 1200, seed=4)
        runtime = AndroidRuntime()
        report = AppDriver(runtime, app.apk).launch()
        assert report.launched and not report.crashed

    def test_profile_fractions_reflected_in_inventory(self):
        app = generate_app(
            "g.prof", 5000, seed=5,
            profile=AppProfile(gated=0.4, dead=0.1, crash=0.05, handler=0.05),
        )
        assert app.gated_methods
        assert app.dead_methods
        assert app.crash_methods
        assert app.handler_methods
        assert app.plain_methods

    def test_gated_code_not_reached_by_plain_launch(self):
        from repro.coverage import CoverageCollector

        app = generate_app("g.gate", 3000, seed=6,
                           profile=AppProfile(gated=0.5))
        collector = CoverageCollector()
        runtime = AndroidRuntime()
        runtime.add_listener(collector)
        AppDriver(runtime, app.apk).run_standard_session()
        report = collector.report(app.apk.dex_files)
        assert report.instructions < 0.7  # gated half untouched


class TestLeakSites:
    def test_exact_flow_count(self):
        from repro.analysis import flowdroid

        app = generate_app("g.leak", 1000, seed=7)
        apk = add_leak_sites(app.apk, 5, ("imei", "imei", "location",
                                          "imei", "ssid"))
        result = DexLegoReveal(apk)
        flows = flowdroid().analyze(result).flows
        assert len(flows) == 5

    def test_runtime_leaks_match(self):
        app = generate_app("g.leak2", 800, seed=8)
        apk = add_leak_sites(app.apk, 3, ("imei",))
        runtime = AndroidRuntime()
        AppDriver(runtime, apk).run_standard_session()
        assert len(runtime.observed_leaks()) >= 3


def DexLegoReveal(apk):
    from repro.core import reveal_apk

    return reveal_apk(apk).revealed_apk


class TestCorpora:
    def test_aosp_instruction_counts_near_paper(self):
        app = build_aosp_app("HTMLViewer")
        assert abs(app.instruction_count - 217) <= 120
        app = build_aosp_app("Calculator")
        assert 0.8 * 2507 <= app.instruction_count <= 1.3 * 2507

    def test_fdroid_app_profile(self):
        app = build_fdroid_app("be.ppareit.swiftp")
        assert 0.8 * 8812 <= app.instruction_count <= 1.3 * 8812
        assert app.generated.gated_methods

    def test_market_app_is_packed_and_leaky(self):
        app = build_market_app("com.alex.lookwifipassword")
        assert app.leak_count == 2
        # Packed: original classes hidden behind the shell.
        descriptors = app.packed_apk.primary_dex.class_descriptors()
        assert not any("Telemetry" in d for d in descriptors)
        # Runs and leaks at runtime.
        runtime = AndroidRuntime()
        AppDriver(runtime, app.packed_apk).run_standard_session()
        assert runtime.observed_leaks()
