"""Experiment runners: one function per table / figure of the paper.

Every function *measures* — builds the corpus, runs the systems, and
returns structured results plus a rendered table.  The benchmarks under
``benchmarks/`` and the CLI (``python -m repro.harness.runner``) are thin
wrappers around these.

All corpus reveals route through
:class:`~repro.service.batch.BatchRevealService` rather than hand-rolled
serial loops, so every experiment inherits worker-pool parallelism and
content-addressed result caching.  Runners accept a ``workers`` keyword;
when omitted, the process-wide default applies (``--workers`` on the
CLI, or the ``DEXLEGO_WORKERS`` environment variable; serial otherwise),
which keeps paper-faithful deterministic runs the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import (
    AppSpearLike,
    Confusion,
    DexHunterLike,
    all_tools,
    build_call_graph,
    edges_preserved,
    flowdroid,
    horndroid,
    taintart,
    taintdroid,
)
from repro.benchsuite import (
    TABLE_IV_SAMPLES,
    all_aosp_apps,
    all_fdroid_apps,
    all_launch_apps,
    all_market_apps,
    droidbench_samples,
    sample_by_name,
)
from repro.core import ForceExecutionEngine, RevealConfig
from repro.coverage import (
    CoverageCollector,
    SapienzFuzzer,
    measure_launch_time,
    run_cfbench,
)
from repro.errors import PackerUnavailable
from repro.harness.tables import human_size, percent, render_table
from repro.packers import ALL_PACKERS
from repro.runtime import EMULATOR, NEXUS_5X, AndroidRuntime, AppDriver
from repro.service import BatchRevealService, RevealJob, RevealOutcome


@dataclass
class ExperimentResult:
    """Uniform result wrapper: data rows plus a rendered table."""

    experiment: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def render(self) -> str:
        text = render_table(self.experiment, self.headers, self.rows)
        if self.notes:
            text += f"\n{self.notes}"
        return text


def _revealed_apk(outcome: RevealOutcome):
    """Unwrap a batch outcome, failing fast like the old serial loops."""
    apk = outcome.revealed_apk
    if apk is None:
        raise RuntimeError(
            f"reveal failed for {outcome.app_id}: "
            f"{outcome.status} ({outcome.error})"
        )
    return apk


# ---------------------------------------------------------------------------
# Table I — packers on AOSP apps
# ---------------------------------------------------------------------------


def run_table1(quick: bool = False, workers: int | None = None) -> ExperimentResult:
    """Pack each AOSP app with each service; reveal; verify preservation."""
    apps = all_aosp_apps()
    if quick:
        apps = apps[:2]
    headers = ["Service"] + [f"{a.name} ({a.instruction_count})" for a in apps]

    # Pack the full matrix up-front, then reveal it as one batch.
    service = BatchRevealService(config=RevealConfig(), workers=workers)
    jobs = [
        RevealJob(f"{packer.name}/{app.name}", packer.pack(app.apk))
        for packer in ALL_PACKERS if packer.available
        for app in apps
    ]
    outcomes = {
        o.app_id: o for o in service.reveal_batch(jobs).outcomes
    }

    rows = []
    for packer in ALL_PACKERS:
        row = [packer.name]
        for app in apps:
            if not packer.available:
                try:
                    packer.pack(app.apk)
                    row.append("?")
                except PackerUnavailable:
                    row.append("unavailable")
                continue
            outcome = outcomes[f"{packer.name}/{app.name}"]
            original_graph = build_call_graph(app.apk.primary_dex)
            revealed_graph = build_call_graph(
                _revealed_apk(outcome).primary_dex
            )
            preserved = edges_preserved(original_graph, revealed_graph)
            row.append("OK" if preserved >= 0.999 else f"{preserved:.0%}")
        rows.append(row)
    notes = (
        "OK = collection+reassembly succeeded and every call-graph edge of "
        "an exercised class is preserved (the paper's manual/Soot check)."
    )
    return ExperimentResult("Table I: Test Result of Different Packers",
                           headers, rows, notes)


# ---------------------------------------------------------------------------
# Tables II / III and Figure 5 — static tools on DroidBench
# ---------------------------------------------------------------------------


def run_table2(samples=None, workers: int | None = None) -> ExperimentResult:
    """Static tools on original vs DexLego-revealed DroidBench."""
    samples = samples if samples is not None else droidbench_samples()
    tools = all_tools()
    original = {t.name: Confusion() for t in tools}
    revealed_scores = {t.name: Confusion() for t in tools}
    apks = [sample.build_apk() for sample in samples]
    report = BatchRevealService(config=RevealConfig(),
                                 workers=workers).reveal_batch(
        RevealJob(sample.name, apk, device=sample.device)
        for sample, apk in zip(samples, apks)
    )
    for sample, apk, outcome in zip(samples, apks, report.outcomes):
        revealed = _revealed_apk(outcome)
        for tool in tools:
            original[tool.name].record(sample.leaky, tool.analyze(apk).detected)
            revealed_scores[tool.name].record(
                sample.leaky, tool.analyze(revealed).detected
            )
    headers = ["Tool", "# Samples", "# Malware",
               "Orig TP", "Orig FP", "DexLego TP", "DexLego FP"]
    leaky = sum(1 for s in samples if s.leaky)
    rows = [
        [t.name, len(samples), leaky,
         original[t.name].tp, original[t.name].fp,
         revealed_scores[t.name].tp, revealed_scores[t.name].fp]
        for t in tools
    ]
    return ExperimentResult(
        "Table II: Analysis Result of Static Analysis Tools",
        headers, rows,
        extras={"original": original, "dexlego": revealed_scores},
    )


def run_table3(samples=None, packer=None,
               workers: int | None = None) -> ExperimentResult:
    """Packed samples: DexHunter/AppSpear vs DexLego."""
    from repro.packers import Qihoo360Packer

    samples = samples if samples is not None else droidbench_samples()
    packer = packer or Qihoo360Packer()
    tools = all_tools()
    dh_scores = {t.name: Confusion() for t in tools}
    as_scores = {t.name: Confusion() for t in tools}
    dl_scores = {t.name: Confusion() for t in tools}
    dexhunter = DexHunterLike()
    appspear = AppSpearLike()
    packed_apks = [packer.pack(sample.build_apk()) for sample in samples]
    report = BatchRevealService(config=RevealConfig(),
                                 workers=workers).reveal_batch(
        RevealJob(sample.name, packed, device=sample.device)
        for sample, packed in zip(samples, packed_apks)
    )
    for sample, packed, outcome in zip(samples, packed_apks, report.outcomes):
        dh_apk = dexhunter.unpack(packed, drive=None).unpacked_apk
        as_apk = appspear.unpack(packed, drive=None).unpacked_apk
        dl_apk = _revealed_apk(outcome)
        for tool in tools:
            dh_scores[tool.name].record(sample.leaky, tool.analyze(dh_apk).detected)
            as_scores[tool.name].record(sample.leaky, tool.analyze(as_apk).detected)
            dl_scores[tool.name].record(sample.leaky, tool.analyze(dl_apk).detected)
    headers = ["Tool", "DH TP", "DH FP", "AS TP", "AS FP",
               "DexLego TP", "DexLego FP"]
    rows = [
        [t.name,
         dh_scores[t.name].tp, dh_scores[t.name].fp,
         as_scores[t.name].tp, as_scores[t.name].fp,
         dl_scores[t.name].tp, dl_scores[t.name].fp]
        for t in tools
    ]
    return ExperimentResult(
        "Table III: Analysis Result of Packed Samples (360 packer)",
        headers, rows,
        extras={"dexhunter": dh_scores, "appspear": as_scores,
                "dexlego": dl_scores},
    )


def run_fig5(table2: ExperimentResult | None = None,
             table3: ExperimentResult | None = None) -> ExperimentResult:
    """F-Measures of the tools under each processing mode (Formula 1)."""
    table2 = table2 or run_table2()
    table3 = table3 or run_table3()
    headers = ["Tool", "Original", "DexHunter", "AppSpear", "DexLego"]
    rows = []
    gains = {}
    for name in ("FlowDroid", "DroidSafe", "HornDroid"):
        f_orig = table2.extras["original"][name].f_measure
        f_dh = table3.extras["dexhunter"][name].f_measure
        f_as = table3.extras["appspear"][name].f_measure
        f_dl = table2.extras["dexlego"][name].f_measure
        gains[name] = (f_dl / f_orig - 1) * 100 if f_orig else float("inf")
        rows.append([name, f"{f_orig:.2f}", f"{f_dh:.2f}",
                     f"{f_as:.2f}", f"{f_dl:.2f}"])
    notes = "F-Measure gains with DexLego: " + ", ".join(
        f"{name} +{gain:.1f}%" for name, gain in gains.items()
    )
    return ExperimentResult("Figure 5: F-Measures of Static Analysis Tools",
                           headers, rows, notes, extras={"gains": gains})


# ---------------------------------------------------------------------------
# Table IV — dynamic tools vs DexLego+HornDroid
# ---------------------------------------------------------------------------


def run_table4(workers: int | None = None) -> ExperimentResult:
    headers = ["Sample", "Leak #", "TD", "TA", "DexLego + HD"]
    rows = []
    hd = horndroid()
    samples = [sample_by_name(name) for name in TABLE_IV_SAMPLES]
    report = BatchRevealService(config=RevealConfig(),
                                 workers=workers).reveal_batch(
        RevealJob(sample.name, sample.build_apk(), device=sample.device)
        for sample in samples
    )
    for sample, outcome in zip(samples, report.outcomes):
        name = sample.name
        ground_truth = {
            "Button1": 1, "Button3": 2, "EmulatorDetection1": 1,
            "ImplicitFlow1": 2, "PrivateDataLeak3": 2,
        }[name]
        detected = {}
        for tracker_factory, device in (
            (taintdroid, EMULATOR), (taintart, NEXUS_5X)
        ):
            tracker = tracker_factory()
            runtime = AndroidRuntime(device, max_steps=3_000_000)
            runtime.add_listener(tracker)
            AppDriver(runtime, sample.build_apk()).run_standard_session()
            detected[tracker.profile.name] = tracker.leak_count()
        flows = hd.analyze(_revealed_apk(outcome)).flows
        dl_count = len({(f.source_tag, f.sink_signature) for f in flows})
        rows.append([name, ground_truth, detected["TaintDroid"],
                     detected["TaintART"], dl_count])
    return ExperimentResult(
        "Table IV: Analysis Result of Dynamic Analysis Tools and DexLego",
        headers, rows,
    )


# ---------------------------------------------------------------------------
# Table V — real-world packed apps
# ---------------------------------------------------------------------------


def run_table5(limit: int | None = None,
               workers: int | None = None) -> ExperimentResult:
    headers = ["Package", "Version", "Set", "# Installs", "Original", "Revealed"]
    rows = []
    fd = flowdroid()
    apps = all_market_apps()
    if limit:
        apps = apps[:limit]
    report = BatchRevealService(config=RevealConfig(),
                                 workers=workers).reveal_batch(
        RevealJob(app.package, app.packed_apk) for app in apps
    )
    for app, outcome in zip(apps, report.outcomes):
        original_flows = len(fd.analyze(app.packed_apk).flows)
        revealed_flows = len(fd.analyze(_revealed_apk(outcome)).flows)
        rows.append([app.package, app.version, app.sample_set, app.installs,
                     original_flows, revealed_flows])
    return ExperimentResult(
        "Table V: Analysis Result of Packed Real-world Applications",
        headers, rows,
        notes="Original = FlowDroid flows in the packed APK; "
              "Revealed = flows after DexLego.",
    )


# ---------------------------------------------------------------------------
# Tables VI + VII — F-Droid corpus and coverage
# ---------------------------------------------------------------------------


def run_table6(limit: int | None = None,
               workers: int | None = None) -> ExperimentResult:
    headers = ["Package", "Version", "# Instructions", "Dump File Size"]
    apps = all_fdroid_apps()
    if limit:
        apps = apps[:limit]
    jobs = []
    for app in apps:
        fuzzer = SapienzFuzzer(population=8)
        jobs.append(RevealJob(
            app.package, app.apk, collect_only=True,
            drive=lambda d, f=fuzzer: f.drive(d.apk, d.runtime.listeners),
            cache_salt="sapienz-pop8",
        ))
    report = BatchRevealService(config=RevealConfig(),
                                 workers=workers).reveal_batch(jobs)
    rows = [
        [app.package, app.version, app.instruction_count,
         human_size(outcome.dump_size_bytes)]
        for app, outcome in zip(apps, report.outcomes)
    ]
    return ExperimentResult("Table VI: Samples from F-Droid", headers, rows)


def run_table7(limit: int | None = None,
               force_iterations: int = 3,
               max_paths_per_iteration: int = 150,
               strategy: str = "bfs") -> ExperimentResult:
    """Coverage with and without force execution (Table VII).

    ``max_paths_per_iteration`` caps each analysis round's replay wave
    (named to avoid colliding with ``RevealConfig.max_paths``, the
    *total* replay budget).  ``strategy`` selects the
    exploration-scheduler frontier order.  Replays run serially: the
    coverage collector rides along as a live shared listener, which
    cannot cross a process boundary.
    """
    apps = all_fdroid_apps()
    if limit:
        apps = apps[:limit]
    sums_sapienz = [0.0] * 5
    sums_combined = [0.0] * 5
    per_app = {}
    for app in apps:
        collector = CoverageCollector()
        fuzzer = SapienzFuzzer(population=8)
        fuzzer.drive(app.apk, [collector])
        sapienz_report = collector.report(app.apk.dex_files)
        engine = ForceExecutionEngine(
            app.apk, shared_listeners=[collector],
            max_iterations=force_iterations,
            max_paths_per_iteration=max_paths_per_iteration,
            strategy=strategy,
        )
        engine.run()
        combined_report = collector.report(app.apk.dex_files)
        per_app[app.package] = (sapienz_report, combined_report)
        for i, value in enumerate(_metric_tuple(sapienz_report)):
            sums_sapienz[i] += value
        for i, value in enumerate(_metric_tuple(combined_report)):
            sums_combined[i] += value
    n = len(apps)
    headers = ["Configuration", "Class", "Method", "Line", "Branch", "Instruction"]
    rows = [
        ["Sapienz"] + [percent(v / n) for v in sums_sapienz],
        ["Sapienz + DexLego"] + [percent(v / n) for v in sums_combined],
    ]
    return ExperimentResult(
        "Table VII: Code Coverage with F-Droid Applications",
        headers, rows, extras={"per_app": per_app},
    )


def _metric_tuple(report) -> tuple:
    return (report.classes, report.methods, report.lines,
            report.branches, report.instructions)


# ---------------------------------------------------------------------------
# Figure 6 + Table VIII — performance
# ---------------------------------------------------------------------------


def run_fig6(runs: int = 5) -> ExperimentResult:
    from repro.core import DexLegoCollector

    baseline = run_cfbench(listeners=None, runs=runs)
    instrumented = run_cfbench(listeners=[DexLegoCollector()], runs=runs)
    headers = ["Score", "Unmodified ART", "DexLego", "Overhead"]
    rows = [
        ["Java", f"{baseline.java_score:.0f}", f"{instrumented.java_score:.0f}",
         f"{baseline.java_score / max(instrumented.java_score, 1e-9):.1f}x"],
        ["Native", f"{baseline.native_score:.0f}",
         f"{instrumented.native_score:.0f}",
         f"{baseline.native_score / max(instrumented.native_score, 1e-9):.1f}x"],
        ["Overall", f"{baseline.overall_score:.0f}",
         f"{instrumented.overall_score:.0f}",
         f"{baseline.overall_score / max(instrumented.overall_score, 1e-9):.1f}x"],
    ]
    return ExperimentResult(
        "Figure 6: Performance Measured by CF-Bench",
        headers, rows,
        notes="Scores are throughput-derived; the paper reports 7.5x / 1.4x "
              "/ 2.3x overheads on Java / native / overall.",
        extras={"baseline": baseline, "instrumented": instrumented},
    )


def run_table8(launches: int = 30) -> ExperimentResult:
    from repro.core import DexLegoCollector

    headers = ["Application", "Version", "Orig Mean", "Orig STD",
               "DexLego Mean", "DexLego STD", "Slowdown"]
    rows = []
    for app in all_launch_apps():
        baseline = measure_launch_time(app.apk, None, launches)
        instrumented = measure_launch_time(
            app.apk, lambda: [DexLegoCollector()], launches
        )
        rows.append([
            app.name, app.version,
            f"{baseline.mean_ms:.1f}ms", f"{baseline.std_ms:.2f}ms",
            f"{instrumented.mean_ms:.1f}ms", f"{instrumented.std_ms:.2f}ms",
            f"{instrumented.mean_ms / max(baseline.mean_ms, 1e-9):.1f}x",
        ])
    return ExperimentResult(
        "Table VIII: Time Consumption of DexLego (launch time)",
        headers, rows,
        notes="The paper reports roughly 2x launch-time slowdown.",
    )


ALL_EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "fig5": run_fig5,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
    "fig6": run_fig6,
    "table8": run_table8,
}
