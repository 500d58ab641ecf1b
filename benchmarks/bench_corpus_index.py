"""Corpus index — cold vs warm cross-app dedup.

Not a paper table: this measures the corpus-scale similarity index the
reproduction adds on top of the paper.  A generated corpus of apps
sharing ~80% of their methods (`repro.benchsuite.shared_corpus`) is
revealed three ways:

* ``no-index`` — the plain pipeline, every body reassembled;
* ``cold``     — a fresh :class:`CorpusIndex`: apps 2..N already replay
  the library bodies app 1 registered (intra-batch dedup);
* ``warm``     — a *second wave* of different apps (new packages, new
  unique code) against the now-populated index: only app-private code
  should still need reassembly.

The printed table carries wall time, apps/sec and the replay split per
leg.  The acceptance bar — the warm leg replays ≥50% of bodies — is
asserted here and, byte-identity included, in
``tests/index/test_index_pipeline.py``.
"""

from benchmarks.conftest import quick_mode, run_once
from repro.benchsuite.shared_corpus import build_shared_corpus
from repro.core import RevealConfig
from repro.harness.tables import render_table
from repro.service import BatchRevealService, RevealJob

APPS = 12 if quick_mode() else 50


def _jobs(apps):
    return [RevealJob(app.package, app.apk) for app in apps]


def test_corpus_index_cold_vs_warm(benchmark, tmp_path):
    index_dir = str(tmp_path / "corpus-index")
    cold_apps = build_shared_corpus(APPS)
    warm_apps = build_shared_corpus(APPS, package_prefix="org.warm")
    assert cold_apps[0].shared_fraction >= 0.7
    reports = {}

    def run():
        reports["no-index"] = BatchRevealService(
            workers=1).reveal_batch(_jobs(cold_apps))
        indexed = RevealConfig(index_dir=index_dir)
        reports["cold"] = BatchRevealService(
            config=indexed, workers=1).reveal_batch(_jobs(cold_apps))
        # A fresh service against the same directory and a second wave
        # of *new* apps: only the persisted index can explain replays.
        reports["warm"] = BatchRevealService(
            config=indexed, workers=1).reveal_batch(_jobs(warm_apps))
        return reports

    run_once(benchmark, run)

    rows = []
    rates = {}
    for name, report in reports.items():
        summary = report.index_summary()
        replayed = summary.get("bodies_replayed", 0)
        emitted = summary.get("bodies_emitted", 0)
        total = replayed + emitted
        rates[name] = replayed / total if total else 0.0
        rows.append([
            name,
            f"{report.wall_time_s:.2f}s",
            f"{report.apps_per_sec:.2f}",
            str(replayed),
            str(emitted),
            f"{rates[name]:.0%}" if total else "—",
        ])
    print()
    print(render_table(
        f"Corpus index dedup ({APPS} apps, "
        f"{cold_apps[0].shared_fraction:.0%} shared methods)",
        ["Run", "Wall", "Apps/s", "Replayed", "Emitted", "Replay rate"],
        rows,
    ))

    for name, report in reports.items():
        assert report.ok_count == APPS, (name, report.summary())

    # The plain pipeline never replays; the cold leg dedups within the
    # batch; the warm leg clears the ≥50% acceptance bar and beats cold.
    assert reports["no-index"].index_summary() == {}
    assert rates["cold"] > 0.0
    assert rates["warm"] >= 0.5, rates
    assert rates["warm"] > rates["cold"]
