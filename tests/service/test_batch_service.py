"""BatchRevealService: parallelism, caching, and crash isolation."""

import pytest

from repro.core import RevealConfig
from repro.dex import assemble
from repro.errors import VerificationError
from repro.runtime import AndroidRuntime, Apk, AppDriver
from repro.service import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_VERIFY_FAILED,
    BatchRevealService,
    RevealJob,
)

from tests.conftest import build_simple_apk


def _crashing_apk(package="svc.crash") -> Apk:
    """An app whose onCreate divides by zero (uncaught VM throw)."""
    text = """
.class public Lsvc/Crash;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    const/4 v0, 0
    div-int v1, v0, v0
    return-void
.end method
"""
    return Apk(package, "Lsvc/Crash;", [assemble(text)])


def _corpus(n=4, prefix="svc.batch"):
    return [RevealJob(f"app{i}", build_simple_apk(f"{prefix}.a{i}"))
            for i in range(n)]


class TestBatchBasics:
    def test_batch_reveals_all_in_order(self):
        service = BatchRevealService(workers=4)
        report = service.reveal_batch(_corpus(6))
        assert [o.app_id for o in report.outcomes] == \
            [f"app{i}" for i in range(6)]
        assert all(o.status == STATUS_OK for o in report.outcomes)
        assert report.ok_count == 6 and report.failed_count == 0
        assert report.wall_time_s > 0
        assert all(o.latency_s > 0 for o in report.outcomes)
        assert all(o.dump_size_bytes > 0 for o in report.outcomes)

    def test_revealed_apk_still_executes(self):
        outcome = BatchRevealService().reveal_one(
            build_simple_apk("svc.exec"))
        driver = AppDriver(AndroidRuntime(), outcome.revealed_apk)
        report = driver.launch()
        assert report.launched
        assert driver.activity.fields[("Lcom/fix/Simple;", "total")] == 285

    def test_accepts_bare_apks(self):
        report = BatchRevealService(workers=2).reveal_batch(
            [build_simple_apk("svc.bare.a"), build_simple_apk("svc.bare.b")]
        )
        assert [o.app_id for o in report.outcomes] == \
            ["svc.bare.a", "svc.bare.b"]

    def test_worker_count_does_not_change_results(self):
        """Ordering independence: pool size is invisible in the output."""
        jobs = _corpus(5, "svc.order")
        serial = BatchRevealService(workers=1)
        pooled = BatchRevealService(workers=4)
        a, b = serial.reveal_batch(jobs), pooled.reveal_batch(jobs)
        assert [o.app_id for o in a.outcomes] == [o.app_id for o in b.outcomes]
        assert [o.status for o in a.outcomes] == [o.status for o in b.outcomes]
        assert [o.dump_size_bytes for o in a.outcomes] == \
            [o.dump_size_bytes for o in b.outcomes]

    def test_parallel_jobs_get_private_archive_dirs(self, tmp_path):
        import os

        root = str(tmp_path / "archives")
        service = BatchRevealService(
            config=RevealConfig(archive_dir=root), workers=4)
        report = service.reveal_batch(_corpus(4, "svc.archdir"))
        assert all(o.status == STATUS_OK for o in report.outcomes)
        # One subdirectory per job: concurrent save/load never collides.
        for i in range(4):
            assert os.path.exists(
                os.path.join(root, f"app{i}", "class_data.json"))


class TestCacheIntegration:
    def test_second_run_hits_memory_cache(self):
        service = BatchRevealService(workers=2)
        jobs = _corpus(3, "svc.memhit")
        cold = service.reveal_batch(jobs)
        warm = service.reveal_batch(jobs)
        assert cold.cache_hits == 0
        assert warm.cache_hits == 3 and warm.cache_hit_rate == 1.0
        assert [o.status for o in warm.outcomes] == \
            [o.status for o in cold.outcomes]

    def test_disk_cache_survives_service_restart(self, tmp_path):
        jobs = _corpus(3, "svc.diskhit")
        cache_dir = str(tmp_path)
        cold = BatchRevealService(workers=2, cache_dir=cache_dir) \
            .reveal_batch(jobs)
        warm = BatchRevealService(workers=2, cache_dir=cache_dir) \
            .reveal_batch(jobs)
        assert cold.cache_hits == 0
        assert warm.cache_hit_rate == 1.0
        # Cached records still carry a usable revealed APK.
        assert warm.outcomes[0].revealed_apk.dex_files

    def test_modified_apk_misses(self):
        service = BatchRevealService()
        service.reveal_one(build_simple_apk("svc.miss"))
        changed = build_simple_apk("svc.miss")
        changed.assets["extra.bin"] = b"\x01"
        outcome = service.reveal_one(RevealJob("svc.miss", changed))
        assert not outcome.cache_hit

    def test_config_change_misses(self):
        apk = build_simple_apk("svc.cfgmiss")
        cache_jobs = [RevealJob("j", apk)]
        shared = BatchRevealService(workers=1)
        shared.reveal_batch(cache_jobs)
        different = BatchRevealService(
            config=RevealConfig(run_budget=500_000), workers=1,
            cache=shared.cache)
        outcome = different.reveal_batch(cache_jobs).outcomes[0]
        assert not outcome.cache_hit

    def test_jobs_with_drive_not_cached_without_salt(self):
        service = BatchRevealService()
        drive = lambda driver: driver.run_standard_session()
        job = RevealJob("drv", build_simple_apk("svc.drv"), drive=drive)
        assert not job.cacheable
        service.reveal_one(job)
        assert not service.reveal_one(job).cache_hit
        salted = RevealJob("drv", build_simple_apk("svc.drv"), drive=drive,
                           cache_salt="standard")
        service.reveal_one(salted)
        assert service.reveal_one(salted).cache_hit

    def test_cache_hit_reports_callers_app_id(self):
        # Two names for identical bytes: second is a hit under its own id.
        service = BatchRevealService()
        apk = build_simple_apk("svc.alias")
        service.reveal_one(RevealJob("first-name", apk))
        outcome = service.reveal_one(RevealJob("second-name", apk))
        assert outcome.cache_hit and outcome.app_id == "second-name"


class TestCallersApkIsUntouched:
    """SelfMod1 interns strings into the DEX it runs from and patches its
    code; the reveal must run on a copy, so the caller's APK keeps its
    bytes and its cache key."""

    def _selfmod(self):
        from repro.benchsuite import sample_by_name

        sample = sample_by_name("SelfMod1")
        return sample, sample.build_apk()

    def test_reveal_leaves_the_apk_bytes_alone(self):
        sample, apk = self._selfmod()
        service = BatchRevealService()
        job = RevealJob("a", apk, device=sample.device)
        before, key = apk.to_bytes(), service.job_cache_key(job)
        assert service.reveal_one(job).status == STATUS_OK
        assert apk.to_bytes() == before
        assert service.job_cache_key(job) == key

    @pytest.mark.parametrize("workers", [1, 4])
    def test_same_apk_queued_again_in_one_batch_hits(self, workers):
        sample, apk = self._selfmod()
        names = "abcdef"
        report = BatchRevealService(workers=workers).reveal_batch(
            [RevealJob(name, apk, device=sample.device) for name in names])
        outcomes = report.outcomes
        assert [o.app_id for o in outcomes] == list(names)
        # At one worker "a" runs first; at four the jobs race for the
        # key, one reveals and the others wait for its record.
        assert sum(not o.cache_hit for o in outcomes) == 1
        if workers == 1:
            assert not outcomes[0].cache_hit
        assert {o.status for o in outcomes} == {STATUS_OK}
        assert len({o.dump_size_bytes for o in outcomes}) == 1


class TestCrashIsolation:
    def test_vm_crash_is_an_outcome_not_an_abort(self):
        jobs = [
            RevealJob("good0", build_simple_apk("svc.iso.g0")),
            RevealJob("boom", _crashing_apk("svc.iso.boom")),
            RevealJob("good1", build_simple_apk("svc.iso.g1")),
        ]
        report = BatchRevealService(workers=2).reveal_batch(jobs)
        statuses = {o.app_id: o.status for o in report.outcomes}
        assert statuses == {"good0": STATUS_OK, "boom": STATUS_CRASHED,
                            "good1": STATUS_OK}
        crashed = next(o for o in report.outcomes if o.app_id == "boom")
        # The pipeline still reveals what ran before the crash.
        assert crashed.revealed_apk is not None
        assert crashed.error

    def test_raising_drive_is_isolated(self):
        def bad_drive(driver):
            raise RuntimeError("fuzzer exploded")

        jobs = [
            RevealJob("ok0", build_simple_apk("svc.iso2.a")),
            RevealJob("bad", build_simple_apk("svc.iso2.b"), drive=bad_drive),
            RevealJob("ok1", build_simple_apk("svc.iso2.c")),
        ]
        report = BatchRevealService(workers=3).reveal_batch(jobs)
        by_id = {o.app_id: o for o in report.outcomes}
        assert by_id["bad"].status == STATUS_ERROR
        assert "fuzzer exploded" in by_id["bad"].error
        assert by_id["ok0"].status == STATUS_OK
        assert by_id["ok1"].status == STATUS_OK

    def test_error_outcomes_are_not_cached(self):
        def bad_drive(driver):
            raise RuntimeError("transient")

        service = BatchRevealService()
        job = RevealJob("retry", build_simple_apk("svc.retry"),
                        drive=bad_drive, cache_salt="s")
        assert service.reveal_one(job).status == STATUS_ERROR
        # Fixed on the second attempt: must not be shadowed by a cache entry.
        fixed = RevealJob("retry", build_simple_apk("svc.retry"),
                          cache_salt="s")
        assert service.reveal_one(fixed).status == STATUS_OK

    def test_budget_exceeded_status(self):
        service = BatchRevealService(config=RevealConfig(run_budget=40))
        outcome = service.reveal_one(build_simple_apk("svc.budget"))
        assert outcome.status == STATUS_BUDGET_EXCEEDED
        assert outcome.revealed_apk is not None

    def test_verify_failure_status(self, monkeypatch):
        import repro.core.stages as stages_module

        def always_invalid(dex):
            raise VerificationError("forced for test")

        monkeypatch.setattr(stages_module, "assert_valid", always_invalid)
        report = BatchRevealService(workers=2).reveal_batch(
            _corpus(2, "svc.verify"))
        assert all(o.status == STATUS_VERIFY_FAILED for o in report.outcomes)
        assert all("forced for test" in o.error for o in report.outcomes)
        # The redesigned pipeline names the stage that died.
        assert all(o.failed_stage == "verify" for o in report.outcomes)

    def test_collect_stage_failure_names_stage(self):
        def bad_drive(driver):
            raise RuntimeError("fuzzer exploded")

        outcome = BatchRevealService().reveal_one(
            RevealJob("stagefail", build_simple_apk("svc.stagefail"),
                      drive=bad_drive))
        assert outcome.status == STATUS_ERROR
        assert outcome.failed_stage == "collect"
        assert "fuzzer exploded" in outcome.error

    def test_ok_outcome_carries_stage_timings(self):
        outcome = BatchRevealService().reveal_one(
            build_simple_apk("svc.timings"))
        assert outcome.status == STATUS_OK
        assert set(outcome.stage_timings) == \
            {"collect", "reassemble", "verify", "repack"}
        assert all(t >= 0 for t in outcome.stage_timings.values())

    def test_collect_only_outcome_times_the_collect_stage(self):
        outcome = BatchRevealService().reveal_one(
            RevealJob("co", build_simple_apk("svc.cotimings"),
                      collect_only=True))
        assert outcome.status == STATUS_OK
        assert set(outcome.stage_timings) == {"collect"}


class TestExplorationSurface:
    """Force-execution scheduler stats flow outcome → report."""

    def test_outcome_carries_exploration_summary(self):
        service = BatchRevealService(config=RevealConfig(
            use_force_execution=True, exploration_strategy="rarity-first",
            explore_workers=2))
        outcome = service.reveal_one(build_simple_apk("svc.explore"))
        assert outcome.status == STATUS_OK
        assert outcome.exploration["strategy"] == "rarity-first"
        assert outcome.exploration["workers"] == 2
        assert "ucbs_discovered" in outcome.exploration
        assert "replays_saved_by_dedup" in outcome.exploration
        assert outcome.to_summary()["exploration"] == outcome.exploration

    def test_report_aggregates_exploration(self):
        service = BatchRevealService(
            config=RevealConfig(use_force_execution=True))
        report = service.reveal_batch(_corpus(2, prefix="svc.explagg"))
        aggregate = report.exploration_summary()
        assert aggregate["apps_explored"] == 2
        assert aggregate["paths_explored"] >= 0
        assert report.summary()["exploration"] == aggregate
        assert "exploration:" in report.render()

    def test_no_exploration_block_when_module_off(self):
        report = BatchRevealService().reveal_batch(
            _corpus(1, prefix="svc.noexpl"))
        assert report.outcomes[0].exploration == {}
        assert report.exploration_summary() == {}
        assert "exploration:" not in report.render()

    def test_exploration_survives_the_disk_cache(self, tmp_path):
        # A warm-cache hit must carry the original run's exploration
        # stats, not silently drop them.
        apk = build_simple_apk("svc.explcache")
        cold = BatchRevealService(
            config=RevealConfig(use_force_execution=True),
            cache_dir=str(tmp_path)).reveal_one(apk)
        warm = BatchRevealService(
            config=RevealConfig(use_force_execution=True),
            cache_dir=str(tmp_path)).reveal_one(apk)
        assert warm.cache_hit
        assert warm.exploration == cold.exploration != {}

    def test_exploration_knobs_feed_cache_identity(self):
        base = BatchRevealService(
            config=RevealConfig(use_force_execution=True))
        rare = BatchRevealService(config=RevealConfig(
            use_force_execution=True, exploration_strategy="rarity-first"))
        apk = build_simple_apk("svc.explkey")
        job = RevealJob("k", apk)
        assert base.job_cache_key(job) != rare.job_cache_key(job)
