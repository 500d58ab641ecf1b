"""Staged pipeline: composable stages, observer hook, archive-only entry."""

import pytest

from repro.core import (
    ALL_STAGES,
    CollectResult,
    CollectStage,
    Pipeline,
    ReassembleStage,
    RevealConfig,
    StageError,
    VerifyStage,
    reveal_apk,
    reveal_from_archive,
)
from repro.dex import assert_valid
from repro.errors import VerificationError
from repro.runtime import AndroidRuntime, AppDriver

from tests.conftest import build_simple_apk


class TestCollectStage:
    def test_result_carries_archive_and_outcome_only(self):
        collected = CollectStage().run(build_simple_apk("st.collect"))
        assert isinstance(collected, CollectResult)
        assert collected.archive.total_size_bytes() > 0
        assert collected.collector_stats["classes_collected"] == 1
        assert not collected.crashed and not collected.budget_exhausted
        # The old API faked downstream artefacts on the partial result;
        # the collect result must not carry any.
        assert not hasattr(collected, "revealed_apk")
        assert not hasattr(collected, "reassembled_dex")

    def test_pipeline_collect_returns_collect_result(self):
        collected = Pipeline().collect(build_simple_apk("st.facade"))
        assert isinstance(collected, CollectResult)
        assert collected.dump_size_bytes == collected.archive.total_size_bytes()

    def test_budget_exhaustion_is_an_outcome_not_a_failure(self):
        collected = CollectStage(RevealConfig(run_budget=40)).run(
            build_simple_apk("st.budget"))
        assert collected.budget_exhausted
        assert collected.archive.total_size_bytes() > 0

    def test_raising_drive_is_a_collect_stage_error(self):
        def bad_drive(driver):
            raise RuntimeError("drive died")

        with pytest.raises(StageError) as excinfo:
            CollectStage().run(build_simple_apk("st.baddrive"), bad_drive)
        assert excinfo.value.stage == "collect"
        assert isinstance(excinfo.value.cause, RuntimeError)


class TestOfflineStages:
    def test_reassemble_then_verify(self):
        collected = CollectStage().run(build_simple_apk("st.offline"))
        dex, index_stats = ReassembleStage().run(collected.archive)
        assert index_stats == {}  # no index, no dedup accounting
        assert VerifyStage().run(dex) is dex
        assert dex.find_class("Lcom/fix/Simple;") is not None

    def test_verify_stage_wraps_verification_error(self, monkeypatch):
        import repro.core.stages as stages_module

        def always_invalid(dex):
            raise VerificationError("bad dex")

        monkeypatch.setattr(stages_module, "assert_valid", always_invalid)
        with pytest.raises(StageError) as excinfo:
            VerifyStage().run(object())
        assert excinfo.value.stage == "verify"
        assert isinstance(excinfo.value.cause, VerificationError)


class TestRevealFromArchive:
    def test_saved_archive_reassembles_to_valid_dex(self, tmp_path):
        # The separability claim: collect on one side of the disk
        # boundary, reassemble standalone on the other.
        target = str(tmp_path / "dump")
        CollectStage().run(build_simple_apk("st.sep")).archive.save(target)
        result = reveal_from_archive(target)
        assert_valid(result.reassembled_dex)
        assert result.revealed_apk is None  # nothing to repack
        assert result.collector_stats == {}
        assert set(result.stage_timings) == {"reassemble", "verify"}

    def test_repacks_when_apk_provided(self, tmp_path):
        apk = build_simple_apk("st.repack")
        target = str(tmp_path / "dump")
        CollectStage().run(apk).archive.save(target)
        result = reveal_from_archive(target, apk=apk)
        assert result.revealed_apk is not None
        assert result.revealed_apk.dex_files == [result.reassembled_dex]
        report = AppDriver(AndroidRuntime(), result.revealed_apk).launch()
        assert report.launched, report.crash_reason

    def test_accepts_live_archive_object(self):
        collected = CollectStage().run(build_simple_apk("st.live"))
        result = reveal_from_archive(collected.archive)
        assert_valid(result.reassembled_dex)

    def test_accepts_pathlike_source(self, tmp_path):
        target = tmp_path / "dump"
        CollectStage().run(build_simple_apk("st.path")).archive.save(
            str(target))
        result = reveal_from_archive(target)  # pathlib.Path, not str
        assert_valid(result.reassembled_dex)

    def test_partial_budget_archive_is_usable(self, tmp_path):
        # BudgetExceeded mid-drive: the executed prefix must still
        # reassemble offline into a valid DEX.
        collected = CollectStage(RevealConfig(run_budget=40)).run(
            build_simple_apk("st.partial"))
        assert collected.budget_exhausted
        target = str(tmp_path / "partial")
        collected.archive.save(target)
        result = reveal_from_archive(target)
        assert_valid(result.reassembled_dex)

    def test_matches_full_pipeline_output(self, tmp_path):
        apk = build_simple_apk("st.match")
        full = reveal_apk(apk)
        target = str(tmp_path / "dump")
        full.archive.save(target)
        from repro.dex import write_dex

        offline = reveal_from_archive(target)
        assert write_dex(offline.reassembled_dex) == \
            write_dex(full.reassembled_dex)


class TestPipelineOrchestration:
    def test_observer_sees_stages_in_order(self):
        events = []
        pipeline = Pipeline(observer=events.append)
        result = pipeline.run(build_simple_apk("st.observe"))
        assert [e.stage for e in events] == list(ALL_STAGES)
        assert all(e.ok and not e.error for e in events)
        assert all(e.duration_s >= 0 for e in events)
        assert set(result.stage_timings) == set(ALL_STAGES)

    def test_observer_sees_failure(self, monkeypatch):
        import repro.core.stages as stages_module

        def always_invalid(dex):
            raise VerificationError("observed failure")

        monkeypatch.setattr(stages_module, "assert_valid", always_invalid)
        events = []
        with pytest.raises(StageError):
            Pipeline(observer=events.append).run(
                build_simple_apk("st.observefail"))
        assert [e.stage for e in events] == ["collect", "reassemble", "verify"]
        failed = events[-1]
        assert not failed.ok and "observed failure" in failed.error

    def test_reveal_apk_returns_the_full_result(self):
        result = reveal_apk(build_simple_apk("st.compat"))
        assert result.revealed_apk is not None
        assert result.reassembled_dex.find_class("Lcom/fix/Simple;")
        assert result.collector_stats["classes_collected"] == 1
        assert result.dump_size_bytes > 0
