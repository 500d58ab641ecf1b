"""Resuming a force-execution exploration on either replay backend.

A session capped at one path saves its frontier with the collection
files; a second session resumes it from that directory.  The resumed
exploration must finish the frontier on the process backend, and must
explore in the same order, with the same coverage, as a serial resume.
"""

from repro.core import CollectStage, RevealConfig, resume_exploration


class TestResumeAcrossBackends:
    def test_resume_under_process_backend(self, tmp_path):
        # Session one: explore with a hard path cap so the frontier
        # persists work; session two resumes it on the process backend.
        from tests.core.test_determinism import _branchy_apk

        first = RevealConfig(use_force_execution=True, force_iterations=8,
                             max_paths=1,
                             archive_dir=str(tmp_path / "session1"))
        one = CollectStage(first).run(_branchy_apk("w.resume"))
        one.archive.save(str(tmp_path / "session1"))
        state = one.archive.exploration_state()
        assert state is not None and one.force_report.frontier_pending > 0

        resumed = resume_exploration(
            str(tmp_path / "session1"),
            _branchy_apk("w.resume"),
            config=RevealConfig(use_force_execution=True, force_iterations=8,
                                explore_workers=2,
                                explore_backend="process",
                                archive_dir=str(tmp_path / "session2")),
        )
        report = resumed.force_report
        assert report.resumed and report.backend == "process"
        # The resumed session finished the exploration the first one
        # was capped out of.
        assert report.frontier_pending == 0
        assert report.paths_executed >= 1

    def test_resume_results_match_serial_resume(self, tmp_path):
        from tests.core.test_determinism import _branchy_apk

        outcomes = {}
        for backend in ("serial", "process"):
            base = tmp_path / backend
            first = RevealConfig(use_force_execution=True,
                                 force_iterations=8, max_paths=1,
                                 archive_dir=str(base / "one"))
            one = CollectStage(first).run(_branchy_apk("w.eq"))
            one.archive.save(str(base / "one"))
            resumed = resume_exploration(
                str(base / "one"), _branchy_apk("w.eq"),
                config=RevealConfig(use_force_execution=True,
                                    force_iterations=8, explore_workers=2,
                                    explore_backend=backend,
                                    archive_dir=str(base / "two")),
            )
            report = resumed.force_report
            outcomes[backend] = {
                "order": [tuple(k) for k in report.exploration_order],
                "curve": list(report.coverage_curve),
                "covered": report.ucbs_covered,
                "runs": report.runs,
            }
        assert outcomes["process"] == outcomes["serial"]
