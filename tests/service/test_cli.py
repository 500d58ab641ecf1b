"""The ``python -m repro.service`` batch CLI."""

import json

import pytest

from repro.service import JobStore
from repro.service.cli import build_corpus_jobs, main


class TestCorpusBuilder:
    def test_fdroid_default(self):
        jobs = build_corpus_jobs("fdroid")
        assert len(jobs) == 5
        assert jobs[0].app_id == "be.ppareit.swiftp"

    def test_limit(self):
        assert len(build_corpus_jobs("fdroid", limit=2)) == 2

    def test_droidbench_pins_devices(self):
        jobs = build_corpus_jobs("droidbench", limit=3)
        assert all(job.device is not None for job in jobs)

    def test_unknown_corpus(self):
        with pytest.raises(ValueError):
            build_corpus_jobs("playstore")


class TestMain:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "reveal-batch" in capsys.readouterr().out

    def test_cold_then_warm_run(self, tmp_path, capsys):
        args = ["reveal-batch", "--corpus", "fdroid", "--limit", "1",
                "--workers", "2", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "miss" in cold and "be.ppareit.swiftp" in cold
        assert "apps/sec" in cold

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "hit" in warm
        assert "1/1 hits" in warm

    def test_json_output(self, tmp_path, capsys):
        assert main(["reveal-batch", "--corpus", "fdroid", "--limit", "1",
                     "--workers", "2", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corpus"] == "fdroid"
        assert payload["summary"]["total"] == 1
        assert payload["outcomes"][0]["status"] == "ok"
        assert "cache_hit_rate" in payload["summary"]


class TestExitCodes:
    def test_all_failure_report_exits_nonzero(self, monkeypatch, capsys):
        # Every job erroring must not look like success to a caller.
        from repro.service import batch as batch_module

        def exploding(self, job, key="", observer=None, wave_observer=None):
            from repro.service.outcomes import RevealOutcome

            return RevealOutcome(app_id=job.app_id, status="error",
                                 error="forced", cache_key=key)

        monkeypatch.setattr(batch_module.BatchRevealService, "_run_job",
                            exploding)
        assert main(["reveal-batch", "--corpus", "fdroid",
                     "--limit", "2"]) == 1

    def test_all_crashed_report_exits_nonzero(self, monkeypatch, capsys):
        from repro.service import batch as batch_module

        def crashed(self, job, key="", observer=None, wave_observer=None):
            from repro.service.outcomes import RevealOutcome

            return RevealOutcome(app_id=job.app_id, status="crashed",
                                 error="boom", cache_key=key)

        monkeypatch.setattr(batch_module.BatchRevealService, "_run_job",
                            crashed)
        assert main(["reveal-batch", "--corpus", "fdroid",
                     "--limit", "2"]) == 1

    def test_partial_failure_still_exits_nonzero(self, monkeypatch, capsys):
        from repro.service import batch as batch_module

        original = batch_module.BatchRevealService._run_job

        def flaky(self, job, key="", observer=None, wave_observer=None):
            if job.app_id.endswith("swiftp"):
                from repro.service.outcomes import RevealOutcome

                return RevealOutcome(app_id=job.app_id, status="error",
                                     error="forced", cache_key=key)
            return original(self, job, key, observer, wave_observer)

        monkeypatch.setattr(batch_module.BatchRevealService, "_run_job",
                            flaky)
        assert main(["reveal-batch", "--corpus", "fdroid",
                     "--limit", "2"]) == 1


class TestServerCommands:
    """submit → serve → status → watch against one shared store."""

    def _store(self, tmp_path):
        return str(tmp_path / "queue")

    def test_submit_then_serve_then_status(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["submit", "--store", store, "--corpus", "fdroid",
                     "--limit", "2", "--json"]) == 0
        submitted = json.loads(capsys.readouterr().out)
        assert len(submitted["submitted"]) == 2

        assert main(["serve", "--store", store, "--workers", "2",
                     "--json"]) == 0
        served = json.loads(capsys.readouterr().out)
        assert served["jobs"] == {"done": 2}

        assert main(["status", "--store", store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["counts"] == {"done": 2}
        assert all(job["status"] == "ok" for job in status["jobs"])
        assert all(job["queue_wait_s"] >= 0 for job in status["jobs"])

    def test_watch_prints_lifecycle(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["submit", "--store", store, "--corpus", "fdroid",
                     "--limit", "1"]) == 0
        assert main(["serve", "--store", store, "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["watch", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "submitted" in out and "started" in out and "done" in out
        # Per-job order: submitted precedes started precedes done.
        assert out.index("submitted") < out.index("started") < \
            out.index("done")

    def test_watch_follow_ends_when_all_terminal(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["submit", "--store", store, "--corpus", "fdroid",
                     "--limit", "1"]) == 0
        assert main(["serve", "--store", store, "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["watch", "--store", store, "--follow",
                     "--timeout", "10"]) == 0

    def test_serve_priorities_order_completions(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["submit", "--store", store, "--corpus", "fdroid",
                     "--limit", "2", "--priority", "low"]) == 0
        assert main(["submit", "--store", store, "--corpus", "aosp",
                     "--limit", "2", "--priority", "high"]) == 0
        assert main(["serve", "--store", store, "--workers", "1",
                     "--json"]) == 0
        capsys.readouterr()
        assert main(["status", "--store", store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        finished = {job["job_id"]: job for job in status["jobs"]}
        records = JobStore(store).load_all()
        high_finish = [r["finished_at"] for r in records
                       if r["priority"] == 0]
        low_finish = [r["finished_at"] for r in records
                      if r["priority"] == 2]
        assert len(high_finish) == 2 and len(low_finish) == 2
        assert max(high_finish) <= min(low_finish)
        assert all(job["state"] == "done" for job in finished.values())

    def test_serve_empty_store_is_clean(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["serve", "--store", store, "--json"]) == 0
        served = json.loads(capsys.readouterr().out)
        assert served["jobs"] == {}

    def test_serve_exits_nonzero_when_jobs_failed(self, tmp_path, capsys):
        # A drain that left failed jobs must not look like success —
        # the serve analogue of reveal-batch's all-failure exit code.
        from repro.runtime import Apk
        from tests.conftest import build_simple_apk

        store_dir = self._store(tmp_path)
        store = JobStore(store_dir)
        broken = Apk("cli.broken", "Lnope/Missing;",
                     build_simple_apk("cli.broken").dex_files)
        store.save(store.make_record(job_id="bad", app_id="cli.broken",
                                     apk=broken))
        assert main(["serve", "--store", store_dir, "--json"]) == 1
        served = json.loads(capsys.readouterr().out)
        assert served["jobs"] == {"failed": 1}

    def test_status_and_watch_reject_missing_store(self, tmp_path, capsys):
        import os

        missing = str(tmp_path / "typo")
        assert main(["status", "--store", missing]) == 2
        assert "no job store" in capsys.readouterr().err
        assert main(["watch", "--store", missing]) == 2
        assert "no job store" in capsys.readouterr().err
        # Inspection must not have created the directory.
        assert not os.path.exists(missing)

    def test_runner_delegates_server_commands(self, tmp_path, capsys):
        from repro.harness.runner import main as runner_main

        store = self._store(tmp_path)
        assert runner_main(["submit", "--store", store, "--corpus",
                            "fdroid", "--limit", "1", "--json"]) == 0
        submitted = json.loads(capsys.readouterr().out)
        assert len(submitted["submitted"]) == 1
        assert runner_main(["serve", "--store", store, "--json"]) == 0
        served = json.loads(capsys.readouterr().out)
        assert served["jobs"] == {"done": 1}


class TestReassembleCommand:
    def _saved_archive(self, tmp_path, package="cli.reasm"):
        from repro.core import CollectStage
        from tests.conftest import build_simple_apk

        target = str(tmp_path / "archive")
        CollectStage().run(build_simple_apk(package)).archive.save(target)
        return target

    def test_reassemble_emits_valid_dex(self, tmp_path, capsys):
        from repro.dex import assert_valid, read_dex

        archive = self._saved_archive(tmp_path)
        out = str(tmp_path / "revealed.dex")
        assert main(["reassemble", archive, "--out", out]) == 0
        with open(out, "rb") as fh:
            assert_valid(read_dex(fh.read()))
        printed = capsys.readouterr().out
        assert "reassembled" in printed and "reassemble=" in printed

    def test_default_out_lands_in_archive_dir(self, tmp_path, capsys):
        import os

        archive = self._saved_archive(tmp_path, "cli.reasm.dflt")
        assert main(["reassemble", archive]) == 0
        assert os.path.exists(os.path.join(archive, "reassembled.dex"))

    def test_json_summary(self, tmp_path, capsys):
        archive = self._saved_archive(tmp_path, "cli.reasm.json")
        out = str(tmp_path / "r.dex")
        assert main(["reassemble", archive, "--out", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["out"] == out
        assert payload["classes"] >= 1
        assert set(payload["stage_timings"]) == {"reassemble", "verify"}

    def test_missing_archive_is_exit_2(self, tmp_path, capsys):
        assert main(["reassemble", str(tmp_path / "nope")]) == 2
        assert "cannot read archive" in capsys.readouterr().err

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys):
        archive = self._saved_archive(tmp_path, "cli.reasm.ro")
        out = str(tmp_path / "no" / "such" / "dir" / "r.dex")
        assert main(["reassemble", archive, "--out", out]) == 2
        assert "cannot write DEX" in capsys.readouterr().err


class TestReassembleRobustness:
    """Bad archives exit non-zero with a one-line error, no traceback."""

    def _fill(self, directory, payload: bytes):
        from repro.core.collection_files import ALL_FILES

        directory.mkdir(exist_ok=True)
        for name in ALL_FILES:
            (directory / name).write_bytes(payload)
        return str(directory)

    def test_binary_garbage_is_exit_2_one_line(self, tmp_path, capsys):
        archive = self._fill(tmp_path / "bin", b"\xff\xfe\x00bad")
        assert main(["reassemble", archive]) == 2
        err = capsys.readouterr().err
        assert "corrupt archive" in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_json_is_exit_2_one_line(self, tmp_path, capsys):
        archive = self._fill(tmp_path / "txt", b"not json {{")
        assert main(["reassemble", archive]) == 2
        err = capsys.readouterr().err
        assert "corrupt archive" in err
        assert len(err.strip().splitlines()) == 1

    def test_archive_path_that_is_a_file_is_exit_2(self, tmp_path, capsys):
        target = tmp_path / "file.json"
        target.write_text("x")
        assert main(["reassemble", str(target)]) == 2
        assert "cannot read archive" in capsys.readouterr().err


#: (file, content) pairs that are not what a collector writes.
MALFORMED_FILES = [
    ("exploration_state.json", "[]"),
    ("class_data.json", "{}"),
    ("bytecode.json", '[{"method": "Lcom/fix/Simple;->f()V"}]'),
    ("method_data.json", ""),
    ("field_data.json", '[{"class": "Lcom/fix/Simple;", "na'),
    ("reflection.json",
     '[{"caller": "Lcom/fix/Simple;->f()V", "dex_pc": "0", "targets": []}]'),
]


class TestMalformedArchive:
    """An archive file that is not the JSON a collector writes is
    refused at load: every CLI that reads an archive exits 2 with one
    line naming the file."""

    def _argv(self, tmp_path, command, name, text):
        import os

        from repro.cluster.store import ClusterStore
        from repro.core import CollectStage, RevealConfig
        from tests.conftest import build_simple_apk

        archive = str(tmp_path / "archive")
        config = RevealConfig(use_force_execution=True, force_iterations=2)
        CollectStage(config).run(build_simple_apk("cli.bad")).archive \
            .save(archive)
        with open(os.path.join(archive, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        if command == "reassemble":
            return ["reassemble", archive]
        if command == "index":
            return ["index", "build", "--index-dir", str(tmp_path / "idx"),
                    archive]
        cluster_dir = str(tmp_path / "fam")
        ClusterStore(cluster_dir).close()
        return ["cluster", "label", "--cluster-dir", cluster_dir, archive]

    @pytest.mark.parametrize("name,text", MALFORMED_FILES,
                             ids=[name for name, _ in MALFORMED_FILES])
    @pytest.mark.parametrize("command", ["reassemble", "index", "cluster"])
    def test_exit_2_naming_the_file(self, tmp_path, capsys, command,
                                    name, text):
        argv = self._argv(tmp_path, command, name, text)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "corrupt archive" in err and name in err
        assert len(err.strip().splitlines()) == 1


class TestExplorationFlags:
    def test_reveal_batch_accepts_scheduler_knobs(self, capsys):
        args = ["reveal-batch", "--corpus", "fdroid", "--limit", "1",
                "--force-execution", "--strategy", "rarity-first",
                "--max-paths", "5", "--explore-workers", "2", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        exploration = payload["outcomes"][0]["exploration"]
        assert exploration["strategy"] == "rarity-first"
        assert exploration["paths_explored"] <= 5
        assert payload["summary"]["exploration"]["apps_explored"] == 1
