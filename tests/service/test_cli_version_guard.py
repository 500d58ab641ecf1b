"""CLI version guards: foreign on-disk formats fail loudly, up front.

Two regression cases.  ``reassemble`` over an archive whose
``exploration_state.json`` was written by a different format version
used to hydrate the collection files first and only trip (or worse,
mis-resume) later; the archive loader now validates the exploration
state eagerly, so the CLI exits non-zero with one clear line.
``watch``/``status`` over a job store holding records of a foreign
``STORE_FORMAT_VERSION`` used to render an empty queue — and
``watch --follow`` would tail it until timeout — because the store
silently skips records it cannot read; the CLI now refuses the store
outright.
"""

import json
import os

from repro.core import CollectStage, RevealConfig
from repro.dex import assemble
from repro.runtime import Apk
from repro.service.cli import main
from repro.service.jobs import JobStore


def _archive_dir(tmp_path, exploration_version) -> str:
    """A valid collection archive whose exploration state claims a
    foreign format version."""
    apk = Apk("g.app", "Lg/App;", [assemble("""
.class public Lg/App;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 2
    return-void
.end method
""")])
    config = RevealConfig(use_force_execution=True, force_iterations=2)
    result = CollectStage(config).run(apk)
    directory = str(tmp_path / "archive")
    result.archive.save(directory)
    state_path = os.path.join(directory, "exploration_state.json")
    with open(state_path, encoding="utf-8") as fh:
        state = json.load(fh)
    state["version"] = exploration_version
    with open(state_path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    return directory


class TestReassembleVersionGuard:
    def test_foreign_exploration_state_exits_two(self, tmp_path, capsys):
        directory = _archive_dir(tmp_path, exploration_version=99)
        code = main(["reassemble", directory])
        captured = capsys.readouterr()
        assert code == 2
        # One diagnostic line, no traceback, and it names the problem.
        assert "corrupt archive" in captured.err
        assert "exploration state version 99" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        # The reassembled DEX was never written.
        assert not os.path.exists(os.path.join(directory, "reassembled.dex"))

    def test_valid_archive_still_reassembles(self, tmp_path, capsys):
        directory = _archive_dir(tmp_path, exploration_version=1)
        assert main(["reassemble", directory]) == 0
        assert os.path.exists(os.path.join(directory, "reassembled.dex"))


class TestWatchVersionGuard:
    def _store_with_foreign_record(self, tmp_path) -> str:
        directory = str(tmp_path / "store")
        store = JobStore(directory)
        record = store.make_record(job_id="job-old", app_id="g.app",
                                   apk=Apk("g.app", "Lg/App;", []))
        record["version"] = 99
        store.save(record)
        return directory

    def test_watch_refuses_foreign_store(self, tmp_path, capsys):
        directory = self._store_with_foreign_record(tmp_path)
        code = main(["watch", "--store", directory])
        captured = capsys.readouterr()
        assert code == 2
        assert "format version 99" in captured.err
        assert "job-old" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_watch_follow_refuses_instead_of_hanging(self, tmp_path, capsys):
        directory = self._store_with_foreign_record(tmp_path)
        # Before the guard this tailed an apparently-empty queue until
        # --timeout; now it must return immediately.
        code = main(["watch", "--store", directory, "--follow",
                     "--timeout", "30"])
        assert code == 2

    def test_status_refuses_foreign_store(self, tmp_path, capsys):
        directory = self._store_with_foreign_record(tmp_path)
        assert main(["status", "--store", directory]) == 2
        assert "format version 99" in capsys.readouterr().err

    def test_clean_store_still_watches(self, tmp_path, capsys):
        directory = str(tmp_path / "clean")
        store = JobStore(directory)
        store.save(store.make_record(job_id="job-new", app_id="g.app",
                                     apk=Apk("g.app", "Lg/App;", [])))
        assert main(["watch", "--store", directory]) == 0
        assert main(["status", "--store", directory, "--json"]) == 0


class TestMissingStoreGuard:
    """``status``/``watch`` over a path that is not a job store.

    These are read-only inspection commands: a typo'd ``--store`` must
    exit 2 with one diagnostic line — not scaffold an empty store and
    render an empty queue (which ``watch --follow`` would then tail
    until its timeout).
    """

    def test_status_on_nonexistent_path_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "no-such-store")
        assert main(["status", "--store", path]) == 2
        captured = capsys.readouterr()
        assert "no job store at" in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not os.path.exists(path)  # nothing was scaffolded

    def test_watch_on_nonexistent_path_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "no-such-store")
        assert main(["watch", "--store", path]) == 2
        assert "no job store at" in capsys.readouterr().err
        assert not os.path.exists(path)

    def test_watch_follow_returns_immediately(self, tmp_path, capsys):
        # Before the guard, --follow on a missing store would tail an
        # auto-created empty queue until --timeout expired.
        path = str(tmp_path / "no-such-store")
        assert main(["watch", "--store", path, "--follow",
                     "--timeout", "30"]) == 2

    def test_store_path_that_is_a_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "a-file"
        path.write_text("not a store")
        assert main(["status", "--store", str(path)]) == 2
        assert "no job store at" in capsys.readouterr().err

    def test_directory_without_jobs_is_not_mutated(self, tmp_path, capsys):
        # A real directory that is not a store must be refused without
        # JobStore scaffolding ``jobs/`` inside it.
        path = tmp_path / "plain-dir"
        path.mkdir()
        (path / "unrelated.txt").write_text("keep me")
        assert main(["status", "--store", str(path)]) == 2
        assert "no job store at" in capsys.readouterr().err
        assert sorted(os.listdir(path)) == ["unrelated.txt"]
