"""The ``index`` CLI group: build / query / stats and their guards."""

import json
import os

from repro.core import CollectStage, RevealConfig
from repro.dex import assemble
from repro.index.corpus import INDEX_FORMAT_VERSION
from repro.runtime import Apk
from repro.service.cli import main

_SIG = "Lg/App;->onCreate(Landroid/os/Bundle;)V"


def _archive_dir(tmp_path, name="archive") -> str:
    apk = Apk("g.app", "Lg/App;", [assemble("""
.class public Lg/App;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    const/4 v0, 0
    const/16 v1, 7
    add-int v0, v0, v1
    return-void
.end method
""")])
    config = RevealConfig(use_force_execution=True, force_iterations=2)
    result = CollectStage(config).run(apk)
    directory = str(tmp_path / name)
    result.archive.save(directory)
    return directory


class TestIndexGuards:
    def test_stats_on_missing_index_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "nowhere")
        assert main(["index", "stats", "--index-dir", path]) == 2
        captured = capsys.readouterr()
        assert "no corpus index at" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not os.path.exists(path)  # read-only commands never create

    def test_query_on_missing_index_exits_two(self, tmp_path, capsys):
        assert main(["index", "query",
                     "--index-dir", str(tmp_path / "nope"),
                     "--signature", _SIG]) == 2
        assert "no corpus index at" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self, capsys):
        assert main(["index"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_foreign_index_version_exits_two(self, tmp_path, capsys):
        root = tmp_path / "idx"
        root.mkdir()
        (root / "index_meta.json").write_text(
            json.dumps({"version": INDEX_FORMAT_VERSION + 1}))
        assert main(["index", "stats", "--index-dir", str(root)]) == 2
        captured = capsys.readouterr()
        assert "format version" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_build_on_missing_archive_exits_two(self, tmp_path, capsys):
        code = main(["index", "build",
                     "--index-dir", str(tmp_path / "idx"),
                     str(tmp_path / "no-archive")])
        assert code == 2
        assert "archive" in capsys.readouterr().err


class TestIndexBuildQueryStats:
    def test_build_then_stats_then_query(self, tmp_path, capsys):
        archive = _archive_dir(tmp_path)
        index_dir = str(tmp_path / "idx")

        assert main(["index", "build", "--index-dir", index_dir,
                     "--app-id", "g.app", archive]) == 0
        out = capsys.readouterr().out
        assert "registered g.app" in out
        assert "index now holds" in out

        assert main(["index", "stats", "--index-dir", index_dir,
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["methods"] >= 1
        assert stats["apps"] == 1
        assert stats["version"] == INDEX_FORMAT_VERSION

        assert main(["index", "query", "--index-dir", index_dir,
                     "--signature", _SIG]) == 0
        out = capsys.readouterr().out
        assert "g.app" in out and _SIG in out

    def test_query_round_trips_by_digest(self, tmp_path, capsys):
        archive = _archive_dir(tmp_path)
        index_dir = str(tmp_path / "idx")
        assert main(["index", "build", "--index-dir", index_dir,
                     "--app-id", "g.app", "--json", archive]) == 0
        build = json.loads(capsys.readouterr().out)
        row = build["registered"][0]
        assert row["corpus_new"] >= 1
        # A build row carries the probe's counts, as a reveal's
        # index_stats does.
        assert row["index_known_methods"] == row["corpus_known"] == 0
        assert row["index_executed_methods"] == row["corpus_new"]

        assert main(["index", "query", "--index-dir", index_dir,
                     "--signature", _SIG, "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert len(results) == 1
        exact = results[0]["exact"]

        assert main(["index", "query", "--index-dir", index_dir,
                     "--exact", exact]) == 0
        assert _SIG in capsys.readouterr().out

    def test_query_with_no_matches_says_so(self, tmp_path, capsys):
        archive = _archive_dir(tmp_path)
        index_dir = str(tmp_path / "idx")
        assert main(["index", "build", "--index-dir", index_dir,
                     archive]) == 0
        capsys.readouterr()
        assert main(["index", "query", "--index-dir", index_dir,
                     "--exact", "0" * 64]) == 0
        assert "no matches" in capsys.readouterr().out

    def test_query_selector_contract(self, tmp_path, capsys):
        archive = _archive_dir(tmp_path)
        index_dir = str(tmp_path / "idx")
        assert main(["index", "build", "--index-dir", index_dir,
                     archive]) == 0
        capsys.readouterr()

        # Two selectors at once: refused.
        assert main(["index", "query", "--index-dir", index_dir,
                     "--exact", "0" * 64, "--signature", _SIG]) == 2
        assert "exactly one" in capsys.readouterr().err

        # A malformed fuzzy digest: one-line refusal, no traceback.
        assert main(["index", "query", "--index-dir", index_dir,
                     "--nearest", "zz"]) == 2
        assert "bad digest" in capsys.readouterr().err

    def test_rebuild_is_idempotent(self, tmp_path, capsys):
        archive = _archive_dir(tmp_path)
        index_dir = str(tmp_path / "idx")
        for _ in range(2):
            assert main(["index", "build", "--index-dir", index_dir,
                         "--app-id", "g.app", archive]) == 0
        capsys.readouterr()
        assert main(["index", "stats", "--index-dir", index_dir,
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["apps"] == 1  # duplicate entries collapsed
