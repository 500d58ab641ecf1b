"""Warm predecode state across the process boundary.

The shared decode store is process memory; :mod:`repro.runtime.predecode`
serialises it so resumed sessions start warm.  The contract under test:
an exported index adopted by a *different* hydration of the same APK
yields the same execution; stale entries — recorded against bytes that
since changed — are rejected by raw-byte compare; and foreign format
versions are refused loudly, including when the index arrives inside a
collection archive.
"""

import pytest

from repro.core import (
    CollectionArchive,
    CollectStage,
    DexLegoCollector,
    RevealConfig,
    resume_exploration,
)
from repro.core.collection_files import PREDECODE_INDEX_FILE
from repro.core.replay import ReplaySpec, execute_replay
from repro.dex import assemble
from repro.runtime import Apk
from repro.runtime.predecode import (
    PREDECODE_INDEX_VERSION,
    export_predecode_index,
    validate_predecode_index,
    warm_predecode,
)

SIG = "Lw/Warm;->onCreate(Landroid/os/Bundle;)V"


def _apk(package: str = "w.warm") -> Apk:
    text = """
.class public Lw/Warm;
.super Landroid/app/Activity;
.field public static a:I = 0

.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 0
    :loop
    add-int/lit8 v0, v0, 1
    const/4 v1, 3
    if-ne v0, v1, :loop
    sget v2, Lw/Warm;->a:I
    add-int/lit8 v2, v2, 1
    sput v2, Lw/Warm;->a:I
    return-void
.end method
"""
    return Apk(package, "Lw/Warm;", [assemble(text)])


def _run_once(apk: Apk) -> None:
    """One standard drive, populating the shared decode stores."""
    spec = ReplaySpec(apk.package, collect=False)
    execute_replay(spec, apk=apk)


class TestExportWarmRoundTrip:
    def test_saved_by_one_process_loaded_by_another(self):
        # "Another process" in miniature: a second hydration from the
        # serialised bytes shares nothing in memory with the first.
        hot = _apk()
        _run_once(hot)
        index = export_predecode_index(hot.dex_files)
        assert index["version"] == PREDECODE_INDEX_VERSION
        assert any(m["signature"] == SIG for m in index["methods"])

        cold = Apk.from_bytes(hot.to_bytes())
        stores_before = [
            getattr(method.code.insns, "shared", {})
            for dex in cold.dex_files
            for _c, method, _r in dex.iter_methods() if method.code
        ]
        assert all(not s for s in stores_before)  # really cold
        adopted = warm_predecode(cold.dex_files, index)
        assert adopted == sum(len(m["entries"]) for m in index["methods"])
        # The warmed copy executes identically to a cold one.
        warmed_delta = execute_replay(
            ReplaySpec(cold.package), apk=cold)
        cold_delta = execute_replay(
            ReplaySpec("w.ref"), apk=_apk("w.ref"))
        assert warmed_delta.trace == cold_delta.trace
        assert warmed_delta.steps == cold_delta.steps
        assert warmed_delta.collector.delta_dict() == \
            cold_delta.collector.delta_dict()

    def test_survives_json_serialisation(self, tmp_path):
        import json

        hot = _apk("w.json")
        _run_once(hot)
        index = json.loads(json.dumps(export_predecode_index(hot.dex_files)))
        cold = Apk.from_bytes(hot.to_bytes())
        assert warm_predecode(cold.dex_files, index) > 0

    def test_warming_twice_adopts_nothing_new(self):
        hot = _apk("w.twice")
        _run_once(hot)
        index = export_predecode_index(hot.dex_files)
        cold = Apk.from_bytes(hot.to_bytes())
        assert warm_predecode(cold.dex_files, index) > 0
        assert warm_predecode(cold.dex_files, index) == 0


class TestStaleRejection:
    def test_stale_raw_bytes_rejected(self):
        hot = _apk("w.stale")
        _run_once(hot)
        index = export_predecode_index(hot.dex_files)
        # Corrupt one recorded decode: flip its raw units to bytes the
        # live code does not contain.  Generation metadata alone must
        # not rescue it — adoption is a raw-byte compare.
        method = next(m for m in index["methods"] if m["signature"] == SIG)
        pc, raw = method["entries"][0]
        method["entries"][0] = [pc, [0x3FFF for _ in raw]]
        cold = Apk.from_bytes(hot.to_bytes())
        adopted = warm_predecode(cold.dex_files, index)
        clean = sum(len(m["entries"]) for m in index["methods"]) - 1
        assert adopted == clean
        # The poisoned pc stayed cold in every store.
        for dex in cold.dex_files:
            for _c, m, ref in dex.iter_methods():
                if m.code is not None and ref.signature == SIG:
                    assert pc not in m.code.insns.shared

    def test_unknown_method_skipped(self):
        hot = _apk("w.ghost")
        _run_once(hot)
        index = export_predecode_index(hot.dex_files)
        index["methods"].append({
            "signature": "Lw/Ghost;->gone()V", "generation": 0,
            "entries": [[0, [14]]],
        })
        cold = Apk.from_bytes(hot.to_bytes())
        # No raise, ghost silently skipped, real entries adopted.
        assert warm_predecode(cold.dex_files, index) > 0


class TestVersionGuard:
    @pytest.mark.parametrize("version", [0, 2, 99, None, "1"])
    def test_foreign_version_refused(self, version):
        index = {"version": version, "methods": []}
        with pytest.raises(ValueError, match="predecode index version"):
            validate_predecode_index(index)
        with pytest.raises(ValueError, match="predecode index version"):
            warm_predecode(_apk("w.ver").dex_files, index)

    def test_archive_load_validates_eagerly(self, tmp_path):
        archive = CollectionArchive.from_collector(DexLegoCollector())
        archive.set_predecode_index({"version": 99, "methods": []})
        archive.save(str(tmp_path))
        with pytest.raises(ValueError, match="predecode index version"):
            CollectionArchive.load(str(tmp_path))


class TestArchiveCarriesWarmth:
    def _explore_config(self, tmp_path, **extra) -> RevealConfig:
        return RevealConfig(use_force_execution=True, force_iterations=6,
                            archive_dir=str(tmp_path), **extra)

    def test_collect_stage_exports_index(self, tmp_path):
        config = self._explore_config(tmp_path / "a")
        result = CollectStage(config).run(_apk("w.exp"))
        index = result.archive.predecode_index()
        assert index is not None
        assert any(m["signature"].startswith("Lw/Warm;")
                   for m in index["methods"])

    def test_index_survives_save_load(self, tmp_path):
        config = self._explore_config(tmp_path / "b")
        result = CollectStage(config).run(_apk("w.rt"))
        result.archive.save(str(tmp_path / "b"))
        again = CollectionArchive.load(str(tmp_path / "b"))
        assert again.predecode_index() == result.archive.predecode_index()
        assert PREDECODE_INDEX_FILE in again.files()

    def test_resume_under_process_backend(self, tmp_path):
        # Session one: explore with a hard path cap so the frontier
        # persists work; session two resumes it on the process backend,
        # warm-started from the archive's predecode index.
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
