"""Collector and collection-file tests."""

import json
import os

import pytest

from repro.core import (
    CollectionArchive,
    CollectStage,
    DexLegoCollector,
    Pipeline,
    RevealConfig,
    resume_exploration,
    reveal_from_archive,
)
from repro.core.collection_files import EXPLORATION_STATE_FILE
from repro.dex import iter_instructions, write_dex
from repro.runtime import AndroidRuntime, AppDriver

from tests.conftest import build_simple_apk


def _collect(apk):
    runtime = AndroidRuntime()
    collector = DexLegoCollector()
    runtime.add_listener(collector)
    AppDriver(runtime, apk).run_standard_session()
    return collector


class TestCollector:
    def test_collects_class_metadata(self):
        collector = _collect(build_simple_apk("c.meta"))
        assert "Lcom/fix/Simple;" in collector.classes
        collected = collector.classes["Lcom/fix/Simple;"]
        assert collected.superclass_desc == "Landroid/app/Activity;"
        assert collected.initialized
        assert any(f.name == "total" for f in collected.fields)

    def test_collects_executed_bytecode(self):
        collector = _collect(build_simple_apk("c.code"))
        record = collector.method_store.get(
            "Lcom/fix/Simple;->onCreate(Landroid/os/Bundle;)V"
        )
        assert record is not None and record.executed
        assert len(record.trees) == 1
        assert record.trees[0].instruction_count() > 5

    def test_framework_classes_not_collected(self):
        collector = _collect(build_simple_apk("c.fw"))
        assert all(not d.startswith("Ljava/") for d in collector.classes)
        assert all(not d.startswith("Landroid/") for d in collector.classes)

    def test_repeated_executions_dedupe_trees(self):
        apk = build_simple_apk("c.dedupe")
        runtime = AndroidRuntime()
        collector = DexLegoCollector()
        runtime.add_listener(collector)
        driver = AppDriver(runtime, apk)
        driver.launch()
        for _ in range(3):
            driver._call_if_defined(
                driver.activity, "onCreate", ("Landroid/os/Bundle;",),
                [driver.activity, None],
            )
        record = collector.method_store.get(
            "Lcom/fix/Simple;->onCreate(Landroid/os/Bundle;)V"
        )
        assert len(record.trees) == 1  # identical executions -> one tree

    def test_symbols_resolved_at_collection(self):
        collector = _collect(build_simple_apk("c.sym"))
        record = collector.method_store.get(
            "Lcom/fix/Simple;->onCreate(Landroid/os/Bundle;)V"
        )
        symbols = [c.symbol for c in record.trees[0].root.il if c.symbol]
        assert "Lcom/fix/Simple;->total:I" in symbols

    def test_stats_shape(self):
        collector = _collect(build_simple_apk("c.stats"))
        stats = collector.stats()
        assert stats["classes_collected"] == 1
        assert stats["methods_executed"] >= 1
        assert stats["collected_instructions"] > 0


class TestCollectionArchive:
    def test_save_and_load_roundtrip(self, tmp_path):
        collector = _collect(build_simple_apk("c.archive"))
        archive = CollectionArchive.from_collector(collector)
        target = str(tmp_path / "dump")
        archive.save(target)
        for name in ("class_data.json", "bytecode.json", "method_data.json",
                     "field_data.json", "static_values.json", "reflection.json"):
            assert os.path.exists(os.path.join(target, name))
        again = CollectionArchive.load(target)
        assert again.total_size_bytes() == archive.total_size_bytes()
        store = again.collector.method_store
        assert store.get(
            "Lcom/fix/Simple;->onCreate(Landroid/os/Bundle;)V"
        ).executed

    def test_dump_size_grows_with_code(self):
        from repro.benchsuite import generate_app

        small = generate_app("c.size.small", 500, seed=1)
        large = generate_app("c.size.large", 5000, seed=1)
        sizes = []
        for app in (small, large):
            collector = _collect(app.apk)
            sizes.append(CollectionArchive.from_collector(collector).total_size_bytes())
        assert sizes[1] > sizes[0] * 2

    def test_archive_dir_pipeline_boundary(self, tmp_path):
        pipeline = Pipeline(RevealConfig(archive_dir=str(tmp_path / "files")))
        result = pipeline.run(build_simple_apk("c.boundary"))
        assert os.path.isdir(str(tmp_path / "files"))
        assert result.reassembled_dex.find_class("Lcom/fix/Simple;") is not None

    def test_files_parse_back_to_the_same_texts(self):
        collector = _collect(build_simple_apk("c.codec"))
        archive = CollectionArchive.from_collector(collector)
        again = CollectionArchive.from_files(archive.files())
        assert again.files() == archive.files()
        assert again.collector.rows() == collector.rows()

    def test_archive_never_ships_the_replay_wire(self, monkeypatch,
                                                 tmp_path):
        # perfbench times delta_dict as the process backend's wire
        # (explore.delta_serialize); the archive has its own rows.
        def wire(self):
            raise AssertionError("the archive called delta_dict")
        monkeypatch.setattr(DexLegoCollector, "delta_dict", wire)
        archive = CollectionArchive.from_collector(
            _collect(build_simple_apk("c.wire")))
        archive.save(str(tmp_path))
        CollectionArchive.merged(archive, CollectionArchive.load(
            str(tmp_path))).total_size_bytes()

    def test_merged_changes_neither_input(self):
        from tests.core.test_determinism import _branchy_apk, _resume_pair

        base, update = _resume_pair(_branchy_apk("c.merge"), then=32)
        before = (base.collector.rows(), update.collector.rows())
        merged = CollectionArchive.merged(base, update)
        assert merged.collector.rows() != before[0]  # update added trees
        assert (base.collector.rows(), update.collector.rows()) == before


#: (file, content) pairs that are not what a collector writes: not an
#: object or list, missing keys, a wrong type, zero bytes, truncated.
MALFORMED = [
    (EXPLORATION_STATE_FILE, "[]"),
    ("class_data.json", "{}"),
    ("bytecode.json", '[{"method": "Lcom/fix/Simple;->f()V"}]'),
    ("method_data.json", '[{"signature": 5}]'),
    ("static_values.json", ""),
    ("field_data.json", '[{"class": "Lcom/fix/Simple;", "na'),
    ("reflection.json",
     '[{"caller": "Lcom/fix/Simple;->f()V", "dex_pc": 0, "targets": [1]}]'),
]


def _saved_force_archive(tmp_path) -> str:
    """A saved archive carrying an exploration state."""
    directory = str(tmp_path / "archive")
    config = RevealConfig(use_force_execution=True, force_iterations=2)
    archive = CollectStage(config).run(build_simple_apk("c.bad")).archive
    assert EXPLORATION_STATE_FILE in archive.files()
    archive.save(directory)
    return directory


def _overwrite(directory: str, name: str, text: str) -> None:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(text)


class TestMalformedArchive:
    """``load`` parses every file once and refuses one that is not the
    JSON a collector writes with one ``ValueError`` naming it."""

    @pytest.mark.parametrize("name,text", MALFORMED,
                             ids=[name for name, _ in MALFORMED])
    def test_load_refuses_naming_the_file(self, tmp_path, name, text):
        directory = _saved_force_archive(tmp_path)
        _overwrite(directory, name, text)
        with pytest.raises(ValueError) as caught:
            CollectionArchive.load(directory)
        message = str(caught.value)
        assert message.startswith(f"{name}: ")
        assert "\n" not in message

    @pytest.mark.parametrize("name", ["predecode_index.json", "notes.txt"])
    def test_from_files_refuses_an_unknown_file(self, name):
        files = dict(CollectionArchive.from_collector(
            _collect(build_simple_apk("c.unknown"))).files())
        files[name] = "{}"
        with pytest.raises(ValueError) as caught:
            CollectionArchive.from_files(files)
        message = str(caught.value)
        assert message.startswith(f"{name}: ")
        assert "\n" not in message

    @pytest.mark.parametrize("name", ["bytecode.json", "class_data.json"])
    def test_from_files_refuses_a_missing_file(self, name):
        files = dict(CollectionArchive.from_collector(
            _collect(build_simple_apk("c.missing"))).files())
        del files[name]
        with pytest.raises(ValueError) as caught:
            CollectionArchive.from_files(files)
        message = str(caught.value)
        assert message.startswith(f"{name}: ")
        assert "\n" not in message


#: The warm-decode cache that earlier builds saved beside the collection
#: files of every force-execution archive.  Nothing reads it any more.
LEFTOVER_DECODE_CACHE = "predecode_index.json"


def _decode_cache_text(apk) -> str:
    """A decode cache in the format earlier builds wrote: version 1,
    and per method the raw code units of each decoded pc."""
    methods = []
    for dex in apk.dex_files:
        for _class_def, method, ref in dex.iter_methods():
            if method.code is not None:
                units = method.code.insns
                methods.append({
                    "signature": ref.signature,
                    "generation": units.generation,
                    "entries": [[pc, list(units[pc:pc + ins.unit_count])]
                                for pc, ins in iter_instructions(units)]})
    return json.dumps({"version": 1, "methods": methods}, indent=1)


class TestLeftoverDecodeCache:
    """An archive directory an earlier build saved still holds its
    decode cache: it must load, reassemble and resume to the same bytes
    as the same directory without the file, whatever the file holds."""

    @pytest.mark.parametrize("kind", ["valid", "malformed"])
    def test_ignored_by_load_reveal_and_resume(self, tmp_path, kind):
        from tests.core.test_determinism import _branchy_apk

        config = RevealConfig(use_force_execution=True, max_paths=1)
        archive = CollectStage(config).run(_branchy_apk("c.left")).archive
        clean, left = str(tmp_path / "clean"), str(tmp_path / "left")
        archive.save(clean)
        archive.save(left)
        _overwrite(left, LEFTOVER_DECODE_CACHE,
                   _decode_cache_text(_branchy_apk("c.left"))
                   if kind == "valid" else "[]")

        assert CollectionArchive.load(left).files() == \
            CollectionArchive.load(clean).files()
        revealed, resumed = [], []
        for directory in (clean, left):
            result = reveal_from_archive(directory, _branchy_apk("c.left"))
            revealed.append((write_dex(result.reassembled_dex),
                             result.revealed_apk.to_bytes()))
            result = resume_exploration(
                directory, _branchy_apk("c.left"),
                config=config.replace(max_paths=32))
            assert result.force_report.resumed
            resumed.append((result.archive.files(),
                            write_dex(result.reassembled_dex),
                            result.revealed_apk.to_bytes()))
        assert revealed[1] == revealed[0]
        assert resumed[1] == resumed[0]
