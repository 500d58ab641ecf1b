"""RevealConfig: frozen value semantics, identity hash."""

import dataclasses

import pytest

from repro.core import Pipeline, RevealConfig
from repro.runtime import NEXUS_5X
from repro.runtime.device import EMULATOR


class TestValueSemantics:
    def test_frozen(self):
        cfg = RevealConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.run_budget = 1

    def test_hashable_and_equal(self):
        assert RevealConfig() == RevealConfig()
        assert hash(RevealConfig()) == hash(RevealConfig())
        assert len({RevealConfig(), RevealConfig(),
                    RevealConfig(run_budget=1)}) == 2

    def test_replace(self):
        cfg = RevealConfig()
        other = cfg.replace(run_budget=10, device=EMULATOR)
        assert other.run_budget == 10 and other.device == EMULATOR
        assert cfg.run_budget == 2_000_000  # original untouched

    def test_defaults_match_paper_setup(self):
        cfg = RevealConfig()
        assert cfg.device == NEXUS_5X
        assert not cfg.use_force_execution
        assert cfg.archive_dir is None


class TestConfigHash:
    def test_stable_64_hex(self):
        key = RevealConfig().config_hash()
        assert key == RevealConfig().config_hash()
        assert len(key) == 64
        int(key, 16)

    def test_identity_fields_change_hash(self):
        base = RevealConfig().config_hash()
        assert base != RevealConfig(run_budget=10).config_hash()
        assert base != RevealConfig(use_force_execution=True).config_hash()
        assert base != RevealConfig(force_iterations=1).config_hash()
        assert base != RevealConfig(device=EMULATOR).config_hash()

    def test_device_state_changes_hash(self):
        # The whole profile is identity, not just its name.
        custom = dataclasses.replace(NEXUS_5X, imei="999999999999999")
        assert RevealConfig().config_hash() != \
            RevealConfig(device=custom).config_hash()

    def test_archive_dir_is_not_identity(self):
        # Where collection files land on disk doesn't change the result.
        assert RevealConfig().config_hash() == \
            RevealConfig(archive_dir="/tmp/elsewhere").config_hash()

    def test_pinned_values(self):
        # Every on-disk result cache is keyed by these: a codec change
        # that moves them turns every cached outcome into a miss.
        assert RevealConfig().config_hash() == (
            "fe62d0ceca7d948fe9f2a4ddadafeb4e56bc2ebb03769375a66e22ef670ff18b")
        assert RevealConfig(use_force_execution=True,
                            max_paths=32).config_hash() == (
            "bd5838d2635e80b502294c7b66e88368a97f2685fee83ad37b0528e9919bc211")


class TestPipelineConstruction:
    def test_pipeline_shares_the_config(self):
        cfg = RevealConfig(run_budget=7)
        assert Pipeline(cfg).config is cfg
