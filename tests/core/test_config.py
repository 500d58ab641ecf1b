"""RevealConfig: frozen value semantics, JSON round trip, identity hash."""

import dataclasses

import pytest

from repro.core import DexLego, Pipeline, RevealConfig
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


class TestJsonRoundTrip:
    def test_dict_round_trip_identity(self):
        cfg = RevealConfig()
        assert RevealConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_round_trip_non_default(self):
        custom = dataclasses.replace(NEXUS_5X, imei="111111111111111")
        cfg = RevealConfig(device=custom, use_force_execution=True,
                           run_budget=123, archive_dir="/tmp/x",
                           force_iterations=3)
        again = RevealConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.device.imei == "111111111111111"

    def test_json_round_trip_through_text(self):
        cfg = RevealConfig(device=EMULATOR, run_budget=99)
        import json

        text = cfg.to_json()
        json.loads(text)  # genuinely JSON, not repr
        assert RevealConfig.from_json(text) == cfg

    def test_from_dict_defaults_missing_fields(self):
        assert RevealConfig.from_dict({}) == RevealConfig()


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

    def test_survives_json_round_trip(self):
        cfg = RevealConfig(device=EMULATOR, run_budget=7)
        assert RevealConfig.from_json(cfg.to_json()).config_hash() == \
            cfg.config_hash()


class TestFacadeConstruction:
    def test_dexlego_kwargs_build_config(self):
        lego = DexLego(run_budget=42, use_force_execution=True)
        assert lego.config == RevealConfig(run_budget=42,
                                           use_force_execution=True)
        assert lego.pipeline.config is lego.config

    def test_dexlego_accepts_config_directly(self):
        cfg = RevealConfig(run_budget=7)
        assert DexLego(config=cfg).config is cfg

    def test_config_plus_kwargs_is_rejected(self):
        # Silently dropping a knob would run a different configuration
        # than the caller asked for.
        with pytest.raises(ValueError, match="run_budget"):
            DexLego(config=RevealConfig(), run_budget=500)

    def test_pipeline_shares_the_config(self):
        cfg = RevealConfig(run_budget=7)
        assert Pipeline(cfg).config is cfg
        assert DexLego(config=cfg).pipeline.config is cfg
