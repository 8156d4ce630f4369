"""Preset configurations must match Table I exactly."""

import dataclasses

import pytest

from repro.core import (
    CoreConfig,
    IXUConfig,
    MODEL_NAMES,
    build_core,
    model_config,
)
from repro.core.presets import PAPER_IXU


class TestTable1Conformance:
    def test_big(self):
        config = model_config("BIG")
        assert config.core_type == "ooo"
        assert config.fetch_width == 3
        assert config.issue_width == 4
        assert config.iq_entries == 64
        assert (config.fu_int, config.fu_mem, config.fu_fp) == (2, 2, 2)
        assert config.rob_entries == 128
        assert config.int_prf_entries == 128
        assert config.fp_prf_entries == 96
        assert config.lq_entries == 32 and config.sq_entries == 32
        assert config.pht_entries == 4096
        assert config.btb_entries == 512
        assert not config.has_ixu

    def test_half_is_big_with_half_iq(self):
        big, half = model_config("BIG"), model_config("HALF")
        assert half.issue_width == big.issue_width // 2
        assert half.iq_entries == big.iq_entries // 2
        assert half.rob_entries == big.rob_entries
        assert half.fu_int == big.fu_int

    def test_little(self):
        config = model_config("LITTLE")
        assert config.core_type == "inorder"
        assert config.fetch_width == 2
        assert config.issue_width == 2
        assert (config.fu_int, config.fu_mem, config.fu_fp) == (2, 1, 1)
        assert config.fetch_breaks_on_taken

    def test_fx_models(self):
        for name in ("HALF+FX", "BIG+FX"):
            config = model_config(name)
            assert config.has_ixu
            assert config.ixu == PAPER_IXU
            assert config.ixu.stage_fus == (3, 1, 1)
            assert config.ixu.bypass_stage_limit == 2
        assert model_config("HALF+FX").iq_entries == 32
        assert model_config("BIG+FX").iq_entries == 64

    def test_mispredict_penalties(self):
        assert model_config("BIG").mispredict_depth == 11
        assert model_config("LITTLE").mispredict_depth == 8
        # FXA pays the IXU depth + register-read stage on top.
        assert model_config("HALF+FX").mispredict_depth == 15

    def test_shared_memory_hierarchy(self):
        for name in MODEL_NAMES:
            hierarchy = model_config(name).hierarchy
            assert hierarchy.l1i_kb == 48
            assert hierarchy.l1d_kb == 32
            assert hierarchy.l2_kb == 512
            assert hierarchy.mem_latency == 200

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            model_config("MEDIUM")

    def test_lookups_share_one_frozen_instance(self):
        for name in MODEL_NAMES + ("CA",):
            config = model_config(name)
            assert model_config(name) is config
            with pytest.raises(dataclasses.FrozenInstanceError):
                config.iq_entries = 8
            with pytest.raises(dataclasses.FrozenInstanceError):
                config.hierarchy.l2_kb = 8

    def test_build_core_types(self):
        from repro.core import FXACore, InOrderCore, OutOfOrderCore

        assert isinstance(build_core("BIG"), OutOfOrderCore)
        assert isinstance(build_core("LITTLE"), InOrderCore)
        assert isinstance(build_core("HALF+FX"), FXACore)
        assert not isinstance(build_core("BIG"), FXACore)

    def test_build_core_from_config(self):
        config = model_config("HALF")
        core = build_core(config)
        assert core.config is config


class TestConfigValidation:
    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            CoreConfig(name="x", core_type="vliw")

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            CoreConfig(name="x", core_type="ooo", fetch_width=0)

    def test_ixu_total_fus(self):
        assert IXUConfig(stage_fus=(3, 1, 1)).total_fus == 5
        assert IXUConfig(stage_fus=(3, 3, 3)).total_fus == 9
        assert IXUConfig(stage_fus=(2,)).depth == 1

    def test_oxu_fu_total(self):
        assert model_config("BIG").total_oxu_fus == 6
        assert model_config("LITTLE").total_oxu_fus == 4
