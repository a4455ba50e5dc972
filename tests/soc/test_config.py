"""Unit tests for SoC configuration presets (paper Table III)."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.soc import SYSTEM_NAMES, SoCConfig, preset


def test_all_presets_build():
    for name in SYSTEM_NAMES:
        cfg = preset(name)
        assert cfg.name == name


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("2b-8L")


def test_preset_shapes_match_paper():
    assert preset("1L").n_big == 0 and preset("1L").n_little == 1
    assert preset("1b").n_big == 1 and preset("1b").n_little == 0
    assert preset("1b-4L").n_little == 4
    assert preset("1bIV-4L").vector == "ivu"
    assert preset("1bDV").vector == "dve"
    assert preset("1b-4VL").vector == "vlittle"


def test_vlen_bits_per_system():
    assert preset("1bIV").vlen_bits(4) == 128
    assert preset("1bDV").vlen_bits(4) == 2048
    assert preset("1b-4VL").vlen_bits(4) == 512  # 4 cores x 2 chimes x 2 packed x 32b
    assert preset("1b-4VL", packed=False).vlen_bits(4) == 256
    assert preset("1b-4VL", chimes=1, packed=False).vlen_bits(4) == 128
    assert preset("1b-4L").vlen_bits(4) == 0


def test_periods_from_frequencies():
    cfg = preset("1b-4VL", freq_big=1.0, freq_little=1.0)
    assert cfg.period_big() == 1000
    assert cfg.period_little() == 1000
    cfg2 = cfg.with_freqs(big=1.4, little=0.6)
    assert cfg2.period_big() == 714
    assert cfg2.period_little() == 1667
    assert cfg2.name == cfg.name


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        SoCConfig(name="x", n_big=0, n_little=0)
    with pytest.raises(ConfigError):
        SoCConfig(name="x", n_big=0, n_little=1, vector="ivu")
    with pytest.raises(ConfigError):
        SoCConfig(name="x", n_big=1, n_little=0, vector="vlittle")
    with pytest.raises(ConfigError):
        SoCConfig(name="x", vector="gpu")


#: override sets the sweeps use: a Fig. 9 DVFS point, a memory override
#: (the DRAM ablation), and the Fig. 7 chime / packing knobs
TO_DICT_OVERRIDES = {
    "preset": {},
    "dvfs": {"freq_big": 1.4, "freq_little": 0.6},
    "mem": {"mem": {"dram_latency": 400, "l2_banks": 8}},
    "chimes-packed": {"chimes": 1, "packed": False},
}


@pytest.mark.parametrize("overrides", TO_DICT_OVERRIDES.values(),
                         ids=TO_DICT_OVERRIDES)
def test_to_dict_equals_asdict(overrides):
    # to_dict is the result-cache key payload: it must stay the dict
    # dataclasses.asdict builds, or every cached result's key moves
    for name in SYSTEM_NAMES:
        cfg = preset(name, **overrides)
        assert cfg.to_dict() == dataclasses.asdict(cfg)
        assert SoCConfig.from_dict(cfg.to_dict()) == cfg
