"""Clock-domain / DVFS correctness tests (the machinery behind Figs. 9-11)."""

import pytest

from repro.experiments import run_pair
from repro.soc import System, preset
from repro.trace import TraceBuilder


def alu_trace(n=300):
    tb = TraceBuilder()
    with tb.loop(n, overhead=False) as loop:
        for _ in loop:
            tb.addi(None)
            tb.addi(None)
    return tb.finish("alu")


def test_periods_round_to_picoseconds():
    cfg = preset("1b-4VL").with_freqs(big=1.4, little=0.6)
    assert cfg.period_big() == 714
    assert cfg.period_little() == 1667
    assert cfg.period_mem() == 1000


def test_compute_bound_scales_linearly_with_frequency():
    t = {}
    for f in (0.6, 1.2):
        cfg = preset("1L").with_freqs(little=f)
        t[f] = System(cfg).run(alu_trace()).stats["time_ps"]
    ratio = t[0.6] / t[1.2]
    assert ratio == pytest.approx(2.0, rel=0.08)


def test_memory_stays_at_1ghz_under_core_scaling():
    # DRAM-bound work: core frequency hardly matters
    def mk():
        tb = TraceBuilder()
        for i in range(200):
            tb.lw(0x5000000 + 64 * i)
        return tb.finish()

    slow = System(preset("1b").with_freqs(big=0.8)).run(mk()).stats["time_ps"]
    fast = System(preset("1b").with_freqs(big=1.4)).run(mk()).stats["time_ps"]
    assert slow / fast < 1.3


def test_vlittle_tracks_little_cluster_frequency():
    # fully-vectorized kernel: little frequency dominates, big is irrelevant
    t_b = {}
    for fb in (0.8, 1.4):
        t_b[fb] = run_pair("1b-4VL", "vvadd", "tiny", freq_big=fb,
                           freq_little=1.0).stats["time_ps"]
    assert t_b[0.8] / t_b[1.4] < 1.10  # paper Fig. 9's flat rows

    t_l = {}
    for fl in (0.6, 1.2):
        t_l[fl] = run_pair("1b-4VL", "vvadd", "tiny", freq_big=1.0,
                           freq_little=fl).stats["time_ps"]
    assert t_l[0.6] / t_l[1.2] > 1.4  # strong little-cluster sensitivity


def test_sw_responds_to_big_core_boost():
    # sw is only ~69% vectorized: its scalar traceback runs on the big core
    def gain(w):
        slow = run_pair("1b-4VL", w, "tiny", freq_big=0.8).stats["time_ps"]
        fast = run_pair("1b-4VL", w, "tiny", freq_big=1.4).stats["time_ps"]
        return slow / fast

    assert gain("sw") > gain("vvadd") + 0.05


def test_ivu_system_responds_to_big_boost():
    # compute-bound work: the IVU lives in the big-core clock domain
    # (streaming kernels would be DRAM-bound and insensitive — the memory
    # system stays at 1 GHz under cluster scaling)
    slow = run_pair("1bIV", "blackscholes", "tiny",
                    freq_big=0.8).stats["time_ps"]
    fast = run_pair("1bIV", "blackscholes", "tiny",
                    freq_big=1.4).stats["time_ps"]
    assert slow / fast > 1.2


def test_dve_clocked_with_big_cluster():
    slow = run_pair("1bDV", "blackscholes", "tiny",
                    freq_big=0.8).stats["time_ps"]
    fast = run_pair("1bDV", "blackscholes", "tiny",
                    freq_big=1.4).stats["time_ps"]
    assert slow / fast > 1.15  # the engine speeds up with its control core
