"""Unit tests for FU pools and branch predictors."""

import pytest

from repro.cores import FUPool, LITTLE_FU_COUNTS, BIG_FU_COUNTS
from repro.cores.branch import BimodalPredictor, GsharePredictor
from repro.errors import ConfigError
from repro.isa.scalar import FUClass


def test_pipelined_fu_one_slot_per_cycle():
    fu = FUPool(LITTLE_FU_COUNTS)
    assert fu.try_issue(FUClass.ALU, 0) == 1
    assert fu.try_issue(FUClass.ALU, 0) is None  # single ALU
    assert fu.try_issue(FUClass.ALU, 1) == 1  # next cycle free again


def test_big_core_has_three_alus():
    fu = FUPool(BIG_FU_COUNTS)
    assert all(fu.try_issue(FUClass.ALU, 0) for _ in range(3))
    assert fu.try_issue(FUClass.ALU, 0) is None


def test_unpipelined_div_blocks_until_done():
    fu = FUPool(LITTLE_FU_COUNTS)
    lat = fu.try_issue(FUClass.DIV, 0)
    assert lat == 12
    assert fu.try_issue(FUClass.DIV, 5) is None
    assert fu.try_issue(FUClass.DIV, 12) == 12


def test_pipelined_fpu_back_to_back():
    fu = FUPool(LITTLE_FU_COUNTS)
    assert fu.try_issue(FUClass.FPU, 0) == 4
    assert fu.try_issue(FUClass.FPU, 1) == 4  # pipelined


def test_none_class_always_free():
    fu = FUPool(LITTLE_FU_COUNTS)
    for _ in range(10):
        assert fu.can_issue(FUClass.NONE, 0)


def test_custom_latency_override():
    fu = FUPool(LITTLE_FU_COUNTS, latency={FUClass.FPU: 2})
    assert fu.try_issue(FUClass.FPU, 0) == 2


def test_bad_count_rejected():
    with pytest.raises(ConfigError):
        FUPool({FUClass.ALU: 0})


def test_absent_class_never_issues():
    fu = FUPool({FUClass.ALU: 1})
    assert not fu.can_issue(FUClass.MUL, 0)
    assert fu.try_issue(FUClass.MUL, 0) is None


def test_sync_from_copies_without_aliasing():
    lead = FUPool(LITTLE_FU_COUNTS)
    lead.try_issue(FUClass.ALU, 0)
    lead.try_issue(FUClass.DIV, 0)  # busy until 12
    follower = FUPool(LITTLE_FU_COUNTS)
    follower.sync_from(lead)
    assert follower.try_issue(FUClass.ALU, 0) is None  # slot already used
    assert follower.next_free_ps(FUClass.DIV, 0) == 12
    # charging the follower in the same cycle leaves the leader unchanged
    assert follower.try_issue(FUClass.MUL, 0) == 3
    assert follower.try_issue(FUClass.FDIV, 0) == 12
    assert lead.try_issue(FUClass.MUL, 0) == 3
    assert lead.next_free_ps(FUClass.FDIV, 0) == 0


def test_same_busy_after_counts_past_busy_times_as_free():
    a = FUPool(LITTLE_FU_COUNTS)
    b = FUPool(LITTLE_FU_COUNTS)
    a.try_issue(FUClass.DIV, 0)  # busy until 12
    assert not a.same_busy_after(b, 11)
    assert a.same_busy_after(b, 12) and b.same_busy_after(a, 12)
    b.try_issue(FUClass.DIV, 5)  # busy until 17
    assert not a.same_busy_after(b, 12)
    a.try_issue(FUClass.DIV, 12, occupancy=5)  # busy until 17 as well
    assert a.same_busy_after(b, 12)


def test_unpipelined_occupancy_blocks_exactly_that_many_periods():
    fu = FUPool(LITTLE_FU_COUNTS, period=10)
    assert fu.try_issue(FUClass.FDIV, 0, occupancy=3) == 120
    assert fu.next_free_ps(FUClass.FDIV, 0) == 30
    assert fu.try_issue(FUClass.FDIV, 29) is None
    assert fu.try_issue(FUClass.FDIV, 30) == 120


def test_bimodal_learns_loop_branch():
    p = BimodalPredictor()
    pc = 0x400
    # loop branch: taken many times then one not-taken exit
    results = [p.predict_and_update(pc, True) for _ in range(10)]
    assert all(results[2:])  # warmed up quickly
    assert p.mispredicts <= 1
    p.predict_and_update(pc, False)  # exit mispredicts
    assert p.mispredicts >= 1


def test_gshare_learns_alternating_pattern():
    p = GsharePredictor()
    pc = 0x800
    outcomes = [bool(i % 2) for i in range(200)]
    for t in outcomes[:100]:
        p.predict_and_update(pc, t)
    before = p.mispredicts
    for t in outcomes[100:]:
        p.predict_and_update(pc, t)
    # history-based predictor captures the alternation after warmup
    assert p.mispredicts - before < 20


def test_predictors_count_lookups():
    p = BimodalPredictor()
    for _ in range(5):
        p.predict_and_update(0, True)
    assert p.lookups == 5
