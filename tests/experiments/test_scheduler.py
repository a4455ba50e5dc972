"""Tests for the OS-level vector-mode scheduling policies (§III-B extension)."""

import pytest

from repro.errors import ConfigError
from repro.experiments.scheduler import POLICIES, VectorModeScheduler


@pytest.fixture(scope="module")
def sched():
    # 'small' scale: the vector region must be large enough to amortize the
    # 500-cycle mode switch, or the IVU fallback wins outright (which is the
    # paper's own argument for switching only at coarse granularity)
    return VectorModeScheduler("pagerank", "saxpy", scale="small",
                               arrival_fraction=0.5)


def test_all_policies_evaluate(sched):
    out = sched.compare()
    assert set(out) == set(POLICIES)
    for o in out.values():
        assert o.vector_start_ps <= o.vector_done_ps <= o.total_ps


def test_wait_starts_latest(sched):
    out = sched.compare()
    assert out["wait"].vector_start_ps >= out["preempt"].vector_start_ps
    assert out["wait"].vector_start_ps >= out["fallback"].vector_start_ps


def test_fallback_starts_immediately_but_runs_slower(sched):
    out = sched.compare()
    fb = out["fallback"]
    assert fb.vector_start_ps <= out["preempt"].vector_start_ps
    # IVU is slower than the VLITTLE engine for this kernel
    assert fb.detail["ivu_slowdown"] > 1.0


def test_preempt_pays_for_displaced_work(sched):
    out = sched.compare()
    assert out["preempt"].detail["displaced_ps"] > 0
    # makespan includes resumed tasks
    assert out["preempt"].total_ps > out["preempt"].vector_done_ps


def test_small_region_favors_ivu_fallback():
    # the flip side of coarse-grained switching (§III-B): a tiny vector
    # region cannot amortize the 500-cycle switch, so the scheduler should
    # prefer the integrated unit
    s = VectorModeScheduler("pagerank", "saxpy", scale="tiny", arrival_fraction=0.1)
    assert s.best("vector_done_ps").policy == "fallback"


def test_best_objective_switches_policy():
    # vector latency favors preempt/fallback; late arrival favors wait less
    s = VectorModeScheduler("pagerank", "saxpy", scale="small", arrival_fraction=0.1)
    by_latency = s.best("vector_done_ps")
    assert by_latency.policy in ("preempt", "fallback")


def test_arrival_at_end_makes_wait_free():
    s = VectorModeScheduler("pagerank", "saxpy", scale="tiny", arrival_fraction=1.0)
    out = s.compare()
    assert out["wait"].detail["waited_ps"] == 0


def test_measurements_match_the_hand_built_runs(fresh_cache, run_spy):
    """Tasks on 1b-4L, the vector region on 1b-4VL and on 1bIV: the
    recorded times of the three runs ``_measure`` used to build itself,
    now one cached sweep that a second scheduler reads back whole."""
    recorded = {"task_total_ps": 8884000, "vector_vlittle_ps": 1073000,
                "vector_ivu_ps": 959000}
    assert VectorModeScheduler("pagerank", "saxpy",
                               scale="tiny")._measure() == recorded
    assert run_spy["n"] == 3
    assert VectorModeScheduler("pagerank", "saxpy",
                               scale="tiny")._measure() == recorded
    assert run_spy["n"] == 3


def test_bad_inputs_rejected():
    with pytest.raises(ConfigError):
        VectorModeScheduler("pagerank", "saxpy", arrival_fraction=1.5)
    s = VectorModeScheduler("pagerank", "saxpy", scale="tiny")
    with pytest.raises(ConfigError):
        s.evaluate("yolo")
