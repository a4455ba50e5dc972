"""The batched lane executor on the paper's own apps.

The VCU broadcasts every µop to all lanes in lockstep (§III-C), and the
engine models that with one batched step per tick for the whole lane
array. A straggler VMU fill splits the lanes onto the per-lane path
(``_fallback``); they must rejoin lockstep as soon as every follower
behaves exactly like the leader again, not stay on the per-lane path for
the rest of the run. Batching is a host-speed device only, so every
non-META stat must also match a run with ``engine.batched = False`` on
the same apps — the synthetic programs of ``tests/soc/equivalence.py``
never diverge, these five do.
"""

import pytest

from repro.experiments.runner import _program_for
from repro.obs import HostScope, Observation
from repro.obs.diff import META, classify, diff_stats, dump_result
from repro.power.dvfs import freqs
from repro.soc import System, preset
from repro.workloads import get_workload

#: the 1b-4VL apps whose VMU fills reach the lanes unevenly
DIVERGING = ("jacobi2d", "kmeans", "lavamd", "particlefilter", "sw")

#: engine configurations: the default, Fig. 7's one-chime unpacked
#: engine, and a skewed DVFS point (fast big core, slow lanes)
POINTS = {
    "default": {},
    "1c": dict(chimes=1, packed=False),
    "b3-l0": None,
}


def _cfg(point):
    if POINTS[point] is None:
        return preset("1b-4VL").with_freqs(*freqs("b3", "l0"))
    return preset("1b-4VL", **POINTS[point])


def _run(cfg, app, scale="tiny", batched=True, **run_kw):
    program = _program_for(cfg, get_workload(app, scale))
    system = System(cfg)
    system.engine.batched = batched
    return system.engine, system.run(program, **run_kw)


def _non_meta(result):
    return {k: v for k, v in dump_result(result)["stats"].items()
            if classify(k) != META}


def _assert_same(batched, scalar, label):
    report = diff_stats(_non_meta(scalar), _non_meta(batched),
                        "scalar", "batched")
    assert report.identical, (
        f"{label}: batched lanes diverge from per-lane\n"
        + report.format_table())


@pytest.mark.parametrize("app", ("jacobi2d", "kmeans", "sw"))
def test_lanes_rejoin_lockstep_after_a_straggler(app):
    """A straggler fill puts the lanes on the per-lane path only until
    they match again: under 10% of lane ticks stay per-lane. (The old
    "every lane's state lies in the past" rule never fired on a
    pipelined µop stream, so one fallback meant 98-100% per-lane.)"""
    hs = HostScope()
    engine, _ = _run(preset("1b-4VL"), app, hostscope=hs)
    events = {r["group"]: r["events"] for r in hs.group_rows()}
    per_lane = events.get("vcu.lanes.scalar", 0)
    batched = events.get("vcu.lanes.batch", 0) * engine.lanes_count
    assert engine.batch_fallbacks > 0, f"{app} no longer diverges"
    share = per_lane / (per_lane + batched)
    assert share < 0.10, (
        f"{app}: {share:.1%} of lane ticks on the per-lane path "
        f"({engine.batch_fallbacks} fallbacks)")


@pytest.mark.parametrize("point", tuple(POINTS))
@pytest.mark.parametrize("app", DIVERGING)
def test_batched_matches_per_lane_on_diverging_apps(app, point):
    cfg = _cfg(point)
    engine, batched = _run(cfg, app)
    _, scalar = _run(cfg, app, batched=False)
    _assert_same(batched, scalar, f"{app}@{point}")
    if point == "default":
        assert engine.batch_fallbacks > 0, f"{app} no longer diverges"


def test_batched_matches_per_lane_with_observation():
    """Per-lane ``obs.cycles.vcu.lane*`` attribution is charged by both
    executors; it must agree lane for lane."""
    cfg = preset("1b-4VL")
    _, batched = _run(cfg, "particlefilter", obs=Observation())
    _, scalar = _run(cfg, "particlefilter", batched=False, obs=Observation())
    assert any(k.startswith("obs.cycles.vcu.lane") for k in batched.stats)
    _assert_same(batched, scalar, "particlefilter+obs")


def test_batched_matches_per_lane_across_many_fallbacks():
    """lavamd at ``small`` falls back hundreds of times, so every
    fallback's pruned ready-map mirror is exercised against the unpruned
    per-lane maps."""
    cfg = preset("1b-4VL")
    engine, batched = _run(cfg, "lavamd", scale="small")
    _, scalar = _run(cfg, "lavamd", scale="small", batched=False)
    assert engine.batch_fallbacks > 100
    _assert_same(batched, scalar, "lavamd@small")


def test_assert_same_catches_one_lane_stall_divergence():
    """``_assert_same`` compares every non-META stat: a pair that agrees
    on ``cycles`` and every tick total but not on one lane stall count
    must fail it."""
    cfg = preset("1b-4VL")
    _, batched = _run(cfg, "saxpy")
    _, scalar = _run(cfg, "saxpy", batched=False)
    assert batched.cycles == scalar.cycles
    batched.stats["vlittle.lane_stall.simd"] += 1
    with pytest.raises(AssertionError, match="batched lanes diverge"):
        _assert_same(batched, scalar, "saxpy")
