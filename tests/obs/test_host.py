"""HostScope tests: attribution coverage, determinism, sampling, cleanup.

Contract: a hostscoped run attributes at least 95% of its measured wall
time to unit groups (the acceptance bar — by construction the residual
``scheduler`` group makes coverage exact at stride 1), never perturbs
simulated ``stats``, restores every class-level seam it patched, and
refuses the dense loop, which has no per-unit dispatch seam.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import _program_for
from repro.obs import HostScope
from repro.obs.host import GROUPS, SCHEMA, unit_group
from repro.soc import System, preset
from repro.workloads import get_workload


def _run(system="1b-4VL", workload="saxpy", scale="tiny", **kw):
    cfg = preset(system)
    program = _program_for(cfg, get_workload(workload, scale))
    return System(cfg).run(program, **kw)


def test_attribution_covers_95_percent_of_wall():
    hs = HostScope()
    _run(hostscope=hs)
    rep = hs.report()
    assert rep["schema"] == SCHEMA
    assert rep["coverage"] >= 0.95
    # the group walls tile the run: their sum IS the attributed time
    # (each reported value is rounded to 6 decimals — allow half an ULP
    # of drift per group)
    assert sum(g["wall_s"] for g in rep["groups"]) == pytest.approx(
        rep["attributed_s"], abs=1e-6 * (len(rep["groups"]) + 1))
    assert rep["attributed_s"] >= 0.95 * rep["wall_s"]


def test_groups_are_known_and_scheduler_present():
    hs = HostScope()
    _run(hostscope=hs)
    names = [g["group"] for g in hs.report()["groups"]]
    assert set(names) <= set(GROUPS)
    assert "scheduler" in names
    assert "big" in names and "vcu" in names  # 1b-4VL exercises both


def test_stats_identical_with_and_without_hostscope():
    """Determinism guard: host profiling must be invisible to the sim."""
    base = _run()
    probed = _run(hostscope=HostScope())
    assert probed.stats == base.stats
    assert probed.cycles == base.cycles


def test_stride_counts_stay_exact_and_sampling_is_partial():
    hs1 = HostScope(stride=1)
    _run(hostscope=hs1)
    hs4 = HostScope(stride=4)
    _run(hostscope=hs4)
    by1 = {g["group"]: g for g in hs1.report()["groups"]}
    by4 = {g["group"]: g for g in hs4.report()["groups"]}
    for group, row in by4.items():
        if group == "scheduler":
            continue
        # event counts are exact under sampling (same sim, same dispatches)
        assert row["events"] == by1[group]["events"]
        assert row["sampled"] <= row["events"]
    big = by4["big"]
    assert big["sampled"] < big["events"]  # actually sampled partially
    assert hs4.report()["coverage"] >= 0.95


def test_patched_seams_are_restored():
    from repro.mem.dram import DRAM
    from repro.mem.l2 import L2Cache
    from repro.vector.vmu import VectorMemoryUnit

    originals = (L2Cache.request, L2Cache.writeback, DRAM.request,
                 VectorMemoryUnit.tick)
    _run(hostscope=HostScope())
    assert (L2Cache.request, L2Cache.writeback, DRAM.request,
            VectorMemoryUnit.tick) == originals


def test_hostscope_requires_event_loop():
    with pytest.raises(ConfigError, match="event loop"):
        _run(hostscope=HostScope(), skip=False)


def test_bad_stride_rejected():
    with pytest.raises(ConfigError):
        HostScope(stride=0)
    with pytest.raises(ConfigError):
        HostScope(stride=1.5)


def test_report_json_roundtrip():
    hs = HostScope()
    _run(hostscope=hs)
    doc = hs.report(meta={"workload": "saxpy"})
    loaded = json.loads(json.dumps(doc, indent=1, sort_keys=True))
    assert loaded == doc  # JSON-safe
    assert loaded["meta"]["workload"] == "saxpy"
    assert loaded["schema"] == SCHEMA


def test_format_table_lists_groups():
    hs = HostScope()
    _run(hostscope=hs)
    table = hs.format_table()
    assert "scheduler" in table and "total" in table
    top1 = hs.format_table(top=1)
    assert len(top1.splitlines()) == 4  # header, rule, one row, total


def test_lane_executor_split_under_vcu():
    """The lanes sub-rows separate the chime-batched step from the
    scalar fallback path: a clean batched run charges lane time to
    ``vcu.lanes.batch``; the same run with batching forced off charges
    it to ``vcu.lanes.scalar`` instead."""
    hs = HostScope()
    _run(hostscope=hs)
    names = {g["group"] for g in hs.report()["groups"]}
    assert "vcu.lanes.batch" in names

    cfg = preset("1b-4VL")
    program = _program_for(cfg, get_workload("saxpy", "tiny"))
    sys_ = System(cfg)
    sys_.engine.batched = False
    hs2 = HostScope()
    sys_.run(program, hostscope=hs2)
    names2 = {g["group"] for g in hs2.report()["groups"]}
    assert "vcu.lanes.scalar" in names2
    assert "vcu.lanes.batch" not in names2


def test_unit_group_mapping():
    assert unit_group("vcu", 2) == "vcu"
    assert unit_group("dve", 2) == "dve"
    assert unit_group("mem", 2) == "mem"
    assert unit_group("big0", 0) == "big"
    assert unit_group("lit3", 1) == "little"


def test_scalar_system_profiles_too():
    """No engine, no vector seams — still full attribution."""
    hs = HostScope()
    _run(system="1b", workload="vvadd", hostscope=hs)
    rep = hs.report()
    assert rep["coverage"] >= 0.95
    groups = {g["group"] for g in rep["groups"]}
    assert "vmu" not in groups and "vcu" not in groups
