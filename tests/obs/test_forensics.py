"""Forensics tests: snapshot purity, graph semantics, rendering.

Contract: :func:`repro.obs.forensics.snapshot` is read-only — taking
one (or ten) never changes a run's stats — and the wait-for graph's
cycles / blocking frontier name the units actually holding a run up.
"""

import json

import pytest

from repro.errors import DeadlockError
from repro.experiments.runner import _program_for
from repro.obs.forensics import SCHEMA, _find_cycles, format_report, snapshot
from repro.soc import System, preset
from repro.workloads import get_workload


def _system(name="1b-4VL", workload="saxpy", scale="tiny"):
    cfg = preset(name)
    sys_ = System(cfg)
    sys_.load(_program_for(cfg, get_workload(workload, scale)))
    return sys_


def test_snapshot_of_completed_run_is_quiescent():
    sys_ = _system()
    result = sys_.run()
    rep = snapshot(sys_, result.stats["time_ps"], reason="completed")
    assert rep["schema"] == SCHEMA
    assert rep["blocking_frontier"] == [] and rep["cycles"] == []
    assert all(u["done"] for u in rep["units"]
               if u["state"] != "lane")
    assert {u["unit"] for u in rep["units"]} == {
        "big0", "lit0", "lit1", "lit2", "lit3", "vcu", "mem"}


def test_snapshot_is_pure():
    """Two snapshots mid-horizon agree, and neither perturbs the rerun."""
    base = _system().run()

    sys_ = _system()
    with pytest.raises(DeadlockError) as ei:
        sys_.run(max_ns=2)
    first = snapshot(sys_, 2000)
    second = snapshot(sys_, 2000)
    assert first == second
    # probing a wedged-mid-run system left no trace: a fresh identical
    # run (snapshot-free) and the original agree bit-for-bit
    assert ei.value.forensics is not None
    rerun = _system().run()
    assert rerun.stats == base.stats


def test_lane_littles_are_reported_as_lanes():
    sys_ = _system()
    sys_.run()
    rep = snapshot(sys_, 0)
    lanes = [u for u in rep["units"] if u["unit"].startswith("lit")]
    assert lanes and all(u["state"] == "lane" for u in lanes)


def test_wait_edges_resolve_engine_alias():
    sys_ = _system()
    with pytest.raises(DeadlockError):
        sys_.run(max_ns=1)
    rep = snapshot(sys_, 1000)
    targets = {e["on"] for e in rep["wait_for"]}
    assert "engine" not in targets  # resolved to vcu/dve or concrete units


def test_find_cycles_detects_and_canonicalizes():
    adj = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"d"}}
    cycles = _find_cycles(adj)
    assert ["a", "b", "c", "a"] in cycles
    assert ["d", "d"] in cycles
    assert len(cycles) == 2
    # rotation-invariant: starting elsewhere reports the same loop once
    assert _find_cycles({"b": {"c"}, "c": {"a"}, "a": {"b"}}) == [
        ["a", "b", "c", "a"]]


def test_find_cycles_empty_on_dag():
    assert _find_cycles({"a": {"b"}, "b": {"c"}, "c": set()}) == []


def test_format_report_and_json_roundtrip():
    sys_ = _system()
    result = sys_.run()
    rep = snapshot(sys_, result.stats["time_ps"], reason="completed")
    text = format_report(rep)
    assert "blocking frontier: none" in text and "cycles: none" in text
    assert "big0" in text and "vcu" in text
    assert json.loads(json.dumps(rep, indent=1, sort_keys=True)) == rep


def test_progress_signature_recorded():
    sys_ = _system()
    result = sys_.run()
    rep = snapshot(sys_, result.stats["time_ps"])
    assert rep["progress_signature"] == sys_._progress_signature()
    assert rep["progress_signature"] > 0
