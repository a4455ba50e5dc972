"""CritPath tests: exact tiling, stat invisibility, wakeup edges, loop
gating, reports.

Contract: the per-unit-group critical sim-times sum EXACTLY to the
total simulated time on every §IV system matrix preset (tiling is the
attribution invariant, not an approximation), an attached CritPath
never changes a single stat, and the dense loop — which has no
per-unit gating — refuses it.
"""

import json

import pytest

from repro.errors import ConfigError, DeadlockError
from repro.experiments.runner import _program_for
from repro.obs import CritPath
from repro.obs.critpath import GROUPS, SCHEMA
from repro.soc import System, preset
from repro.trace.source import InstrSource
from repro.workloads import get_workload

#: the §IV system matrix: scalar baseline, big.LITTLE, DVE, big.VLITTLE
MATRIX = ("1b", "1b-4L", "1bDV", "1b-4VL")


def _run(system="1b-4VL", workload="saxpy", scale="tiny", **kw):
    cfg = preset(system)
    program = _program_for(cfg, get_workload(workload, scale))
    return System(cfg).run(program, **kw)


@pytest.mark.parametrize("system", MATRIX)
def test_critical_times_tile_total_exactly(system):
    cp = CritPath()
    result = _run(system=system, critpath=cp)
    assert cp.finalized and cp.tiles()
    assert cp.total_ps == result.stats["time_ps"]
    rep = cp.report()
    assert rep["attributed_ps"] == rep["total_ps"] == result.stats["time_ps"]
    assert sum(g["crit_ps"] for g in rep["groups"]) == rep["total_ps"]


@pytest.mark.parametrize("system", MATRIX)
def test_stats_identical_with_and_without_critpath(system):
    """Determinism guard: attribution must be invisible to the sim."""
    base = _run(system=system)
    probed = _run(system=system, critpath=CritPath())
    assert probed.stats == base.stats
    assert probed.cycles == base.cycles


def test_groups_are_known_and_plausible():
    cp = CritPath()
    _run(critpath=cp)
    rows = cp.group_rows()
    assert {r["group"] for r in rows} <= set(GROUPS)
    groups = {r["group"]: r for r in rows}
    # a vector workload on 1b-4VL is gated by big, vcu, and mem at least
    assert groups["big"]["crit_ps"] > 0
    assert groups["vcu"]["crit_ps"] > 0
    assert groups["mem"]["crit_ps"] > 0
    assert "stalled" not in groups  # run completed
    shares = sum(r["share"] for r in rows)
    assert shares == pytest.approx(1.0)


def test_wakeup_edges_are_counted_and_resolved():
    cp = CritPath()
    _run(critpath=cp)
    rows = cp.wakeup_rows()
    assert rows and all(r["count"] > 0 for r in rows)
    names = {r["waker"] for r in rows} | {r["wakee"] for r in rows}
    # every name resolves: a unit from the run or the scheduler pseudo-node
    assert not any(n.startswith("unit") for n in names)
    assert any(r["waker"] == "big0" and r["wakee"] == "vcu" for r in rows)
    rep = cp.report()
    assert rep["wakeup_edges"] == sum(r["count"] for r in rows)


def test_critpath_requires_event_loop():
    with pytest.raises(ConfigError, match="event loop"):
        _run(critpath=CritPath(), skip=False)


def test_report_json_roundtrip():
    cp = CritPath()
    _run(critpath=cp)
    doc = cp.report(meta={"workload": "saxpy"})
    loaded = json.loads(json.dumps(doc, indent=1, sort_keys=True))
    assert loaded == doc  # JSON-safe
    assert loaded["schema"] == SCHEMA
    assert loaded["tiles"] is True
    assert loaded["meta"]["workload"] == "saxpy"


def test_format_table_reports_exact_tiling():
    cp = CritPath()
    _run(critpath=cp)
    table = cp.format_table(top=3)
    assert "tiles exactly" in table and "wakeups" in table


class _WedgedSource(InstrSource):
    __slots__ = ()
    pure_peek = True

    def peek(self):
        return None

    def pop(self):  # pragma: no cover
        raise AssertionError

    def done(self):
        return False


def test_deadlocked_run_tiles_via_stalled_group():
    sys_ = System(preset("1b"))
    sys_.bigs[0].set_source(_WedgedSource())
    cp = CritPath()
    with pytest.raises(DeadlockError) as ei:
        sys_.run(critpath=cp)
    assert cp.finalized and cp.tiles()
    assert cp.total_ps == ei.value.cycle
    stalled = {r["group"]: r["crit_ps"] for r in cp.group_rows()}["stalled"]
    assert stalled > 0  # the wedged tail is charged to the stall
