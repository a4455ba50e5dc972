"""Instruction-grain pipeline tracking: unit behavior + export schemas.

The acceptance contract (docs/observability.md):

* records pass through named stages with monotonically ordered windows and
  land in a bounded retired ring whose overflow is *counted*, not silent;
* ``kanata_lines()`` is a schema-valid Kanata 0004 log (every record is
  opened, staged, ended, and retired; dependency edges reference already-
  opened records);
* ``o3_lines()`` is gem5-``O3PipeView``-parseable with non-decreasing
  per-record timestamps;
* attaching a PipeView never changes any pre-existing (non-``obs.*``) stat.
"""

import re

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import _program_for
from repro.obs import Observation, PipeView
from repro.obs.pipeview import KANATA_HEADER, STAGES
from repro.soc import System, preset
from repro.workloads import get_workload


def _run(system_name, workload, obs=None):
    cfg = preset(system_name)
    program = _program_for(cfg, get_workload(workload, "tiny"))
    return System(cfg).run(program, obs=obs)


# ------------------------------------------------------------------- helpers


def parse_kanata(lines):
    """Strict structural parse; returns (opened ids, retired ids)."""
    assert lines[0] == KANATA_HEADER
    assert lines[1].startswith("C=\t")
    int(lines[1].split("\t")[1])
    live = {}  # id -> current stage name (None between stages)
    opened, retired = set(), set()
    for ln in lines[2:]:
        parts = ln.split("\t")
        cmd = parts[0]
        if cmd == "C":
            assert int(parts[1]) > 0
        elif cmd == "I":
            fid = int(parts[1])
            assert fid not in opened, "record opened twice"
            opened.add(fid)
            live[fid] = None
        elif cmd == "L":
            fid, row, text = int(parts[1]), parts[2], parts[3]
            assert fid in live and row in ("0", "1") and text
        elif cmd == "S":
            fid, lane, stage = int(parts[1]), parts[2], parts[3]
            assert fid in live and lane == "0"
            assert stage in STAGES, f"unknown stage mnemonic {stage!r}"
            live[fid] = stage
        elif cmd == "E":
            fid, lane, stage = int(parts[1]), parts[2], parts[3]
            assert live.get(fid) == stage, "E must close the open stage"
            live[fid] = None
        elif cmd == "W":
            fid, dep = int(parts[1]), int(parts[2])
            assert fid in live and dep in opened
        elif cmd == "R":
            fid = int(parts[1])
            assert live.get(fid, "?") is None, "retire with a stage open"
            del live[fid]
            retired.add(fid)
        else:
            raise AssertionError(f"unknown Kanata command {cmd!r}")
    assert not live, "every opened record must retire"
    return opened, retired


_O3_FETCH = re.compile(r"^O3PipeView:fetch:\d+:0x[0-9a-f]{8}:0:\d+:.+$")
_O3_STAGE = re.compile(r"^O3PipeView:(decode|rename|dispatch|issue|complete):(\d+)$")
_O3_RETIRE = re.compile(r"^O3PipeView:retire:(\d+):store:0$")


def parse_o3(lines):
    """Validate the 7-line-per-record gem5 O3PipeView structure."""
    assert len(lines) % 7 == 0 and lines
    n = 0
    for i in range(0, len(lines), 7):
        m = _O3_FETCH.match(lines[i])
        assert m, lines[i]
        last = int(lines[i].split(":")[2])
        for j in range(1, 6):
            m = _O3_STAGE.match(lines[i + j])
            assert m, lines[i + j]
            ts = int(m.group(2))
            assert ts >= last, "stage timestamps must be non-decreasing"
            last = ts
        m = _O3_RETIRE.match(lines[i + 6])
        assert m and int(m.group(1)) >= last
        n += 1
    return n


# ---------------------------------------------------------------- unit tests


def test_window_must_be_positive():
    with pytest.raises(ConfigError):
        PipeView(window=0)


def test_record_lifecycle_and_stats():
    pv = PipeView(window=10)
    r = pv.begin("u0", "add", 1000, stage="F", pc=0x40)
    pv.stage(r, "Is", 2000)
    pv.stage(r, "Cp", 4000)
    assert r.start == 1000 and r.end is None
    pv.retire(r, 5000)
    assert r.end == 5000
    d = pv.stats_dict()
    assert d["obs.pipeview.records"] == 1
    assert d["obs.pipeview.retired"] == 1
    assert d["obs.pipeview.dropped"] == 0
    assert d["obs.pipeview.window"] == 10


def test_bounded_window_counts_drops():
    pv = PipeView(window=4)
    for i in range(10):
        pv.retire(pv.begin("u0", f"i{i}", i * 1000), i * 1000 + 500)
    assert pv.retired == 10
    assert pv.dropped == 6
    assert len(pv) == 4
    # exports only carry the surviving window
    opened, retired = parse_kanata(pv.kanata_lines())
    assert len(opened) == len(retired) == 4
    assert parse_o3(pv.o3_lines()) == 4


def test_window_keeps_newest_retirees():
    pv = PipeView(window=4)
    for i in range(10):
        pv.retire(pv.begin("u0", f"i{i}", i * 1000), i * 1000 + 500)
    labels = [r.label for r in pv._export_records()]
    assert labels == ["i6", "i7", "i8", "i9"]  # oldest retirees dropped


def test_seq_record_links_and_cleanup():
    pv = PipeView()
    parent = pv.begin("big0", "VADD", 0, seq=7)
    assert pv.seq_record(7) is parent
    child = pv.begin("vcu", "exec s7.c0", 1000, parent=pv.seq_record(7))
    assert child.parent is parent
    pv.retire(parent, 2000)
    assert pv.seq_record(7) is None  # map bounded: cleaned at retire
    pv.retire(child, 3000)
    lines = pv.kanata_lines()
    assert any(ln.startswith("W\t") for ln in lines), "dependency edge exported"
    parse_kanata(lines)


def test_labels_cannot_break_the_formats():
    pv = PipeView()
    r = pv.begin("u0", "weird\tlabel:with\nall", 0)
    pv.retire(r, 1000)
    parse_kanata(pv.kanata_lines())
    parse_o3(pv.o3_lines())


def test_live_records_still_export():
    pv = PipeView()
    pv.begin("u0", "inflight", 500, stage="F")
    opened, retired = parse_kanata(pv.kanata_lines())
    assert len(opened) == 1 and len(retired) == 1  # closed at last stamp
    assert parse_o3(pv.o3_lines()) == 1
    assert pv.stats_dict()["obs.pipeview.records"] == 1
    assert pv.stats_dict()["obs.pipeview.retired"] == 0


# ---------------------------------------------------------------- end to end


@pytest.fixture(scope="module")
def pipeview_run():
    obs = Observation(pipeview=PipeView())
    result = _run("1b-4VL", "saxpy", obs=obs)
    return obs, result


def test_vlittle_run_tracks_all_units(pipeview_run):
    obs, result = pipeview_run
    pv = obs.pipeview
    assert pv.retired > 0 and pv.dropped == 0
    units = {r.unit for r in pv._done}
    # big core instructions, VCU µops, and VMU line requests all appear
    assert "big0" in units and "vcu" in units and "vmu" in units
    assert result["obs.pipeview.retired"] == pv.retired


def test_vlittle_kanata_schema(pipeview_run):
    obs, _ = pipeview_run
    opened, retired = parse_kanata(obs.pipeview.kanata_lines())
    assert len(opened) == len(obs.pipeview._done) + len(obs.pipeview._live)


def test_vlittle_o3_schema(pipeview_run):
    obs, _ = pipeview_run
    assert parse_o3(obs.pipeview.o3_lines()) > 0


def test_uops_carry_dependency_edges(pipeview_run):
    obs, _ = pipeview_run
    linked = [r for r in obs.pipeview._done
              if r.unit == "vcu" and r.parent is not None]
    assert linked, "VCU µops must link back to their dispatching instruction"


def test_pipeview_off_stats_bit_identical(pipeview_run):
    _, with_pv = pipeview_run
    without = _run("1b-4VL", "saxpy")
    shared = {k: v for k, v in with_pv.stats.items()
              if not k.startswith("obs.")}
    assert shared == without.stats


def test_dve_and_vxu_records():
    obs = Observation(pipeview=PipeView())
    _run("1bDV", "saxpy", obs=obs)
    assert any(r.unit == "dve" for r in obs.pipeview._done)
    obs2 = Observation(pipeview=PipeView())
    _run("1b-4VL", "lavamd", obs=obs2)  # reduction exercises the VXU ring
    assert any(r.unit == "vxu" for r in obs2.pipeview._done)
    parse_kanata(obs2.pipeview.kanata_lines())


def test_little_scalar_records():
    obs = Observation(pipeview=PipeView())
    _run("1L", "bfs", obs=obs)  # one little core running scalar code
    assert any(r.unit.startswith("lit") for r in obs.pipeview._done)


def test_kanata_lane_split(pipeview_run, tmp_path):
    """One self-contained Kanata log per unit group — big/little core
    pipelines, engine µops, VMU line traffic — each carrying its own
    header and parsing standalone, with no record lost or duplicated
    across the lane files."""
    obs, _ = pipeview_run
    pv = obs.pipeview
    from repro.obs.pipeview import lane_of
    assert pv.lanes() == ["cores", "engine", "mem"]
    lanes = pv.write_kanata_lanes(str(tmp_path / "saxpy"))
    assert set(lanes) == {"cores", "engine", "mem"}
    by_lane = {}
    for lane, path in lanes.items():
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        opened, retired = parse_kanata(lines)  # asserts the 0004 header
        by_lane[lane] = len(opened)
    assert by_lane["cores"] and by_lane["engine"] and by_lane["mem"]
    assert sum(by_lane.values()) == len(pv)
    # the lane partition matches the per-record grouping
    recs = pv._export_records()
    for lane in by_lane:
        assert by_lane[lane] == sum(1 for r in recs if lane_of(r.unit) == lane)
