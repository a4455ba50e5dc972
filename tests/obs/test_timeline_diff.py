"""Timeline diffing.

Contract: two dumps of the same run compare identical; an injected
mid-run perturbation is localized to its exact cycle and column; rows
align on cycle values rather than array position; every shared column
must match exactly, and columns on one side only are reported, not
gated.
"""

import copy
import json

import pytest

from repro.experiments.runner import _program_for
from repro.obs import IntervalSampler, Observation
from repro.obs.diff import diff_timeline_files, diff_timelines
from repro.soc import System, preset
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def timeline_doc():
    cfg = preset("1b-4VL")
    program = _program_for(cfg, get_workload("switch_thrash", "tiny"))
    obs = Observation(sampler=IntervalSampler(interval=100,
                                              energy=("b1", "l1")))
    System(cfg).run(program, obs=obs)
    return obs.sampler.as_dict()


# ---------------------------------------------------------- timeline diffs


def test_identical_timelines_ok(timeline_doc):
    report = diff_timelines(timeline_doc, copy.deepcopy(timeline_doc))
    assert report.ok
    assert report.first_divergence() is None
    assert report.n_aligned == timeline_doc["samples"]
    assert "identical: all" in report.format_table()


def test_injected_divergence_is_localized(timeline_doc):
    b = copy.deepcopy(timeline_doc)
    k = len(b["series"]["cycle"]) // 2
    cyc = b["series"]["cycle"][k]
    b["series"]["ipc_big"][k] = b["series"]["ipc_big"][k] + 1.0
    report = diff_timelines(timeline_doc, b)
    assert not report.ok
    assert report.first_divergence() == (cyc, "ipc_big")
    (col,) = report.diverged()
    assert (col.column, col.n_diverged, col.first_cycle) == ("ipc_big", 1, cyc)
    table = report.format_table()
    assert f"FIRST DIVERGENCE at cycle {cyc}" in table


def test_rows_align_on_cycle_not_position(timeline_doc):
    # drop b's first row: the remaining rows still align by cycle value
    b = copy.deepcopy(timeline_doc)
    for c in b["columns"]:
        b["series"][c] = b["series"][c][1:]
    b["samples"] -= 1
    report = diff_timelines(timeline_doc, b)
    assert report.n_aligned == timeline_doc["samples"] - 1
    assert report.n_only_a == 1 and report.n_only_b == 0
    assert report.ok  # every aligned sample still matches exactly


def test_interval_mismatch_rejected(timeline_doc):
    b = copy.deepcopy(timeline_doc)
    b["interval_cycles"] = timeline_doc["interval_cycles"] * 2
    with pytest.raises(ValueError):
        diff_timelines(timeline_doc, b)


def test_one_sided_columns_reported_not_gated(timeline_doc):
    # an energy-on dump vs an energy-off dump: extra columns are noted
    # but only the shared columns gate
    b = copy.deepcopy(timeline_doc)
    for c in ("big_w", "engine_w", "power_w", "energy_j", "cum_energy_j"):
        b["columns"].remove(c)
        del b["series"][c]
    report = diff_timelines(timeline_doc, b)
    assert report.ok
    assert set(report.cols_only_a) == {"big_w", "engine_w", "power_w",
                                       "energy_j", "cum_energy_j"}
    assert "cum_energy_j" not in report.columns


def test_diff_timeline_files(timeline_doc, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(timeline_doc))
    doc_b = copy.deepcopy(timeline_doc)
    doc_b["series"]["d_uops"][-1] += 7
    b.write_text(json.dumps(doc_b))
    report = diff_timeline_files(str(a), str(b))
    assert not report.ok
    assert report.first_divergence()[1] == "d_uops"
    doc = report.as_dict()
    assert doc["first_divergence"]["column"] == "d_uops"
    assert doc["columns"]["d_uops"]["n_diverged"] == 1
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "not-a-timeline"}))
    with pytest.raises(ValueError):
        diff_timeline_files(str(a), str(bogus))
