"""Cross-run stat diffing and the regression gate.

The acceptance contract (docs/observability.md):

* identical stats diff to zero deltas and pass the gate;
* a delta in any non-meta (exact-class) stat fails the gate, however
  small; meta-class deltas never gate;
* a non-``obs.*`` key present in only one dump fails the gate, a missing
  ``obs.*`` key does not (runs may be observed at different depths);
* ``dump_result`` / ``load_dump`` round-trip through files, and
  ``load_dump`` refuses a document of another schema.
"""

import json

import pytest

from repro.obs.diff import (
    EXACT,
    META,
    classify,
    diff_files,
    diff_stats,
    dump_result,
    load_dump,
)

BASE = {
    "time_ps": 1_000_000,
    "cycles_1ghz": 1000,
    "sim.ticks_big": 500,
    "big0.instrs": 400,
    "big0.stall.raw_mem": 120,
    "vlittle.uops": 64,
    "vlittle.lane_stall.simd": 30,
    "l2.misses": 12,
    "obs.cycles.vcu.busy": 77,
    "obs.metric.vmu.coalesce_elems.count": 9,
    "obs.trace.events": 5000,
    "obs.pipeview.dropped": 0,
    "obs.sampler.samples": 4,
}


# ---------------------------------------------------------------- classify


@pytest.mark.parametrize("key,kind", [
    ("big0.instrs", EXACT),
    ("l2.misses", EXACT),
    ("vlittle.uops", EXACT),
    ("obs.metric.vmu.coalesce_elems.count", EXACT),
    ("time_ps", EXACT),
    ("cycles_1ghz", EXACT),
    ("dram_busy_cycles", EXACT),
    # loop-iteration accounting: the quiescence-skipping scheduler changes
    # the executed/skipped split without changing the simulated outcome
    ("sim.ticks_little", META),
    ("sim.ticks_skipped_big", META),
    ("obs.cycles.vcu.busy", EXACT),
    ("big0.stall.raw_mem", EXACT),
    ("vlittle.lane_stall.simd", EXACT),
    ("obs.metric.l2.miss_latency.p50", EXACT),
    ("obs.trace.events", META),
    ("obs.pipeview.dropped", META),
    ("obs.sampler.samples", META),
    ("obs.metric.vcu.batch_fallbacks", META),
])
def test_classify(key, kind):
    assert classify(key) == kind


# -------------------------------------------------------------- diff_stats


def test_identical_stats_no_deltas():
    r = diff_stats(dict(BASE), dict(BASE))
    assert r.identical
    assert r.ok
    assert r.counts() == {EXACT: 0, META: 0}
    assert "identical: 0 deltas" in r.format_table()


def test_exact_delta_always_gates():
    b = dict(BASE, **{"big0.instrs": 401})
    r = diff_stats(BASE, b)
    assert not r.ok
    (d,) = r.regressions()
    assert d.key == "big0.instrs" and d.kind == EXACT
    # a cycle-denominated stat gates as strictly as a count
    assert not diff_stats(BASE, dict(BASE, **{"big0.stall.raw_mem": 121})).ok


def test_meta_delta_never_gates():
    b = dict(BASE, **{"obs.trace.events": 9999, "obs.sampler.samples": 40})
    r = diff_stats(BASE, b)
    assert not r.identical
    assert r.ok
    assert r.counts() == {EXACT: 0, META: 2}


def test_missing_key_gating():
    a = dict(BASE)
    b = dict(BASE)
    del b["l2.misses"]  # structural key vanished: gate
    r = diff_stats(a, b)
    assert r.only_a == ["l2.misses"] and not r.ok
    b = dict(BASE)
    del b["obs.pipeview.dropped"]  # shallower observation: fine
    del b["obs.cycles.vcu.busy"]
    r = diff_stats(a, b)
    assert len(r.only_a) == 2 and r.ok


def test_rel_property():
    b = dict(BASE, cycles_1ghz=1500)
    (d,) = [x for x in diff_stats(BASE, b).deltas if x.key == "cycles_1ghz"]
    assert d.rel == pytest.approx(500 / 1500)


def test_format_table_marks_gated_deltas():
    b = dict(BASE, **{"big0.instrs": 999, "obs.trace.events": 1})
    text = diff_stats(BASE, b).format_table()
    assert "<- gate" in text
    assert "1 gated" in text and "1 meta" in text


# ------------------------------------------------------------- file layer


class _FakeResult:
    name = "vvadd"
    system = "1b-4VL"
    cycles = 1000
    stats = BASE


def test_dump_and_load_roundtrip(tmp_path):
    doc = dump_result(_FakeResult(), extra={"workload": "vvadd"})
    assert doc["schema"] == "bigvlittle-run-v1"
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    name, stats = load_dump(str(p))
    assert stats == BASE
    assert name == "1b-4VL:vvadd"


def test_load_dump_accepts_bare_stats(tmp_path):
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(BASE))
    _, stats = load_dump(str(p))
    assert stats == BASE


def test_load_dump_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        load_dump(str(p))
    p.write_text('{"stats": {}}')
    with pytest.raises(ValueError):
        load_dump(str(p))
    p.write_text(json.dumps({"schema": "bigvlittle-timeline-v1",
                             "stats": BASE}))
    with pytest.raises(ValueError, match="bigvlittle-timeline-v1"):
        load_dump(str(p))


def test_diff_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(dump_result(_FakeResult())))
    b.write_text(json.dumps(dump_result(_FakeResult())))
    assert diff_files(str(a), str(b)).identical
    doc = dump_result(_FakeResult())
    doc["stats"] = dict(BASE, **{"big0.instrs": 1})
    b.write_text(json.dumps(doc))
    r = diff_files(str(a), str(b))
    assert not r.ok and len(r.deltas) == 1
