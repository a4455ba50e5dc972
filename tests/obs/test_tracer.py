"""Tracer ring buffer and Chrome trace_event export."""

import json

from repro.obs import Tracer

VALID_PHASES = {"B", "E", "i", "X", "C", "M"}


def test_track_ids_stable_and_distinct():
    t = Tracer()
    a = t.track("big0", process="cores")
    b = t.track("vcu", process="vector")
    assert a != b
    assert t.track("big0", process="cores") == a  # idempotent


def test_events_recorded_in_order():
    t = Tracer()
    tr = t.track("u")
    t.begin(tr, "work", 100)
    t.end(tr, "work", 250)
    t.instant(tr, "blip", 300, {"k": 1})
    t.complete(tr, "span", 400, 50)
    t.counter(tr, "depth", 500, 7)
    assert len(t) == 5
    assert t.dropped == 0


def test_ring_buffer_bounds_and_counts_drops():
    t = Tracer(max_events=10)
    tr = t.track("u")
    for i in range(25):
        t.instant(tr, f"e{i}", i * 1000)
    assert len(t) == 10
    assert t.dropped == 15
    doc = t.chrome_trace()
    names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "i"]
    assert names == [f"e{i}" for i in range(15, 25)]  # oldest dropped
    assert doc["otherData"]["dropped_events"] == 15


def test_no_drops_at_exact_budget():
    t = Tracer(max_events=10)
    tr = t.track("u")
    for i in range(10):
        t.instant(tr, f"e{i}", i * 1000)
    assert len(t) == 10
    assert t.dropped == 0
    doc = t.chrome_trace()
    names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "i"]
    assert names == [f"e{i}" for i in range(10)]  # nothing lost, in order


def test_observation_plumbs_max_events_to_tracer():
    from repro.obs import Observation

    obs = Observation(max_events=10)
    assert obs.tracer.max_events == 10


def test_chrome_trace_schema():
    t = Tracer()
    tr = t.track("big0", process="cores")
    t.begin(tr, "commit", 1000)
    t.end(tr, "commit", 3000)
    t.instant(tr, "mispredict", 5000)
    t.complete(tr, "rotate", 7000, 2000, {"seq": 3})
    t.counter(tr, "occ", 9000, 4)
    doc = t.chrome_trace()
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    for e in doc["traceEvents"]:
        assert e["ph"] in VALID_PHASES
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        if e["ph"] != "M":
            assert isinstance(e["ts"], int) and e["ts"] >= 0
        if e["ph"] == "X":
            assert e["dur"] >= 1
        if e["ph"] == "i":
            assert e["s"] == "t"
    # timestamps are ps // 1000: 1 viewer microsecond == 1 sim nanosecond
    inst = next(e for e in doc["traceEvents"] if e["ph"] == "i")
    assert inst["ts"] == 5
    # must survive a JSON round-trip (what write_json emits)
    assert json.loads(json.dumps(doc)) == doc


def test_write_json(tmp_path):
    t = Tracer()
    tr = t.track("u")
    t.instant(tr, "e", 0)
    path = tmp_path / "trace.json"
    n = t.write_json(path)
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == n
    assert n >= 1
