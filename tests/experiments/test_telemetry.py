"""Sweep-telemetry tests: JSONL schema, cache-count reconciliation,
worker traces, and the runner's extended summary.

Contract: the JSONL log's cache_hit/cache_miss counts match
``cache.stats()`` *exactly* (events are emitted on the same branches
that bump the counters), the Chrome trace has one track per worker, and
everything is silent when telemetry is disabled.
"""

import json

import pytest

from repro.experiments import telemetry
from repro.experiments.parallel import (
    ParallelRunner,
    RunRequest,
    format_summary,
)
from repro.experiments.runner import run_pair


@pytest.fixture
def tel(tmp_path):
    """An enabled process-wide telemetry sink backed by a tmp JSONL file."""
    t = telemetry.enable(path=str(tmp_path / "telemetry.jsonl"))
    yield t
    telemetry.disable()


def test_disabled_by_default():
    assert telemetry.current() is None


def test_run_pair_emits_run_events(fresh_cache, tel):
    run_pair("1b", "vvadd", "tiny")
    assert tel.counts["cache_miss"] == 1
    assert tel.counts["run_start"] == 1
    assert tel.counts["run_end"] == 1
    assert tel.counts["worker_busy"] == 1
    run_pair("1b", "vvadd", "tiny")  # memory hit: no new run
    assert tel.counts["cache_hit"] == 1
    assert tel.counts["run_start"] == 1
    starts = [e for e in tel.events if e["ev"] == "run_start"]
    ends = [e for e in tel.events if e["ev"] == "run_end"]
    assert starts[0]["system"] == "1b" and starts[0]["workload"] == "vvadd"
    assert starts[0]["key"] == ends[0]["key"]
    assert ends[0]["cycles"] > 0 and ends[0]["wall_s"] > 0


def test_run_end_carries_timing_split(fresh_cache, tel):
    run_pair("1b", "vvadd", "tiny")
    (end,) = [e for e in tel.events if e["ev"] == "run_end"]
    assert end["level"] == "fresh"
    assert end["sim_wall_s"] > 0
    assert end["load_wall_s"] == 0.0  # fresh run: nothing loaded from disk
    # the split tiles the total within JSONL rounding
    assert end["sim_wall_s"] + end["load_wall_s"] == pytest.approx(
        end["wall_s"], abs=2e-6)


def test_jsonl_matches_cache_stats_exactly(fresh_cache, tel):
    reqs = [RunRequest("1b", w, "tiny") for w in ("vvadd", "saxpy", "vvadd")]
    runner = ParallelRunner(jobs=1, cache=fresh_cache)
    runner.run(reqs)
    runner.run(reqs)  # warm pass: all hits
    events = telemetry.load_jsonl(tel.path)
    st = fresh_cache.stats()
    assert sum(e["ev"] == "cache_hit" for e in events) == st["hits"]
    assert sum(e["ev"] == "cache_miss" for e in events) == st["misses"]
    assert sum(e["ev"] == "cache_corrupt" for e in events) == st["corrupt"]
    # and the in-memory counts agree with the file
    assert tel.counts["cache_hit"] == st["hits"]
    assert tel.counts["cache_miss"] == st["misses"]


def test_sweep_events_bracket_the_run(fresh_cache, tel):
    runner = ParallelRunner(jobs=1, cache=fresh_cache)
    runner.run([RunRequest("1b", "vvadd", "tiny")])
    evs = [e["ev"] for e in tel.events]
    assert evs[0] == "sweep_start" and evs[-1] == "sweep_end"
    start = tel.events[0]
    assert start["requests"] == 1 and start["jobs"] == 1
    end = tel.events[-1]
    assert end["simulated"] == 1 and end["cache_hits"] == 0


def test_corrupt_cache_file_emits_event(fresh_cache, tel, tmp_path):
    import os

    from repro.experiments.cache import ResultCache

    run_pair("1b", "vvadd", "tiny")
    from repro.soc import preset

    key = fresh_cache.key_for(preset("1b"), "vvadd", "tiny")
    path = os.path.join(fresh_cache.cache_dir, f"{key}.json")
    with open(path, "w") as f:
        f.write("{not json")
    stale = ResultCache(cache_dir=fresh_cache.cache_dir)
    with pytest.warns(RuntimeWarning):
        assert stale.get(key) is None
    assert tel.counts["cache_corrupt"] == 1
    assert stale.stats()["corrupt"] == 1


def test_chrome_trace_one_track_per_worker(tel):
    tel.span("101", "a", 10.0, 10.5)
    tel.span("102", "b", 10.2, 10.9)
    tel.span("101", "c", 10.6, 11.0)
    doc = tel.chrome_trace()
    evs = doc["traceEvents"]
    meta = [e for e in evs if e["ph"] == "M"]
    spans = [e for e in evs if e["ph"] == "X"]
    names = {e["args"]["name"] for e in meta}
    assert names == {"sweep", "worker 101", "worker 102"}
    assert len(spans) == 3
    assert {e["tid"] for e in spans} == {1, 2}
    a = next(e for e in spans if e["name"] == "a")
    assert a["ts"] == 0.0 and a["dur"] == pytest.approx(0.5e6)
    assert tel.busy_s() == pytest.approx(1.6)


def test_write_chrome_trace_is_loadable_json(tel, tmp_path):
    tel.span("7", "run", 1.0, 2.0)
    out = tmp_path / "sweep_trace.json"
    n = tel.write_chrome_trace(str(out))
    doc = json.loads(out.read_text())
    assert len(doc["traceEvents"]) == n


def test_summary_extensions_and_format(fresh_cache):
    reqs = [RunRequest("1b", "vvadd", "tiny"), RunRequest("1b", "vvadd", "tiny")]
    runner = ParallelRunner(jobs=1, cache=fresh_cache)
    runner.run(reqs)
    s = runner.summary()
    assert s["workers"] == 1
    assert s["hit_ratio"] == 0.0
    assert 0.0 < s["worker_util"] <= 1.0
    runner2 = ParallelRunner(jobs=1, cache=fresh_cache)
    runner2.run(reqs)
    s2 = runner2.summary()
    assert s2["hit_ratio"] == 1.0 and s2["workers"] == 0
    text = format_summary(s2)
    assert "cache hits" in text and "hit ratio 100%" in text


def test_load_wall_s_counts_fresh_disk_loads_once(fresh_cache):
    """Only a fresh disk load costs load time; memory re-hits are free."""
    from repro.experiments.cache import ResultCache

    reqs = [RunRequest("1b", "vvadd", "tiny")] * 3
    ParallelRunner(jobs=1, cache=fresh_cache).run(reqs)
    cold = ResultCache(cache_dir=fresh_cache.cache_dir)  # fresh memory level
    runner = ParallelRunner(jobs=1, cache=cold)
    runner.run(reqs)
    s = runner.summary()
    assert cold.disk_hits == 1  # one disk load, two memory re-hits
    hit = cold.get(cold.key_for(reqs[0].config(), "vvadd", "tiny"))
    assert s["load_wall_s"] == pytest.approx(hit.timing["load_wall_s"])


def test_worker_disables_inherited_telemetry(fresh_cache, tel, monkeypatch):
    """The worker body must never double-log into an inherited sink."""
    from repro.experiments.parallel import _simulate

    req = RunRequest("1b", "vvadd", "tiny")
    payload = _simulate(req)
    assert telemetry.current() is None  # worker-side disable ran
    assert payload["pid"] > 0
    assert payload["t_end"] >= payload["t_start"]
    assert payload["result"]["stats"]["time_ps"] > 0
