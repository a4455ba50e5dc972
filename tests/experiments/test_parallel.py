"""Parallel-runner tests: warm-cache short-circuit, dedup, summaries, and
one lookup, one store and one simulation per sweep point."""

import logging
import os

import pytest

from repro.experiments import configure, figures, set_cache, telemetry
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import ParallelRunner, RunRequest, format_summary
from repro.power import BIG_LEVELS, LITTLE_LEVELS

WLS = ["vvadd", "saxpy"]
SYSTEMS = ["1L", "1b", "1b-4VL"]


def test_warm_cache_fig4_needs_zero_system_runs(fresh_cache, run_spy):
    """Acceptance criterion: with a warm cache, regenerating Fig. 4 data
    performs zero ``System.run`` calls."""
    cold = figures.fig4(scale="tiny", systems=SYSTEMS, workloads=WLS)
    assert run_spy["n"] == len(SYSTEMS) * len(WLS)
    before = run_spy["n"]
    warm = figures.fig4(scale="tiny", systems=SYSTEMS, workloads=WLS)
    assert run_spy["n"] == before  # zero new simulations
    assert warm == cold


def test_warm_disk_cache_survives_process_boundary(fresh_cache, run_spy):
    """Same criterion across a 'restart': only the memory level is dropped,
    the disk level must still satisfy every lookup."""
    cold = figures.fig4(scale="tiny", systems=SYSTEMS, workloads=WLS)
    before = run_spy["n"]
    fresh_cache._mem.clear()  # simulate a fresh process on the same disk
    warm = figures.fig4(scale="tiny", systems=SYSTEMS, workloads=WLS)
    assert run_spy["n"] == before
    assert warm == cold


def test_parallel_cold_then_warm(fresh_cache):
    reqs = [RunRequest(s, w, "tiny") for s in SYSTEMS for w in WLS]
    runner = ParallelRunner(jobs=2)
    runner.run(reqs)
    s1 = runner.summary()
    assert s1["simulated"] == len(reqs) and s1["cache_hits"] == 0
    runner2 = ParallelRunner(jobs=2)
    runner2.run(reqs)
    s2 = runner2.summary()
    assert s2["simulated"] == 0 and s2["cache_hits"] == len(reqs)
    assert "cache hits" in format_summary(s2)


def test_duplicate_requests_simulate_once(fresh_cache):
    reqs = [RunRequest("1b", "vvadd", "tiny")] * 3
    runner = ParallelRunner(jobs=1)
    results = runner.run(reqs)
    assert runner.summary()["simulated"] == 1
    assert results[0] is results[1] is results[2]


def test_no_cache_runner_simulates_every_request(fresh_cache, run_spy):
    reqs = [RunRequest("1b", "vvadd", "tiny")] * 2
    fresh_cache.enabled = False
    runner = ParallelRunner(jobs=1)
    runner.run(reqs)
    assert run_spy["n"] == 2
    assert fresh_cache.stats()["disk_entries"] == 0


def test_results_align_with_requests(fresh_cache):
    reqs = [RunRequest("1b", "vvadd", "tiny"),
            RunRequest("1b-4VL", "saxpy", "tiny",
                       dict(vmu_loadq=8, vmu_storeq=8)),
            RunRequest("1b", "vvadd", "tiny")]
    results = ParallelRunner(jobs=2).run(reqs)
    assert results[0].system == "1b" and results[0].name == "vvadd"
    assert results[1].system == "1b-4VL"
    assert results[0] is results[2]


def test_overrides_reach_worker_processes(fresh_cache):
    slow = RunRequest("1b-4VL", "saxpy", "tiny", dict(switch_penalty=8000))
    fast = RunRequest("1b-4VL", "saxpy", "tiny", dict(switch_penalty=0))
    r_slow, r_fast = ParallelRunner(jobs=2).run([slow, fast])
    assert r_slow.stats["time_ps"] > r_fast.stats["time_ps"]


def test_disabled_cache_keeps_workers_cacheless(fresh_cache):
    """CLI --no-cache must reach the worker processes too: nothing may be
    written to disk even though workers build their own cache handles."""
    fresh_cache.enabled = False
    ParallelRunner(jobs=2).run([RunRequest("1b", "vvadd", "tiny")])
    assert fresh_cache.stats()["disk_entries"] == 0
    assert fresh_cache.stats()["memory_entries"] == 0


def test_pooled_results_land_once_in_the_cache_layout(tmp_path,
                                                      monkeypatch):
    """The parent is the only cache writer: pool workers simulate and
    return their results, and never store one themselves.  Every cache
    write and every simulation appends its pid to a log; the pool's
    forked workers inherit both patches, so the simulations' pids show
    that the log sees the pool."""
    from repro.soc.system import System

    log = tmp_path / "pids.log"

    def logged(kind, real):
        def wrapper(self, *args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{kind} {os.getpid()}\n")
            return real(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(ResultCache, "put", logged("put", ResultCache.put))
    monkeypatch.setattr(System, "run", logged("run", System.run))
    cache = ResultCache(cache_dir=str(tmp_path / "cache"))
    ParallelRunner(jobs=2, cache=cache).run(
        [RunRequest("1b", "vvadd", "tiny"), RunRequest("1L", "vvadd", "tiny")])
    events = [line.split() for line in log.read_text().splitlines()]
    runs = [int(pid) for kind, pid in events if kind == "run"]
    puts = [int(pid) for kind, pid in events if kind == "put"]
    assert len(runs) == 2 and os.getpid() not in runs
    assert puts == [os.getpid()] * 2
    assert cache.stats()["disk_entries"] == 2


def test_progress_lines_emitted(fresh_cache, caplog):
    caplog.set_level(logging.INFO, logger="repro.experiments.parallel")
    ParallelRunner(jobs=1).run([RunRequest("1b", "vvadd", "tiny")],
                               progress=True)
    (record,) = caplog.records
    assert record.name == "repro.experiments.parallel"
    assert record.getMessage().startswith("[1/1] 1b/vvadd@tiny simulated")


def test_serial_runner_looks_up_and_stores_each_miss_once(fresh_cache,
                                                          monkeypatch):
    """The serial path simulates through ``runner.simulate``, which
    touches no cache: the runner's own lookup and store are the only
    cache calls."""
    puts = []
    real_put = fresh_cache.put

    def counting_put(key, result):
        puts.append(key)
        real_put(key, result)

    monkeypatch.setattr(fresh_cache, "put", counting_put)
    tel = telemetry.enable()
    try:
        ParallelRunner(jobs=1).run([RunRequest("1b", "vvadd", "tiny"),
                                    RunRequest("1L", "vvadd", "tiny")])
    finally:
        telemetry.disable()
    assert fresh_cache.misses == 2
    assert len(puts) == len(set(puts)) == 2
    assert tel.counts["cache_miss"] == 2


def test_no_cache_sweep_simulates_each_run_once(fresh_cache, run_spy):
    """--no-cache with a pool: the pooled results are the sweep's results,
    not discarded and re-simulated serially."""
    configure(enabled=False)
    figures.fig8(scale="tiny", workloads=["saxpy"], jobs=2)
    assert run_spy["n"] == len(figures.FIG8_DEPTHS)
    assert fresh_cache.stats()["disk_entries"] == 0


def test_warm_sweep_makes_one_lookup_per_request(fresh_cache, run_spy):
    """A warm pooled figure reads each of its requests once from a fresh
    cache on the warm directory, and simulates nothing."""
    figures.fig9(scale="tiny", workloads=["backprop"], jobs=2)
    gets = []

    class CountingCache(ResultCache):
        def get(self, key):
            gets.append(key)
            return ResultCache.get(self, key)

    warm = set_cache(CountingCache(cache_dir=fresh_cache.cache_dir))
    before = run_spy["n"]
    figures.fig9(scale="tiny", workloads=["backprop"], jobs=2)
    n_requests = 1 + 2 * len(BIG_LEVELS) * len(LITTLE_LEVELS)  # 1L + 2 grids
    assert len(gets) == len(set(gets)) == n_requests == 33
    assert warm.disk_hits == n_requests
    assert run_spy["n"] == before
