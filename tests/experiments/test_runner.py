"""Tests for the experiment runner's system-to-program mapping."""

import pytest

from repro.errors import WorkloadError
from repro.experiments import clear_cache, run_pair


def test_run_pair_basic():
    r = run_pair("1L", "vvadd", "tiny")
    assert r.system == "1L"
    assert r.cycles > 0


def test_cache_returns_same_object():
    clear_cache()
    a = run_pair("1b", "vvadd", "tiny")
    b = run_pair("1b", "vvadd", "tiny")
    assert a is b
    c = run_pair("1b", "vvadd", "tiny", use_cache=False)
    assert c is not a
    assert c.cycles == a.cycles  # deterministic simulation


def test_uncached_run_computes_no_key(fresh_cache, monkeypatch):
    # with the cache bypassed and telemetry off nothing reads the key,
    # which is what every pool worker and the serial runner ask for
    def no_key(*args, **kwargs):
        raise AssertionError("key computed for an uncached run")

    monkeypatch.setattr(fresh_cache, "key_for", no_key)
    assert run_pair("1b", "vvadd", "tiny", use_cache=False).cycles > 0


def test_every_simulation_builds_through_the_runner_globals(fresh_cache,
                                                            monkeypatch):
    """The runner's serial path, uncached ``run_pair`` and the service's
    timeline run all simulate through ``simulate``, which looks
    ``get_workload``, ``_program_for`` and ``System`` up as the runner
    module's globals: a caller that wraps those names there (perfbench's
    traced sweep does) sees every trace build and system build."""
    from repro.experiments import runner
    from repro.experiments.parallel import ParallelRunner, RunRequest
    from repro.service.artifacts import simulate_timeline

    seen = []

    def wrap(name):
        real = getattr(runner, name)

        def wrapper(*args):
            seen.append(name)
            return real(*args)
        monkeypatch.setattr(runner, name, wrapper)

    for name in ("get_workload", "_program_for", "System"):
        wrap(name)
    ParallelRunner(jobs=1).run([RunRequest("1b", "vvadd", "tiny")])
    run_pair("1L", "vvadd", "tiny", use_cache=False)
    simulate_timeline({"system": "1bDV", "workload": "vvadd",
                       "scale": "tiny"})
    assert seen == ["get_workload", "_program_for", "System"] * 3


def test_cache_key_includes_frequencies():
    clear_cache()
    a = run_pair("1b", "vvadd", "tiny")
    b = run_pair("1b", "vvadd", "tiny", freq_big=1.4)
    assert a is not b
    assert b.stats["time_ps"] < a.stats["time_ps"]


def test_vector_systems_get_vector_traces():
    r = run_pair("1bDV", "saxpy", "tiny")
    assert r["dve.instrs"] > 0
    r2 = run_pair("1b-4VL", "saxpy", "tiny")
    assert r2["vlittle.instrs"] > 0


def test_task_parallel_on_single_core_systems_is_scalar():
    r = run_pair("1bDV", "bfs", "tiny")
    assert r["dve.instrs"] == 0  # engine unused for irregular code
    assert r["big0.instrs"] > 0


def test_task_parallel_on_multicore_uses_runtime():
    r = run_pair("1b-4L", "pagerank", "tiny")
    assert r["runtime.tasks"] > 0


def test_vlittle_scalar_mode_equivalence_through_runner():
    a = run_pair("1b-4L", "bfs", "tiny")
    b = run_pair("1b-4VL", "bfs", "tiny")
    assert a.cycles == b.cycles


def test_unknown_workload_raises():
    with pytest.raises(WorkloadError):
        run_pair("1b", "nonexistent", "tiny")
