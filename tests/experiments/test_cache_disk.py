"""The result cache's disk level: one flat layout shared by every writer,
pruning, corruption, and the concurrency contract (atomic writes —
readers never see torn files)."""

import json
import multiprocessing
import os
import time
import warnings

import pytest

from repro.experiments import cli
from repro.experiments.cache import ResultCache
from repro.stats import RunResult


def _result(i=0):
    return RunResult(f"wl{i}", "1b", 100 + i,
                     {"time_ps": 1000 + i, "big0.instrs": 10 * i},
                     {"wall_s": 0.0, "sim_wall_s": 0.0, "from_cache": False})


def _keys(cache, n):
    """n distinct real config-hash keys (vary a mem knob per run spec)."""
    from repro.soc import preset

    return [cache.key_for(preset("1b", mem={"dram_latency": 100 + 10 * i}),
                          "vvadd", "tiny") for i in range(n)]


# ------------------------------------------------------------------ layout

def test_cli_cache_reads_entries_the_service_wrote(tmp_path):
    """The sweep service's cache and a CLI cache on the same directory
    are one cache: an entry the service stored is a disk hit for the
    CLI."""
    from repro.service import ServiceApp

    app = ServiceApp(cache_root=str(tmp_path), port=0, workers=1)
    try:
        [key] = _keys(app.cache, 1)
        app.cache.put(key, _result())
    finally:  # never started: stop() still releases socket and journal
        app.stop()
    assert (tmp_path / "cache" / f"{key}.json").is_file()
    cli_cache = ResultCache(cache_dir=str(tmp_path / "cache"))
    hit = cli_cache.get(key)
    assert hit is not None and hit.stats == _result().stats
    assert cli_cache.disk_hits == 1
    assert cli_cache.stats()["disk_entries"] == 1


def test_clear_empties_the_disk_level(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    for i, key in enumerate(_keys(cache, 3)):
        cache.put(key, _result(i))
    cache.clear()
    assert cache.stats()["disk_entries"] == 0


# ------------------------------------------------------------------- prune

def test_prune_evicts_lru_by_mtime(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    keys = _keys(cache, 3)
    for i, key in enumerate(keys):
        cache.put(key, _result(i))
    # age the first two files; the third is the most recently used
    now = time.time()
    for age, key in zip((300, 200), keys[:2]):
        os.utime(cache.path_for(key), (now - age, now - age))
    newest_size = os.path.getsize(cache.path_for(keys[2]))
    out = cache.prune(max_bytes=newest_size)
    assert out["removed"] == 2
    assert out["disk_bytes"] <= newest_size
    assert cache.stats()["pruned"] == 2
    # oldest two gone (from disk AND the memory level), newest survives
    assert cache.get(keys[0]) is None and cache.get(keys[1]) is None
    assert cache.get(keys[2]) is not None


def test_prune_is_noop_under_limit(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    [key] = _keys(cache, 1)
    cache.put(key, _result())
    out = cache.prune(max_bytes=10 * 1024 * 1024)
    assert out["removed"] == 0 and cache.stats()["pruned"] == 0
    assert cache.get(key) is not None


def test_cli_cache_prune(fresh_cache, capsys):
    from repro.experiments.runner import run_pair

    run_pair("1b", "vvadd", "tiny")
    run_pair("1b", "vvadd", "tiny", mem={"dram_latency": 400})
    assert fresh_cache.stats()["disk_entries"] == 2
    assert cli.main(["cache", "prune", "--max-bytes", "1"]) == 0
    out = capsys.readouterr().out
    assert "pruned 2 cached results" in out
    assert fresh_cache.stats()["disk_entries"] == 0
    assert fresh_cache.stats()["pruned"] == 2


def test_cli_cache_prune_requires_max_bytes(fresh_cache, capsys):
    assert cli.main(["cache", "prune"]) == 2


# ------------------------------------------------------------- corruption

def test_corrupt_entry_is_one_counted_miss(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    [key] = _keys(cache, 1)
    cache.put(key, _result())
    with open(cache.path_for(key), "w") as f:
        f.write("{torn")
    fresh = ResultCache(cache_dir=str(tmp_path))
    with pytest.warns(RuntimeWarning, match="corrupted result-cache file"):
        assert fresh.get(key) is None
    st = fresh.stats()
    assert st["corrupt"] == 1 and st["misses"] == 1 and st["hits"] == 0


def test_prune_racing_a_lookup_is_a_plain_miss(tmp_path, monkeypatch):
    """A prune that removes an entry after a lookup has decided to read
    it leaves that lookup a plain miss: no warning, nothing counted or
    reported corrupt.  The existence check is patched to report the
    pruned entry as present, the interleaving a check-then-open lookup
    loses."""
    from repro.experiments import cache as cache_module
    from repro.experiments import telemetry

    writer = ResultCache(cache_dir=str(tmp_path))
    [key] = _keys(writer, 1)
    writer.put(key, _result())
    path = writer.path_for(key)
    assert writer.prune(max_bytes=0)["removed"] == 1
    exists = cache_module.os.path.exists
    monkeypatch.setattr(cache_module.os.path, "exists",
                        lambda p: p == path or exists(p))
    reader = ResultCache(cache_dir=str(tmp_path))
    tel = telemetry.enable()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reader.get(key) is None
    finally:
        telemetry.disable()
    st = reader.stats()
    assert (st["corrupt"], st["misses"], st["hits"]) == (0, 1, 0)
    assert tel.counts == {"cache_miss": 1}


# ------------------------------------------------------------ concurrency

def _hammer_writer(cache_dir, key, result_dict, n_iters):
    cache = ResultCache(cache_dir=cache_dir)
    result = RunResult.from_dict(result_dict)
    for _ in range(n_iters):
        cache.put(key, result)


def test_two_processes_racing_same_key_never_torn(tmp_path):
    """Two writers re-put one key while the parent re-reads it from disk:
    every read must see a complete entry (atomic temp+rename), never a
    partial file, and never a corruption warning."""
    cache_dir = str(tmp_path)
    cache = ResultCache(cache_dir=cache_dir)
    [key] = _keys(cache, 1)
    result = _result()
    cache.put(key, result)

    writers = [multiprocessing.Process(
        target=_hammer_writer, args=(cache_dir, key, result.to_dict(), 200))
        for _ in range(2)]
    for w in writers:
        w.start()
    try:
        reads = 0
        while any(w.is_alive() for w in writers):
            # a fresh instance per read: no memory level, disk every time
            reader = ResultCache(cache_dir=cache_dir)
            hit = reader.get(key)  # corrupt would raise RuntimeWarning
            assert hit is not None and hit.stats == result.stats
            assert reader.stats()["corrupt"] == 0
            reads += 1
    finally:
        for w in writers:
            w.join()
    assert all(w.exitcode == 0 for w in writers)
    assert reads > 0
    # and no stray temp files survive the stampede
    leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def test_concurrent_distinct_keys_all_land(tmp_path):
    cache_dir = str(tmp_path)
    cache = ResultCache(cache_dir=cache_dir)
    keys = _keys(cache, 4)
    result = _result()
    procs = [multiprocessing.Process(
        target=_hammer_writer, args=(cache_dir, key, result.to_dict(), 50))
        for key in keys]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    assert all(p.exitcode == 0 for p in procs)
    st = ResultCache(cache_dir=cache_dir).stats()
    assert st["disk_entries"] == len(keys)
