"""Cache-behavior tests: bypass, clearing, key fidelity, corruption."""

import json
import os

import pytest

from repro.experiments import cli
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunRequest
from repro.experiments.runner import clear_cache, run_pair
from repro.soc import preset


def test_use_cache_false_bypasses(fresh_cache, run_spy):
    run_pair("1b", "vvadd", "tiny")
    assert run_spy["n"] == 1
    run_pair("1b", "vvadd", "tiny")
    assert run_spy["n"] == 1  # cache hit
    run_pair("1b", "vvadd", "tiny", use_cache=False)
    assert run_spy["n"] == 2  # bypass simulates again
    # bypass also does not overwrite/populate the cache's memory identity
    a = run_pair("1b", "vvadd", "tiny")
    assert run_spy["n"] == 2


def test_clear_cache_empties_disk_and_memory(fresh_cache, run_spy):
    run_pair("1b", "vvadd", "tiny")
    st = fresh_cache.stats()
    assert st["memory_entries"] == 1 and st["disk_entries"] == 1
    clear_cache()
    st = fresh_cache.stats()
    assert st["memory_entries"] == 0 and st["disk_entries"] == 0
    run_pair("1b", "vvadd", "tiny")
    assert run_spy["n"] == 2  # really re-simulated


def test_cli_cache_clear_and_stats(fresh_cache, capsys):
    run_pair("1b", "vvadd", "tiny")
    assert cli.main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    stats = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert stats["disk_entries"] == "1"
    assert stats["memory_entries"] == "1"
    assert cli.main(["cache", "clear"]) == 0
    assert "cleared 1 cached results" in capsys.readouterr().out
    assert fresh_cache.stats()["disk_entries"] == 0
    assert fresh_cache.stats()["memory_entries"] == 0


def test_distinct_overrides_never_collide(fresh_cache):
    """The old hand-picked key tuple omitted most ``cfg.mem`` fields (and
    several engine knobs), silently aliasing distinct configs.  The
    full-config content hash must separate every one of them."""
    variants = [
        {},
        {"mem": {"l2_latency": 40}},          # omitted by the old key
        {"mem": {"l2_banks": 1}},             # omitted by the old key
        {"mem": {"l1_size": 16 * 1024}},      # omitted by the old key
        {"mem": {"dram_latency": 200}},       # omitted by the old key
        {"mem": {"dram_line_interval": 8}},
        {"dve_lanes": 4},                     # omitted by the old key
        {"ivu_vlen_bits": 256},               # omitted by the old key
        {"freq_mem": 2.0},                    # omitted by the old key
        {"chimes": 1},
    ]
    keys = {fresh_cache.key_for(preset("1b-4VL", **ov), "vvadd", "tiny")
            for ov in variants}
    assert len(keys) == len(variants)


def test_keys_are_pinned(fresh_cache):
    """A key moves only with ``SIM_VERSION`` or the config schema: a
    request without workload params hashes exactly as it always has, and
    one with params gets a key of its own."""
    assert fresh_cache.key_for(preset("1b-4VL"), "saxpy", "tiny") == (
        "a33e7c7f828937308d40994657b860b25809fbe831cb4cc5f48f81b6f877fdae")
    assert fresh_cache.key_for(preset("1b"), "bfs", "small") == (
        "b82b6846193a0f011af95465498bacbea7fbb94530e6d912837633f979836f70")
    plain = RunRequest("1b", "bfs", "small")
    uniform = RunRequest("1b", "bfs", "small",
                         params={"graph_kind": "uniform"})
    assert fresh_cache.key_for(plain.config(), "bfs", "small",
                               plain.params) == fresh_cache.key_for(
        preset("1b"), "bfs", "small")
    assert fresh_cache.key_for(uniform.config(), "bfs", "small",
                               uniform.params) != fresh_cache.key_for(
        preset("1b"), "bfs", "small")
    assert uniform.label() == "1b/bfs@small [graph_kind=uniform]"


def test_omitted_mem_field_no_longer_aliases(fresh_cache, run_spy):
    """Regression for the run_pair cache-key bug: two runs differing only in
    a mem field the old key ignored must both simulate."""
    a = run_pair("1b", "vvadd", "tiny")
    b = run_pair("1b", "vvadd", "tiny", mem={"dram_latency": 400})
    assert run_spy["n"] == 2
    assert a is not b
    assert a.stats["time_ps"] != b.stats["time_ps"]


def test_corrupted_cache_file_degrades_to_resimulation(fresh_cache, run_spy):
    a = run_pair("1b", "vvadd", "tiny")
    key = fresh_cache.key_for(preset("1b"), "vvadd", "tiny")
    path = os.path.join(fresh_cache.cache_dir, f"{key}.json")
    assert os.path.exists(path)
    with open(path, "w") as f:
        f.write("{not json")
    # fresh process = fresh memory level; the disk record is garbage
    stale = ResultCache(cache_dir=fresh_cache.cache_dir)
    with pytest.warns(RuntimeWarning, match="corrupted result-cache file"):
        b = run_pair("1b", "vvadd", "tiny", cache=stale)
    assert run_spy["n"] == 2
    assert b.stats == a.stats
    # the re-simulation healed the disk record
    with open(path) as f:
        assert json.load(f)["result"]["stats"] == a.stats


def test_missing_result_field_is_also_corruption(fresh_cache, run_spy):
    run_pair("1b", "vvadd", "tiny")
    key = fresh_cache.key_for(preset("1b"), "vvadd", "tiny")
    path = os.path.join(fresh_cache.cache_dir, f"{key}.json")
    with open(path, "w") as f:
        json.dump({"sim_version": "1.0.0"}, f)  # valid JSON, wrong shape
    stale = ResultCache(cache_dir=fresh_cache.cache_dir)
    with pytest.warns(RuntimeWarning):
        run_pair("1b", "vvadd", "tiny", cache=stale)
    assert run_spy["n"] == 2


def test_corruption_is_counted_in_stats(fresh_cache, run_spy, capsys):
    run_pair("1b", "vvadd", "tiny")
    key = fresh_cache.key_for(preset("1b"), "vvadd", "tiny")
    path = os.path.join(fresh_cache.cache_dir, f"{key}.json")
    with open(path, "w") as f:
        f.write("{not json")
    stale = ResultCache(cache_dir=fresh_cache.cache_dir)
    with pytest.warns(RuntimeWarning):
        stale.get(key)
    with pytest.warns(RuntimeWarning):
        stale.get(key)
    st = stale.stats()
    assert st["corrupt"] == 2
    assert st["misses"] == 2
    assert fresh_cache.stats()["corrupt"] == 0
    # and the CLI surfaces the counter
    assert cli.main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    stats = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert stats["corrupt"] == "0"


def test_timing_split_sim_vs_load(fresh_cache, run_spy):
    """Cold runs record sim_wall_s; disk hits add a distinct load_wall_s."""
    a = run_pair("1b", "vvadd", "tiny")
    assert a.timing["from_cache"] is False
    assert a.timing["sim_wall_s"] == pytest.approx(a.timing["wall_s"])
    assert "load_wall_s" not in a.timing
    key = fresh_cache.key_for(preset("1b"), "vvadd", "tiny")
    cold = ResultCache(cache_dir=fresh_cache.cache_dir)
    b = cold.get(key)
    assert run_spy["n"] == 1
    assert b.timing["from_cache"] is True
    assert b.timing["load_wall_s"] >= 0.0
    # the original simulation cost survives the round-trip alongside it
    assert b.timing["sim_wall_s"] == pytest.approx(a.timing["sim_wall_s"])


def test_disabled_cache_never_reads_or_writes(fresh_cache, run_spy):
    fresh_cache.enabled = False
    run_pair("1b", "vvadd", "tiny")
    run_pair("1b", "vvadd", "tiny")
    assert run_spy["n"] == 2
    st = fresh_cache.stats()
    assert st["memory_entries"] == 0 and st["disk_entries"] == 0
