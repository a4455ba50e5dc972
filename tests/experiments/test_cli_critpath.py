"""``bigvlittle critpath`` and ``bigvlittle inspect`` end to end.

Contract: both verbs simulate fresh (never touch the result cache);
``critpath`` prints the per-group breakdown or writes a valid
``bigvlittle-critpath-v1`` report that tiles the total simulated time
exactly; ``inspect`` renders / writes the same
``bigvlittle-forensics-v1`` snapshot a DeadlockError would carry.
"""

import json

import pytest

from repro.experiments.cli import main

CP_ARGS = ["critpath", "saxpy", "--scale", "tiny"]
IN_ARGS = ["inspect", "saxpy", "--scale", "tiny"]


def _cache_untouched(cache):
    assert cache.hits == 0 and cache.misses == 0
    assert cache.stats()["disk_entries"] == 0


def test_critpath_table(fresh_cache, run_spy, capsys):
    assert main(CP_ARGS) == 0
    assert run_spy["n"] == 1
    out = capsys.readouterr().out
    assert "tiles exactly" in out
    assert "big" in out and "wakeups" in out
    _cache_untouched(fresh_cache)


def test_critpath_json_stdout_tiles(fresh_cache, capsys):
    assert main([*CP_ARGS, "--json"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text[text.index("{"):])
    assert doc["schema"] == "bigvlittle-critpath-v1"
    assert doc["tiles"] is True
    assert doc["attributed_ps"] == doc["total_ps"] > 0
    assert doc["meta"]["workload"] == "saxpy"
    assert doc["meta"]["loop"] == "event"
    _cache_untouched(fresh_cache)


def test_critpath_json_file(tmp_path, fresh_cache, capsys):
    out = tmp_path / "critpath.json"
    assert main([*CP_ARGS, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tiles"] is True and doc["wakeup_edges"] > 0
    assert "wrote critpath report" in capsys.readouterr().out
    _cache_untouched(fresh_cache)


def test_inspect_completed_run(fresh_cache, run_spy, capsys):
    assert main(IN_ARGS) == 0
    assert run_spy["n"] == 1
    out = capsys.readouterr().out
    assert "(completed)" in out
    assert "blocking frontier: none" in out
    _cache_untouched(fresh_cache)


def test_inspect_at_ns_snapshots_midrun(fresh_cache, capsys):
    assert main([*IN_ARGS, "--at-ns", "2"]) == 0
    out = capsys.readouterr().out
    assert "forensics @ 2000 ps (horizon)" in out
    assert "blocking frontier:" in out
    _cache_untouched(fresh_cache)


def test_inspect_json_file(tmp_path, fresh_cache, capsys):
    out = tmp_path / "forensics.json"
    assert main([*IN_ARGS, "--at-ns", "2", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bigvlittle-forensics-v1"
    assert doc["t_ns"] == 2 and doc["reason"] == "horizon"
    assert doc["units"] and doc["workload"] == "saxpy"
    assert "wrote forensics snapshot" in capsys.readouterr().out
    _cache_untouched(fresh_cache)


def test_inspect_json_stdout(fresh_cache, capsys):
    assert main([*IN_ARGS, "--json"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text[text.index("{"):])
    assert doc["reason"] == "completed"
    assert doc["blocking_frontier"] == []
    _cache_untouched(fresh_cache)


@pytest.mark.parametrize("at_ns,why", [
    (1001, "parked worker: serial body running"),
    (2001, "parked worker: barrier arrival pending"),
], ids=["serial-stage", "barrier"])
def test_inspect_blames_the_working_core_not_parked_workers(
        tmp_path, fresh_cache, at_ns, why):
    """bfs at ``tiny`` on 1b-4VL runs under the work-stealing runtime
    with one task per phase, which big0 claims. Mid serial stage and mid
    barrier wait alike, every little's worker is parked on big0, so each
    names big0 as what it waits on and the blocking frontier is the
    working core alone, not the idle ones."""
    out = tmp_path / "forensics.json"
    assert main(["inspect", "bfs", "--system", "1b-4VL", "--scale", "tiny",
                 "--at-ns", str(at_ns), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reason"] == "horizon"
    assert doc["blocking_frontier"] == ["big0"]
    littles = [u for u in doc["units"] if u["unit"].startswith("lit")]
    assert len(littles) == 4
    for u in littles:
        assert u["state"] == "asleep" and not u["done"]
        assert u["waits_on"] == [{"on": "big0", "why": why}]
    assert doc["cycles"] == []
    _cache_untouched(fresh_cache)
