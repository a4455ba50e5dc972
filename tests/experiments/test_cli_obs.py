"""CLI observability verbs end to end: trace, profile, pipeview, timeline,
phases, diff.

Contract: every obs verb simulates fresh, writes exactly the files it
announces, exits 0 on success — and never reads or writes the result
cache (attaching an Observation must not leak ``obs.*`` keys into cached
results). ``diff --gate`` exits 1 only on a gated regression, and
``diff`` exits 2 on a file it cannot load in its mode.
"""

import json

import pytest

from repro.experiments.cli import main
from repro.obs.pipeview import KANATA_HEADER


def _cache_untouched(cache):
    assert cache.hits == 0 and cache.misses == 0
    assert cache.stats()["disk_entries"] == 0


ARGS = ["vvadd", "--scale", "tiny"]


def test_trace_verb(tmp_path, fresh_cache, run_spy, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", *ARGS, "--out", str(out)]) == 0
    assert run_spy["n"] == 1
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    assert doc["otherData"]["dropped_events"] == 0
    assert "perfetto" in capsys.readouterr().out
    _cache_untouched(fresh_cache)


def test_profile_verb(fresh_cache, run_spy, capsys):
    assert main(["profile", *ARGS]) == 0
    assert run_spy["n"] == 1
    out = capsys.readouterr().out
    assert "unit" in out and "vcu" in out
    _cache_untouched(fresh_cache)


def test_profile_json_file(tmp_path, fresh_cache, run_spy):
    out = tmp_path / "run.json"
    assert main(["profile", *ARGS, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bigvlittle-run-v1"
    assert doc["workload"] == "vvadd"
    assert doc["stats"]["cycles_1ghz"] == doc["cycles"]
    assert any(k.startswith("obs.cycles.") for k in doc["stats"])
    # the dump folds in a phase report alongside the flat stats
    assert doc["phases"]["schema"] == "bigvlittle-phases-v1"
    assert doc["phases"]["n_phases"] >= 1
    _cache_untouched(fresh_cache)


def test_profile_json_stdout(fresh_cache, capsys):
    assert main(["profile", *ARGS, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "bigvlittle-run-v1"
    _cache_untouched(fresh_cache)


def test_pipeview_verb_kanata(tmp_path, fresh_cache, run_spy, capsys):
    out = tmp_path / "pipe.kanata"
    assert main(["pipeview", *ARGS, "--out", str(out)]) == 0
    assert run_spy["n"] == 1
    lines = out.read_text().splitlines()
    assert lines[0] == KANATA_HEADER
    assert any(ln.startswith("I\t") for ln in lines)
    assert any(ln.startswith("R\t") for ln in lines)
    assert "instruction records" in capsys.readouterr().out
    _cache_untouched(fresh_cache)


def test_pipeview_verb_o3_format(tmp_path, fresh_cache):
    out = tmp_path / "pipe.txt"
    assert main(["pipeview", *ARGS, "--out", str(out), "--format", "o3"]) == 0
    lines = out.read_text().splitlines()
    assert lines and all(ln.startswith("O3PipeView:") for ln in lines)
    assert lines[0].startswith("O3PipeView:fetch:")
    _cache_untouched(fresh_cache)


def test_pipeview_window_drops_are_reported(tmp_path, fresh_cache, capsys):
    out = tmp_path / "pipe.kanata"
    assert main(["pipeview", *ARGS, "--out", str(out), "--window", "8"]) == 0
    assert "dropped" in capsys.readouterr().out
    _cache_untouched(fresh_cache)


def test_timeline_verb_csv(tmp_path, fresh_cache, run_spy, capsys):
    out = tmp_path / "tl.csv"
    assert main(["timeline", *ARGS, "--out", str(out),
                 "--interval", "200"]) == 0
    assert run_spy["n"] == 1
    header, *rows = out.read_text().splitlines()
    assert header.split(",")[0] == "cycle" and rows
    assert "samples" in capsys.readouterr().out
    _cache_untouched(fresh_cache)


def test_timeline_verb_json_and_trace(tmp_path, fresh_cache):
    out = tmp_path / "tl.json"
    trace = tmp_path / "counters.json"
    assert main(["timeline", *ARGS, "--out", str(out),
                 "--trace", str(trace)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bigvlittle-timeline-v1"
    assert doc["samples"] >= 1
    cdoc = json.loads(trace.read_text())
    assert any(e.get("ph") == "C" for e in cdoc["traceEvents"])
    _cache_untouched(fresh_cache)


def test_timeline_energy_columns(tmp_path, fresh_cache, capsys):
    out = tmp_path / "tl.csv"
    assert main(["timeline", *ARGS, "--out", str(out), "--energy",
                 "--big", "b2", "--little", "l0"]) == 0
    header = out.read_text().splitlines()[0].split(",")
    for col in ("big_w", "engine_w", "power_w", "energy_j", "cum_energy_j"):
        assert col in header
    assert "energy columns (b2/l0)" in capsys.readouterr().out
    _cache_untouched(fresh_cache)


def test_phases_verb_table(fresh_cache, run_spy, capsys):
    assert main(["phases", "switch_thrash", "--scale", "tiny"]) == 0
    assert run_spy["n"] == 1
    out = capsys.readouterr().out
    assert "phases:" in out
    for phase in ("scalar", "mode_switch", "vector_burst"):
        assert phase in out
    _cache_untouched(fresh_cache)


def test_phases_verb_json(tmp_path, fresh_cache):
    out = tmp_path / "phases.json"
    assert main(["phases", "switch_thrash", "--scale", "tiny", "--energy",
                 "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bigvlittle-phases-v1"
    assert doc["counts"]["vector_burst"] >= 1
    assert doc["total_energy_j"] > 0
    _cache_untouched(fresh_cache)


# ----------------------------------------------------------------- diffing


@pytest.fixture
def two_dumps(tmp_path, fresh_cache):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["profile", *ARGS, "--json", str(a)]) == 0
    assert main(["profile", *ARGS, "--json", str(b)]) == 0
    return str(a), str(b)


def test_diff_identical_runs(two_dumps, fresh_cache, capsys):
    a, b = two_dumps
    assert main(["diff", a, b]) == 0
    assert "identical: 0 deltas" in capsys.readouterr().out
    assert main(["diff", a, b, "--gate"]) == 0
    _cache_untouched(fresh_cache)


def test_diff_gate_fails_across_configs(two_dumps, tmp_path, fresh_cache,
                                        capsys):
    a, _ = two_dumps
    c = tmp_path / "c.json"
    assert main(["profile", *ARGS, "--system", "1bDV", "--json", str(c)]) == 0
    assert main(["diff", a, str(c)]) == 0  # report-only never gates
    assert main(["diff", a, str(c), "--gate"]) == 1
    assert "GATE FAILED" in capsys.readouterr().out
    _cache_untouched(fresh_cache)


def test_diff_gate_tolerance(two_dumps, tmp_path, capsys):
    """A 1% drift in time_ps fails the gate, and no flag forgives it."""
    a, _ = two_dumps
    doc = json.loads(open(a).read())
    doc["stats"]["cycles_1ghz"] = int(doc["stats"]["cycles_1ghz"] * 1.01)
    doc["stats"]["time_ps"] = doc["stats"]["cycles_1ghz"] * 1000
    b = tmp_path / "drift.json"
    b.write_text(json.dumps(doc))
    assert main(["diff", a, str(b), "--gate"]) == 1
    for flag in (["--rel-tol", "0.05"], ["--tolerances", "x.json"]):
        with pytest.raises(SystemExit) as exc:
            main(["diff", a, str(b), "--gate", *flag])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.fixture
def two_timelines(tmp_path, fresh_cache):
    a = tmp_path / "tla.json"
    b = tmp_path / "tlb.json"
    for path in (a, b):
        assert main(["timeline", *ARGS, "--out", str(path),
                     "--interval", "100"]) == 0
    return str(a), str(b)


def test_diff_timeline_identical(two_timelines, capsys):
    a, b = two_timelines
    assert main(["diff", "--timeline", a, b, "--gate"]) == 0
    assert "identical: all" in capsys.readouterr().out


def test_diff_timeline_localizes_divergence(two_timelines, tmp_path, capsys):
    a, b = two_timelines
    doc = json.loads(open(b).read())
    k = len(doc["series"]["cycle"]) // 2
    cyc = doc["series"]["cycle"][k]
    doc["series"]["ipc_big"][k] += 1.0
    mutated = tmp_path / "mut.json"
    mutated.write_text(json.dumps(doc))
    assert main(["diff", "--timeline", a, str(mutated)]) == 0  # report-only
    assert main(["diff", "--timeline", a, str(mutated), "--gate"]) == 1
    out = capsys.readouterr().out
    assert f"FIRST DIVERGENCE at cycle {cyc} (column ipc_big)" in out
    assert "GATE FAILED" in out


# ------------------------------------------- the wrong kind of dump: exit 2


def _assert_load_refused(capsys, path, mode_hint):
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert path in line and mode_hint in line


def test_diff_refuses_identical_timeline_dumps(two_timelines, capsys):
    """Two identical timeline dumps are not two identical runs: a stats
    diff of them used to print ``identical: 0 deltas`` and pass."""
    a, b = two_timelines
    assert main(["diff", a, b, "--gate"]) == 2
    _assert_load_refused(capsys, a, "with --timeline")


def test_diff_refuses_differing_timeline_dumps(two_timelines, tmp_path,
                                               capsys):
    a, b = two_timelines
    doc = json.loads(open(b).read())
    doc["series"]["ipc_big"][0] += 1.0
    mutated = tmp_path / "mut.json"
    mutated.write_text(json.dumps(doc))
    assert main(["diff", a, str(mutated), "--gate"]) == 2
    _assert_load_refused(capsys, a, "with --timeline")


def test_diff_timeline_refuses_different_intervals(two_timelines, tmp_path,
                                                   capsys):
    """Timelines sampled at different intervals cannot be aligned: one
    stderr line naming both intervals and exit 2, not a traceback and
    the exit code of a gated regression."""
    a, _ = two_timelines
    b = str(tmp_path / "tl200.json")
    assert main(["timeline", *ARGS, "--out", b, "--interval", "200"]) == 0
    capsys.readouterr()
    assert main(["diff", "--timeline", a, b, "--gate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert a in line and b in line and "(100 vs 200 cycles)" in line


def test_diff_timeline_refuses_run_dumps(two_dumps, capsys):
    a, b = two_dumps
    assert main(["diff", "--timeline", a, b, "--gate"]) == 2
    _assert_load_refused(capsys, a, "without --timeline")
