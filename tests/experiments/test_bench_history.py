"""Bench-history tests: ledger round-trip, merge determinism, regression
deltas, and the sparkline dashboard."""

import json

import pytest

from repro.experiments.benchhistory import (
    SCHEMA,
    append_entry,
    deltas,
    find_bench_files,
    format_report,
    load_bench_results,
    load_history,
    main,
    merged_entries,
    metric_direction,
    render_html,
    trajectory,
)


def _bench_file(path, results):
    doc = {"schema": "bigvlittle-bench-v1",
           "results": [{"name": n, "metrics": m} for n, m in results.items()]}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def snapshots(tmp_path):
    a = _bench_file(tmp_path / "BENCH_alpha.json",
                    {"alpha:saxpy": {"wall_s": 1.0, "speedup": 2.0}})
    b = _bench_file(tmp_path / "BENCH_beta.json",
                    {"beta:bfs": {"overhead_ratio": 1.04}})
    return tmp_path, [a, b]


def test_find_and_load_bench_files(snapshots):
    root, paths = snapshots
    assert find_bench_files(str(root)) == sorted(paths)
    merged = load_bench_results(paths)
    assert merged == {"alpha:saxpy": {"wall_s": 1.0, "speedup": 2.0},
                      "beta:bfs": {"overhead_ratio": 1.04}}


def test_append_and_load_roundtrip(snapshots):
    root, paths = snapshots
    ledger = root / "BENCH_history.jsonl"
    e1 = append_entry(str(ledger), paths, note="first", ts=100.0,
                      source="test")
    e2 = append_entry(str(ledger), paths, note="second", ts=200.0,
                      source="test")
    history = load_history(str(ledger))
    assert history == [e1, e2]
    assert history[0]["schema"] == SCHEMA
    assert history[0]["ts"] == 100.0 and history[1]["note"] == "second"


def test_append_dedup_skips_identical_tail(snapshots):
    root, paths = snapshots
    ledger = root / "BENCH_history.jsonl"
    assert append_entry(str(ledger), paths, ts=1.0, source="ci",
                        dedup=True) is not None
    # same snapshots, same source: a dedup append is a no-op
    assert append_entry(str(ledger), paths, ts=2.0, source="ci",
                        dedup=True) is None
    assert len(load_history(str(ledger))) == 1
    # a different source still appends even with identical results
    assert append_entry(str(ledger), paths, ts=3.0, source="local",
                        dedup=True) is not None
    # changed numbers append again
    _bench_file(root / "BENCH_alpha.json",
                {"alpha:saxpy": {"wall_s": 0.5, "speedup": 4.0}})
    assert append_entry(str(ledger), paths, ts=4.0, source="local",
                        dedup=True) is not None
    assert len(load_history(str(ledger))) == 3


def test_cli_append_dedups_and_reports_skip(snapshots, capsys):
    root, paths = snapshots
    ledger = root / "BENCH_history.jsonl"
    assert main(["--ledger", str(ledger), "--bench", *paths,
                 "--append"]) == 0
    assert main(["--ledger", str(ledger), "--bench", *paths,
                 "--append"]) == 0
    stdout = capsys.readouterr().out
    assert "appended entry" in stdout and "skipped append" in stdout
    assert len(load_history(str(ledger))) == 1


def test_merge_is_deterministic(snapshots):
    root, paths = snapshots
    ledger = root / "BENCH_history.jsonl"
    append_entry(str(ledger), paths, ts=1.0)
    append_entry(str(ledger), paths, ts=2.0)
    a = trajectory(merged_entries(str(ledger), paths, ts=3.0))
    b = trajectory(merged_entries(str(ledger), paths, ts=3.0))
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # every series spans every entry (2 ledger lines + working tree)
    assert all(len(series) == 3
               for bench in a.values() for series in bench.values())


def test_corrupt_ledger_lines_are_skipped(snapshots):
    root, paths = snapshots
    ledger = root / "BENCH_history.jsonl"
    append_entry(str(ledger), paths, ts=1.0)
    with open(ledger, "a") as f:
        f.write("{truncated\n")
    append_entry(str(ledger), paths, ts=2.0)
    with pytest.warns(RuntimeWarning, match="corrupt ledger line"):
        history = load_history(str(ledger))
    assert [e["ts"] for e in history] == [1.0, 2.0]


def test_metric_direction_heuristic():
    assert metric_direction("event_speedup") == 1
    assert metric_direction("geomean_improvement") == 1
    assert metric_direction("sim_wall_s") == -1
    assert metric_direction("overhead_ratio") == -1
    assert metric_direction("event_skipped_frac") == 0  # unknown: no flag


def test_memory_and_failed_ops_are_lower_is_better():
    """perfbench entries carry peak memory and failed-op counts: a rise in
    either is a regression the dashboard must flag."""
    for name in ("peak_rss_mib", "ops_failed", "jobs.failed"):
        assert metric_direction(name) == -1, name
    entries = [{"results": {"serve": {"peak_rss_mib": 30.0,
                                      "ops_failed": 0}}},
               {"results": {"serve": {"peak_rss_mib": 36.0,
                                      "ops_failed": 2}}}]
    rows = {r["metric"]: r for r in deltas(entries)}
    assert rows["peak_rss_mib"]["regressed"]
    assert rows["ops_failed"]["regressed"]


def test_deltas_flag_directional_moves_only():
    entries = [
        {"results": {"b": {"wall_s": 1.0, "speedup": 2.0, "frac": 0.5}}},
        {"results": {"b": {"wall_s": 1.5, "speedup": 2.4, "frac": 0.9}}},
    ]
    rows = {(r["name"], r["metric"]): r for r in deltas(entries)}
    assert rows[("b", "wall_s")]["regressed"]      # slower = bad
    assert rows[("b", "speedup")]["improved"]      # faster = good
    frac = rows[("b", "frac")]
    assert not frac["regressed"] and not frac["improved"]  # directionless
    assert rows[("b", "wall_s")]["rel"] == pytest.approx(0.5)


def test_deltas_compare_against_last_entry_with_the_metric():
    entries = [
        {"results": {"b": {"wall_s": 1.0}}},
        {"results": {"b": {}}},  # metric absent in the middle entry
        {"results": {"b": {"wall_s": 2.0}}},
    ]
    (row,) = deltas(entries)
    assert row["old"] == 1.0 and row["new"] == 2.0 and row["regressed"]


def test_format_report_lists_regressions():
    entries = [
        {"ts": 1.0, "source": "a", "note": "", "results":
            {"b": {"wall_s": 1.0}}},
        {"ts": 2.0, "source": "b", "note": "", "results":
            {"b": {"wall_s": 2.0}}},
    ]
    text = format_report(entries)
    assert "REGRESSED" in text and "1 regression(s)" in text
    assert "2 entries" in text


def test_render_html_dashboard(tmp_path):
    entries = [
        {"ts": 1.0, "source": "a", "note": "", "results":
            {"bench:x": {"wall_s": 1.0, "speedup": 2.0}}},
        {"ts": 2.0, "source": "b", "note": "", "results":
            {"bench:x": {"wall_s": 0.8, "speedup": 2.5}}},
    ]
    out = tmp_path / "dash.html"
    n = render_html(entries, str(out))
    html = out.read_text()
    assert n == 2
    assert "<svg" in html and "bench:x" in html and "speedup" in html
    assert 'class="imp"' in html  # both metrics improved


def test_cli_append_report_and_html(snapshots, capsys):
    root, paths = snapshots
    ledger = root / "BENCH_history.jsonl"
    out = root / "dash.html"
    assert main(["--ledger", str(ledger), "--bench", *paths,
                 "--append", "--note", "n1"]) == 0
    assert main(["--ledger", str(ledger), "--bench", *paths,
                 "--html", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "appended entry" in stdout and "dashboard" in stdout
    assert "<svg" in out.read_text()
    assert len(load_history(str(ledger))) == 1


def test_cli_json_dump(snapshots, capsys):
    root, paths = snapshots
    ledger = root / "BENCH_history.jsonl"
    append_entry(str(ledger), paths, ts=1.0)
    assert main(["--ledger", str(ledger), "--bench", *paths, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == SCHEMA
    assert "alpha:saxpy" in doc["trajectory"]
