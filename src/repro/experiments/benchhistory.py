"""Benchmark history: an append-only ledger plus a trajectory report.

The repo's guard script (``benchmarks/guards.py --bench-json
BENCH_guards.json``) writes a ``bigvlittle-bench-v1`` JSON snapshot
(``BENCH_*.json``) of one commit's numbers, and so does each
``perfbench/run.py`` run. This module strings those snapshots into a
*trajectory*:

* ``BENCH_history.jsonl`` — an append-only ledger, one JSON object per
  line (``{"schema", "ts", "source", "note", "results"}``), where
  ``results`` is the merged ``{bench name: {metric: value}}`` of every
  snapshot present when the entry was recorded. CI appends one entry per
  run; the file is committed, so the history travels with the repo.
* ``bigvlittle bench-history`` — merges the ledger with the *current*
  working-tree snapshots into a per-benchmark trajectory report:
  regression deltas vs. the previous entry, and (with ``--html``) a
  dashboard with one sparkline per metric (rendered inline through
  :func:`repro.experiments.svgplot.sparkline` — no plotting deps).

Metric direction is inferred from the name — ``*speedup*`` /
``*improvement*`` / ``*throughput*`` count up, ``*_s`` / ``*_ms`` /
``*wall*`` / ``*overhead*`` count down, anything else is tracked but
never flagged — so a wall-time increase and a speedup decrease both
surface as regressions without per-metric configuration.

Corrupt ledger lines are skipped (with a warning), mirroring the result
cache's tolerance for damaged files: a truncated append must never brick
the dashboard.
"""

from __future__ import annotations

import glob
import json
import math
import os
import time
import warnings

SCHEMA = "bigvlittle-bench-history-v1"
BENCH_SCHEMA = "bigvlittle-bench-v1"
DEFAULT_LEDGER = "BENCH_history.jsonl"

#: relative change beyond which a directional metric counts as moved
DEFAULT_THRESHOLD = 0.05

_UP_KEYS = ("speedup", "improvement", "throughput")
_DOWN_KEYS = ("wall", "overhead", "failed")
_DOWN_SUFFIXES = ("_s", "_ms", "_us", "_mib")


def metric_direction(name):
    """+1 if larger is better, -1 if smaller is better, 0 if unknown."""
    n = name.lower()
    if any(k in n for k in _UP_KEYS):
        return 1
    if n.endswith(_DOWN_SUFFIXES) or any(k in n for k in _DOWN_KEYS):
        return -1
    return 0


# ------------------------------------------------------------------ snapshots

def find_bench_files(root="."):
    """Every ``BENCH_*.json`` snapshot under ``root`` (sorted by name)."""
    return sorted(glob.glob(os.path.join(root, "BENCH_*.json")))


def load_bench_results(paths):
    """Merge ``bigvlittle-bench-v1`` files into ``{name: {metric: value}}``.

    Later files win on duplicate benchmark names (they should not occur:
    each bench script owns a distinct name prefix).
    """
    merged = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            warnings.warn(f"unreadable bench snapshot {path} ({e!r}); "
                          f"skipping", RuntimeWarning, stacklevel=2)
            continue
        if doc.get("schema") != BENCH_SCHEMA:
            warnings.warn(f"{path} is not a {BENCH_SCHEMA} file; skipping",
                          RuntimeWarning, stacklevel=2)
            continue
        for res in doc.get("results", []):
            name = res.get("name")
            metrics = res.get("metrics")
            if name and isinstance(metrics, dict):
                merged[name] = {k: v for k, v in metrics.items()
                                if isinstance(v, (int, float))}
    return merged


# --------------------------------------------------------------------- ledger

def append_entry(ledger, bench_paths, note="", ts=None, source="local",
                 dedup=False):
    """Record the current snapshots as one ledger line; returns the entry.

    ``ts`` defaults to now; tests pass a fixed value for determinism.

    With ``dedup``, the append is skipped (returning ``None``) when the
    ledger's last entry came from the same ``source`` and carries
    byte-identical ``results`` — re-running CI or ``--append`` on an
    unchanged working tree must not pile duplicate history lines.
    """
    results = load_bench_results(bench_paths)
    if dedup:
        history = load_history(ledger)
        if history:
            tail = history[-1]
            if (tail.get("source") == source
                    and json.dumps(tail.get("results"), sort_keys=True)
                    == json.dumps(results, sort_keys=True)):
                return None
    entry = {
        "schema": SCHEMA,
        "ts": round(time.time(), 3) if ts is None else ts,
        "source": source,
        "note": note,
        "results": results,
    }
    with open(ledger, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(ledger):
    """Ledger entries in file order; corrupt lines are skipped."""
    if not os.path.exists(ledger):
        return []
    entries = []
    with open(ledger, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                warnings.warn(f"corrupt ledger line {ledger}:{lineno}; "
                              f"skipping", RuntimeWarning, stacklevel=2)
                continue
            if isinstance(entry, dict) and isinstance(
                    entry.get("results"), dict):
                entries.append(entry)
    return entries


def merged_entries(ledger, bench_paths, note="working tree", ts=None):
    """History plus one *unwritten* entry for the current snapshots.

    The trailing entry makes ``bigvlittle bench-history`` compare the
    working tree against the last recorded ledger line without touching
    the ledger; it is elided when there are no current snapshots.
    """
    entries = load_history(ledger)
    current = load_bench_results(bench_paths)
    if current:
        entries = entries + [{
            "schema": SCHEMA,
            "ts": round(time.time(), 3) if ts is None else ts,
            "source": "working-tree",
            "note": note,
            "results": current,
        }]
    return entries


# ----------------------------------------------------------------- trajectory

def trajectory(entries):
    """``{bench name: {metric: [value-or-None per entry]}}`` across
    ``entries`` (deterministic: names and metrics sorted)."""
    names = sorted({n for e in entries for n in e["results"]})
    out = {}
    for name in names:
        metrics = sorted({m for e in entries
                          for m in e["results"].get(name, {})})
        out[name] = {
            m: [e["results"].get(name, {}).get(m) for e in entries]
            for m in metrics
        }
    return out


def deltas(entries, threshold=DEFAULT_THRESHOLD):
    """Per-metric change of the last entry vs. the previous one that has
    the metric. Each row: ``{name, metric, old, new, rel, direction,
    regressed, improved}`` (directionless metrics never flag)."""
    rows = []
    if len(entries) < 2:
        return rows
    cur = entries[-1]["results"]
    for name in sorted(cur):
        for metric in sorted(cur[name]):
            new = cur[name][metric]
            old = None
            for e in reversed(entries[:-1]):
                old = e["results"].get(name, {}).get(metric)
                if old is not None:
                    break
            if old is None or not isinstance(new, (int, float)):
                continue
            # from a zero baseline any change is unbounded (0 -> 2 failed
            # ops must flag)
            rel = ((new - old) / abs(old) if old
                   else math.copysign(math.inf, new) if new else 0.0)
            d = metric_direction(metric)
            moved = abs(rel) > threshold
            rows.append({
                "name": name, "metric": metric, "old": old, "new": new,
                "rel": rel, "direction": d,
                "regressed": moved and d != 0 and rel * d < 0,
                "improved": moved and d != 0 and rel * d > 0,
            })
    rows.sort(key=lambda r: (not r["regressed"], not r["improved"],
                             -abs(r["rel"]), r["name"], r["metric"]))
    return rows


# -------------------------------------------------------------------- reports

def format_report(entries, top=None, threshold=DEFAULT_THRESHOLD):
    """Text trajectory report: entry count, regressions, biggest movers."""
    if not entries:
        return "no benchmark history (ledger empty, no BENCH_*.json found)"
    lines = [f"{len(entries)} entries, "
             f"{len(trajectory(entries))} benchmarks tracked; "
             f"latest: {entries[-1].get('source', '?')} "
             f"{entries[-1].get('note', '')}".rstrip()]
    rows = deltas(entries, threshold=threshold)
    if not rows:
        lines.append("(single entry — nothing to diff)")
        return "\n".join(lines)
    shown = rows[:top] if top else rows
    hdr = (f"{'benchmark':<42} {'metric':<24} {'prev':>10} {'now':>10} "
           f"{'change':>8}")
    lines += [hdr, "-" * len(hdr)]
    for r in shown:
        flag = (" REGRESSED" if r["regressed"]
                else " improved" if r["improved"] else "")
        lines.append(f"{r['name']:<42} {r['metric']:<24} "
                     f"{r['old']:>10.4g} {r['new']:>10.4g} "
                     f"{r['rel'] * 100:>+7.1f}%{flag}")
    n_reg = sum(1 for r in rows if r["regressed"])
    if len(shown) < len(rows):
        lines.append(f"... {len(rows) - len(shown)} more metrics")
    lines.append(f"{n_reg} regression(s) beyond {threshold * 100:.0f}% "
                 f"vs. previous entry")
    return "\n".join(lines)


def render_html(entries, out, threshold=DEFAULT_THRESHOLD):
    """Write the trajectory dashboard (inline sparkline SVG per metric)."""
    from repro.experiments.svgplot import sparkline

    traj = trajectory(entries)
    delta_by_key = {(r["name"], r["metric"]): r
                    for r in deltas(entries, threshold=threshold)}
    rows = []
    for name in sorted(traj):
        for metric, values in traj[name].items():
            numeric = [v for v in values if v is not None]
            if not numeric:
                continue
            r = delta_by_key.get((name, metric))
            cls = ("reg" if r and r["regressed"]
                   else "imp" if r and r["improved"] else "")
            change = f"{r['rel'] * 100:+.1f}%" if r else "—"
            rows.append(
                f'<tr class="{cls}"><td>{name}</td><td>{metric}</td>'
                f"<td>{sparkline(values)}</td>"
                f"<td>{numeric[-1]:.4g}</td><td>{change}</td></tr>")
    stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                          time.localtime(entries[-1]["ts"])) if entries else ""
    html = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>big.VLITTLE benchmark history</title>
<style>
body {{ font-family: Helvetica, Arial, sans-serif; margin: 2em; }}
table {{ border-collapse: collapse; }}
th, td {{ padding: 4px 10px; border-bottom: 1px solid #ddd;
          text-align: left; font-size: 13px; }}
tr.reg td {{ background: #fbe5e5; }}
tr.imp td {{ background: #e7f6e7; }}
svg {{ vertical-align: middle; }}
</style></head><body>
<h1>big.VLITTLE benchmark history</h1>
<p>{len(entries)} entries, {len(traj)} benchmarks; latest entry {stamp}
({entries[-1].get('source', '?') if entries else ''}
{entries[-1].get('note', '') if entries else ''}).
Rows are shaded when the latest value moved more than
{threshold * 100:.0f}% against its metric's direction
(red = regressed, green = improved).</p>
<table><tr><th>benchmark</th><th>metric</th><th>trajectory</th>
<th>latest</th><th>vs. prev</th></tr>
{chr(10).join(rows)}
</table></body></html>
"""
    with open(out, "w", encoding="utf-8") as f:
        f.write(html)
    return len(rows)


# ------------------------------------------------------------------------ CLI

def build_parser():
    import argparse

    ap = argparse.ArgumentParser(
        prog="bigvlittle bench-history",
        description="Merge BENCH_*.json snapshots and the BENCH_history "
                    "ledger into a benchmark trajectory report")
    ap.add_argument("--ledger", default=DEFAULT_LEDGER, metavar="PATH",
                    help=f"append-only history ledger "
                         f"(default: {DEFAULT_LEDGER})")
    ap.add_argument("--bench", nargs="*", default=None, metavar="PATH",
                    help="bench snapshot files (default: ./BENCH_*.json)")
    ap.add_argument("--append", action="store_true",
                    help="record the current snapshots as a new ledger "
                         "entry first")
    ap.add_argument("--note", default="", metavar="TEXT",
                    help="free-form provenance note for --append "
                         "(e.g. a commit hash)")
    ap.add_argument("--source", default="local", metavar="NAME",
                    help="entry source label for --append (default: local)")
    ap.add_argument("--html", default=None, metavar="OUT",
                    help="also write the sparkline dashboard to OUT")
    ap.add_argument("--json", action="store_true",
                    help="dump the merged trajectory as JSON instead of "
                         "the text report")
    ap.add_argument("--top", type=int, default=20, metavar="N",
                    help="show at most N delta rows (default: 20)")
    ap.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                    metavar="FRAC",
                    help="relative move that counts as a regression "
                         f"(default: {DEFAULT_THRESHOLD})")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)

    bench_paths = (args.bench if args.bench is not None
                   else find_bench_files())
    if args.append:
        entry = append_entry(args.ledger, bench_paths, note=args.note,
                             source=args.source, dedup=True)
        if entry is None:
            print(f"skipped append: snapshots identical to the last "
                  f"{args.source!r} entry in {args.ledger}")
        else:
            print(f"appended entry ({len(entry['results'])} benchmarks) "
                  f"to {args.ledger}")
        entries = load_history(args.ledger)
    else:
        entries = merged_entries(args.ledger, bench_paths)

    if args.json:
        print(json.dumps({"schema": SCHEMA, "entries": len(entries),
                          "trajectory": trajectory(entries)},
                         indent=1, sort_keys=True))
    else:
        print(format_report(entries, top=args.top,
                            threshold=args.threshold))
    if args.html:
        n = render_html(entries, args.html, threshold=args.threshold)
        print(f"wrote {n}-row dashboard to {args.html}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
