"""Cross-run stat comparison and regression gating (``repro.obs.diff``).

A run dump is the canonical machine-readable outcome of one simulation:
``RunResult.to_dict()`` (or the superset printed by
``bigvlittle profile --json``) — a flat ``stats`` mapping of deterministic
integers. This module diffs two such dumps and *classifies* every delta:

* **exact** — every stat of the simulated outcome: instruction and µop
  counts, cache/DRAM access counts, ``time_ps`` and the cycle counts,
  stall breakdowns, ``obs.cycles.*`` and ``obs.metric.*`` instruments.
  Every paper figure is a function of these, so they must be
  bit-identical between runs of the same configuration; any delta is a
  regression.
* **meta** — simulator/observability bookkeeping (``sim.ticks_*``
  executed/skipped tick accounting, trace event counts, pipeview window
  accounting, sampler sample counts). Reported, never gated: the
  quiescence-skipping scheduler changes how many loop iterations run
  without changing the simulated outcome.

Beyond scalar run dumps, :func:`diff_timelines` compares two
``bigvlittle-timeline-v1`` interval dumps (``bigvlittle timeline``):
rows are aligned on their ``cycle`` values (not array position, so a
prefix that merely shifted still lines up), every shared column must
match exactly, and the report localizes *where* the runs first diverge
— the earliest differing cycle per column and overall — instead of only
saying that end-of-run totals moved.

``bigvlittle diff a.json b.json [--gate]`` wraps this for the CLI and CI:
identical runs exit 0; under ``--gate`` any delta in a non-meta stat
exits 1. ``bigvlittle diff --timeline a.json b.json`` switches to
timeline mode.
"""

from __future__ import annotations

import json

EXACT = "exact"
META = "meta"

RUN_DUMP_SCHEMA = "bigvlittle-run-v1"

_META_PREFIXES = ("obs.trace.", "obs.pipeview.", "obs.sampler.", "sim.ticks_",
                  # scheduler-shaped bookkeeping: the forced-scalar
                  # differential arm never enters batch mode
                  "obs.metric.vcu.batch_fallbacks")


def classify(key):
    """Classify one stats key as ``exact`` | ``meta``."""
    return META if key.startswith(_META_PREFIXES) else EXACT


class Delta:
    """One differing stats key."""

    __slots__ = ("key", "kind", "a", "b")

    def __init__(self, key, kind, a, b):
        self.key = key
        self.kind = kind
        self.a = a
        self.b = b

    @property
    def rel(self):
        """Relative magnitude of the change, in [0, 1]."""
        denom = max(abs(self.a), abs(self.b))
        return abs(self.a - self.b) / denom if denom else 0.0

    def __repr__(self):
        return f"<Delta {self.key} [{self.kind}] {self.a} -> {self.b}>"


class DiffReport:
    """Classified comparison of two run dumps."""

    def __init__(self, a_name, b_name, deltas, only_a, only_b):
        self.a_name = a_name
        self.b_name = b_name
        self.deltas = deltas  # [Delta], keys present in both with a != b
        self.only_a = only_a  # keys present only in dump a
        self.only_b = only_b  # keys present only in dump b

    @property
    def identical(self):
        """No delta and no one-sided key, META included."""
        return not self.deltas and not self.only_a and not self.only_b

    def _gated_missing(self):
        """Missing keys that matter: obs.* keys legitimately differ when
        one run was observed more deeply than the other, and meta keys
        (e.g. ``sim.ticks_skipped_*``) may appear or vanish across
        scheduler versions without changing the simulated outcome."""
        return [k for k in self.only_a + self.only_b
                if not k.startswith("obs.") and classify(k) != META]

    def regressions(self):
        """Deltas that fail the gate (every exact-class one), largest
        relative change first."""
        out = [d for d in self.deltas if d.kind == EXACT]
        out.sort(key=lambda d: (-d.rel, d.key))
        return out

    @property
    def ok(self):
        """The gate passes: no exact-class delta, no gated missing key."""
        return not self.regressions() and not self._gated_missing()

    def counts(self):
        c = {EXACT: 0, META: 0}
        for d in self.deltas:
            c[d.kind] += 1
        return c

    # ------------------------------------------------------------- rendering

    def format_table(self, top=25):
        lines = [f"diff: {self.a_name}  vs  {self.b_name}"]
        if self.identical:
            lines.append("identical: 0 deltas")
            return "\n".join(lines)
        c = self.counts()
        lines.append(f"{len(self.deltas)} differing keys "
                     f"({c[EXACT]} gated, {c[META]} meta); "
                     f"{len(self.only_a)} only in a, {len(self.only_b)} only in b")
        hdr = f"{'key':<44} {'class':<7} {'a':>14} {'b':>14} {'rel':>8}"
        lines += [hdr, "-" * len(hdr)]
        shown = sorted(self.deltas, key=lambda d: (-d.rel, d.key))[:top]
        for d in shown:
            flag = "  <- gate" if d.kind == EXACT else ""
            lines.append(f"{d.key:<44} {d.kind:<7} {d.a:>14} {d.b:>14} "
                         f"{d.rel:>7.2%}{flag}")
        if len(self.deltas) > top:
            lines.append(f"... and {len(self.deltas) - top} more")
        for k in self._gated_missing()[:10]:
            side = "a" if k in self.only_a else "b"
            lines.append(f"{k:<44} only in {side}  <- gate")
        return "\n".join(lines)


def diff_stats(a_stats, b_stats, a_name="a", b_name="b"):
    """Diff two flat stats mappings into a :class:`DiffReport`."""
    deltas = []
    only_a, only_b = [], []
    for k in sorted(set(a_stats) | set(b_stats)):
        if k not in a_stats:
            only_b.append(k)
        elif k not in b_stats:
            only_a.append(k)
        elif a_stats[k] != b_stats[k]:
            deltas.append(Delta(k, classify(k), a_stats[k], b_stats[k]))
    return DiffReport(a_name, b_name, deltas, only_a, only_b)


def dump_result(result, extra=None):
    """Canonical JSON-safe dump of a :class:`~repro.stats.RunResult`."""
    doc = {
        "schema": RUN_DUMP_SCHEMA,
        "name": result.name,
        "system": result.system,
        "cycles": result.cycles,
        "stats": dict(result.stats),
    }
    if extra:
        doc.update(extra)
    return doc


def load_dump(path):
    """Load a run dump; returns ``(display_name, stats_dict)``.

    Accepts the canonical run-dump schema, ``RunResult.to_dict()`` output,
    ``bigvlittle profile --json`` output, or a bare flat stats mapping;
    refuses any other ``schema`` (a timeline dump, say).
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    schema = doc.get("schema", RUN_DUMP_SCHEMA)
    if schema != RUN_DUMP_SCHEMA:
        raise ValueError(f"{path}: a {schema!r} document, not a "
                         f"{RUN_DUMP_SCHEMA} run dump")
    stats = doc.get("stats", doc)
    if not isinstance(stats, dict) or not stats:
        raise ValueError(f"{path}: no 'stats' mapping found")
    name = doc.get("system") or doc.get("name") or path
    wl = doc.get("workload") or (doc.get("name") if doc.get("system") else None)
    if doc.get("system") and wl:
        name = f"{doc['system']}:{wl}"
    return str(name), stats


def diff_files(path_a, path_b):
    """Diff two run-dump files into a :class:`DiffReport`."""
    a_name, a_stats = load_dump(path_a)
    b_name, b_stats = load_dump(path_b)
    return diff_stats(a_stats, b_stats, a_name, b_name)


# --------------------------------------------------------------- timelines


class ColumnDiff:
    """Comparison of one timeline column over the aligned cycle range."""

    __slots__ = ("column", "n_compared", "n_diverged", "first_cycle",
                 "max_rel", "max_rel_cycle")

    def __init__(self, column):
        self.column = column
        self.n_compared = 0
        self.n_diverged = 0        # rows whose values differ
        self.first_cycle = None    # cycle of the first differing row
        self.max_rel = 0.0
        self.max_rel_cycle = None

    def compare(self, cycle, va, vb):
        self.n_compared += 1
        if va == vb:
            return
        self.n_diverged += 1
        if self.first_cycle is None:
            self.first_cycle = cycle
        rel = abs(va - vb) / max(abs(va), abs(vb))
        if rel > self.max_rel:
            self.max_rel = rel
            self.max_rel_cycle = cycle

    def as_dict(self):
        return {
            "column": self.column,
            "n_compared": self.n_compared,
            "n_diverged": self.n_diverged,
            "first_cycle": self.first_cycle,
            "max_rel": self.max_rel,
            "max_rel_cycle": self.max_rel_cycle,
        }


class TimelineDiffReport:
    """Cycle-aligned comparison of two ``bigvlittle-timeline-v1`` dumps."""

    def __init__(self, a_name, b_name, interval_cycles, columns,
                 n_aligned, n_only_a, n_only_b, cols_only_a, cols_only_b):
        self.a_name = a_name
        self.b_name = b_name
        self.interval_cycles = interval_cycles
        self.columns = columns        # {column -> ColumnDiff}, shared cols
        self.n_aligned = n_aligned    # rows whose cycle exists in both
        self.n_only_a = n_only_a      # a-rows with no b row at that cycle
        self.n_only_b = n_only_b
        self.cols_only_a = cols_only_a  # e.g. energy columns on one side
        self.cols_only_b = cols_only_b

    def diverged(self):
        """Columns with at least one differing row, worst first."""
        out = [c for c in self.columns.values() if c.n_diverged]
        out.sort(key=lambda c: (-c.max_rel, c.column))
        return out

    def first_divergence(self):
        """``(cycle, column)`` of the earliest differing sample, or None
        when every aligned sample matches."""
        firsts = [(c.first_cycle, c.column) for c in self.columns.values()
                  if c.first_cycle is not None]
        return min(firsts) if firsts else None

    @property
    def ok(self):
        """The gate passes: some rows align and every aligned sample of
        every shared column matches exactly."""
        return self.n_aligned > 0 and not self.diverged()

    def as_dict(self):
        first = self.first_divergence()
        return {
            "a": self.a_name,
            "b": self.b_name,
            "interval_cycles": self.interval_cycles,
            "n_aligned": self.n_aligned,
            "n_only_a": self.n_only_a,
            "n_only_b": self.n_only_b,
            "columns_only_a": list(self.cols_only_a),
            "columns_only_b": list(self.cols_only_b),
            "first_divergence": (
                {"cycle": first[0], "column": first[1]} if first else None),
            "columns": {c: d.as_dict() for c, d in self.columns.items()},
        }

    def format_table(self, top=25):
        lines = [f"timeline diff: {self.a_name}  vs  {self.b_name}  "
                 f"(interval={self.interval_cycles} cycles)"]
        lines.append(f"{self.n_aligned} aligned rows; "
                     f"{self.n_only_a} cycles only in a, "
                     f"{self.n_only_b} only in b")
        for side, cols in (("a", self.cols_only_a), ("b", self.cols_only_b)):
            if cols:
                lines.append(f"columns only in {side} (not compared): "
                             + ", ".join(cols))
        bad = self.diverged()
        if not bad:
            lines.append(f"identical: all {len(self.columns)} shared "
                         f"columns match on every aligned row")
            return "\n".join(lines)
        first = self.first_divergence()
        lines.append(f"FIRST DIVERGENCE at cycle {first[0]} "
                     f"(column {first[1]})")
        hdr = (f"{'column':<18} {'diverged':>12} {'first@cyc':>10} "
               f"{'max rel':>9} {'@cyc':>9}")
        lines += [hdr, "-" * len(hdr)]
        for c in bad[:top]:
            lines.append(
                f"{c.column:<18} {c.n_diverged:>5}/{c.n_compared:<6} "
                f"{c.first_cycle:>10} {c.max_rel:>8.2%} {c.max_rel_cycle:>9}")
        if len(bad) > top:
            lines.append(f"... and {len(bad) - top} more columns")
        return "\n".join(lines)


def diff_timelines(a_doc, b_doc, a_name="a", b_name="b"):
    """Compare two timeline dumps into a :class:`TimelineDiffReport`.

    Rows are aligned on their ``cycle`` column values — not on array
    position — so a run whose later intervals shifted still compares its
    common prefix sample-for-sample, and the report pinpoints the first
    cycle at which any shared column differs.
    """
    for side, doc in (("a", a_doc), ("b", b_doc)):
        schema = doc.get("schema")
        if schema is not None and schema != "bigvlittle-timeline-v1":
            raise ValueError(f"{side}: unsupported timeline schema {schema!r}")
    ia = a_doc.get("interval_cycles", 1)
    ib = b_doc.get("interval_cycles", 1)
    if ia != ib:
        raise ValueError(f"cannot align timelines sampled at different "
                         f"intervals ({ia} vs {ib} cycles)")
    sa, sb = a_doc["series"], b_doc["series"]
    cols_a = [c for c in a_doc["columns"] if c != "cycle"]
    cols_b = set(b_doc["columns"]) - {"cycle"}
    shared = [c for c in cols_a if c in cols_b]
    cols_only_a = [c for c in cols_a if c not in cols_b]
    cols_only_b = [c for c in b_doc["columns"]
                   if c != "cycle" and c not in set(cols_a)]

    idx_a = {cyc: i for i, cyc in enumerate(sa["cycle"])}
    idx_b = {cyc: i for i, cyc in enumerate(sb["cycle"])}
    aligned = sorted(set(idx_a) & set(idx_b))

    columns = {c: ColumnDiff(c) for c in shared}
    for cyc in aligned:
        i, j = idx_a[cyc], idx_b[cyc]
        for c in shared:
            columns[c].compare(cyc, sa[c][i], sb[c][j])

    return TimelineDiffReport(
        a_name, b_name, ia, columns,
        n_aligned=len(aligned),
        n_only_a=len(idx_a) - len(aligned),
        n_only_b=len(idx_b) - len(aligned),
        cols_only_a=cols_only_a, cols_only_b=cols_only_b)


def diff_timeline_files(path_a, path_b):
    """Diff two timeline-dump files into a :class:`TimelineDiffReport`."""
    from repro.obs.sampler import load_timeline

    return diff_timelines(load_timeline(path_a), load_timeline(path_b),
                          a_name=path_a, b_name=path_b)
