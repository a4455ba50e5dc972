"""Deadlock forensics: structured scheduling-state snapshots.

When the watchdog fires, the interesting question is never "did we
deadlock" (the :class:`~repro.errors.DeadlockError` already says so) but
*who is asleep waiting on whom*. This module answers it: a
:func:`snapshot` probes every ticking unit's scheduling state through
the same pure seams the event core schedules with — ``next_work_ps``
bounds plus a per-component ``forensic_state`` summary (ROB / queue /
in-flight occupancies) — and assembles a **wait-for graph** with cycle
detection and a blocking frontier.

The simulator attaches the resulting ``bigvlittle-forensics-v1`` report
to every :class:`DeadlockError` it raises (watchdog *and* ``max_ns``
horizon, both run loops), as ``err.forensics``; ``bigvlittle inspect
<wl> --at-ns N`` produces the same snapshot on demand from a healthy
run. Everything here is read-only by construction — the probes are the
scheduler's own side-effect-free contracts — so taking a snapshot can
never perturb stats (determinism-tested).

Graph semantics:

* a unit's ``waits_on`` edges name what its *own* state says it is
  blocked on: ``mem`` (fills/lines in flight), the engine
  (``vcu``/``dve``: undrained dispatch, pending scalar response, a
  mode-switch drain), or the external ``source`` node (an instruction
  source that is exhausted but reports not-done — the classic wedged
  workload);
* ``cycles`` lists every dependency cycle among the units (a true
  deadlock loop);
* ``blocking_frontier`` lists the not-done units that wait on no other
  not-done unit — with no cycle, these are the units actually holding
  the run up (or wedged on an external input).
"""

from __future__ import annotations

from repro.obs.host import unit_group
from repro.vector import DecoupledVectorEngine, VLittleEngine

SCHEMA = "bigvlittle-forensics-v1"

_INF = 1 << 60

_DOMAINS = ("big", "little", "mem")


def _unit_entries(system):
    """``(name, domain, component)`` triples in the event core's ground
    order (mirrors ``repro.soc.events._build_units``, including the
    littles reconfigured as vector lanes)."""
    entries = []
    engine = system.engine
    for c in system.bigs:
        entries.append((c.core_id, 0, c))
    if isinstance(engine, DecoupledVectorEngine):
        entries.append(("dve", 0, engine))
    for c in system.littles:
        entries.append((c.core_id, 1, c))
    if isinstance(engine, VLittleEngine):
        entries.append(("vcu", 1, engine))
    entries.append(("mem", 2, system.ms))
    return entries


def _engine_name(system):
    engine = system.engine
    if isinstance(engine, VLittleEngine):
        return "vcu"
    if isinstance(engine, DecoupledVectorEngine):
        return "dve"
    return "engine"


def _find_cycles(adj):
    """Every elementary dependency cycle reachable in ``adj`` (name ->
    iterable of names), as closed paths. The graphs here have a handful
    of nodes, so a plain colored DFS is plenty."""
    cycles = []
    color = {}  # 0/absent = white, 1 = on path, 2 = finished
    path = []

    def visit(n):
        color[n] = 1
        path.append(n)
        for m in sorted(adj.get(n, ())):
            c = color.get(m, 0)
            if c == 1:
                cyc = path[path.index(m):] + [m]
                # canonicalize rotation so the same loop reports once
                base = cyc[:-1]
                k = base.index(min(base))
                canon = base[k:] + base[:k] + [base[k]]
                if canon not in cycles:
                    cycles.append(canon)
            elif c == 0:
                visit(m)
        path.pop()
        color[n] = 2

    for n in sorted(adj):
        if color.get(n, 0) == 0:
            visit(n)
    return cycles


def snapshot(system, t_ps, reason=""):
    """The ``bigvlittle-forensics-v1`` report for ``system`` at ``t_ps``.

    Read-only: every probe used is one of the scheduler's pure
    contracts, so snapshotting a live (or deadlocked, or finished)
    system never changes simulated state or stats.
    """
    engine_name = _engine_name(system)
    units = []
    edges = []
    for name, domain, obj in _unit_entries(system):
        det = obj.forensic_state(t_ps)
        done = det.pop("done")
        waits = det.pop("waits_on")
        if getattr(obj, "active", True) is False:
            # a little core reconfigured as a vector lane: permanently
            # quiescent, its cycles belong to the engine
            state, bound = "lane", None
        else:
            b = obj.next_work_ps(t_ps)
            if b <= t_ps:
                state, bound = "ready", int(b)
            elif b >= _INF:
                state, bound = "asleep", None
            else:
                state, bound = "timed", int(b)
        unit = {
            "unit": name,
            "group": unit_group(name, domain),
            "domain": _DOMAINS[domain],
            "state": state,
            "next_work_ps": bound,
            "done": done,
            "waits_on": [],
            "detail": det,
        }
        for target, why in waits:
            if target == "engine":
                target = engine_name
            unit["waits_on"].append({"on": target, "why": why})
            edges.append({"waiter": name, "on": target, "why": why})
        units.append(unit)

    adj = {}
    for e in edges:
        adj.setdefault(e["waiter"], set()).add(e["on"])
    cycles = _find_cycles(adj)

    busy = {u["unit"] for u in units if not u["done"]}
    frontier = [
        u["unit"] for u in units
        if u["unit"] in busy
        and not any(t in busy for t in adj.get(u["unit"], ()))
    ]

    return {
        "schema": SCHEMA,
        "t_ps": t_ps,
        "t_ns": t_ps // 1000,
        "reason": reason,
        "system": system.config.name,
        "workload": system._name,
        "progress_signature": system._progress_signature(),
        "units": units,
        "wait_for": edges,
        "cycles": cycles,
        "blocking_frontier": frontier,
    }


def format_report(report):
    """Text rendering of a forensics report: the unit table, then the
    wait-for edges, cycles, and blocking frontier."""
    lines = [
        f"forensics @ {report['t_ps']} ps"
        + (f" ({report['reason']})" if report.get("reason") else "")
        + f" — system {report['system']}"
        + (f", workload {report['workload']}" if report["workload"] else ""),
    ]
    hdr = (f"{'unit':<8} {'group':<8} {'state':<7} {'next_work':>12} "
           f"{'done':<5} occupancy")
    lines.append(hdr)
    lines.append("-" * len(hdr))
    for u in report["units"]:
        nw = f"{u['next_work_ps']} ps" if u["next_work_ps"] is not None else "-"
        det = u["detail"]
        occ = ", ".join(
            f"{k}={v}" for k, v in det.items()
            if isinstance(v, int) and not isinstance(v, bool)
            and not k.endswith(("_ps", "_size", "_depth")) and v
        ) or "-"
        lines.append(f"{u['unit']:<8} {u['group']:<8} {u['state']:<7} "
                     f"{nw:>12} {'yes' if u['done'] else 'no':<5} {occ}")
    for e in report["wait_for"]:
        lines.append(f"  {e['waiter']} -> {e['on']}: {e['why']}")
    if report["cycles"]:
        for cyc in report["cycles"]:
            lines.append(f"cycle: {' -> '.join(cyc)}")
    else:
        lines.append("cycles: none")
    lines.append("blocking frontier: "
                 + (", ".join(report["blocking_frontier"]) or "none"))
    return "\n".join(lines)
