"""Sim-time critical-path attribution for the event-driven core.

:mod:`repro.obs.host` answers "where does the *host* spend wall-time?";
this module answers the dual scheduling question: **which unit group
gates simulated time?** A :class:`CritPath` attaches to one run of the
event core (``System.run(..., critpath=CritPath())``) and charges every
advance of the union-grid clock to the unit group whose armed event
gated it — the first unit to *execute* at the new instant, which by the
event core's determinism rules (ties break by uid, uids are assigned in
ground order) is exactly the earliest-armed unit that forced the loop to
stop there. Spans that end in a boundary-only iteration (sampler,
watchdog, horizon — no unit executes) roll forward into the next
executing instant, so the per-group critical sim-times **tile the total
simulated time exactly**: ``sum(groups) == time_ps``, enforced by
:meth:`tiles` and the critpath tests.

Alongside the time breakdown, every ``_ev_notify`` wakeup edge is
counted (waker unit -> woken unit), giving a wakeup-graph profile: which
seams actually re-arm sleepers, and how often. CritPath counts them
itself: the event core hands each unit of ``System.units()`` (uid, name,
group, tick, hook) to :meth:`CritPath.wrap`, whose tick wrapper records
the ticking unit and whose hook wrapper counts one edge from it. The
edge where the waker is the scheduler itself (outside any unit tick) is
reported as ``external``.

Like :class:`~repro.obs.host.HostScope`, a CritPath is a null-object
opt-in: nothing in the simulator references it unless one is attached,
stats stay bit-identical with and without it (determinism-tested), and
it is never part of :class:`~repro.soc.SoCConfig` or cache keys. It
requires the event loop — the dense loop advances all domains in
lockstep and has no per-unit gating to attribute.

The report (``bigvlittle-critpath-v1``; CLI ``bigvlittle critpath``)
is the before/after measurement for the ROADMAP's vectorized-lane-
execution work: the group carrying the largest critical-sim-time share
is the one whose latency actually bounds the simulated clock.

A run that deadlocks still tiles: the span from the last executed
instant to the watchdog/horizon raise is charged to the pseudo-group
``stalled`` (no unit was armed — that is what a deadlock *is*).
"""

from __future__ import annotations

SCHEMA = "bigvlittle-critpath-v1"

#: canonical group order for reports (zero-time groups are elided);
#: ``stalled`` only appears on deadlocked runs, ``idle`` only if the
#: run ends before any unit ever executes (not reachable in practice)
GROUPS = ("big", "little", "vcu", "dve", "mem", "stalled", "idle")


class CritPath:
    """Per-unit-group critical-sim-time attribution for one event-core run."""

    __slots__ = ("total_ps", "finalized", "edges",
                 "_crit", "_gates", "_units", "_cur")

    def __init__(self):
        self.total_ps = 0
        self.finalized = False
        #: ``(waker_uid, wakee_uid) -> count`` of ``_ev_notify`` firings;
        #: waker ``-1`` means outside any unit tick (scheduler/boundary)
        self.edges = {}
        self._crit = {}   # group -> critical sim ps
        self._gates = {}  # group -> union-grid advances this group gated
        self._units = {}  # uid -> (name, group)
        # [last charged instant marker, last charged instant, last group,
        # ticking unit id]: the marker equals the instant of the most
        # recent charge so that only the *first* executing unit at a new
        # T pays for the advance; the ticking unit is -1 between ticks
        self._cur = [-1, 0, None, -1]

    # ---------------------------------------------------------------- wiring

    def wrap(self, uid, name, group, tick, hook):
        """Register one event-core unit and wrap its ``tick(T)`` and its
        ``_ev_notify`` hook; returns the wrapped ``(tick, hook)`` pair.

        The tick wrapper charges the span since the previous charged
        instant to ``group`` on the first execution at each new
        union-grid instant. The event core services units in ground
        order within one iteration, so the first wrapper to observe a new
        ``T`` belongs to the lowest-uid executing unit — the tie-break
        the module docstring promises. It also marks ``uid`` as the
        ticking unit while the tick runs, so the hook wrapper can count
        the wake edge from that unit (``-1`` outside any tick) to this
        one. Pure bookkeeping: simulated state is untouched.
        """
        self._units[uid] = (name, group)
        crit = self._crit
        gates = self._gates
        crit.setdefault(group, 0)
        gates.setdefault(group, 0)
        cur = self._cur
        edges = self.edges

        def gated(T):
            if T != cur[0]:
                crit[group] += T - cur[1]
                gates[group] += 1
                cur[0] = T
                cur[1] = T
                cur[2] = group
            cur[3] = uid
            tick(T)
            cur[3] = -1

        def counted():
            hook()
            k = (cur[3], uid)
            edges[k] = edges.get(k, 0) + 1

        return gated, counted

    def finalize(self, t_ps, stalled=False):
        """Close the run at ``t_ps`` (the result's ``time_ps``, or the
        deadlock timestamp). The tail span past the last executed
        instant is charged to the last gating group — it is that
        group's final event the run drained — or to ``stalled`` when
        the run deadlocked (nothing was armed; the watchdog/horizon
        ended it)."""
        cur = self._cur
        rem = t_ps - cur[1]
        if rem > 0 or cur[2] is None:
            group = "stalled" if stalled else (cur[2] or "idle")
            self._crit[group] = self._crit.get(group, 0) + rem
            self._gates.setdefault(group, 0)
        self.total_ps = t_ps
        self.finalized = True

    # --------------------------------------------------------------- reports

    def tiles(self):
        """True when the per-group critical times sum exactly to the
        total simulated time (the attribution invariant)."""
        return sum(self._crit.values()) == self.total_ps

    def _unit_name(self, uid):
        if uid < 0:
            return "external", "external"
        ent = self._units.get(uid)
        return ent if ent is not None else (f"unit{uid}", "unknown")

    def group_rows(self):
        """Per-group attribution rows, canonical order first, zero-time
        zero-gate groups elided."""
        rows = []
        total = self.total_ps
        order = list(GROUPS) + sorted(set(self._crit) - set(GROUPS))
        for group in order:
            ps = self._crit.get(group)
            if ps is None or (ps == 0 and not self._gates.get(group, 0)):
                continue
            rows.append({
                "group": group,
                "crit_ps": ps,
                "gates": self._gates.get(group, 0),
                "share": ps / total if total > 0 else 0.0,
            })
        rows.sort(key=lambda r: (-r["crit_ps"], r["group"]))
        return rows

    def wakeup_rows(self):
        """Wakeup-graph profile: one row per (waker, wakee) seam, most
        frequent first."""
        rows = []
        for (wk, we), n in self.edges.items():
            wk_name, wk_group = self._unit_name(wk)
            we_name, we_group = self._unit_name(we)
            rows.append({
                "waker": wk_name, "waker_group": wk_group,
                "wakee": we_name, "wakee_group": we_group,
                "count": n,
            })
        rows.sort(key=lambda r: (-r["count"], r["waker"], r["wakee"]))
        return rows

    def report(self, meta=None):
        """The ``bigvlittle-critpath-v1`` document (JSON-safe dict)."""
        rows = self.group_rows()
        wakeups = self.wakeup_rows()
        doc = {
            "schema": SCHEMA,
            "total_ps": self.total_ps,
            "attributed_ps": sum(r["crit_ps"] for r in rows),
            "tiles": self.tiles(),
            "groups": [
                {"group": r["group"],
                 "crit_ps": r["crit_ps"],
                 "gates": r["gates"],
                 "share": round(r["share"], 4)}
                for r in rows
            ],
            "wakeups": wakeups,
            "wakeup_edges": sum(w["count"] for w in wakeups),
        }
        if meta:
            doc["meta"] = dict(meta)
        return doc

    def format_table(self, top=None):
        """Text report: the critical-time breakdown, then the busiest
        wakeup seams."""
        rows = self.group_rows()
        hdr = f"{'group':<10} {'crit':>14} {'share':>7} {'gates':>10}"
        lines = [hdr, "-" * len(hdr)]
        for r in rows:
            lines.append(f"{r['group']:<10} {r['crit_ps']:>11} ps "
                         f"{r['share'] * 100:>6.1f}% {r['gates']:>10}")
        lines.append(f"{'total':<10} {self.total_ps:>11} ps "
                     f"({'tiles exactly' if self.tiles() else 'GAP'})")
        wakeups = self.wakeup_rows()
        if top is not None:
            wakeups = wakeups[:top]
        if wakeups:
            lines.append("")
            hdr = f"{'waker':<10} {'wakee':<10} {'wakeups':>10}"
            lines.append(hdr)
            lines.append("-" * len(hdr))
            for w in wakeups:
                lines.append(f"{w['waker']:<10} {w['wakee']:<10} "
                             f"{w['count']:>10}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"<CritPath groups={len(self._crit)} "
                f"total_ps={self.total_ps}>")
