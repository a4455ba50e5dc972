"""Host-side profiling: where does the *simulator* spend wall-time?

Everything else in :mod:`repro.obs` watches the simulated machine; this
module watches the simulation. A :class:`HostScope` attaches to one run
of the event-driven core (``System.run(..., hostscope=HostScope())``)
and attributes host wall-seconds to per-component **unit groups** —
``big`` / ``little`` / ``vcu`` / ``vmu`` / ``vxu`` / ``dve`` / ``l2`` /
``dram`` / ``mem`` / ``scheduler``, plus the ``vcu.lanes.batch`` /
``vcu.lanes.scalar`` executor split nested under the VLITTLE engine —
by timing the event core's per-unit dispatch with the monotonic clock,
plus a handful of nested seams (VMU/VXU inside the engine tick, L2/DRAM
request processing inside whichever unit triggered it). The dispatched
units and their groups are the rows of ``System.units()``: the event
core wraps each unit's tick with :meth:`HostScope.wrap` in the pass
that plants its wakeup hooks, before any CritPath wrapper.

Attribution is *exclusive*: a nested timed region's wall-time is
subtracted from its enclosing region via a scope stack, so the group
walls tile the run and ``scheduler`` (the event core's own select /
re-arm / settle overhead) is the measured residual — total run wall
minus the sum of all dispatched work. Coverage is therefore exact by
construction at ``stride=1``; a sampling ``stride > 1`` times only every
N-th dispatch per group (event counts stay exact) and extrapolates, for
workloads where even the paired ``perf_counter`` calls would distort the
measurement.

Like :class:`~repro.obs.hooks.Observation`, a HostScope is a null-object
opt-in: nothing in the simulator references it unless one is attached,
``stats`` stay bit-identical with and without it (the determinism tests
enforce this), and it is never part of :class:`~repro.soc.SoCConfig` or
cache keys. Unlike an Observation it requires the event loop
(``skip=True``, the default) — the dense loop has no per-unit dispatch
seam to hook.

The report (``bigvlittle-hostprof-v1``; CLI ``bigvlittle hostprof``)
answers the ROADMAP's vectorization question with a measurement: the
group with the largest host share is what to batch next.

.. note::
   The nested seams are installed as class-level method wrappers for the
   duration of the one profiled run (restored in a ``finally``), so only
   one hostscoped run may be active per process at a time.
"""

from __future__ import annotations

import time

from repro.errors import ConfigError

SCHEMA = "bigvlittle-hostprof-v1"

#: canonical group order for reports (groups with zero events are elided)
GROUPS = ("big", "little", "vcu", "vcu.lanes.batch", "vcu.lanes.scalar",
          "vmu", "vxu", "dve", "l2", "dram", "mem", "scheduler")

# per-group record layout: [inclusive_s, child_s, calls, sampled]
_INCL, _CHILD, _CALLS, _SAMPLED = range(4)


class HostScope:
    """Per-unit-group host wall-time attribution for one event-core run."""

    __slots__ = ("stride", "wall_s", "loop_events", "finalized",
                 "_recs", "_stack", "_patches", "_flushes")

    def __init__(self, stride=1):
        if not isinstance(stride, int) or stride < 1:
            raise ConfigError(f"hostscope stride must be a positive int, "
                              f"got {stride!r}")
        self.stride = stride
        self.wall_s = 0.0
        self.loop_events = 0
        self.finalized = False
        self._recs = {}
        self._stack = []
        self._patches = []
        self._flushes = []  # sampled wrappers' deferred call-count writers

    # ---------------------------------------------------------------- wiring

    def _rec(self, group):
        rec = self._recs.get(group)
        if rec is None:
            rec = self._recs[group] = [0.0, 0.0, 0, 0]
        return rec

    def wrap(self, fn, group, arity=None):
        """Wrap ``fn`` so each call's wall-time accrues to ``group``.

        The scope stack makes attribution exclusive: time spent inside a
        nested timed call is charged to the inner group and subtracted
        from the outer one. With ``stride > 1`` only every N-th call per
        wrapper is timed; calls are still counted exactly, via a
        countdown cell reconciled into the record at :meth:`finalize`.

        ``arity`` (1 or 2) marks seams whose every call site passes
        exactly that many positional arguments — the event core's unit
        dispatch (``tick(T)``) and the ``VMU.tick(self, now)`` class
        patch. Those wrappers skip ``*args``/``**kwargs`` packing
        entirely: they are the hottest host-side call sites in a
        profiled run, and every nanosecond on the untimed path is pure
        profiler overhead.
        """
        rec = self._rec(group)
        stack = self._stack
        stride = self.stride
        pc = time.perf_counter

        def sample(dt):
            stack.pop()
            rec[_INCL] += dt
            rec[_SAMPLED] += 1
            if stack:
                stack[-1][_CHILD] += dt

        if stride == 1:
            if arity == 1:
                def timed(a):
                    rec[_CALLS] += 1
                    stack.append(rec)
                    t0 = pc()
                    try:
                        return fn(a)
                    finally:
                        sample(pc() - t0)
            elif arity == 2:
                def timed(a, b):
                    rec[_CALLS] += 1
                    stack.append(rec)
                    t0 = pc()
                    try:
                        return fn(a, b)
                    finally:
                        sample(pc() - t0)
            else:
                def timed(*args, **kwargs):
                    rec[_CALLS] += 1
                    stack.append(rec)
                    t0 = pc()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        sample(pc() - t0)
            return timed

        # sampled mode: a countdown cell (one subtract + truth test per
        # untimed call — no modulo) picks every stride-th call to time
        n = stride
        s = 0  # timed samples taken by THIS wrapper (records are shared
        #        per group, so the call-count reconstruction needs its own)

        if arity == 1:
            def timed(a):
                nonlocal n
                n -= 1
                if n:
                    return fn(a)
                nonlocal s
                s += 1
                n = stride
                stack.append(rec)
                t0 = pc()
                try:
                    return fn(a)
                finally:
                    sample(pc() - t0)
        elif arity == 2:
            def timed(a, b):
                nonlocal n
                n -= 1
                if n:
                    return fn(a, b)
                nonlocal s
                s += 1
                n = stride
                stack.append(rec)
                t0 = pc()
                try:
                    return fn(a, b)
                finally:
                    sample(pc() - t0)
        else:
            def timed(*args, **kwargs):
                nonlocal n
                n -= 1
                if n:
                    return fn(*args, **kwargs)
                nonlocal s
                s += 1
                n = stride
                stack.append(rec)
                t0 = pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sample(pc() - t0)

        def flush():
            nonlocal n, s
            # calls = completed sample cycles plus the partial countdown
            rec[_CALLS] += s * stride + (stride - n)
            n = stride
            s = 0

        self._flushes.append(flush)
        return timed

    def install(self, system):
        """Patch the nested sub-unit seams for one run of ``system``.

        The event core times whole unit dispatches (``big`` / ``little``
        / ``vcu`` / ``dve`` / ``mem``); the seams below split out the
        work nested inside them. Class-level patches — restore with
        :meth:`uninstall` in a ``finally``.
        """
        from repro.mem.dram import DRAM
        from repro.mem.l2 import L2Cache
        from repro.vector import VLittleEngine

        patches = [
            # the request path is where L2/DRAM host time is actually
            # spent — the "mem" unit tick only drains L1 response queues
            (L2Cache, "request", "l2", None),
            (L2Cache, "writeback", "l2", None),
            (DRAM, "request", "dram", None),
        ]
        if isinstance(system.engine, VLittleEngine):
            from repro.vector.vmu import VectorMemoryUnit
            from repro.vector.vxu import VXU

            from repro.vector.vlittle import Lane

            patches += [
                # the engine drives the VMU as ``self.vmu.tick(now)`` —
                # always exactly two positionals, so the cheap wrapper
                (VectorMemoryUnit, "tick", "vmu", 2),
                (VXU, "start", "vxu", None),
                (VXU, "read_arrived", "vxu", None),
                (VXU, "result_ready", "vxu", None),
                # lane execution, split by executor: the chime-batched
                # leader+mirror step vs the per-lane scalar path it
                # falls back to on divergence. Both are sub-rows of
                # ``vcu`` — their wall-time is subtracted from the
                # engine tick by the scope stack
                (VLittleEngine, "_batch_tick", "vcu.lanes.batch", 2),
                (Lane, "tick", "vcu.lanes.scalar", 2),
            ]
        for cls, name, group, arity in patches:
            orig = getattr(cls, name)
            setattr(cls, name, self.wrap(orig, group, arity=arity))
            self._patches.append((cls, name, orig))

    def uninstall(self):
        """Restore every class-level seam patched by :meth:`install`."""
        while self._patches:
            cls, name, orig = self._patches.pop()
            setattr(cls, name, orig)

    def finalize(self, wall_s, loop_events=0):
        """Close the scope after the run: record total wall and derive the
        ``scheduler`` residual (select / re-arm / settle / boundary
        overhead = run wall minus all dispatched work)."""
        self.wall_s = wall_s
        self.loop_events = loop_events
        for fl in self._flushes:
            fl()
        dispatched = sum(self._excl_est(g) for g in self._recs)
        sched = self._rec("scheduler")
        sched[_INCL] = max(0.0, wall_s - dispatched)
        # calls == sampled keeps the extrapolation factor at exactly 1
        # for the residual (it is measured, not sampled)
        sched[_CALLS] = sched[_SAMPLED] = max(loop_events, 1)
        self.finalized = True

    # --------------------------------------------------------------- reports

    def _excl_est(self, group):
        """Stride-extrapolated exclusive wall-seconds for ``group``."""
        rec = self._recs[group]
        if not rec[_SAMPLED]:
            return 0.0
        excl = rec[_INCL] - rec[_CHILD]
        return excl * (rec[_CALLS] / rec[_SAMPLED])

    def group_rows(self):
        """Per-group attribution rows, canonical order, zero-event groups
        elided (``scheduler`` always present once finalized)."""
        rows = []
        wall = self.wall_s
        order = list(GROUPS) + sorted(set(self._recs) - set(GROUPS))
        for group in order:
            rec = self._recs.get(group)
            if rec is None or (rec[_CALLS] == 0 and group != "scheduler"):
                continue
            excl = self._excl_est(group)
            rows.append({
                "group": group,
                "wall_s": excl,
                "incl_s": rec[_INCL] * (rec[_CALLS] / rec[_SAMPLED])
                if rec[_SAMPLED] else 0.0,
                "events": rec[_CALLS],
                "sampled": rec[_SAMPLED],
                "share": excl / wall if wall > 0 else 0.0,
            })
        rows.sort(key=lambda r: (-r["wall_s"], r["group"]))
        return rows

    def report(self, meta=None):
        """The ``bigvlittle-hostprof-v1`` document (JSON-safe dict)."""
        rows = self.group_rows()
        attributed = sum(r["wall_s"] for r in rows)
        doc = {
            "schema": SCHEMA,
            "wall_s": round(self.wall_s, 6),
            "attributed_s": round(attributed, 6),
            "coverage": round(attributed / self.wall_s, 4)
            if self.wall_s > 0 else 0.0,
            "stride": self.stride,
            "loop_events": self.loop_events,
            "groups": [
                {"group": r["group"],
                 "wall_s": round(r["wall_s"], 6),
                 "incl_s": round(r["incl_s"], 6),
                 "events": r["events"],
                 "sampled": r["sampled"],
                 "share": round(r["share"], 4)}
                for r in rows
            ],
        }
        if meta:
            doc["meta"] = dict(meta)
        return doc

    def format_table(self, top=None):
        """Text report: one row per group, largest host share first."""
        rows = self.group_rows()
        if top is not None:
            rows = rows[:top]
        hdr = (f"{'group':<16} {'wall':>10} {'share':>7} {'events':>10} "
               f"{'us/event':>9}")
        lines = [hdr, "-" * len(hdr)]
        for r in rows:
            per = (r["wall_s"] / r["events"] * 1e6) if r["events"] else 0.0
            lines.append(f"{r['group']:<16} {r['wall_s'] * 1000:>8.1f}ms "
                         f"{r['share'] * 100:>6.1f}% {r['events']:>10} "
                         f"{per:>9.2f}")
        attributed = sum(r["wall_s"] for r in self.group_rows())
        cov = attributed / self.wall_s * 100 if self.wall_s > 0 else 0.0
        lines.append(f"{'total':<16} {self.wall_s * 1000:>8.1f}ms "
                     f"(attributed {attributed * 1000:.1f}ms = {cov:.1f}%, "
                     f"stride {self.stride})")
        return "\n".join(lines)

    def __repr__(self):
        return (f"<HostScope stride={self.stride} "
                f"groups={len(self._recs)} wall_s={self.wall_s:.3f}>")

