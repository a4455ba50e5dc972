"""Event-driven simulation core: per-unit pending-event scheduling.

The dense reference loop (``System.run(..., skip=False)``) executes
*every* unit on every tick of its domain, so one busy unit (a DRAM
burst, a vector chime) drags the whole SoC through dense cycles. This
module is the default loop (``skip=True``), a per-unit event core: each
ticking component owns a pending-event entry keyed on picoseconds — the
first domain-grid tick at or after its own ``next_work_ps()`` bound —
and only units whose entry is due at the current iteration time
execute. Idle units cost *nothing* per iteration: their per-cycle
obs/breakdown charges are deferred and settled in bulk the moment their
state is about to change.

Correctness contract (docs/performance.md):

* every stat except the ``sim.ticks_*`` executed/skipped split is
  bit-identical to ``run(skip=False)``;
* ``sim.ticks_X + sim.ticks_skipped_X`` equals the dense arm's
  executed tick count per domain;
* IntervalSampler boundaries, the deadlock watchdog, and the ``max_ns``
  horizon are serviced at exactly the union-grid instants the dense
  loop would visit, so sample series and ``DeadlockError`` timestamps
  never move;
* ``skip`` is a run-time knob only — never part of ``SoCConfig`` or
  cache keys.

Determinism rules (docs/performance.md has the full wakeup graph):

1. **Ground order.** Within one iteration at time ``T`` units are
   serviced in the dense loop's order — big cores, big-domain engine,
   little cores, little-domain engine, memory — so every executed tick
   sees exactly the state the dense loop's tick at ``T`` would have.
2. **Settle before mutate.** An idle unit's per-cycle charges are
   deferred; every path that can change state a unit's attribution or
   bound reads first *settles* the deferred window (``skip_ticks`` in
   one chunk, against the still-unchanged state) and only then mutates.
   Asynchronous inputs do this through ``_ev_notify`` hooks planted at
   the component seams: ``L2Cache.request`` (the single entry point
   into the memory side), the L1 fill waiters of both core types and
   the VMU, ``dispatch``/``end_region`` on both engines, and the
   work-stealing runtime's scheduler transitions, which wake the cores
   of parked workers.
3. **Re-arm on wakeup.** The same hooks invalidate the sleeping unit's
   cached bound, so it re-probes before it is next scheduled. The one
   dependency with no push seam — a big core armed on the engine's
   ``next_accept_ps`` — keeps a static wakeup edge, fired after an
   executed engine tick only when the accept bound actually moved
   (engine-drain wakeups for the mode-switch retire ride the engine's
   own probe going ``_INF`` in the re-arm pass, which always fires the
   edge). Probes are pure, so a spurious wakeup can never change state.
4. **Ties break by unit id.** Equal-time events are serviced by
   ascending unit id, which is ground order by construction.

**Dense bursts.** When consecutive iterations land on (near-)adjacent
grid instants the per-event machinery — bound selection, minimum
re-peeks, the re-arm pass — is pure overhead over the dense loop it
emulates, so after a short streak the loop drops into a burst: every
awake unit ticks at every slot of its domain, in ground order, with no
re-arm probes at all. Correctness rests on the probe contract alone
(ticking an awake unit before its bound only performs per-cycle
constants — exactly what ``skip_ticks`` replays), so over-executing
the awake set is stat-invisible; only the ``sim.ticks_*`` META split
moves, and its per-domain sums are preserved. Sleepers are woken by
the same hooks as ever and join the burst in ground order at their
next domain slot; the engine's push-less accept/idle edges are
re-checked after each executed engine tick when a sleeping dependent
exists. One sentinel member is probed per slot; when it goes quiet a
single sweep either promotes the next busy member to sentinel or ends
the burst, handing the gap back to the event machinery. On exit every
member — and every woken-but-not-joined sleeper — re-enters the ready
set, because the bound selection knows nothing of in-flight wakeups.

Work-stealing programs (``pure_peek=False`` sources) couple every core
through the shared task queues. Their safety comes from the probes, not
from a special mode: a core whose worker could claim a task or arrive
at a barrier on its next peek vetoes skipping whenever its front end
could peek on the next tick, so every claim happens at exactly the
dense loop's instant; a worker blocked on its *own* timers (a full ROB
behind a miss, a fetch gap, a drained source) sleeps like any other
unit. A worker whose
last claim came back empty is *parked* (waiting on worker 0's serial
body or on the barrier): until the scheduler moves, its peeks return
``None`` with no side effect, so its core sleeps like one on an empty
pure source, and ``skip_ticks`` replays the MISC charge the dense
loop's empty peeks make. The runtime fires the parked cores' hooks at
each transition (a task bag opening, the last barrier arrival, the end
of the run); the settle-then-re-probe path above then runs a woken core
later in ground order at the same instant and re-arms an earlier one at
its next slot, exactly where the dense loop's peek first sees the new
scheduler state.

**Units and instruments.** The unit table is built from
``System.units()``, the one list of a loaded system's ticking units
(name, domain, report group, component) that forensics and both tick
instruments read too. A :class:`~repro.obs.host.HostScope` and a
:class:`~repro.obs.critpath.CritPath`, passed to :func:`run_event_loop`,
attach in the same pass that plants the ``_ev_notify`` hooks: the
HostScope wraps each unit's dispatch first, the CritPath wraps outside
it and also wraps the hook, counting wake edges from the unit it saw
ticking. A run leaves through one exit, ``end``, which settles the
deferred charges, closes the ``sim.ticks_*`` split and the CritPath,
then returns the result or raises the deadlock.
"""

from __future__ import annotations

import logging
import time

from repro.errors import DeadlockError

_INF = 1 << 60

#: Deadlock-watchdog window in ps (must exceed any legitimate idle
#: period, e.g. a long mode-switch penalty). Shared with the dense
#: loop so DeadlockError timestamps are identical across loops.
WATCHDOG_PS = 20_000_000

_BIG, _LITTLE, _MEM = 0, 1, 2

#: consecutive near-adjacent productive iterations before the event
#: loop drops into the dense-burst regime (tick every awake unit, skip
#: the ready-set machinery), and the instant gap (in min-period slots)
#: two productive iterations may be apart and still count toward that
#: streak
_BURST_AFTER = 12
_BURST_GAP_SLOTS = 1

#: watchdog / horizon diagnostics go through one logger, shared by both
#: run loops so the text channel matches the shared DeadlockError
#: construction below
_wdlog = logging.getLogger("repro.soc.watchdog")


def _grab_forensics(system, t_ps, reason):
    """Best-effort scheduling snapshot for a DeadlockError: the probes
    are pure, but an error-path diagnostic must never mask the deadlock
    it is describing, so any snapshot failure degrades to None."""
    try:
        from repro.obs.forensics import snapshot
        return snapshot(system, t_ps, reason=reason)
    except Exception:
        return None


def progress_check(system, t_ps, last_instrs, loop):
    """One watchdog window's progress check, shared by both run loops:
    returns ``(stalled, signature)`` and logs the diagnostic at debug
    level (silent by default)."""
    instrs = system._progress_signature()
    stalled = instrs == last_instrs
    if _wdlog.isEnabledFor(logging.DEBUG):
        _wdlog.debug("watchdog progress check loop=%s signature=%s "
                     "stalled=%s t_ps=%s window_ps=%s", loop, instrs,
                     stalled, t_ps, WATCHDOG_PS)
    return stalled, instrs


def watchdog_deadlock(system, t_ps, loop):
    """The watchdog's DeadlockError — one constructor for both run loops
    keeps the message and timestamp bit-identical across them — with the
    forensics snapshot attached and the failure logged (error level: a
    stalled simulation is always a bug in the workload or the model)."""
    detail = f"no instruction progress in system {system.config.name}"
    rep = _grab_forensics(system, t_ps, reason="watchdog")
    _wdlog.error("%s frontier=%s loop=%s t_ps=%s window_ps=%s", detail,
                 ",".join(rep["blocking_frontier"]) if rep else "", loop,
                 t_ps, WATCHDOG_PS)
    return DeadlockError(t_ps, detail, forensics=rep)


def horizon_deadlock(system, t_ps, max_ns, loop):
    """The ``max_ns``-horizon DeadlockError, forensics attached. Logged
    at debug only: hitting the horizon is often deliberate (bounded
    runs, ``bigvlittle inspect --at-ns``)."""
    if _wdlog.isEnabledFor(logging.DEBUG):
        _wdlog.debug("exceeded max_ns=%s loop=%s t_ps=%s", max_ns, loop,
                     t_ps)
    return DeadlockError(t_ps, f"exceeded max_ns={max_ns}",
                         forensics=_grab_forensics(system, t_ps,
                                                   reason="horizon"))


class _Unit:
    """Event-core bookkeeping for one ticking component.

    A unit is in exactly one scheduling state: *ready* (``exec_at == 0``
    — due at every tick of its domain until re-armed), *timed*
    (``exec_at`` holds the armed grid instant, folded into its domain's
    cached minimum) or *asleep* (``exec_at == _INF`` — waiting on a
    wakeup).
    ``charged`` is the first domain-grid slot whose per-cycle charge is
    still deferred; the settle discipline (module docstring, rule 2)
    guarantees the unit's attribution inputs are untouched over the
    whole deferred window, so one chunked ``skip_ticks`` replays it.
    """

    __slots__ = ("uid", "name", "domain", "group", "owner", "tick", "probe",
                 "skip", "exec_at", "charged", "dirty", "pending", "wakes",
                 "streak", "no_probe", "executed", "burst")

    def __init__(self, uid, name, domain, group, owner, tick, probe, skip):
        self.uid = uid
        self.name = name
        self.domain = domain
        self.group = group  # report group of the instruments (System.units)
        self.owner = owner  # object carrying the ``_ev_notify`` hook slot
        self.tick = tick
        self.probe = probe  # pure next_work_ps(now)
        self.skip = skip  # skip_ticks(n, now) compensation
        self.exec_at = 0  # everything is due at t=0, like the dense loop
        self.charged = 0  # first slot with a still-deferred cycle charge
        self.dirty = False  # cached bound invalidated by a wakeup
        self.pending = False  # queued for the end-of-iteration re-arm pass
        self.wakes = ()  # static wakeup edges (engine -> its big cores)
        self.streak = 0  # consecutive due-next-tick probe results
        self.no_probe = 0  # remaining assume-due re-arms (probe backoff)
        self.executed = 0  # executed-tick count (META, for diagnostics)
        self.burst = False  # member of the current dense burst


def _build_units(system):
    """Build the per-unit table from ``system.units()`` (ground order,
    so uids break ties in ground order); wire the static wakeup edge
    (engine accept-time -> big cores) — every other dependency re-arms
    through an ``_ev_notify`` push hook.

    Returns ``(units, statics)``. Static units are little cores
    reconfigured as vector lanes (``active`` cleared at engine
    construction, before any run, and never set again): they hold no
    runtime state, receive no inputs and never do work, so the service
    loops skip them entirely and only the bulk settle passes charge
    their constant per-cycle attribution.
    """
    units = []
    statics = []
    engine_unit = None
    ms = system.ms
    for uid, (name, domain, group, comp) in enumerate(system.units()):
        # the L2 is the single request-side entry point into the memory
        # subsystem, so it carries the memory unit's push hook
        owner = ms.l2 if comp is ms else comp
        u = _Unit(uid, name, domain, group, owner, comp.tick,
                  comp.next_work_ps, comp.skip_ticks)
        if getattr(comp, "active", True):
            units.append(u)
        else:
            u.exec_at = _INF  # permanently quiescent: settle-only
            statics.append(u)
        if comp is system.engine:
            engine_unit = u
    # a big core can sleep on the engine's next_accept_ps, which the
    # engine's own execution may pull earlier — no push seam exists for
    # that, so it stays a static wakeup edge
    if engine_unit is not None:
        engine_unit.wakes = tuple(u for u in units if u.group == "big")
    return units, statics


def _settle_all(units, tb, tl, tm, periods):
    """Charge every still-deferred idle slot (needed before anything
    reads obs state: sampler boundaries, run results, deadlock exits).
    Valid at any time — the settle-before-mutate discipline guarantees
    each deferred window saw no input since it began."""
    for u in units:
        d = u.domain
        target = tb if d == 0 else (tl if d == 1 else tm)
        c = u.charged
        if c < target:
            p = periods[d]
            u.skip((target - c) // p, c)
            u.charged = target


def run_event_loop(system, max_ns, hostscope=None, critpath=None):
    """Drive ``system`` to completion with the per-unit event core.

    Mirrors ``System.run``'s dense semantics exactly (see module
    docstring); returns the same :class:`RunResult` and raises the same
    :class:`DeadlockError` timestamps. ``hostscope`` (a
    :class:`~repro.obs.host.HostScope`) and ``critpath`` (a
    :class:`~repro.obs.critpath.CritPath`) wrap every unit's dispatch
    (module docstring, "Units and instruments").
    """
    pb, pl, pm = periods = (system._pb, system._pl, system._pm)
    units, statics = _build_units(system)
    allunits = units + statics
    bunits = [u for u in units if u.domain == _BIG]
    lunits = [u for u in units if u.domain == _LITTLE]
    munits = [u for u in units if u.domain == _MEM]
    bigs = system.bigs
    big1 = bigs[0] if len(bigs) == 1 else None
    # single-unit domains (always mem; big/little in most presets) keep
    # their cached minimum exact — the unit's own armed instant — and
    # skip the re-peek scan entirely
    b1 = bunits[0] if len(bunits) == 1 else None
    l1u = lunits[0] if len(lunits) == 1 else None
    m1 = munits[0] if len(munits) == 1 else None
    # every serviced unit starts ready: the dense loop ticks them at t=0
    rn0, rn1, rn2 = len(bunits), len(lunits), len(munits)
    dirty_n = [0, 0, 0]
    # hook context shared with the _ev_notify closures:
    # [T, ticking unit id, big clock, little clock, mem clock]
    hctx = [0, -1, 0, 0, 0]
    pend = []  # units awaiting the end-of-iteration re-arm pass

    def make_hook(u):
        d = u.domain
        p = periods[d]
        skip = u.skip

        def hook():
            # an input is about to mutate this unit's state: settle the
            # deferred charge window first, against the pre-input state —
            # up to and including the slot at T once the unit's ground-
            # order turn this iteration has passed, else up to T
            upto = hctx[2 + d]
            if upto == hctx[0] and u.uid < hctx[1]:
                upto += p
            c = u.charged
            if c < upto:
                skip((upto - c) // p, c)
                u.charged = upto
            if not u.dirty:
                u.dirty = True
                dirty_n[d] += 1
                if not u.pending:
                    u.pending = True
                    pend.append(u)

        return hook

    # one pass plants every unit's push hook and attaches the
    # instruments. The hostscope times each dispatch (probes and
    # skip_ticks stay unwrapped: they are scheduler overhead, charged to
    # its residual) and patches the nested sub-unit seams; the critpath
    # wraps outside it, so its bookkeeping lands in that residual too,
    # and it wraps the hook to count wake edges. With neither attached
    # the hot loop calls the bare ticks and hooks.
    hs, cp = hostscope, critpath
    for u in units:
        hook = make_hook(u)
        if hs is not None:
            u.tick = hs.wrap(u.tick, u.group, arity=1)
        if cp is not None:
            u.tick, hook = cp.wrap(u.uid, u.name, u.group, u.tick, hook)
        u.owner._ev_notify = hook
    if hs is not None:
        hs.install(system)

    tb = tm = 0  # per-domain clocks: next unserviced grid tick
    # a little domain with no dynamic unit never executes: park its
    # clock at infinity so every per-iteration check falls through. It
    # has no static unit to settle either, since cores reconfigured as
    # vector lanes only exist beside the dynamic vcu unit
    tl = 0 if lunits else _INF
    # cached per-domain minima of the timed units' armed instants, so an
    # idle domain's whole service block can be skipped with a handful of
    # integer checks. In a multi-unit domain a re-arm just lowers the
    # minimum and a unit going ready or asleep leaves it alone: each is
    # only a lower bound, re-peeked with a linear scan after an
    # iteration consumes (or disproves) it, and a stale minimum costs at
    # most one closed-as-skipped iteration
    hm0 = hm1 = hm2 = _INF
    # last engine accept bound seen by the static wakeup edge; the
    # sentinel forces the first executed engine tick to fire it
    last_na = -1
    last_idle = None  # engine idle() state, tracked only inside a burst
    # dense-burst detector: count consecutive iterations landing at
    # most a micro-gap apart (a chime cadence is dense for this
    # purpose: its gaps are cheaper to tick through than to schedule)
    minp = pb if pb <= pl and pb <= pm else (pl if pl <= pm else pm)
    gapw = _BURST_GAP_SLOTS * minp
    run_ct = 0
    prevT = -1
    executed = [0, 0, 0]
    max_ps = max_ns * 1000
    sampler = system.obs.sampler if system.obs is not None else None
    next_sample = sampler.interval_ps if sampler is not None else max_ps + 1
    wd_target = WATCHDOG_PS
    # fused lower bound on the next boundary instant: one compare per
    # iteration covers sampler, watchdog and horizon together
    bmin = min(next_sample, wd_target, max_ps)
    last_instrs = -1
    done = system._done
    system._done_blocker = None
    system._ticks_big = system._ticks_little = system._ticks_mem = 0
    system._skipped_big = system._skipped_little = system._skipped_mem = 0
    system._wall_t0 = time.perf_counter()

    def end(T, tb, tl, tm, how):
        # the run's one exit ("done", "watchdog" or "horizon"): settle
        # every deferred charge, close the META split and the critpath,
        # then return the result or raise. Every domain-grid slot in
        # [0, T] was serviced exactly once (bulk-skipped, closed idle, or
        # executed) and the dense loop executes all of them, so the
        # skipped count is the slot count minus the executed count. The
        # clocks come in as arguments: a closure over them would turn
        # the hot loop's clock reads into cell loads.
        _settle_all(allunits, tb, tl, tm, periods)
        system._ticks_big, system._ticks_little, system._ticks_mem = executed
        system._skipped_big, system._skipped_little, system._skipped_mem = (
            T // p + 1 - n for p, n in zip(periods, executed))
        system._event_unit_ticks = {u.name: u.executed for u in allunits}
        t_end = T + max(periods) if how == "done" else T
        if cp is not None:
            cp.finalize(t_end, stalled=how == "watchdog")
        if how == "done":
            return system._result(t_end)
        if how == "watchdog":
            raise watchdog_deadlock(system, T, "event")
        raise horizon_deadlock(system, T, max_ns, "event")

    try:
        while True:
            # ---- select T: earliest pending event across ready units
            # (due at their domain's next tick) and the per-domain minima
            T = _INF
            if rn0:
                T = tb
            if rn1 and tl < T:
                T = tl
            if rn2 and tm < T:
                T = tm
            if hm0 < T:
                T = hm0
            if hm1 < T:
                T = hm1
            if hm2 < T:
                T = hm2
            # clamp to the instants the dense loop must observe at their
            # original times. The fast path is one int compare against
            # the fused boundary bound; the grid math runs only when a
            # boundary is actually in reach. All are obs-independent
            # except the sampler, and its boundary stops do perturb the
            # executed/skipped split: at ``tiny`` with an interval-100
            # sampler, all six ``sim.ticks_*`` stats move on 1b-4VL
            # saxpy, backprop, jacobi2d and mmult, in both directions
            # (saxpy's little domain executes 365 ticks instead of 359,
            # jacobi2d's big domain 1673 instead of 1690), while every
            # domain's executed + skipped total holds. On 1bDV jacobi2d
            # it also moves two non-META stats (ROADMAP item 1). The
            # cause is not established.
            if T >= bmin:
                for x in (next_sample, wd_target, max_ps):
                    if T >= x:
                        # first still-unserviced union-grid instant >= x
                        # — exactly where the dense loop would service it
                        g = tb if tb >= x else tb + (x - tb + pb - 1) // pb * pb
                        g2 = tl if tl >= x else tl + (x - tl + pl - 1) // pl * pl
                        if g2 < g:
                            g = g2
                        g2 = tm if tm >= x else tm + (x - tm + pm - 1) // pm * pm
                        if g2 < g:
                            g = g2
                        if g < T:
                            T = g

            # ---- 1. advance domain clocks over the certified-idle span
            # strictly below T (every unit's bound covers it — T is the
            # earliest pending event). Per-unit charges stay deferred;
            # the skipped-slot counts fall out of the closed-form split
            # in ``end``, so nothing is tallied here.
            if tb < T:
                tb += (T - tb + pb - 1) // pb * pb
            if tl < T:
                tl += (T - tl + pl - 1) // pl * pl
            if tm < T:
                tm += (T - tm + pm - 1) // pm * pm

            # ---- 2. service every matched domain's slot at T in ground
            # order (bigs, big-domain engine, littles, little-domain
            # engine, mem); a matched domain with nothing ready, due or
            # woken is closed as one skipped cycle without touching its
            # units. Async callbacks (fills, engine responses) clamp
            # against the owning big core's now-hint; the dense loop
            # refreshes it at every big tick, so mirror that even for
            # sleeping cores.
            if big1 is not None:  # single big core: skip the loop setup
                big1._now_hint = T if tb == T else tb - pb
            elif bigs:
                nh = T if tb == T else tb - pb
                for c in bigs:
                    c._now_hint = nh  # inlined set_now_hint (hot path)
            hctx[0] = T
            hctx[2] = tb
            hctx[3] = tl
            hctx[4] = tm
            any_exec = False
            if tb == T:
                if rn0 or dirty_n[0] or hm0 == T:
                    ex = False
                    for u in bunits:
                        ea = u.exec_at
                        if u.dirty and ea > T:
                            # woken earlier this iteration: re-probe now,
                            # exactly like dense order would see it
                            if not u.probe(T):
                                ea = u.exec_at = T
                        if ea <= T:
                            c = u.charged
                            if c < T:
                                u.skip((T - c) // pb, c)
                            u.charged = T + pb
                            hctx[1] = u.uid
                            u.tick(T)
                            u.executed += 1
                            ex = True
                            if not u.pending:
                                u.pending = True
                                pend.append(u)
                            if u.wakes:
                                # the engine's only push-less effect on a
                                # big core's probe is the accept bound
                                # (idle-drain wakeups ride the INF
                                # transition in the re-arm pass), so the
                                # static edge fires only when that bound
                                # actually moved — not on every tick
                                na = u.owner.next_accept_ps(T)
                                if na != last_na:
                                    last_na = na
                                    for w in u.wakes:
                                        # ready dependents re-arm through
                                        # their own pend entry every tick
                                        # — only sleeping/timed ones need
                                        # waking
                                        if w.exec_at:
                                            if not w.dirty:
                                                w.dirty = True
                                                dirty_n[0] += 1
                                            if not w.pending:
                                                w.pending = True
                                                pend.append(w)
                    if ex:
                        executed[0] += 1
                        any_exec = True
                # advance only after the block: hooks firing during these
                # ticks must still see the slot at T as unserviced for
                # units whose ground-order turn hasn't come yet
                tb += pb
                hctx[2] = tb
            if tl == T:
                if rn1 or dirty_n[1] or hm1 == T:
                    ex = False
                    for u in lunits:
                        ea = u.exec_at
                        if u.dirty and ea > T:
                            if not u.probe(T):
                                ea = u.exec_at = T
                        if ea <= T:
                            c = u.charged
                            if c < T:
                                u.skip((T - c) // pl, c)
                            u.charged = T + pl
                            hctx[1] = u.uid
                            u.tick(T)
                            u.executed += 1
                            ex = True
                            if not u.pending:
                                u.pending = True
                                pend.append(u)
                            if u.wakes:  # see the big-domain note
                                na = u.owner.next_accept_ps(T)
                                if na != last_na:
                                    last_na = na
                                    for w in u.wakes:
                                        if w.exec_at:
                                            if not w.dirty:
                                                w.dirty = True
                                                dirty_n[0] += 1
                                            if not w.pending:
                                                w.pending = True
                                                pend.append(w)
                    if ex:
                        executed[1] += 1
                        any_exec = True
                tl += pl
                hctx[3] = tl
            if tm == T:
                if rn2 or dirty_n[2] or hm2 == T:
                    ex = False
                    for u in munits:
                        ea = u.exec_at
                        if u.dirty and ea > T:
                            if not u.probe(T):
                                ea = u.exec_at = T
                        if ea <= T:
                            c = u.charged
                            if c < T:
                                u.skip((T - c) // pm, c)
                            u.charged = T + pm
                            hctx[1] = u.uid
                            u.tick(T)
                            u.executed += 1
                            ex = True
                            if not u.pending:
                                u.pending = True
                                pend.append(u)
                    if ex:
                        executed[2] += 1
                        any_exec = True
                tm += pm
                hctx[4] = tm
            hctx[1] = -1  # ticks are over: hooks settle only below T now

            # ---- 3. re-arm everything that executed or was woken (a
            # pure wakeup re-probe can only tighten a schedule, never
            # skip work). Inlined _rearm, hot path first: a unit on a
            # long always-due streak skips the probe entirely — an
            # adaptive probe stride, per unit. The ramp is slow
            # (streak/4) and the cap small (8) so a unit that goes
            # quiescent over-executes at most 8 ticks — executing is
            # always safe, only skipping needs the probe's proof — while
            # sustained busy runs amortize their probe cost away.
            if pend:
                for u in pend:
                    u.pending = False
                    u.dirty = False
                    if u.no_probe:
                        u.no_probe -= 1
                        continue  # stays ready (exec_at == 0 holds)
                    d = u.domain
                    was_ready = u.exec_at == 0
                    now = tb if d == 0 else (tl if d == 1 else tm)
                    b = u.probe(now)
                    if b <= now:
                        # due next tick (0, or a stale-past bound)
                        s = u.streak + 1
                        u.streak = s
                        if s >= 4:
                            n = s >> 2
                            u.no_probe = n if n < 8 else 8
                        ready = True
                    else:
                        u.streak = 0
                        ready = False
                        if b >= _INF:
                            u.exec_at = _INF  # asleep until woken
                            if u is b1:
                                hm0 = _INF
                            elif u is l1u:
                                hm1 = _INF
                            elif u is m1:
                                hm2 = _INF
                            # a unit with static wake edges going
                            # quiescent is itself a wakeup: the input
                            # that re-armed it (e.g. the last VMU
                            # fill, delivered by a mem tick) may have
                            # established the very condition — engine
                            # idle, accept space — its dependents
                            # sleep on, without any engine tick ever
                            # firing the execution-time edge
                            for w in u.wakes:
                                if w.exec_at:
                                    if not w.dirty:
                                        w.dirty = True
                                        dirty_n[w.domain] += 1
                                    if not w.pending:
                                        w.pending = True
                                        pend.append(w)
                        else:
                            p = periods[d]
                            t = now + (b - now + p - 1) // p * p
                            u.exec_at = t
                            if u is b1:
                                hm0 = t  # exact: the only big unit
                            elif u is l1u:
                                hm1 = t
                            elif u is m1:
                                hm2 = t
                            elif d == 0:
                                if t < hm0:
                                    hm0 = t
                            elif d == 1:
                                if t < hm1:
                                    hm1 = t
                            elif t < hm2:
                                hm2 = t
                    if ready:
                        u.exec_at = 0
                        if u is b1:
                            hm0 = _INF
                        elif u is l1u:
                            hm1 = _INF
                        elif u is m1:
                            hm2 = _INF
                        if not was_ready:
                            if d == 0:
                                rn0 += 1
                            elif d == 1:
                                rn1 += 1
                            else:
                                rn2 += 1
                    elif was_ready:
                        if d == 0:
                            rn0 -= 1
                        elif d == 1:
                            rn1 -= 1
                        else:
                            rn2 -= 1
                del pend[:]
                dirty_n[0] = dirty_n[1] = dirty_n[2] = 0
            # a cached minimum equal to T is spent: either its events
            # were just serviced and re-armed later, or a unit went
            # ready or asleep under it (it is only ever a lower bound)
            # — re-peek by scanning the domain's armed instants
            if hm0 == T:
                if b1 is not None:
                    ea = b1.exec_at
                    hm0 = ea if 0 < ea < _INF else _INF
                else:
                    hm0 = _INF
                    for u in bunits:
                        ea = u.exec_at
                        if 0 < ea < hm0:
                            hm0 = ea
            if hm1 == T:
                if l1u is not None:
                    ea = l1u.exec_at
                    hm1 = ea if 0 < ea < _INF else _INF
                else:
                    hm1 = _INF
                    for u in lunits:
                        ea = u.exec_at
                        if 0 < ea < hm1:
                            hm1 = ea
            if hm2 == T:
                if m1 is not None:
                    ea = m1.exec_at
                    hm2 = ea if 0 < ea < _INF else _INF
                else:
                    hm2 = _INF
                    for u in munits:
                        ea = u.exec_at
                        if 0 < ea < hm2:
                            hm2 = ea

            # ---- 4. boundaries, in the dense loop's order: sample,
            # done, watchdog, horizon. The fused ``bmin`` bound keeps
            # the common iteration at one compare.
            if T < bmin:
                if any_exec and done():
                    return end(T, tb, tl, tm, "done")
            else:
                if T >= next_sample:
                    _settle_all(allunits, tb, tl, tm, periods)
                    sampler.sample(T)
                    next_sample = T + sampler.interval_ps
                if any_exec and done():
                    return end(T, tb, tl, tm, "done")
                if T >= wd_target:
                    wd_target = T + WATCHDOG_PS
                    stalled, instrs = progress_check(system, T, last_instrs,
                                                     "event")
                    if stalled:
                        return end(T, tb, tl, tm, "watchdog")
                    last_instrs = instrs
                if T >= max_ps:
                    return end(T, tb, tl, tm, "horizon")
                bmin = next_sample if next_sample < wd_target else wd_target
                if max_ps < bmin:
                    bmin = max_ps

            # ---- 5. dense-burst detector. A long run of iterations on
            # adjacent union-grid instants means the ready-set machinery
            # above is pure overhead: nothing is being skipped, so every
            # T-select, re-arm probe and re-peek is paid for a slot the
            # dense loop would have reached with three adds. Drop into a
            # dense inner loop over just the *awake* units — sleeping
            # (_INF) units stay parked on their deferred-charge windows,
            # so a drained big core is still never ticked through a
            # vector region — until a probe sweep proves a skippable gap
            # or a boundary/done intervenes.
            if not any_exec or T - prevT > gapw:
                run_ct = 0
                prevT = T
                continue
            prevT = T
            run_ct += 1
            if run_ct < _BURST_AFTER:
                continue

            # ---------------- dense burst ----------------
            # Correctness rests on the probe contract alone: ticking an
            # awake unit before its bound does nothing but the per-cycle
            # constants (exactly what skip_ticks replays), so densely
            # over-executing the awake set is stat-invisible. Sleepers
            # are woken by the same hooks as ever and join the burst in
            # ground order at their next domain slot; the engine's
            # push-less edges (accept bound, idle-drain) are re-checked
            # after each executed engine tick since no re-arm probe runs
            # to fire the _INF transition here.
            run_ct = 0
            prevT = -1
            last_idle = None
            nb_b = nl_b = nm_b = 0
            for u in units:
                if u.exec_at < _INF:
                    u.burst = True
                    d = u.domain
                    if d == 0:
                        nb_b += 1
                    elif d == 1:
                        nl_b += 1
                    else:
                        nm_b += 1
            sent = None  # sentinel: the leading busy member, probed per slot
            for u in units:
                if u.burst:
                    sent = u
                    break
            while sent is not None:
                T = _INF
                if nb_b or dirty_n[0]:
                    T = tb
                if (nl_b or dirty_n[1]) and tl < T:
                    T = tl
                if (nm_b or dirty_n[2]) and tm < T:
                    T = tm
                if T >= bmin:
                    break  # boundary (or empty burst): hand back
                if tb < T:
                    tb += (T - tb + pb - 1) // pb * pb
                if tl < T:
                    tl += (T - tl + pl - 1) // pl * pl
                if tm < T:
                    tm += (T - tm + pm - 1) // pm * pm
                if big1 is not None:
                    big1._now_hint = T if tb == T else tb - pb
                elif bigs:
                    nh = T if tb == T else tb - pb
                    for c in bigs:
                        c._now_hint = nh
                hctx[0] = T
                hctx[2] = tb
                hctx[3] = tl
                hctx[4] = tm
                ex_any = False
                if tb == T:
                    ex = False
                    for u in bunits:
                        if not u.burst:
                            if u.dirty:
                                # woken mid-burst: join (in ground
                                # order, at this very slot) unless the
                                # probe says stay asleep
                                u.dirty = False
                                dirty_n[0] -= 1
                                if u.probe(T) < _INF:
                                    u.burst = True
                                    nb_b += 1
                                else:
                                    continue
                            else:
                                continue
                        c = u.charged
                        if c < T:
                            u.skip((T - c) // pb, c)
                        u.charged = T + pb
                        hctx[1] = u.uid
                        u.tick(T)
                        u.executed += 1
                        ex = True
                        if u.wakes:
                            # the edge only matters to a sleeping
                            # dependent; with every one awake (or
                            # already woken) skip the accept/idle
                            # probes and invalidate the cached edge
                            need = False
                            for w in u.wakes:
                                if not w.burst and not w.dirty:
                                    need = True
                                    break
                            if not need:
                                last_na = -2
                            else:
                                na = u.owner.next_accept_ps(T)
                                idl = u.owner.idle()
                                if na != last_na or idl is not last_idle:
                                    last_na = na
                                    last_idle = idl
                                    for w in u.wakes:
                                        if not w.burst and not w.dirty:
                                            w.dirty = True
                                            dirty_n[0] += 1
                                            if not w.pending:
                                                w.pending = True
                                                pend.append(w)
                    if ex:
                        executed[0] += 1
                        ex_any = True
                    tb += pb
                    hctx[2] = tb
                if tl == T:
                    ex = False
                    for u in lunits:
                        if not u.burst:
                            if u.dirty:
                                u.dirty = False
                                dirty_n[1] -= 1
                                if u.probe(T) < _INF:
                                    u.burst = True
                                    nl_b += 1
                                else:
                                    continue
                            else:
                                continue
                        c = u.charged
                        if c < T:
                            u.skip((T - c) // pl, c)
                        u.charged = T + pl
                        hctx[1] = u.uid
                        u.tick(T)
                        u.executed += 1
                        ex = True
                        if u.wakes:
                            # the edge only matters to a sleeping
                            # dependent; with every one awake (or
                            # already woken) skip the accept/idle
                            # probes and invalidate the cached edge
                            need = False
                            for w in u.wakes:
                                if not w.burst and not w.dirty:
                                    need = True
                                    break
                            if not need:
                                last_na = -2
                            else:
                                na = u.owner.next_accept_ps(T)
                                idl = u.owner.idle()
                                if na != last_na or idl is not last_idle:
                                    last_na = na
                                    last_idle = idl
                                    for w in u.wakes:
                                        if not w.burst and not w.dirty:
                                            w.dirty = True
                                            dirty_n[0] += 1
                                            if not w.pending:
                                                w.pending = True
                                                pend.append(w)
                    if ex:
                        executed[1] += 1
                        ex_any = True
                    tl += pl
                    hctx[3] = tl
                if tm == T:
                    ex = False
                    for u in munits:
                        if not u.burst:
                            if u.dirty:
                                u.dirty = False
                                dirty_n[2] -= 1
                                if u.probe(T) < _INF:
                                    u.burst = True
                                    nm_b += 1
                                else:
                                    continue
                            else:
                                continue
                        c = u.charged
                        if c < T:
                            u.skip((T - c) // pm, c)
                        u.charged = T + pm
                        hctx[1] = u.uid
                        u.tick(T)
                        u.executed += 1
                        ex = True
                    if ex:
                        executed[2] += 1
                        ex_any = True
                    tm += pm
                    hctx[4] = tm
                hctx[1] = -1
                if ex_any and done():
                    return end(T, tb, tl, tm, "done")
                # sentinel exit test: while the sentinel is due next
                # slot the burst is provably productive and no other
                # probe runs. The moment it goes quiet, one sweep over
                # the members promotes the next busy one to sentinel;
                # if none is due the burst ends and the event machinery
                # takes over — re-arming everyone, skipping the gap.
                nw = tb if sent.domain == 0 else (
                    tl if sent.domain == 1 else tm)
                if sent.probe(nw) > nw:
                    busy = None
                    for u in units:
                        if not u.burst:
                            continue
                        nw = tb if u.domain == 0 else (
                            tl if u.domain == 1 else tm)
                        if u.probe(nw) <= nw:
                            busy = u
                            break
                    if busy is None:
                        break
                    sent = busy

            # burst exit: every member — and every sleeper woken but
            # not yet joined — rejoins the ready set; the next
            # iteration's re-arm pass rebuilds the real bounds from
            # fresh probes.
            rn0 = rn1 = rn2 = 0
            for u in units:
                if u.burst or u.dirty:
                    # dirty sleepers re-ready too: the T-selection knows
                    # nothing of dirty marks, so leaving one asleep here
                    # would defer its wakeup to the next boundary instant
                    u.burst = False
                    u.exec_at = 0
                    u.dirty = False
                    if not u.pending:
                        u.pending = True
                        pend.append(u)
                    d = u.domain
                    if d == 0:
                        rn0 += 1
                    elif d == 1:
                        rn1 += 1
                    else:
                        rn2 += 1
            dirty_n[0] = dirty_n[1] = dirty_n[2] = 0
            hm0 = hm1 = hm2 = _INF
    finally:
        for u in units:
            u.owner._ev_notify = None
        if hs is not None:
            hs.uninstall()
            hs.finalize(time.perf_counter() - system._wall_t0,
                        loop_events=executed[0] + executed[1] + executed[2])
