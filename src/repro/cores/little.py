"""In-order single-issue little core (scalar mode).

Pipeline model: a one-instruction issue stage fed by an L1I line fetcher,
a register scoreboard with per-register ready times, a functional-unit pool,
and a small store buffer draining through the single L1D port (loads have
priority). Branches run through a bimodal predictor; taken branches cost a
refetch bubble, mispredictions a flush penalty.

In a big.VLITTLE system this same core is *reconfigured* into a vector lane:
its front end (fetch/decode and the whole L1I) is disabled and the VLITTLE
engine drives its back end directly — that mode lives in
:mod:`repro.vector.vlittle` and reuses this core's FU pool and L1D.
"""

from __future__ import annotations

from repro.cores.branch import BimodalPredictor
from repro.cores.fu import FUPool, LITTLE_FU_COUNTS
from repro.isa.scalar import FUClass, Op, OP_FU, OP_IS_BRANCH, OP_IS_LOAD, OP_IS_STORE
from repro.mem.message import BLOCKED, HIT
from repro.stats.breakdown import Breakdown, Stall

_INF = 1 << 60


class LittleCore:
    __slots__ = (
        "core_id", "l1i", "l1d", "source", "period", "predictor", "fu",
        "store_buffer_depth", "mispredict_penalty", "taken_bubble",
        "_line_mask", "_head", "_front_avail", "_cur_line", "_regs",
        "_reg_kind", "_sb", "_sb_waiting", "_port_busy_cycle",
        "_outstanding_loads", "breakdown", "instrs", "active",
        "obs", "_pv", "_pv_head", "_ev_notify",
    )

    def __init__(
        self,
        core_id,
        l1i,
        l1d,
        source=None,
        store_buffer_depth=4,
        mispredict_penalty=3,
        taken_bubble=1,
        line_bytes=64,
        period=1,
    ):
        self.core_id = core_id
        self.l1i = l1i
        self.l1d = l1d
        self.source = source
        self.period = period
        self.predictor = BimodalPredictor()
        self.fu = FUPool(LITTLE_FU_COUNTS, period=period)
        self.store_buffer_depth = store_buffer_depth
        self.mispredict_penalty = mispredict_penalty
        self.taken_bubble = taken_bubble
        self._line_mask = ~(line_bytes - 1)

        self._head = None
        self._front_avail = 0
        self._cur_line = None
        self._regs = {}  # reg -> ready cycle
        self._reg_kind = {}  # reg -> Stall category while not ready
        self._sb = []  # pending store addresses (FIFO)
        self._sb_waiting = False  # head store waiting on a fill
        self._port_busy_cycle = -1
        self._outstanding_loads = 0

        self.breakdown = Breakdown()
        self.instrs = 0
        self.active = True  # cleared when reconfigured as a vector lane

        self.obs = None  # UnitObs handle; every hook is a single cheap check
        self._pv = None  # PipeView handle; same cheap-check discipline
        # event-loop wakeup: called at every asynchronous input (fills)
        # before the callback mutates core state
        self._ev_notify = None
        self._pv_head = None  # PipeRecord of the instruction in issue

    # --------------------------------------------------------- observability

    def attach_obs(self, obs):
        self.obs = obs.unit(self.core_id, "little", process="cores")
        self._pv = obs.pipeview

    # --------------------------------------------------------------- helpers

    def set_source(self, source):
        self._head = None
        self._cur_line = None
        self._front_avail = 0
        self.source = source

    def done(self):
        return (
            self._head is None
            and (self.source is None or self.source.done())
            and not self._sb
            and self._outstanding_loads == 0
        )

    def _stall(self, kind):
        self.breakdown.add(kind)
        if self.obs is not None:
            self.obs.cycle(kind)

    def _fetch(self, ins, now):
        """Start fetching the line holding ``ins``; set front availability."""
        line = ins.pc & self._line_mask
        if line == self._cur_line:
            self._front_avail = now
            return
        self._cur_line = line
        res, ready = self.l1i.access(line, False, now, waiter=self._ifill)
        if res == HIT:
            self._front_avail = ready
        elif res == BLOCKED:
            self._cur_line = None  # retry next cycle
            self._front_avail = now + self.period
        else:
            self._front_avail = _INF

    def _ifill(self, line, ready):
        n = self._ev_notify
        if n is not None:
            n()
        self._front_avail = ready

    def _load_fill_waiter(self, dst):
        self._outstanding_loads += 1

        def waiter(line, ready):
            n = self._ev_notify
            if n is not None:
                n()
            self._regs[dst] = ready
            self._outstanding_loads -= 1

        return waiter

    def forensic_state(self, now):
        """Scheduling-state summary for :mod:`repro.obs.forensics`.
        Pure (read-only); see :meth:`BigCore.forensic_state`."""
        waits = []
        if self._outstanding_loads > 0:
            waits.append(("mem",
                          f"{self._outstanding_loads} load/fill(s) in flight"))
        if self.active and self._front_avail >= _INF:
            waits.append(("mem", "instruction fetch awaiting an L1I fill"))
        head = self._head
        if head is not None:
            for s in head.srcs:
                if self._regs.get(s, 0) >= _INF:
                    waits.append(("mem",
                                  f"operand r{s} awaiting a load fill"))
                    break
        src = self.source
        if (self.active and head is None and src is not None
                and not src.done()):
            if src.parked:
                waits.extend(src.waits_on())
            elif src.pure_peek and src.peek() is None:
                waits.append(("source",
                              "instruction source empty but reports "
                              "not-done"))
        return {
            "active": self.active,
            "issue_head": Op(head.op).name if head is not None else None,
            "store_buffer": len(self._sb),
            "outstanding_loads": self._outstanding_loads,
            "front_avail_ps": (None if self._front_avail >= _INF
                               else self._front_avail),
            "instrs": self.instrs,
            "done": self.done(),
            "waits_on": waits,
        }

    # ------------------------------------------------------- skip scheduling

    def next_work_ps(self, now):
        """Earliest future ps at which ``tick`` could do real work; 0 when
        the next tick would mutate state, ``_INF`` when quiescent or
        blocked purely on another unit. Side-effect free."""
        if not self.active:
            return _INF  # reconfigured as a vector lane: front end is off
        if self._sb:
            return 0  # store-buffer drain takes the L1D port every tick
        if self._head is None:
            src = self.source
            if src is None or src.done():
                return _INF  # idle tail; skip_ticks charges the MISC stall
            if not src.pure_peek:
                # impure peek may claim work: probe on grid, unless the
                # source is parked until its owner's wake hook fires
                return _INF if src.parked else 0
            if src.peek() is not None:
                return 0  # would fetch into the issue stage next tick
            return _INF
        fa = self._front_avail
        if fa > now:
            return fa if fa < _INF else _INF  # _INF: waiting on an I-fill
        ins = self._head
        for s in ins.srcs:
            t = self._regs.get(s, 0)
            if t > now:
                # first unready source gates issue *and* the attribution;
                # _INF means a load fill owned by the memory system
                return t if t < _INF else _INF
        if OP_FU[ins.op] == FUClass.MEM:
            return 0  # store enters the buffer / load takes the port
        t = self.fu.next_free_ps(OP_FU[ins.op], now)
        return t if t else 0  # 0: issues next tick

    def _idle_kind(self, now):
        """Stall category a provably idle tick charges — mirrors the
        early-return order of ``_try_issue`` without its side effects."""
        if self._head is None or self._front_avail > now:
            return Stall.MISC
        for s in self._head.srcs:
            if self._regs.get(s, 0) > now:
                return self._reg_kind.get(s, Stall.MISC)
        return Stall.STRUCT  # unpipelined FU busy: the only remaining cause

    def skip_ticks(self, n, now):
        """Replay the per-tick constant effects of ``n`` provably idle
        ticks: exactly one stall attribution per cycle."""
        if not self.active:
            if self.obs is not None:
                self.obs.cycle(Stall.MISC, n)
            return
        kind = self._idle_kind(now)
        self.breakdown.add(kind, n)
        if self.obs is not None:
            self.obs.cycle(kind, n)

    # ------------------------------------------------------------------ tick

    def tick(self, now):
        if not self.active:
            if self.obs is not None:
                # reconfigured as a vector lane: the lane's own unit accounts
                # for this cycle, the scalar front end is simply off
                self.obs.cycle(Stall.MISC)
            return
        issued = self._try_issue(now)
        self._drain_store_buffer(now)
        if issued:
            self.instrs += 1
            self.breakdown.add(Stall.BUSY)
            if self.obs is not None:
                self.obs.cycle(Stall.BUSY)

    def _try_issue(self, now):
        # pull next instruction into the issue stage
        if self._head is None:
            if self.source is None or self.source.done():
                self._stall(Stall.MISC)
                return False
            ins = self.source.peek()
            if ins is None:
                self._stall(Stall.MISC)
                return False
            self._head = self.source.pop()
            self._fetch(self._head, now)
            if self._pv is not None:
                self._pv_head = self._pv.begin(
                    self.core_id, Op(self._head.op).name, now, stage="F",
                    pc=self._head.pc)

        if self._front_avail > now:
            self._stall(Stall.MISC)  # front-end (fetch) stall
            return False

        ins = self._head
        # operand scoreboard
        for src in ins.srcs:
            t = self._regs.get(src, 0)
            if t > now:
                self._stall(self._reg_kind.get(src, Stall.MISC))
                return False

        op = ins.op
        fu = OP_FU[op]

        if fu == FUClass.MEM:
            if OP_IS_STORE[op] and not OP_IS_LOAD[op]:
                if len(self._sb) >= self.store_buffer_depth:
                    self._stall(Stall.STRUCT)
                    return False
                self._sb.append(ins.addr)
            else:
                # load (or AMO): needs the L1D port now
                if self._port_busy_cycle == now:
                    self._stall(Stall.STRUCT)
                    return False
                dst = ins.dst
                res, ready = self.l1d.access(
                    ins.addr, OP_IS_STORE[op], now, waiter=self._load_fill_waiter(dst)
                )
                if res == BLOCKED:
                    self._outstanding_loads -= 1  # waiter never registered
                    self._stall(Stall.STRUCT)
                    return False
                self._port_busy_cycle = now
                if res == HIT:
                    self._outstanding_loads -= 1  # no fill coming
                    self._regs[dst] = ready
                else:
                    self._regs[dst] = _INF
                    if self.obs is not None:
                        self.obs.instant("load_miss", now)
                self._reg_kind[dst] = Stall.RAW_MEM
        else:
            lat = self.fu.try_issue(fu, now)
            if lat is None:
                self._stall(Stall.STRUCT)
                return False
            if ins.dst is not None:
                self._regs[ins.dst] = now + lat
                self._reg_kind[ins.dst] = (
                    Stall.RAW_LLFU if lat >= 3 * self.period else Stall.MISC
                )
            if OP_IS_BRANCH[op]:
                taken = bool(ins.taken)
                correct = self.predictor.predict_and_update(ins.pc, taken)
                if not correct:
                    self._front_avail = now + (1 + self.mispredict_penalty) * self.period
                    self._cur_line = None
                    if self.obs is not None:
                        self.obs.instant("mispredict", now)
                elif taken:
                    self._front_avail = now + (1 + self.taken_bubble) * self.period
                    self._cur_line = None

        if self._pv_head is not None:
            self._pv.stage(self._pv_head, "X", now)
            self._pv.retire(self._pv_head, now + self.period)
            self._pv_head = None
        self._head = None
        return True

    def _drain_store_buffer(self, now):
        """A write miss parks in an MSHR (the cache finishes it on fill), so
        the single-entry-at-a-time buffer still overlaps store misses."""
        if not self._sb or self._port_busy_cycle == now:
            return
        addr = self._sb[0]
        res, ready = self.l1d.access(addr, True, now, waiter=self._store_fill_waiter())
        if res == BLOCKED:
            self._outstanding_loads -= 1
            return
        self._port_busy_cycle = now
        if res == HIT:
            self._outstanding_loads -= 1
        self._sb.pop(0)

    def _store_fill_waiter(self):
        self._outstanding_loads += 1

        def waiter(line, ready):
            n = self._ev_notify
            if n is not None:
                n()
            self._outstanding_loads -= 1

        return waiter

    # ----------------------------------------------------------------- stats

    def stats(self):
        out = {
            f"{self.core_id}.instrs": self.instrs,
            f"{self.core_id}.mispredicts": self.predictor.mispredicts,
        }
        for name, v in self.breakdown.as_dict().items():
            out[f"{self.core_id}.stall.{name}"] = v
        return out
