"""Out-of-order big core.

A 4-wide OoO model: fetch through the L1I into a reorder buffer, dependences
resolved at dispatch through a last-writer map (implicit renaming — trace
virtual registers are already SSA-like), event-driven wakeup into a ready
queue, a functional-unit pool with two L1D ports, an in-order commit stage,
and a post-commit store buffer. Gshare branch prediction stalls fetch on a
mispredict until the branch resolves.

Vector execution plugs in one of three ways (paper Table III):

* ``vector_mode="none"`` — vector instructions are a configuration error.
* ``vector_mode="integrated"`` — the 128-bit IVU: vector ops borrow the big
  core's two FP pipes and its L1D ports (16 B per port access), executing
  inside the ROB like scalar ops.
* ``vector_mode="decoupled"`` — vector instructions wait until the head of
  the ROB and are then handed to an attached engine (VLITTLE's VCU or the
  aggressive decoupled engine). Instructions without a scalar result commit
  immediately after dispatch, letting the core run far ahead; instructions
  that produce a scalar value (``vsetvl``, ``vpopc``, ``vmv.x.s``) block
  commit until the engine responds (paper §III-A).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.cores.branch import GsharePredictor
from repro.cores.fu import BIG_FU_COUNTS, FUPool
from repro.errors import ConfigError
from repro.isa.scalar import FUClass, Op, OP_FU, OP_IS_BRANCH, OP_IS_LOAD, OP_IS_STORE
from repro.isa.vector import VClass, VOp, VOP_CLASS, VOP_IS_LOAD, VOP_IS_STORE
from repro.mem.message import BLOCKED, HIT
from repro.stats.breakdown import Breakdown, Stall
from repro.utils import ceil_div

_INF = 1 << 60

#: IVU cost mapping: VClass -> (FUClass, extra slots, latency key)
_IVU_FU = {
    VClass.CTRL: FUClass.ALU,
    VClass.INT_SIMPLE: FUClass.FPU,  # vector ops borrow the two FP pipes
    VClass.INT_COMPLEX: FUClass.FDIV,
    VClass.FP: FUClass.FPU,
    VClass.FDIV: FUClass.FDIV,
    VClass.MASK: FUClass.FPU,
    VClass.CROSS_PERM: FUClass.FPU,
    VClass.CROSS_RED: FUClass.FPU,
    VClass.MOVE: FUClass.FPU,
    VClass.FENCE: FUClass.NONE,
}


def _pv_label(ins):
    """Short disassembly-style label for pipeline-viewer records."""
    if ins.is_vector:
        return f"{VOp(ins.op).name} vl={ins.vl} ew={ins.ew}"
    return Op(ins.op).name


class _Entry:
    __slots__ = (
        "ins",
        "deps",
        "consumers",
        "completed",
        "issued",
        "dispatched",
        "pending_chunks",
        "is_store",
        "is_branch",
        "pv",
    )

    def __init__(self, ins):
        self.ins = ins
        self.deps = 0
        self.consumers = []
        self.completed = False
        self.issued = False
        self.dispatched = False
        self.pending_chunks = 0
        self.is_store = False
        self.is_branch = False
        self.pv = None  # PipeRecord when instruction-grain tracking is on


class BigCore:
    __slots__ = (
        "core_id", "l1i", "l1d", "source", "rob_size", "width", "vector_mode",
        "ivu_vlen_bits", "ivu_port_bytes", "engine", "period", "predictor",
        "fu", "store_buffer_depth", "mispredict_penalty", "_line_mask",
        "_rob", "_ready", "_last_writer", "_vseq_entry", "_complete_at",
        "_complete_seq", "_front_avail", "_cur_line", "_fetch_blocked_on",
        "_sb", "_sb_waiting", "_outstanding", "breakdown", "instrs",
        "vector_instrs", "vector_dispatches", "obs", "_pv", "_obs_rob",
        "_ivu_port_free", "_now_hint", "_ev_notify",
    )

    def __init__(
        self,
        core_id,
        l1i,
        l1d,
        source=None,
        rob_size=128,
        width=4,
        store_buffer_depth=8,
        mispredict_penalty=8,
        vector_mode="none",
        ivu_vlen_bits=128,
        ivu_port_bytes=16,
        engine=None,
        line_bytes=64,
        period=1,
    ):
        if vector_mode not in ("none", "integrated", "decoupled"):
            raise ConfigError(f"unknown vector_mode {vector_mode!r}")
        if vector_mode == "decoupled" and engine is None:
            raise ConfigError("decoupled vector_mode requires an engine")
        self.core_id = core_id
        self.l1i = l1i
        self.l1d = l1d
        self.source = source
        self.rob_size = rob_size
        self.width = width
        self.vector_mode = vector_mode
        self.ivu_vlen_bits = ivu_vlen_bits
        self.ivu_port_bytes = ivu_port_bytes
        self.engine = engine
        self.period = period
        self.predictor = GsharePredictor()
        self.fu = FUPool(BIG_FU_COUNTS, period=period)
        self.store_buffer_depth = store_buffer_depth
        self.mispredict_penalty = mispredict_penalty
        self._line_mask = ~(line_bytes - 1)

        self._rob = deque()
        self._ready = deque()
        self._last_writer = {}  # scalar reg -> producing entry
        self._vseq_entry = {}  # vector seq -> entry (integrated mode)
        self._complete_at = []  # heap of (time, tiebreak, entry)
        self._complete_seq = 0
        self._front_avail = 0
        self._cur_line = None
        self._fetch_blocked_on = None  # entry of an unresolved mispredict
        self._sb = []  # post-commit store addresses
        self._sb_waiting = False
        self._outstanding = 0  # loads / fills in flight

        self.breakdown = Breakdown()
        self.instrs = 0
        self.vector_instrs = 0
        self.vector_dispatches = 0

        self.obs = None  # UnitObs handle; every hook is a single cheap check
        self._pv = None  # PipeView handle; same cheap-check discipline
        self._obs_rob = None
        self._ivu_port_free = 0
        self._now_hint = 0  # updated by the system each cycle, for callbacks
        # event-loop wakeup: called at every asynchronous input (fills,
        # engine responses) before the callback mutates core state
        self._ev_notify = None

    # --------------------------------------------------------- observability

    def attach_obs(self, obs):
        self.obs = obs.unit(self.core_id, "big", process="cores")
        self._pv = obs.pipeview
        self._obs_rob = obs.metrics.histogram(
            f"{self.core_id}.rob_occupancy", (0, 8, 16, 32, 64, 96))

    def _commit_stall_kind(self):
        """Attribute a zero-commit cycle to what the ROB head is waiting on."""
        if not self._rob:
            return Stall.MISC  # empty ROB: front-end / idle
        e = self._rob[0]
        ins = e.ins
        if e.completed:
            # head done but held back: store-buffer full or engine drain
            return Stall.STRUCT
        if ins.is_vector:
            if self.vector_mode == "decoupled":
                # waiting either to hand off (engine busy / fence) or for the
                # engine's scalar response
                return Stall.XELEM if e.dispatched else Stall.STRUCT
            if not e.issued:
                return Stall.STRUCT
            return Stall.RAW_MEM if VOP_IS_LOAD[ins.op] or VOP_IS_STORE[ins.op] \
                else Stall.RAW_LLFU
        if not e.issued:
            return Stall.RAW_LLFU if e.deps else Stall.STRUCT
        return Stall.RAW_MEM if OP_FU[ins.op] == FUClass.MEM else Stall.RAW_LLFU

    # --------------------------------------------------------------- helpers

    def set_source(self, source):
        self.source = source
        self._front_avail = 0
        self._cur_line = None

    def done(self):
        return (
            (self.source is None or self.source.done())
            and not self._rob
            and not self._sb
            and self._outstanding == 0
            and not self._complete_at
        )

    def _schedule_completion(self, entry, t):
        # async fill callbacks can fire after this core's tick in the same
        # cycle; clamp into the future so the completion is never lost
        if t <= self._now_hint:
            t = self._now_hint + self.period
        self._complete_seq += 1
        heapq.heappush(self._complete_at, (t, self._complete_seq, entry))

    def _wake(self, entry, now):
        entry.completed = True
        if entry.pv is not None:
            self._pv.stage(entry.pv, "Cp", now)
        for c in entry.consumers:
            c.deps -= 1
            if c.deps == 0 and not c.issued:
                self._ready.append(c)
        entry.consumers.clear()
        if self._fetch_blocked_on is entry:
            self._fetch_blocked_on = None
            self._front_avail = now + self.mispredict_penalty * self.period
            self._cur_line = None

    def _ifill(self, line, ready):
        n = self._ev_notify
        if n is not None:
            n()
        self._front_avail = ready

    def forensic_state(self, now):
        """Scheduling-state summary for :mod:`repro.obs.forensics`.

        Pure (read-only): mirrors the blocking conditions ``tick`` /
        ``next_work_ps`` act on, plus occupancy counts, and names what
        the core is waiting on (``mem`` / ``engine`` / ``source``)."""
        waits = []
        if self._outstanding > 0:
            waits.append(("mem", f"{self._outstanding} load/fill(s) in flight"))
        if self._front_avail >= _INF:
            waits.append(("mem", "instruction fetch awaiting an L1I fill"))
        head = self._rob[0] if self._rob else None
        if head is not None:
            ins = head.ins
            if ins.is_vector and self.vector_mode == "decoupled":
                if not head.dispatched:
                    if head.deps == 0 and not (
                            ins.op == VOp.VMFENCE
                            and (self._sb or self._outstanding > 0)):
                        waits.append(("engine",
                                      f"ROB head {VOp(ins.op).name} awaiting "
                                      f"engine accept"))
                elif not head.completed:
                    waits.append(("engine",
                                  f"ROB head {VOp(ins.op).name} awaiting "
                                  f"engine response"))
            elif (not ins.is_vector and ins.op == Op.CSRRW
                    and self.vector_mode == "decoupled" and head.completed
                    and self.engine is not None and not self.engine.idle()):
                waits.append(("engine",
                              "mode-switch CSRRW awaiting engine drain"))
        src = self.source
        if not self._rob and src is not None and not src.done():
            if src.parked:
                waits.extend(src.waits_on())
            elif src.pure_peek and src.peek() is None:
                waits.append(("source",
                              "instruction source empty but reports "
                              "not-done"))
        return {
            "rob": len(self._rob),
            "rob_size": self.rob_size,
            "ready": len(self._ready),
            "store_buffer": len(self._sb),
            "outstanding_fills": self._outstanding,
            "completions_armed": len(self._complete_at),
            "front_avail_ps": (None if self._front_avail >= _INF
                               else self._front_avail),
            "fetch_blocked": self._fetch_blocked_on is not None,
            "instrs": self.instrs,
            "done": self.done(),
            "waits_on": waits,
        }

    # ------------------------------------------------------- skip scheduling

    def next_work_ps(self, now):
        """Earliest future ps at which ``tick`` could do real work.

        Contract (shared by every ticking unit): return 0 when the very
        next tick would mutate state or change its stall attribution;
        return the earliest strictly-future threshold when the unit is
        waiting on its own timers; return ``_INF`` when quiescent or
        blocked purely on another unit (whose own ``next_work_ps`` bounds
        the skip). Must be side-effect free.
        """
        if self._sb:
            return 0  # store-buffer drain accesses the L1D every tick
        bound = _INF
        heap = self._complete_at
        if heap:
            t = heap[0][0]
            if t <= now:
                return 0
            if t < bound:
                bound = t
        if self._ready:
            # mirror _try_issue_one's failure paths: an entry only fails
            # on a *future* tick when a known timer blocks it — the IVU's
            # shared cache port or an unpipelined FU. Everything else
            # (per-cycle issue slots, L1D accesses) is issuable on any
            # fresh cycle, so its presence vetoes the skip.
            t_ready = _INF
            for entry in self._ready:
                ins = entry.ins
                if ins.is_vector:
                    cls = VOP_CLASS[ins.op]
                    if cls in (VClass.MEM_UNIT, VClass.MEM_STRIDE,
                               VClass.MEM_INDEX):
                        t = self._ivu_port_free
                        if t > now:
                            if t < t_ready:
                                t_ready = t
                            continue
                        return 0  # port free: the access runs next tick
                    fu = _IVU_FU[cls]
                    if fu != FUClass.FPU:
                        t = self.fu.next_free_ps(fu, now)
                        if t:
                            if t < t_ready:
                                t_ready = t
                            continue
                    return 0
                t = self.fu.next_free_ps(
                    FUClass.ALU if entry.is_store else OP_FU[ins.op], now)
                if t:
                    if t < t_ready:
                        t_ready = t
                    continue
                return 0
            if t_ready < bound:
                bound = t_ready
        if self._rob:
            e = self._rob[0]
            ins = e.ins
            if e.completed:
                if (not ins.is_vector and ins.op == Op.CSRRW
                        and self.vector_mode == "decoupled"
                        and not self.engine.idle()):
                    # mode-switch retire waits for the engine drain
                    # (§III-B): blocked purely on the engine, whose own
                    # activity bounds the wait — fall through so the
                    # remaining stages can still claim their own work
                    pass
                else:
                    return 0  # head would retire (or retry a full
                    # store buffer, which the top _sb check covers)
            if (ins.is_vector and self.vector_mode == "decoupled"
                    and not e.dispatched and e.deps == 0):
                if not (ins.op == VOp.VMFENCE
                        and (self._sb or self._outstanding > 0)):
                    t = self.engine.next_accept_ps(now)
                    if t <= now:
                        return 0  # dispatch (or the mutating first
                        # can_accept call) happens next tick
                    if t < bound:
                        bound = t
            # any other blocked head waits on the completion heap or on
            # another unit's activity (engine response, cache fill)
        if (self._fetch_blocked_on is None and self.source is not None
                and len(self._rob) < self.rob_size):
            fa = self._front_avail
            if fa > now:
                if fa < bound:
                    bound = fa
            else:
                src = self.source
                if not src.pure_peek:
                    if not src.done() and not src.parked:
                        return 0  # impure peek may claim work: probe on
                        # grid, unless parked until its wake hook fires
                elif src.peek() is not None:
                    return 0  # front end would fetch next tick
        return bound

    def skip_ticks(self, n, now):
        """Replay the per-tick constant effects of ``n`` provably idle
        ticks (guaranteed by ``next_work_ps``): the commit stage charges
        one idle-cycle attribution per cycle even when nothing moves.

        ``now`` (the span's first tick time) keeps the signature uniform
        with the other ticking units; the big core's attribution is
        time-independent, so it is unused."""
        self.breakdown.add(Stall.MISC, n)
        if self.obs is not None:
            self.obs.cycle(self._commit_stall_kind(), n)
            self._obs_rob.observe(len(self._rob), n)

    # ------------------------------------------------------------------ tick

    def tick(self, now):
        # 1. completions whose time has passed
        heap = self._complete_at
        while heap and heap[0][0] <= now:
            _, _, e = heapq.heappop(heap)
            self._wake(e, now)
        # 2. issue ready instructions
        self._issue(now)
        # 3. commit in order
        self._commit(now)
        # 4. fetch/dispatch new instructions into the ROB
        self._fetch(now)
        # 5. drain post-commit stores
        self._drain_store_buffer(now)
        if self.obs is not None:
            self._obs_rob.observe(len(self._rob))

    # ----------------------------------------------------------------- fetch

    def _fetch(self, now):
        if self._fetch_blocked_on is not None or self.source is None:
            return
        fetched = 0
        redirects = 0
        while fetched < self.width and len(self._rob) < self.rob_size:
            if self._front_avail > now:
                return
            ins = self.source.peek()
            if ins is None:
                return
            line = ins.pc & self._line_mask
            if line != self._cur_line:
                self._cur_line = line
                res, ready = self.l1i.access(line, False, now, waiter=self._ifill)
                if res == HIT:
                    self._front_avail = ready
                elif res == BLOCKED:
                    self._cur_line = None
                    self._front_avail = now + self.period
                else:
                    self._front_avail = _INF
                if self._front_avail > now:
                    return
            self.source.pop()
            self._dispatch(ins, now)
            fetched += 1
            if ins.is_vector:
                continue
            if OP_IS_BRANCH[ins.op]:
                taken = bool(ins.taken)
                correct = self.predictor.predict_and_update(ins.pc, taken)
                if not correct:
                    self._fetch_blocked_on = self._rob[-1]
                    if self.obs is not None:
                        self.obs.instant("mispredict", now)
                    return
                if taken:
                    # BTB hit: predicted-taken branches redirect without a
                    # bubble, but the front end follows one taken branch/cycle
                    self._cur_line = None
                    redirects += 1
                    if redirects >= 1 + (self.width // 4):
                        self._front_avail = now + self.period
                        return
                    continue

    def _dispatch(self, ins, now):
        entry = _Entry(ins)
        self._rob.append(entry)
        if self._pv is not None:
            entry.pv = self._pv.begin(
                self.core_id, _pv_label(ins), now, stage="F", pc=ins.pc,
                seq=ins.seq if ins.is_vector else None)
        if ins.is_vector:
            self.vector_instrs += 1
            if self.vector_mode == "none":
                raise ConfigError(f"{self.core_id} has no vector unit for {ins!r}")
            # scalar sources
            for r in ins.rs:
                p = self._last_writer.get(r)
                if p is not None and not p.completed:
                    entry.deps += 1
                    p.consumers.append(entry)
            if self.vector_mode == "integrated":
                for seq in ins.dep_ids:
                    p = self._vseq_entry.get(seq)
                    if p is not None and not p.completed:
                        entry.deps += 1
                        p.consumers.append(entry)
                self._vseq_entry[ins.seq] = entry
                entry.is_store = VOP_IS_STORE[ins.op]
                if entry.deps == 0:
                    self._ready.append(entry)
            # decoupled: handled at commit head, not via the ready queue
            if ins.rd is not None:
                self._last_writer[ins.rd] = entry
            return
        for src in ins.srcs:
            p = self._last_writer.get(src)
            if p is not None and not p.completed:
                entry.deps += 1
                p.consumers.append(entry)
        entry.is_store = OP_IS_STORE[ins.op] and not OP_IS_LOAD[ins.op]
        entry.is_branch = OP_IS_BRANCH[ins.op]
        if ins.dst is not None:
            self._last_writer[ins.dst] = entry
        if entry.deps == 0:
            self._ready.append(entry)

    # ----------------------------------------------------------------- issue

    def _issue(self, now):
        issued = 0
        n = len(self._ready)
        for _ in range(n):
            if issued >= self.width:
                break
            entry = self._ready.popleft()
            if self._try_issue_one(entry, now):
                entry.issued = True
                issued += 1
                if entry.pv is not None:
                    self._pv.stage(entry.pv, "Is", now)
            else:
                self._ready.append(entry)

    def _try_issue_one(self, entry, now):
        ins = entry.ins
        if ins.is_vector:
            return self._issue_ivu(entry, now)
        op = ins.op
        fu = OP_FU[op]
        if fu == FUClass.MEM:
            if entry.is_store:
                # stores just need address generation; data written at commit
                if self.fu.try_issue(FUClass.ALU, now) is None:
                    return False
                self._schedule_completion(entry, now + self.period)
                return True
            if self.fu.try_issue(FUClass.MEM, now) is None:
                return False
            res, ready = self.l1d.access(
                ins.addr, OP_IS_STORE[op], now, waiter=self._load_waiter(entry)
            )
            if res == BLOCKED:
                self._outstanding -= 1
                return False
            if res == HIT:
                self._outstanding -= 1
                self._schedule_completion(entry, ready)
            return True
        lat = self.fu.try_issue(fu, now)
        if lat is None:
            return False
        self._schedule_completion(entry, now + lat)
        return True

    def _load_waiter(self, entry):
        self._outstanding += 1

        def waiter(line, ready):
            n = self._ev_notify
            if n is not None:
                n()
            self._outstanding -= 1
            self._schedule_completion(entry, max(ready, self._now_hint))

        return waiter

    # IVU ---------------------------------------------------------------------

    def _issue_ivu(self, entry, now):
        ins = entry.ins
        cls = VOP_CLASS[ins.op]
        if cls in (VClass.MEM_UNIT, VClass.MEM_STRIDE, VClass.MEM_INDEX):
            return self._issue_ivu_mem(entry, now)
        fu = _IVU_FU[cls]
        # vector arithmetic occupies both FP pipes (paper: the IVU leverages
        # two of the big core's execution pipelines)
        if fu == FUClass.FPU:
            if not self.fu.can_issue(FUClass.FPU, now):
                return False
            self.fu.issue(FUClass.FPU, now)
            self.fu.issue(FUClass.FPU, now)
            lat = self.fu.latency[FUClass.FPU] * self.period
        else:
            lat = self.fu.try_issue(fu, now)
            if lat is None:
                return False
        if cls in (VClass.CROSS_PERM, VClass.CROSS_RED):
            lat += max(0, ins.vl // 2) * self.period
        elif cls in (VClass.INT_COMPLEX, VClass.FDIV):
            lat += ins.vl * self.period  # serialized element groups
        self._schedule_completion(entry, now + lat)
        return True

    def _issue_ivu_mem(self, entry, now):
        ins = entry.ins
        # the IVU shares ONE data-cache port with the core (paper §IV-A):
        # a vector access occupies it for one cycle per 16 B chunk
        if self._ivu_port_free > now:
            return False
        if self.fu.try_issue(FUClass.MEM, now) is None:
            return False
        if VOP_IS_STORE[ins.op]:
            # data goes to the post-commit store buffer chunk by chunk
            self._schedule_completion(entry, now + self.period)
            return True
        chunks = self._ivu_chunks(ins)
        self._ivu_port_free = now + len(chunks) * self.period
        entry.pending_chunks = len(chunks)
        latest = now + self.period
        for addr in chunks:
            res, ready = self.l1d.access(addr, False, now, waiter=self._chunk_waiter(entry))
            if res == HIT:
                self._outstanding -= 1
                entry.pending_chunks -= 1
                latest = max(latest, ready)
            elif res == BLOCKED:
                self._outstanding -= 1
                entry.pending_chunks -= 1
                latest = max(latest, now + 4 * self.period)  # retried internally
        # the IVU shares a single data-cache port with the core (paper §IV-A)
        latest += (len(chunks) - 1) * self.period
        if entry.pending_chunks == 0:
            self._schedule_completion(entry, latest)
        return True

    def _chunk_waiter(self, entry):
        self._outstanding += 1

        def waiter(line, ready):
            n = self._ev_notify
            if n is not None:
                n()
            self._outstanding -= 1
            entry.pending_chunks -= 1
            if entry.pending_chunks == 0:
                self._schedule_completion(entry, max(ready, self._now_hint))

        return waiter

    def _ivu_chunks(self, ins):
        """Port-width (16 B) chunk addresses for an IVU memory op."""
        cls = VOP_CLASS[ins.op]
        if cls == VClass.MEM_UNIT:
            nbytes = max(ins.vl * ins.ew, 1)
            w = self.ivu_port_bytes
            first = ins.base // w * w
            last = (ins.base + nbytes - 1) // w * w
            return list(range(first, last + w, w))
        return ins.element_addrs()

    # ---------------------------------------------------------------- commit

    def _commit(self, now):
        committed = 0
        while self._rob and committed < self.width:
            entry = self._rob[0]
            ins = entry.ins
            if ins.is_vector and self.vector_mode == "decoupled":
                if not entry.dispatched:
                    if entry.deps > 0:
                        break  # scalar sources not ready
                    if ins.op == VOp.VMFENCE and (self._sb or self._outstanding > 0):
                        break  # scalar accesses must retire first (§III-B)
                    if not self.engine.can_accept(now):
                        break
                    if entry.pv is not None:
                        self._pv.stage(entry.pv, "VD", now)
                    self.engine.dispatch(ins, now, self._vector_response(entry))
                    entry.dispatched = True
                    self.vector_dispatches += 1
                    if self.obs is not None:
                        self.obs.instant(f"vdispatch:{ins.op.name}", now)
                    if ins.rd is None:
                        entry.completed = True
                        self._wake(entry, now)
                if not entry.completed:
                    break
            elif not entry.completed:
                break
            if (not ins.is_vector and ins.op == Op.CSRRW
                    and self.vector_mode == "decoupled"):
                # a vector-mode CSR write: the OS returns the cluster to
                # scalar mode once the engine drains (paper §III-B)
                if not self.engine.idle():
                    break
                if hasattr(self.engine, "end_region"):
                    self.engine.end_region()
            # retire; stores need a store-buffer slot or commit stalls
            if entry.is_store and not ins.is_vector:
                if len(self._sb) >= self.store_buffer_depth:
                    break
                self._sb.append(ins.addr)
            elif ins.is_vector and self.vector_mode == "integrated" and VOP_IS_STORE[ins.op]:
                if len(self._sb) >= self.store_buffer_depth:
                    break
                self._sb.extend(self._ivu_chunks(ins))
            self._rob.popleft()
            self.instrs += 1
            committed += 1
            if entry.pv is not None:
                self._pv.retire(entry.pv, now)
        if committed:
            self.breakdown.add(Stall.BUSY)
        else:
            self.breakdown.add(Stall.MISC)
        if self.obs is not None:
            self.obs.cycle(Stall.BUSY if committed else self._commit_stall_kind())

    def _vector_response(self, entry):
        def respond(ready_time):
            """Engine callback: the scalar result arrives at ``ready_time``."""
            n = self._ev_notify
            if n is not None:
                n()
            self._schedule_completion(entry, max(ready_time, self._now_hint))

        return respond

    # ---------------------------------------------------------------- stores

    def _drain_store_buffer(self, now):
        """Fire-and-forget drain: a write miss parks in an MSHR and the cache
        completes it on fill — an OoO core's write buffer pipelines misses
        instead of serializing them at DRAM latency."""
        if not self._sb:
            return
        if self.fu.try_issue(FUClass.MEM, now) is None:
            return
        addr = self._sb[0]
        res, ready = self.l1d.access(addr, True, now, waiter=self._store_waiter())
        if res == BLOCKED:
            self._outstanding -= 1
            return
        if res == HIT:
            self._outstanding -= 1
        self._sb.pop(0)

    def _store_waiter(self):
        self._outstanding += 1

        def waiter(line, ready):
            n = self._ev_notify
            if n is not None:
                n()
            self._outstanding -= 1

        return waiter

    # ----------------------------------------------------------------- stats

    def set_now_hint(self, now):
        self._now_hint = now

    def stats(self):
        out = {
            f"{self.core_id}.instrs": self.instrs,
            f"{self.core_id}.vinstrs": self.vector_instrs,
            f"{self.core_id}.vdispatch": self.vector_dispatches,
            f"{self.core_id}.mispredicts": self.predictor.mispredicts,
        }
        for name, v in self.breakdown.as_dict().items():
            out[f"{self.core_id}.stall.{name}"] = v
        return out
