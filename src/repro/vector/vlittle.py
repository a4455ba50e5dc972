"""The VLITTLE engine: little cores reconfigured as a decoupled vector engine.

This module implements the paper's §III end to end:

* The **VCU** receives vector instructions dispatched from the head of the
  big core's ROB, buffers them in command/data FIFOs, forwards memory ops to
  the VMIU *immediately* (memory/compute decoupling), expands every
  instruction into per-element-group (chime) µops, and broadcasts one µop per
  cycle over a pipelined bus — but only when **every** target lane can accept
  it (lockstep issue; the blocked cycles of the other lanes are the paper's
  ``simd`` stall category).
* Each **lane** is a little core's back end: the scalar register file holds
  the vector elements (chime 0 in the integer registers, chime 1 in the FP
  registers, ``pack`` consecutive elements per 64-bit register — Fig. 2); the
  lane issues µops in order against its own functional units. Packed simple
  integer ops process both sub-elements in one cycle; complex integer and all
  FP ops serialize over the packed sub-elements (§III-C).
* The **VXU** ring and the **VMU** (VMIU/VMSU/VLU/VSU) come from their own
  modules.
* Mode switching costs a fixed penalty (default 500 cycles — §IV-A) applied
  when the first vector instruction arrives, modeling context save and
  pipeline flushes; the little cores' L1Ds are switched to bank-interleaved
  shared indexing, and their front ends (plus the L1Is, whose SRAM now backs
  the VMU data queues) are disabled.

Per-cycle, per-lane stall attribution matches Figure 7 exactly:
``busy / simd / raw_mem / raw_llfu / struct / xelem / misc``.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType

from repro.cores.fu import DEFAULT_LATENCY
from repro.errors import ConfigError
from repro.isa.scalar import FUClass
from repro.isa.vector import (
    PACK_SERIALIZED,
    VClass,
    VOp,
    VOP_CLASS,
    VOP_IS_LOAD,
    VOP_IS_MEM,
    VOP_IS_STORE,
)
from repro.mem.banked import BankMap
from repro.stats.breakdown import Breakdown, Stall
from repro.utils import ceil_div
from repro.vector.vmu import VectorMemoryUnit
from repro.vector.vxu import VXU

_INF = 1 << 60

# µop kinds
EXEC = 0
LDWB = 1
STDATA = 2
IDXADDR = 3
VXREAD = 4
VXWRITE = 5
VXREDUCE = 6
MOVEXS = 7
FENCE_MARK = 8

UOP_NAMES = ("exec", "ldwb", "stdata", "idxaddr", "vxread", "vxwrite",
             "vxreduce", "movexs", "fence")

#: sentinel returned by ``VLittleEngine._batch_tick`` when the lanes can
#: no longer act in lockstep: the caller materializes the per-lane state
#: (``_fallback``) and re-runs this very tick on the scalar path
_DIVERGE = "diverge"

_CLS_FU = {
    VClass.INT_SIMPLE: FUClass.ALU,
    VClass.INT_COMPLEX: FUClass.DIV,
    VClass.FP: FUClass.FPU,
    VClass.FDIV: FUClass.FDIV,
    VClass.MASK: FUClass.ALU,
    VClass.MOVE: FUClass.ALU,
    VClass.CTRL: FUClass.ALU,
    VClass.CROSS_PERM: FUClass.ALU,
    VClass.CROSS_RED: FUClass.FPU,
}


class Uop:
    __slots__ = ("kind", "ins", "chime", "lane_only", "pv", "pv_left")

    def __init__(self, kind, ins, chime=0, lane_only=None):
        self.kind = kind
        self.ins = ins
        self.chime = chime
        self.lane_only = lane_only  # None = broadcast to all lanes
        self.pv = None  # PipeRecord when instruction-grain tracking is on
        self.pv_left = 0  # target lanes that have not yet issued this µop


class Lane:
    """One little core's back end operating as a vector lane.

    The per-tick scalar state (``avail`` / ``busy_until`` /
    ``uops_issued``) lives in engine-owned parallel arrays indexed by
    ``idx`` so the batched executor can evaluate the whole lane array in
    one step; the properties below keep the existing per-lane API (tests,
    sampler, progress signature) working unchanged.
    """

    __slots__ = ("engine", "idx", "fu", "latch", "ready", "ready_log",
                 "arrived", "breakdown")

    def __init__(self, engine, idx, fu):
        self.engine = engine
        self.idx = idx
        self.fu = fu
        self.latch = None
        self.ready = {}  # (seq, chime) -> cycle the lane's slice is ready
        # ``ready`` writes since the last divergence fallback, pruned to
        # the future at each re-convergence check; None until the batched
        # executor first falls back (the forced-scalar arm never logs)
        self.ready_log = None
        self.arrived = {}  # (seq, chime) -> [elements arrived, last arrival]
        self.breakdown = Breakdown()

    @property
    def avail(self):
        return self.engine._l_avail[self.idx]

    @avail.setter
    def avail(self, v):
        self.engine._l_avail[self.idx] = v

    @property
    def busy_until(self):
        return self.engine._l_busy[self.idx]

    @busy_until.setter
    def busy_until(self, v):
        self.engine._l_busy[self.idx] = v

    @property
    def uops_issued(self):
        return self.engine._l_uops[self.idx]

    # ------------------------------------------------------------------ tick

    def tick(self, now):
        """Returns 'busy', 'empty', or a Stall category for this cycle."""
        eng = self.engine
        if self.latch is None or eng._l_avail[self.idx] > now:
            return "empty"
        uop = self.latch
        status = self._try_issue(uop, now)
        if status is None:
            self.latch = None
            eng._n_latched -= 1
            eng._l_uops[self.idx] += 1
            if uop.pv is not None:
                uop.pv_left -= 1
                if uop.pv_left <= 0:
                    pv = self.engine._pv
                    pv.stage(uop.pv, "Lx", now)
                    pv.retire(uop.pv, now + self.engine.period)
            return "busy"
        return status

    def probe(self, now):
        """Pure mirror of ``tick``: ``(status, bound)`` where status is
        what a provably idle tick would return ('empty' or a Stall
        category), or None when the very next tick would issue the
        latched µop (a veto), and bound the earliest future ps this
        lane's own timers could unblock it."""
        if self.latch is None:
            return "empty", _INF
        if self.avail > now:
            return "empty", self.avail
        eng = self.engine
        uop = self.latch
        ins = uop.ins
        kind = uop.kind
        if kind == LDWB:
            expected = eng.elem_count(ins.seq, uop.chime, self.idx)
            if expected:
                a = self.arrived.get((ins.seq, uop.chime))
                if a is None or a[0] < expected:
                    return Stall.RAW_MEM, _INF  # waiting on VMU delivery
                if a[1] > now:
                    return Stall.RAW_MEM, a[1]
            return None, 0
        if kind in (VXWRITE, VXREDUCE):
            if not eng.vxu.result_ready(ins.seq, now):
                return Stall.XELEM, eng.vxu.next_event_ps(now)
            return None, 0
        # EXEC / STDATA / IDXADDR / VXREAD / MOVEXS gate on dependences
        chime = 0 if kind == MOVEXS else uop.chime
        for dep in ins.dep_ids:
            t = self.ready.get((dep, chime))
            if t is None:
                t = self.ready.get((dep, 0), 0)
            if t > now:
                return eng.seq_kind(dep), (t if t < _INF else _INF)
        if kind in (EXEC, STDATA):
            if self.busy_until > now:
                return Stall.STRUCT, self.busy_until
            if kind == EXEC:
                t = self.fu.next_free_ps(_CLS_FU[VOP_CLASS[ins.op]], now)
                if t:
                    return Stall.STRUCT, t
        return None, 0

    def _deps_ready(self, ins, chime, now):
        """None if ready, else the stall category to charge."""
        for dep in ins.dep_ids:
            t = self.ready.get((dep, chime))
            if t is None:
                t = self.ready.get((dep, 0), 0)
            if t > now:
                return self.engine.seq_kind(dep)
        return None

    def _set_ready(self, key, r):
        self.ready[key] = r
        log = self.ready_log
        if log is not None:
            log[key] = r

    def _try_issue(self, uop, now):
        eng = self.engine
        ins = uop.ins
        kind = uop.kind
        if kind == EXEC:
            stall = self._deps_ready(ins, uop.chime, now)
            if stall is not None:
                return stall
            if self.busy_until > now:
                return Stall.STRUCT
            cls = VOP_CLASS[ins.op]
            fu = _CLS_FU[cls]
            occ = eng.pack_for(ins.ew) if cls in PACK_SERIALIZED else 1
            # in vector mode the dividers sustain one element per cycle per
            # lane (paper §V-A: "four complex integer and floating-point
            # operations per cycle"); packed sub-elements still serialize
            lat = self.fu.try_issue(fu, now, occupancy=occ)
            if lat is None:
                return Stall.STRUCT
            P = eng.period
            self.busy_until = now + occ * P
            r = now + (occ - 1) * P + lat  # lat >= P, so r >= busy_until
            self._set_ready((ins.seq, uop.chime), r)
            return None
        if kind == LDWB:
            expected = eng.elem_count(ins.seq, uop.chime, self.idx)
            if expected:
                a = self.arrived.get((ins.seq, uop.chime))
                if a is None or a[0] < expected or a[1] > now:
                    return Stall.RAW_MEM
                eng.vmu.vlu.consume(self.idx, expected)
            extra = 1 if VOP_CLASS[ins.op] == VClass.MEM_INDEX else 0
            r = now + (1 + extra) * eng.period
            self._set_ready((ins.seq, uop.chime), r)
            return None
        if kind == STDATA:
            stall = self._deps_ready(ins, uop.chime, now)
            if stall is not None:
                return stall
            if self.busy_until > now:
                return Stall.STRUCT
            count = eng.elem_count(ins.seq, uop.chime, self.idx)
            self.busy_until = now + eng.period
            eng.vmu.vsu.credit(ins.seq, count, now + 2 * eng.period)
            if VOP_CLASS[ins.op] == VClass.MEM_INDEX:
                eng.vmu.credit_indexed(ins.seq, count)
            return None
        if kind == IDXADDR:
            stall = self._deps_ready(ins, uop.chime, now)
            if stall is not None:
                return stall
            count = eng.elem_count(ins.seq, uop.chime, self.idx)
            eng.vmu.credit_indexed(ins.seq, count)
            return None
        if kind == VXREAD:
            stall = self._deps_ready(ins, uop.chime, now)
            if stall is not None:
                return stall
            eng.vxu.read_arrived(ins.seq, now + eng.period)
            return None
        if kind == VXWRITE:
            if not eng.vxu.result_ready(ins.seq, now):
                return Stall.XELEM
            self._set_ready((ins.seq, uop.chime), now + eng.period)
            eng.vxwrite_done(ins.seq)
            return None
        if kind == VXREDUCE:
            if not eng.vxu.result_ready(ins.seq, now):
                return Stall.XELEM
            lat = DEFAULT_LATENCY[FUClass.FPU] * eng.period
            self._set_ready((ins.seq, 0), now + lat)
            eng.cross_done(ins.seq, now + lat)
            return None
        if kind == MOVEXS:
            stall = self._deps_ready(ins, 0, now)
            if stall is not None:
                return stall
            eng.movexs_done(ins.seq, now + eng.period)
            return None
        raise ConfigError(f"unknown µop kind {kind}")


class VLittleEngine:
    """Engine interface used by the big core: can_accept / dispatch / tick."""

    __slots__ = (
        "cores", "lanes_count", "chimes", "packed", "uopq_depth",
        "dataq_depth", "switch_penalty", "period", "bank_map", "lanes",
        "vmu", "vxu", "_uopq", "_dataq_used", "_ready_at", "_seq_kind",
        "_elem_expected", "_cross", "_fence_buffer", "_fences_pending",
        "_dataq_release", "instrs", "mode_switches", "_bcast_issued",
        "batched", "_batch_uop", "_batch_avail", "_diverged", "_n_latched",
        "_l_avail", "_l_busy", "_l_uops", "_bd_batch", "_geom",
        "batch_fallbacks", "_obs_fallbacks",
        "obs", "_pv", "_lane_obs", "_obs_uopq", "_obs_dataq",
        "_obs_last_uopq", "_vxu_obs", "_ev_notify",
    )

    def __init__(
        self,
        cores,
        chimes=2,
        packed=True,
        uopq_depth=96,
        dataq_depth=8,
        switch_penalty=500,
        loadq_lines=64,
        storeq_lines=64,
        vxu_extra_latency=2,
        coalesce_width=4,
        line_bytes=64,
        period=1,
    ):
        if not cores:
            raise ConfigError("VLITTLE engine needs at least one little core")
        if chimes not in (1, 2):
            raise ConfigError("chimes must be 1 (int regs) or 2 (int+fp regs)")
        self.cores = list(cores)
        self.lanes_count = len(cores)
        self.chimes = chimes
        self.packed = packed
        self.uopq_depth = uopq_depth
        self.dataq_depth = dataq_depth
        self.switch_penalty = switch_penalty
        self.period = period

        # reconfigure: front ends off, L1Ds become a banked shared cache,
        # L1I SRAMs become the VMU's data queues
        self.bank_map = BankMap(self.lanes_count, line_bytes)
        l1ds = []
        for c in self.cores:
            c.active = False
            c.l1d.set_banked_mode(self.lanes_count)
            # the repurposed L1I SRAM also tracks outstanding requests, so a
            # slice sustains far more misses in flight than a scalar core
            c.l1d.n_mshrs = max(c.l1d.n_mshrs, 32)
            l1ds.append(c.l1d)
        # batched lane execution: per-lane scalar state flattened into
        # engine-owned parallel arrays (indexed by lane), evaluated in one
        # step while the lanes run in lockstep. ``batched`` is a run-time
        # knob only (the forced-scalar differential arm clears it) — never
        # part of SoCConfig or cache keys, and by contract stat-invisible.
        self._l_avail = [0] * self.lanes_count  # broadcast-latch ready time
        self._l_busy = [0] * self.lanes_count  # EXEC/STDATA structural busy
        self._l_uops = [0] * self.lanes_count  # issued µop count
        self.batched = True
        self._batch_uop = None  # broadcast µop held by the whole lane array
        self._batch_avail = 0  # its pipelined-bus arrival (scalar: avail)
        self._diverged = False  # lanes left lockstep; per-lane state is live
        self._n_latched = 0  # lanes holding a scalar (per-lane) latch
        self._bd_batch = Breakdown()  # lane-cycle charges from batch steps
        self.batch_fallbacks = 0  # times the executor left batch mode
        self._obs_fallbacks = None
        self.lanes = [Lane(self, i, c.fu) for i, c in enumerate(self.cores)]
        self.vmu = VectorMemoryUnit(self, l1ds, self.bank_map,
                                    loadq_lines=loadq_lines,
                                    storeq_lines=storeq_lines,
                                    coalesce_width=coalesce_width)
        self.vxu = VXU(self.lanes_count, extra_latency=vxu_extra_latency,
                       period=period)

        self._uopq = deque()
        self._dataq_used = 0
        self._ready_at = None
        self._seq_kind = {}  # producer seq -> stall kind its consumers charge
        self._elem_expected = {}  # seq -> {(chime, lane): count}
        self._geom = {}  # (elements, pack) -> elem_geometry's shared result
        self._cross = {}  # seq -> dict(writes_left, respond, started)
        self._fence_buffer = []  # mem instrs registered after a pending fence
        self._fences_pending = 0
        self._dataq_release = set()  # id(µop) whose broadcast frees a slot

        self.instrs = 0
        self.mode_switches = 0
        self._bcast_issued = False  # _broadcast handed a µop out this cycle

        self.obs = None  # VCU UnitObs; every hook is a single cheap check
        self._pv = None  # PipeView handle; same cheap-check discipline
        # event-loop wakeup: fired on dispatch/end_region pushes from the
        # big core and on L1D slice fills arriving for the VMU
        self._ev_notify = None

    # --------------------------------------------------------- observability

    def attach_obs(self, obs):
        self.obs = obs.unit("vcu", "little", process="vector")
        self._pv = obs.pipeview
        self._lane_obs = [obs.unit(f"vcu.lane{i}", "little", process="vector")
                          for i in range(self.lanes_count)]
        self._obs_uopq = obs.metrics.histogram(
            "vcu.uopq_occupancy", (0, 8, 16, 32, 48, 64, 96))
        self._obs_dataq = obs.metrics.gauge("vcu.dataq_used")
        # divergence-fallback entries (META in repro.obs.diff: the forced-
        # scalar differential arm never enters batch mode, so the count is
        # scheduler-shaped bookkeeping, not a simulated-machine fact)
        self._obs_fallbacks = obs.metrics.counter("vcu.batch_fallbacks")
        self._obs_last_uopq = -1
        self._vxu_obs = self.vxu.attach_obs(obs)
        self.vmu.attach_obs(obs)

    # ---------------------------------------------------------- geometry

    def pack_for(self, ew):
        return max(1, 8 // ew) if self.packed else 1

    def vlmax(self, ew):
        return self.chimes * self.lanes_count * self.pack_for(ew)

    def vlen_bits(self, ew=4):
        return self.vlmax(ew) * ew * 8

    def elem_geometry(self, n, pack):
        """``(elem_cl, expected)`` for an ``n``-element memory instruction
        packing ``pack`` elements per register: element ``i``'s
        ``(chime, lane)`` (Fig. 2's mapping), and the read-only element
        count of every ``(chime, lane)`` it touches. Both depend only on
        the shape, so each is derived once per ``(n, pack)`` and shared by
        every instruction of that shape."""
        g = self._geom.get((n, pack))
        if g is None:
            epc = self.lanes_count * pack
            elem_cl = tuple((i // epc, (i % epc) // pack) for i in range(n))
            expected = {}
            for cl in elem_cl:
                expected[cl] = expected.get(cl, 0) + 1
            g = self._geom[(n, pack)] = (elem_cl, MappingProxyType(expected))
        return g

    def elem_count(self, seq, chime, lane):
        m = self._elem_expected.get(seq)
        if m is None:
            return 0
        return m.get((chime, lane), 0)

    def set_elem_expected(self, seq, expected):
        self._elem_expected[seq] = expected

    def seq_kind(self, seq):
        return self._seq_kind.get(seq, Stall.MISC)

    # --------------------------------------------------------- dispatch side

    def can_accept(self, now):
        if self._ready_at is None:
            # the OS switches the cluster into vector mode on first use
            self._ready_at = now + self.switch_penalty * self.period
            self.mode_switches += 1
            if self.obs is not None:
                self.obs.complete("mode_switch", now,
                                  self.switch_penalty * self.period)
        if now < self._ready_at:
            return False
        return (
            len(self._uopq) < self.uopq_depth
            and self.vmu.cmd_space()
            and self._dataq_used < self.dataq_depth
        )

    def end_region(self):
        """OS switched the cluster back to scalar mode (CSR write): the next
        vector region pays the switch penalty again (§III-B)."""
        n = self._ev_notify
        if n is not None:
            n()
        self._ready_at = None

    def next_accept_ps(self, now):
        """Pure bound on ``can_accept``: 0 when the next call could mutate
        (first use arms the mode switch) or succeed, the mode-switch
        ready time while the penalty runs, ``_INF`` when capacity-blocked
        (the engine's own activity frees the queues)."""
        if self._ready_at is None:
            return 0  # first call mutates: it must run on an executed tick
        if now < self._ready_at:
            return self._ready_at
        if (len(self._uopq) < self.uopq_depth and self.vmu.cmd_space()
                and self._dataq_used < self.dataq_depth):
            return 0
        return _INF

    def dispatch(self, ins, now, respond=None):
        n = self._ev_notify
        if n is not None:
            n()  # big-core push: settle + re-arm before the queues mutate
        self.instrs += 1
        op = ins.op
        if ins.rd is None and op != VOp.VSETVL:
            respond = None  # nothing to send back to the big core
        if op == VOp.VSETVL:
            if ins.vl > self.vlmax(ins.ew):
                raise ConfigError(
                    f"trace grants vl={ins.vl} but engine vlmax={self.vlmax(ins.ew)}"
                    " — the trace was generated for a different VLEN"
                )
            if respond:
                respond(now + 2 * self.period)
            return
        if op == VOp.VMFENCE:
            self._fences_pending += 1
            fence = Uop(FENCE_MARK, ins)
            if self._pv is not None:
                fence.pv = self._pv.begin(
                    "vcu", f"fence s{ins.seq}", now, stage="Q", pc=ins.pc,
                    parent=self._pv.seq_record(ins.seq))
            self._uopq.append(fence)
            return
        if ins.rs:
            self._dataq_used += 1
        nch = max(1, ceil_div(ins.vl, self.lanes_count * self.pack_for(ins.ew)))
        cls = VOP_CLASS[op]
        if VOP_IS_MEM[op]:
            if self._fences_pending:
                self._fence_buffer.append(ins)
            else:
                self.vmu.register(ins)
            self._seq_kind[ins.seq] = Stall.RAW_MEM
            if VOP_IS_LOAD[op]:
                uops = []
                if cls == VClass.MEM_INDEX:
                    uops += [Uop(IDXADDR, ins, c) for c in range(nch)]
                uops += [Uop(LDWB, ins, c) for c in range(nch)]
            else:
                uops = [Uop(STDATA, ins, c) for c in range(nch)]
        elif op == VOp.VMV_XS:
            self._cross[ins.seq] = {"respond": respond, "writes_left": 0}
            uops = [Uop(MOVEXS, ins, 0, lane_only=0)]
        elif cls == VClass.CROSS_PERM:
            self._seq_kind[ins.seq] = Stall.RAW_LLFU
            self._cross[ins.seq] = {"respond": respond,
                                    "writes_left": nch * self.lanes_count,
                                    "nelems": ins.vl, "reads": nch * self.lanes_count}
            uops = [Uop(VXREAD, ins, c) for c in range(nch)]
            uops += [Uop(VXWRITE, ins, c) for c in range(nch)]
        elif cls == VClass.CROSS_RED:
            self._seq_kind[ins.seq] = Stall.RAW_LLFU
            self._cross[ins.seq] = {"respond": respond, "writes_left": 0,
                                    "nelems": ins.vl, "reads": nch * self.lanes_count}
            uops = [Uop(VXREAD, ins, c) for c in range(nch)]
            uops.append(Uop(VXREDUCE, ins, 0, lane_only=0))
        else:
            fu = _CLS_FU[cls]
            self._seq_kind[ins.seq] = (
                Stall.RAW_LLFU if DEFAULT_LATENCY[fu] >= 3 else Stall.MISC
            )
            uops = [Uop(EXEC, ins, c) for c in range(nch)]
        if self._pv is not None:
            parent = self._pv.seq_record(ins.seq)
            for u in uops:
                u.pv = self._pv.begin(
                    "vcu", f"{UOP_NAMES[u.kind]} s{ins.seq}.c{u.chime}", now,
                    stage="Q", pc=ins.pc, parent=parent)
        self._uopq.extend(uops)
        if ins.rs:
            if uops:
                # the scalar value occupies a data-queue slot until the last
                # µop of its instruction is broadcast to the lanes
                self._dataq_release.add(id(uops[-1]))
            else:
                self._dataq_used -= 1

    # ------------------------------------------------------- lane callbacks

    def deliver_load_batch(self, seq, deliveries, at):
        """Batched VLU delivery: one call per returned line, covering every
        ``(chime, lane)`` element group it carries. ``arrived`` stays
        per-lane — straggler fills are exactly what diverges the batched
        executor."""
        lanes = self.lanes
        for (chime, lane), count in deliveries:
            a = lanes[lane].arrived.setdefault((seq, chime), [0, 0])
            a[0] += count
            if at > a[1]:
                a[1] = at

    def vxwrite_done(self, seq):
        c = self._cross.get(seq)
        if c is None:
            return
        c["writes_left"] -= 1
        if c["writes_left"] <= 0:
            self.vxu.finish(seq)
            self._cross.pop(seq, None)

    def cross_done(self, seq, ready_time):
        c = self._cross.pop(seq, None)
        self.vxu.finish(seq)
        if c and c.get("respond"):
            c["respond"](ready_time + 2 * self.period)

    def movexs_done(self, seq, ready_time):
        c = self._cross.pop(seq, None)
        if c and c.get("respond"):
            c["respond"](ready_time + 2 * self.period)

    # ------------------------------------------------------------------ tick

    def idle(self):
        return (
            not self._uopq
            and self._batch_uop is None
            and self._n_latched == 0
            and self.vmu.idle()
            and not self.vxu.busy()
        )

    def forensic_state(self, now):
        """Scheduling-state summary for :mod:`repro.obs.forensics`.
        Pure (read-only); see :meth:`BigCore.forensic_state`."""
        waits = []
        if not self.vmu.idle():
            waits.append(("mem", "VMU has commands or lines in flight"))
        ready_at = self._ready_at
        return {
            "uopq": len(self._uopq),
            "uopq_depth": self.uopq_depth,
            "dataq_used": self._dataq_used,
            "dataq_depth": self.dataq_depth,
            "fences_pending": self._fences_pending,
            "busy_lanes": (self.lanes_count if self._batch_uop is not None
                           else self._n_latched),
            "lanes": self.lanes_count,
            "batch_mode": self._batch_uop is not None,
            "batch_fallbacks": self.batch_fallbacks,
            "vxu_busy": self.vxu.busy(),
            "mode": "scalar" if ready_at is None else "vector",
            "mode_ready_ps": (ready_at if ready_at is not None
                              and ready_at > now else None),
            "vmu": self.vmu.forensic_state(now),
            "instrs": self.instrs,
            "done": self.idle(),
            "waits_on": waits,
        }

    # ------------------------------------------------------- skip scheduling

    def _broadcast_probe(self, now):
        """Pure mirror of ``_broadcast``: ``(reason, bound)`` with reason
        None when the next tick would pop/start/broadcast (a veto)."""
        if not self._uopq:
            return Stall.MISC, _INF
        uop = self._uopq[0]
        if uop.kind == FENCE_MARK:
            if (self.vmu.idle() and self._batch_uop is None
                    and self._n_latched == 0):
                return None, 0  # fence drains next tick
            return Stall.MISC, _INF
        if uop.kind in (VXREAD, VXWRITE, VXREDUCE):
            if self.vxu.busy() and self.vxu.active.seq != uop.ins.seq:
                return Stall.XELEM, _INF  # freed by a lane's executed µop
            if uop.kind == VXREAD and not self.vxu.busy():
                return None, 0  # vxu.start mutates
        if self._batch_uop is not None:
            return Stall.SIMD, _INF  # the whole lane array is occupied
        if uop.lane_only is None:
            if self._n_latched:
                return Stall.SIMD, _INF  # lanes unblock on executed ticks
            return None, 0
        if self.lanes[uop.lane_only].latch is not None:
            return Stall.SIMD, _INF
        return None, 0

    # ------------------------------------------------------- batch executor

    def _fallback(self, now):
        """Leave batch mode: materialize the leader lane's lockstep state
        into every follower (their conceptual state is identical while
        converged), then re-latch any pending batch µop so the per-lane
        path executes it — this very tick — exactly as the scalar
        executor would have.

        The mirrored ``ready`` map is first pruned of every instruction
        whose entries all lie at or before ``now``: a missing key reads
        as ready (``ready.get((dep, 0), 0)``), exactly like a past one,
        so the copy costs what is in flight rather than the run's whole
        µop history. Pruning is per instruction, not per entry: a chime
        with no entry of its own reads its instruction's chime-0 entry,
        which is always written first, so dropping only some of an
        instruction's entries could turn a past read into a future one."""
        self.batch_fallbacks += 1
        if self._obs_fallbacks is not None:
            self._obs_fallbacks.add()
        self._diverged = True
        lanes = self.lanes
        lead = lanes[0]
        ready = lead.ready
        live = {k[0] for k, t in ready.items() if t > now}
        ready = {k: t for k, t in ready.items() if k[0] in live}
        lead.ready = ready
        lead.ready_log = {}
        busy = self._l_busy
        b0 = busy[0]
        for i in range(1, self.lanes_count):
            lane = lanes[i]
            lane.ready = dict(ready)
            lane.ready_log = {}
            lane.fu.sync_from(lead.fu)
            busy[i] = b0
        uop = self._batch_uop
        if uop is not None:
            self._batch_uop = None
            avail = self._l_avail
            av = self._batch_avail
            for i, lane in enumerate(lanes):
                lane.latch = uop
                avail[i] = av
            self._n_latched = self.lanes_count

    def _reconverged(self, now):
        """True when every follower lane now behaves exactly like the
        leader, so lockstep can resume. Called with no lane latched,
        before a broadcast µop that could issue next tick at the earliest.

        Lanes match when their ``ready`` entries timed after ``now``,
        their structural-busy times and their unpipelined-FU busy times
        agree: anything at or before ``now`` reads as ready on every
        lane. All lanes held the same ``ready`` map at the last fallback,
        so only the writes logged since then can differ; each check
        prunes the logs to the future, which bounds its cost by what is
        in flight."""
        lanes = self.lanes
        busy = self._l_busy
        b0 = busy[0]
        lead = lanes[0]
        log0 = {k: t for k, t in lead.ready_log.items() if t > now}
        lead.ready_log = log0
        same = True
        for i in range(1, self.lanes_count):
            lane = lanes[i]
            log = {k: t for k, t in lane.ready_log.items() if t > now}
            lane.ready_log = log
            if same:
                b = busy[i]
                same = ((b == b0 or (b <= now and b0 <= now))
                        and log == log0
                        and lane.fu.same_busy_after(lead.fu, now))
        return same

    def _finish_batch(self, uop, now):
        """Bookkeeping shared by every lockstep µop issue."""
        self._batch_uop = None
        uops = self._l_uops
        for i in range(self.lanes_count):
            uops[i] += 1
        if uop.pv is not None:
            pv = self._pv
            pv.stage(uop.pv, "Lx", now)
            pv.retire(uop.pv, now + self.period)

    def _batch_tick(self, now):
        """Execute the held broadcast µop on the whole lane array in one
        step. Leader-and-mirror: while the lanes are converged, lane 0's
        ready map / busy timer / FU pool are canonical for the array, so
        one scalar-shaped issue decides — and charges — every lane at
        once. Returns 'busy', 'empty', a Stall category, or ``_DIVERGE``
        when the lanes can no longer act in lockstep (straggler VMU
        fills), in which case nothing has been mutated yet and the caller
        falls back to the per-lane path for this very tick."""
        if self._batch_avail > now:
            return "empty"
        uop = self._batch_uop
        ins = uop.ins
        kind = uop.kind
        lead = self.lanes[0]
        if kind == LDWB:
            seq = ins.seq
            chime = uop.chime
            expected = self._elem_expected.get(seq)
            blocked = issuable = False
            for i, lane in enumerate(self.lanes):
                exp = expected.get((chime, i), 0) if expected else 0
                if exp:
                    a = lane.arrived.get((seq, chime))
                    if a is None or a[0] < exp or a[1] > now:
                        blocked = True
                        continue
                issuable = True
            if blocked:
                if not issuable:
                    return Stall.RAW_MEM  # whole array waits on the VMU
                return _DIVERGE  # straggler fills: lanes split this tick
            vlu = self.vmu.vlu
            for i in range(self.lanes_count):
                exp = expected.get((chime, i), 0) if expected else 0
                if exp:
                    vlu.consume(i, exp)
            extra = 1 if VOP_CLASS[ins.op] == VClass.MEM_INDEX else 0
            r = now + (1 + extra) * self.period
            lead.ready[(seq, chime)] = r
            self._finish_batch(uop, now)
            return "busy"
        if kind == VXWRITE:
            if not self.vxu.result_ready(ins.seq, now):
                return Stall.XELEM
            lead.ready[(ins.seq, uop.chime)] = now + self.period
            for _ in range(self.lanes_count):
                self.vxwrite_done(ins.seq)
            self._finish_batch(uop, now)
            return "busy"
        # EXEC / STDATA / IDXADDR / VXREAD gate on the leader's state
        stall = lead._deps_ready(ins, uop.chime, now)
        if stall is not None:
            return stall
        if kind == EXEC:
            if self._l_busy[0] > now:
                return Stall.STRUCT
            cls = VOP_CLASS[ins.op]
            occ = self.pack_for(ins.ew) if cls in PACK_SERIALIZED else 1
            lat = lead.fu.try_issue(_CLS_FU[cls], now, occupancy=occ)
            if lat is None:
                return Stall.STRUCT
            P = self.period
            self._l_busy[0] = now + occ * P
            r = now + (occ - 1) * P + lat  # lat >= P, so r >= busy_until
            lead.ready[(ins.seq, uop.chime)] = r
            self._finish_batch(uop, now)
            return "busy"
        if kind == STDATA:
            if self._l_busy[0] > now:
                return Stall.STRUCT
            P = self.period
            self._l_busy[0] = now + P
            at = now + 2 * P
            seq = ins.seq
            vsu = self.vmu.vsu
            indexed = VOP_CLASS[ins.op] == VClass.MEM_INDEX
            for i in range(self.lanes_count):
                count = self.elem_count(seq, uop.chime, i)
                vsu.credit(seq, count, at)
                if indexed:
                    self.vmu.credit_indexed(seq, count)
            self._finish_batch(uop, now)
            return "busy"
        if kind == IDXADDR:
            seq = ins.seq
            for i in range(self.lanes_count):
                self.vmu.credit_indexed(seq, self.elem_count(seq, uop.chime, i))
            self._finish_batch(uop, now)
            return "busy"
        if kind == VXREAD:
            at = now + self.period
            for _ in range(self.lanes_count):
                self.vxu.read_arrived(ins.seq, at)
            self._finish_batch(uop, now)
            return "busy"
        raise ConfigError(f"unbatchable µop kind {kind} in batch mode")

    def _batch_probe(self, now):
        """Pure mirror of ``_batch_tick``: ``(status, bound)`` exactly as
        the per-lane probes would report it for the converged array, with
        status None (a veto) when the next tick would issue *or*
        diverge — both mutate."""
        if self._batch_avail > now:
            return "empty", self._batch_avail
        uop = self._batch_uop
        ins = uop.ins
        kind = uop.kind
        lead = self.lanes[0]
        if kind == LDWB:
            seq = ins.seq
            chime = uop.chime
            expected = self._elem_expected.get(seq)
            bound = _INF
            issuable = False
            for i, lane in enumerate(self.lanes):
                exp = expected.get((chime, i), 0) if expected else 0
                if exp:
                    a = lane.arrived.get((seq, chime))
                    if a is None or a[0] < exp:
                        continue  # in flight: covered by the VMU's bound
                    if a[1] > now:
                        if a[1] < bound:
                            bound = a[1]
                        continue
                issuable = True
            if issuable:
                return None, 0  # issue or divergence fallback next tick
            return Stall.RAW_MEM, bound
        if kind == VXWRITE:
            if not self.vxu.result_ready(ins.seq, now):
                return Stall.XELEM, self.vxu.next_event_ps(now)
            return None, 0
        chime = uop.chime
        ready = lead.ready
        for dep in ins.dep_ids:
            t = ready.get((dep, chime))
            if t is None:
                t = ready.get((dep, 0), 0)
            if t > now:
                return self.seq_kind(dep), (t if t < _INF else _INF)
        if kind in (EXEC, STDATA):
            if self._l_busy[0] > now:
                return Stall.STRUCT, self._l_busy[0]
            if kind == EXEC:
                t = lead.fu.next_free_ps(_CLS_FU[VOP_CLASS[ins.op]], now)
                if t:
                    return Stall.STRUCT, t
        return None, 0

    # ------------------------------------------------------------ scheduling

    def next_work_ps(self, now):
        """Earliest future ps at which the engine (VMU, lanes, broadcast,
        or the VXU ring) could do real work; 0 vetoes skipping."""
        bound = self.vmu.next_work_ps(now)
        if bound <= now:
            return 0
        if self._batch_uop is not None:
            # the whole lane array holds one µop: a single probe over the
            # batch state replaces the per-lane probe loop
            st, t = self._batch_probe(now)
            if st is None or t <= now:
                return 0
            if t < bound:
                bound = t
        elif self._n_latched:
            for lane in self.lanes:
                st, t = lane.probe(now)
                if st is None:
                    return 0
                if t <= now:
                    return 0
                if t < bound:
                    bound = t
        # no latches at all: every lane is ('empty', _INF) — skip the loop
        reason, t = self._broadcast_probe(now)
        if reason is None:
            return 0
        if t < bound:
            bound = t
        # the ring's rotation completing flips lane result_ready and the
        # VXU's per-cycle attribution category
        t = self.vxu.next_event_ps(now)
        if t < bound:
            bound = t
        return bound

    def skip_ticks(self, n, now):
        """Replay the per-tick constant effects of ``n`` provably idle
        ticks: per-lane and VCU stall attribution, VMU counters, and the
        per-cycle obs instruments."""
        self.vmu.skip_ticks(n, now)
        reason = self._broadcast_probe(now)[0]
        statuses = None
        if self._batch_uop is not None:
            st = self._batch_probe(now)[0]
            cat = reason if st == "empty" else st
            self._bd_batch.add(cat, n * self.lanes_count)
        elif self._n_latched:
            statuses = [lane.probe(now)[0] for lane in self.lanes]
            for lane, st in zip(self.lanes, statuses):
                lane.breakdown.add(reason if st == "empty" else st, n)
        else:
            cat = reason  # every lane is empty: one shared charge
            self._bd_batch.add(cat, n * self.lanes_count)
        o = self.obs
        if o is not None:
            if statuses is None:
                for u in self._lane_obs:
                    u.cycle(cat, n)
            else:
                for u, st in zip(self._lane_obs, statuses):
                    u.cycle(reason if st == "empty" else st, n)
            o.cycle(reason, n)  # no broadcast on an idle tick
            self._vxu_obs.cycle(self.vxu.cycle_category(now), n)
            self._obs_uopq.observe(len(self._uopq), n)
            self._obs_dataq.set(self._dataq_used, n)
            # queue depth is frozen during a skip: no counter event

    # ------------------------------------------------------------------ tick

    def tick(self, now):
        self.vmu.tick(now)
        if self._batch_uop is not None:
            st = self._batch_tick(now)
            if st is not _DIVERGE:
                self._bcast_issued = False
                reason = self._broadcast(now)
                cat = (Stall.BUSY if st == "busy"
                       else (reason if st == "empty" else st))
                self._bd_batch.add(cat, self.lanes_count)
                o = self.obs
                if o is not None:
                    for u in self._lane_obs:
                        u.cycle(cat)
                    self._tick_obs(o, reason, now)
                return
            # straggler fills split the array: materialize per-lane state
            # and run this very tick on the scalar path below
            self._fallback(now)
        if self._n_latched:
            statuses = [lane.tick(now) for lane in self.lanes]
            self._bcast_issued = False
            reason = self._broadcast(now)
            for lane, st in zip(self.lanes, statuses):
                if st == "busy":
                    lane.breakdown.add(Stall.BUSY)
                elif st == "empty":
                    lane.breakdown.add(reason)
                else:
                    lane.breakdown.add(st)
            o = self.obs
            if o is not None:
                for u, st in zip(self._lane_obs, statuses):
                    u.cycle(Stall.BUSY if st == "busy"
                            else (reason if st == "empty" else st))
                self._tick_obs(o, reason, now)
            return
        # every lane is empty this tick: broadcast, one shared charge
        self._bcast_issued = False
        reason = self._broadcast(now)
        self._bd_batch.add(reason, self.lanes_count)
        o = self.obs
        if o is not None:
            for u in self._lane_obs:
                u.cycle(reason)
            self._tick_obs(o, reason, now)

    def _tick_obs(self, o, reason, now):
        o.cycle(Stall.BUSY if self._bcast_issued else reason)
        self._vxu_obs.cycle(self.vxu.cycle_category(now))
        depth = len(self._uopq)
        self._obs_uopq.observe(depth)
        self._obs_dataq.set(self._dataq_used)
        if depth != self._obs_last_uopq:
            o.counter("uopq_depth", now, depth)
            self._obs_last_uopq = depth

    def _broadcast(self, now):
        """Try to broadcast the head µop; returns the stall category idle
        lanes should be charged with this cycle."""
        if not self._uopq:
            return Stall.MISC
        uop = self._uopq[0]
        if uop.kind == FENCE_MARK:
            if (self.vmu.idle() and self._batch_uop is None
                    and self._n_latched == 0):
                self._uopq.popleft()
                if uop.pv is not None:
                    self._pv.retire(uop.pv, now)
                self._fences_pending -= 1
                if self._fences_pending == 0:
                    for ins in self._fence_buffer:
                        self.vmu.register(ins)
                    self._fence_buffer.clear()
            return Stall.MISC
        if uop.kind in (VXREAD, VXWRITE, VXREDUCE):
            if self.vxu.busy() and self.vxu.active.seq != uop.ins.seq:
                return Stall.XELEM
            if uop.kind == VXREAD and (not self.vxu.busy()):
                c = self._cross[uop.ins.seq]
                self.vxu.start(uop.ins.seq, c["nelems"], c["reads"], now=now)
        if self._batch_uop is not None:
            return Stall.SIMD  # the whole lane array is occupied
        if uop.lane_only is None:
            if self._n_latched:
                return Stall.SIMD
            if self.batched:
                if self._diverged and self._reconverged(now):
                    self._diverged = False
                if not self._diverged:
                    self._batch_uop = uop
                    self._batch_avail = now + self.period
                    self._uopq.popleft()
                    self._bcast_issued = True
                    if uop.pv is not None:
                        self._pv.stage(uop.pv, "Bc", now)
                        uop.pv_left = self.lanes_count
                    if self.obs is not None:
                        self.obs.instant(f"uop:{UOP_NAMES[uop.kind]}", now,
                                         {"seq": uop.ins.seq,
                                          "chime": uop.chime})
                    if id(uop) in self._dataq_release:
                        self._dataq_release.discard(id(uop))
                        self._dataq_used -= 1
                    return Stall.MISC
            targets = self.lanes
        else:
            if self.batched and not self._diverged:
                # lane-only µops (MOVEXS, VXREDUCE) run on the per-lane
                # path: leave batch mode first
                self._fallback(now)
            targets = [self.lanes[uop.lane_only]]
        if any(l.latch is not None for l in targets):
            return Stall.SIMD
        for l in targets:
            l.latch = uop
            l.avail = now + self.period
        self._n_latched += len(targets)
        self._uopq.popleft()
        self._bcast_issued = True
        if uop.pv is not None:
            self._pv.stage(uop.pv, "Bc", now)
            uop.pv_left = len(targets)
        if self.obs is not None:
            self.obs.instant(f"uop:{UOP_NAMES[uop.kind]}", now,
                             {"seq": uop.ins.seq, "chime": uop.chime})
        if id(uop) in self._dataq_release:
            self._dataq_release.discard(id(uop))
            self._dataq_used -= 1
        return Stall.MISC

    # ----------------------------------------------------------------- stats

    def breakdown(self):
        """Merged per-lane breakdown (Figure 7's 'average of four cores')."""
        out = Breakdown()
        for l in self.lanes:
            out = out.merged_with(l.breakdown)
        # lane-cycles charged by the batched executor (one shared charge
        # of lanes_count per tick instead of one per lane)
        return out.merged_with(self._bd_batch)

    def stats(self):
        out = {
            "vlittle.instrs": self.instrs,
            "vlittle.mode_switches": self.mode_switches,
            "vlittle.uops": sum(l.uops_issued for l in self.lanes),
            "vlittle.xops": self.vxu.ops_completed,
        }
        out.update(self.vmu.stats())
        merged = self.breakdown()
        for name, v in merged.as_dict().items():
            out[f"vlittle.lane_stall.{name}"] = v
        return out
