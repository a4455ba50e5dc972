"""Vector memory unit of the VLITTLE engine (paper §III-E).

* **VMIU** — receives memory commands from the VCU the moment the big core
  dispatches them (decoupling), generates one cache-line request per cycle
  from base+stride, coalesces up to four indexed elements per cycle, and
  routes each request to the VMSU owning its bank.
* **VMSU** (one per little-core L1D slice) — a store-address CAM disambiguates
  loads against outstanding stores; load and store data live in FIFOs carved
  from the (idle) L1I SRAM arrays, whose depth is the Figure 8 sweep knob.
* **VLU** — returns load lines strictly in request order, slicing each into
  per-lane element groups pushed into the lanes' load queues.
* **VSU** — collects per-element store data from the lanes and releases each
  store line to its VMSU once assembled.

Element-to-lane geometry: element ``i`` of a ``vl``-element instruction lives
in chime ``i // (lanes*pack)`` and lane ``(i % (lanes*pack)) // pack`` — the
paper's Figure 2 mapping with ``pack`` consecutive elements packed into one
64-bit scalar register.
"""

from __future__ import annotations

from collections import deque

from repro.isa.vector import VClass, VOP_CLASS, VOP_IS_LOAD
from repro.mem.message import BLOCKED, HIT
from repro.stats.breakdown import Stall

_INF = 1 << 60


class LineReq:
    __slots__ = ("rid", "line", "is_write", "seq", "deliveries", "data_ready",
                 "store_data_at", "nelems", "pv")

    def __init__(self, rid, line, is_write, seq, deliveries, nelems):
        self.rid = rid
        self.line = line
        self.is_write = is_write
        self.seq = seq
        self.deliveries = deliveries  # [(chime, lane, count)]
        self.data_ready = None  # loads: cycle line data arrived from the L1D
        self.store_data_at = None  # stores: cycle the VSU assembled the data
        self.nelems = nelems
        self.pv = None  # PipeRecord when instruction-grain tracking is on


class _MemCmd:
    """Per-instruction bookkeeping created when the VCU registers a memory op."""

    __slots__ = ("ins", "lines", "next_line", "indexed", "addr_credits",
                 "next_elem", "pv_parent")

    def __init__(self, ins, lines, indexed):
        self.ins = ins
        self.lines = lines  # [(line, deliveries, nelems)] in element order
        self.next_line = 0
        self.indexed = indexed
        self.addr_credits = 0  # indexed: element addresses received from lanes
        self.next_elem = 0
        self.pv_parent = None  # dispatching PipeRecord, captured at register()


class VectorMemoryUnit:
    __slots__ = ("engine", "bank_map", "coalesce_width", "_cmdq", "_rid",
                 "vmsus", "vlu", "vsu", "line_reqs", "store_line_reqs",
                 "obs", "_pv", "_obs_coalesce")

    def __init__(self, engine, l1ds, bank_map, loadq_lines=64, storeq_lines=64,
                 vmsu_inq_depth=4, coalesce_width=4):
        self.engine = engine
        self.bank_map = bank_map
        self.coalesce_width = coalesce_width
        self._cmdq = deque()
        self._rid = 0
        self.vmsus = [VMSU(self, i, l1d, loadq_lines, storeq_lines, vmsu_inq_depth)
                      for i, l1d in enumerate(l1ds)]
        self.vlu = VLU(engine)
        self.vsu = VSU(engine)
        # counters
        self.line_reqs = 0
        self.store_line_reqs = 0

        self.obs = None  # VMIU UnitObs; every hook is a single cheap check
        self._pv = None  # PipeView handle; same cheap-check discipline

    # --------------------------------------------------------- observability

    def attach_obs(self, obs):
        self.obs = obs.unit("vmu", "little", process="vector")
        self._pv = obs.pipeview
        self._obs_coalesce = obs.metrics.histogram(
            "vmu.coalesce_elems", (1, 2, 4, 8, 16, 32))
        for v in self.vmsus:
            v.attach_obs(obs)

    # ---------------------------------------------------------- VCU interface

    def cmd_space(self):
        return len(self._cmdq) < 64

    def register(self, ins):
        """Accept a memory instruction (called at dispatch — decoupling)."""
        eng = self.engine
        addrs = ins.element_addrs()
        elem_cl, expected = eng.elem_geometry(len(addrs), eng.pack_for(ins.ew))
        lb = self.bank_map.line_bytes
        lines = []
        cur_line, cur_deliv, cur_n = None, None, 0
        for key, a in zip(elem_cl, addrs):
            ln = a // lb * lb
            if ln != cur_line:
                if cur_line is not None:
                    lines.append((cur_line, cur_deliv, cur_n))
                cur_line, cur_deliv, cur_n = ln, {}, 0
            cur_deliv[key] = cur_deliv.get(key, 0) + 1
            cur_n += 1
        if cur_line is not None:
            lines.append((cur_line, cur_deliv, cur_n))
        cmd = _MemCmd(ins, lines, VOP_CLASS[ins.op] == VClass.MEM_INDEX)
        if self._pv is not None:
            # capture the dispatching record now — by the time the VMIU
            # issues this command's lines the ROB entry may have retired
            cmd.pv_parent = self._pv.seq_record(ins.seq)
        self._cmdq.append(cmd)
        # per-(chime, lane) element counts drive the lanes' LDWB/STDATA µops
        eng.set_elem_expected(ins.seq, expected)
        if not VOP_IS_LOAD[ins.op]:
            self.vsu.register_store(ins.seq, len(addrs))

    def credit_indexed(self, seq, count):
        """Lanes delivered ``count`` element addresses for instruction seq."""
        for cmd in self._cmdq:
            if cmd.ins.seq == seq:
                cmd.addr_credits += count
                return
        # command already fully issued (late credits are harmless)

    def idle(self):
        return (not self._cmdq and all(v.idle() for v in self.vmsus)
                and self.vlu.idle() and self.vsu.idle())

    def forensic_state(self, now):
        """Occupancy summary for :mod:`repro.obs.forensics` (pure),
        nested into the owning engine's snapshot."""
        return {
            "cmdq": len(self._cmdq),
            "loadq_pending": len(self.vlu.pending),
            "storeq_pending": len(self.vsu.pending),
            "vmsu_inq": [len(v.inq) for v in self.vmsus],
            "vmsu_ldq_used": [v.ldq_used for v in self.vmsus],
            "vmsu_sdq": [len(v.sdq) for v in self.vmsus],
            "store_fills_inflight": sum(v._store_fills for v in self.vmsus),
        }

    # ------------------------------------------------------------------ tick

    def tick(self, now):
        for v in self.vmsus:
            v.tick(now)
        self.vsu.tick(now)
        self.vlu.tick(now)
        cat = self._vmiu_tick(now)
        if self.obs is not None:
            self.obs.cycle(cat)

    # ------------------------------------------------------- skip scheduling

    def _vmiu_probe(self, now):
        """Pure mirror of ``_vmiu_tick``: ``(category, bound)`` where
        category is the stall an idle cycle charges (None when the next
        tick would issue or pop — a veto) and bound the earliest future
        ps the VMIU's own state unblocks (always ``_INF`` here: credits,
        queue space, and pops all arrive on executed ticks)."""
        if not self._cmdq:
            return Stall.MISC, _INF
        cmd = self._cmdq[0]
        if cmd.next_line >= len(cmd.lines):
            return None, 0
        line, _deliveries, nelems = cmd.lines[cmd.next_line]
        if cmd.indexed:
            need = cmd.next_elem + min(nelems, self.coalesce_width)
            if cmd.addr_credits < need:
                return Stall.RAW_LLFU, _INF
        if not self.vmsus[self.bank_map.bank_of(line)].can_accept():
            return Stall.STRUCT, _INF
        return None, 0

    def next_work_ps(self, now):
        """Earliest future ps at which any VMU sub-unit could do work."""
        cat, bound = self._vmiu_probe(now)
        if cat is None:
            return 0
        for v in self.vmsus:
            t = v.next_work_ps(now)
            if t <= now:
                return 0
            if t < bound:
                bound = t
        t = self.vsu.next_work_ps(now)
        if t <= now:
            return 0
        if t < bound:
            bound = t
        t = self.vlu.next_work_ps(now)
        if t <= now:
            return 0
        if t < bound:
            bound = t
        return bound

    def skip_ticks(self, n, now):
        """Replay per-tick constant effects of ``n`` provably idle ticks."""
        for v in self.vmsus:
            v.skip_ticks(n, now)
        self.vlu.skip_ticks(n, now)
        # the VSU's idle paths have no per-tick effects
        if self.obs is not None:
            cat, _ = self._vmiu_probe(now)
            self.obs.cycle(cat, n)

    def _vmiu_tick(self, now):
        """Generate at most one line request per cycle (shared command bus).

        Returns the Stall category this VMIU cycle is attributed to."""
        if not self._cmdq:
            return Stall.MISC
        cmd = self._cmdq[0]
        if cmd.next_line >= len(cmd.lines):
            self._cmdq.popleft()
            return Stall.MISC
        line, deliveries, nelems = cmd.lines[cmd.next_line]
        if cmd.indexed:
            # only issue once the lanes have produced the addresses of every
            # element in this line-group (coalescing window <= 4 elements)
            need = cmd.next_elem + min(nelems, self.coalesce_width)
            if cmd.addr_credits < need:
                return Stall.RAW_LLFU  # waiting on lane address generation
        is_write = not VOP_IS_LOAD[cmd.ins.op]
        bank = self.bank_map.bank_of(line)
        vmsu = self.vmsus[bank]
        if not vmsu.can_accept():
            return Stall.STRUCT  # target slice's input queue is full
        req = LineReq(self._rid, line, is_write,
                      cmd.ins.seq, list(deliveries.items()), nelems)
        if self._pv is not None:
            req.pv = self._pv.begin(
                "vmu", f"{'st' if is_write else 'ld'} 0x{line:x} s{cmd.ins.seq}",
                now, stage="VM", pc=cmd.ins.pc, parent=cmd.pv_parent)
        self._rid += 1
        self.line_reqs += 1
        if is_write:
            self.store_line_reqs += 1
        if self.obs is not None:
            self._obs_coalesce.observe(nelems)
            self.obs.instant("store_line" if is_write else "load_line", now,
                             {"bank": bank, "seq": cmd.ins.seq})
        vmsu.push(req, now)
        if not is_write:
            self.vlu.pending.append(req)
        else:
            self.vsu.pending.append(req)
        cmd.next_line += 1
        cmd.next_elem += nelems
        if cmd.next_line >= len(cmd.lines):
            self._cmdq.popleft()
        return Stall.BUSY

    def stats(self):
        return {
            "vmu.line_reqs": self.line_reqs,
            "vmu.store_line_reqs": self.store_line_reqs,
            "vmu.load_blocked_on_cam": sum(v.cam_stalls for v in self.vmsus),
            "vmu.ldq_full_stalls": sum(v.ldq_full_stalls for v in self.vmsus),
        }


class VMSU:
    """Vector memory slice unit: front end of one L1D bank slice."""

    __slots__ = ("vmu", "bank", "l1d", "loadq_lines", "storeq_lines",
                 "inq_depth", "inq", "ldq_used", "sdq", "cam", "_store_fills",
                 "_port_cycle", "cam_stalls", "ldq_full_stalls",
                 "obs", "_obs_ldq")

    def __init__(self, vmu, bank, l1d, loadq_lines, storeq_lines, inq_depth):
        self.vmu = vmu
        self.bank = bank
        self.l1d = l1d
        self.loadq_lines = loadq_lines
        self.storeq_lines = storeq_lines
        self.inq_depth = inq_depth
        self.inq = deque()
        self.ldq_used = 0
        self.sdq = deque()  # store LineReqs waiting for data / L1D write
        self.cam = {}  # line -> count of outstanding stores to it
        self._store_fills = 0  # write misses completing inside the L1D
        self._port_cycle = -1
        self.cam_stalls = 0
        self.ldq_full_stalls = 0

        self.obs = None  # UnitObs handle; every hook is a single cheap check

    # --------------------------------------------------------- observability

    def attach_obs(self, obs):
        self.obs = obs.unit(f"vmsu{self.bank}", "little", process="vector")
        self._obs_ldq = obs.metrics.histogram(
            f"vmsu{self.bank}.ldq_occupancy", (0, 4, 8, 16, 32, 64))

    def can_accept(self):
        return len(self.inq) < self.inq_depth

    def push(self, req, now):
        self.inq.append(req)

    def idle(self):
        return (not self.inq and not self.sdq and self.ldq_used == 0
                and self._store_fills == 0)

    # ------------------------------------------------------- skip scheduling

    def next_work_ps(self, now):
        """Earliest future ps at which either sub-pipe could do work.
        ``_port_cycle`` is never equal to a future tick, so the probe
        evaluates both pipes as if the port were free. Pure."""
        bound = _INF
        if self.inq:
            req = self.inq[0]
            if req.is_write:
                if len(self.sdq) < self.storeq_lines:
                    return 0  # store enters the CAM/sdq next tick
            elif not self.cam.get(req.line):
                if self.ldq_used < self.loadq_lines:
                    return 0  # load accesses the L1D slice next tick
            # CAM-blocked or queue-full: unblocked by the store pipe below
            # or by the VLU freeing ldq entries on an executed tick
        if self.sdq:
            t = self.sdq[0].store_data_at
            if t is not None:
                if t <= now:
                    return 0  # store writes to the L1D slice next tick
                if t < bound:
                    bound = t
        return bound

    def skip_ticks(self, n, now):
        """Replay ``n`` provably idle ticks: the blocked sub-pipes charge
        their stall counters and obs attribution every cycle."""
        a = s = None
        if self.inq:
            req = self.inq[0]
            if req.is_write:
                a = Stall.STRUCT  # sdq full (anything else was vetoed)
            elif self.cam.get(req.line):
                self.cam_stalls += n
                a = Stall.RAW_MEM
            else:
                self.ldq_full_stalls += n
                a = Stall.STRUCT  # ldq full (anything else was vetoed)
        if self.sdq:
            s = Stall.RAW_LLFU  # waiting on store data (else vetoed)
        if self.obs is not None:
            cat = a if a is not None else (s if s is not None else Stall.MISC)
            self.obs.cycle(cat, n)
            self._obs_ldq.observe(self.ldq_used, n)

    def tick(self, now):
        a = self._accept_tick(now)
        s = self._store_write_tick(now)
        if self.obs is not None:
            # one category per slice cycle: progress on either sub-pipe wins
            if a == Stall.BUSY or s == Stall.BUSY:
                cat = Stall.BUSY
            elif a is not None:
                cat = a
            elif s is not None:
                cat = s
            else:
                cat = Stall.MISC
            self.obs.cycle(cat)
            self._obs_ldq.observe(self.ldq_used)

    def _accept_tick(self, now):
        """Returns the Stall category for the accept pipe, or None if idle."""
        if not self.inq:
            return None
        req = self.inq[0]
        if req.is_write:
            if len(self.sdq) >= self.storeq_lines:
                return Stall.STRUCT
            # the store enters the CAM only now: the in-order inq guarantees
            # it is older than every load still queued behind it
            self.cam[req.line] = self.cam.get(req.line, 0) + 1
            self.sdq.append(req)
            self.inq.popleft()
            if req.pv is not None:
                self.vmu._pv.stage(req.pv, "SQ", now)
            return Stall.BUSY
        # load: RAW disambiguation against queued stores to the same line
        if self.cam.get(req.line):
            self.cam_stalls += 1
            return Stall.RAW_MEM
        if self.ldq_used >= self.loadq_lines:
            self.ldq_full_stalls += 1
            return Stall.STRUCT
        if self._port_cycle == now:
            return Stall.STRUCT
        res, ready = self.l1d.access(req.line, False, now, waiter=self._fill_waiter(req))
        if res == BLOCKED:
            return Stall.STRUCT
        self._port_cycle = now
        if res == HIT:
            req.data_ready = ready
        self.ldq_used += 1
        self.inq.popleft()
        if req.pv is not None:
            self.vmu._pv.stage(req.pv, "L1", now)
        return Stall.BUSY

    def _fill_waiter(self, req):
        def waiter(line, ready):
            n = self.vmu.engine._ev_notify
            if n is not None:
                n()
            req.data_ready = ready

        return waiter

    def _store_write_tick(self, now):
        """Issue the oldest data-complete store to the L1D slice. The CAM
        entry clears as soon as the store is *sent to memory* (paper §III-E:
        loads stall only "until the store request is sent to the memory
        subsystem"); a write miss finishes inside the cache via its MSHR."""
        if not self.sdq:
            return None
        if self._port_cycle == now:
            return Stall.STRUCT
        req = self.sdq[0]
        if req.store_data_at is None or req.store_data_at > now:
            return Stall.RAW_LLFU  # waiting on store data from the lanes
        res, ready = self.l1d.access(req.line, True, now, waiter=self._store_done_waiter())
        if res == BLOCKED:
            self._store_fills -= 1
            return Stall.STRUCT
        self._port_cycle = now
        if res == HIT:
            self._store_fills -= 1
        if req.pv is not None:
            pv = self.vmu._pv
            pv.stage(req.pv, "L1", now)
            pv.retire(req.pv, now)
        self._retire_store()
        return Stall.BUSY

    def _store_done_waiter(self):
        self._store_fills += 1

        def waiter(line, ready):
            n = self.vmu.engine._ev_notify
            if n is not None:
                n()
            self._store_fills -= 1

        return waiter

    def _retire_store(self):
        req = self.sdq.popleft()
        n = self.cam.get(req.line, 0) - 1
        if n <= 0:
            self.cam.pop(req.line, None)
        else:
            self.cam[req.line] = n


class VLU:
    """Vector load unit: strict in-order line return, sliced per lane."""

    __slots__ = ("engine", "pending", "lane_q_elems", "lane_q_used",
                 "lane_q_stalls")

    def __init__(self, engine, lane_q_elems=32):
        self.engine = engine
        self.pending = deque()  # load LineReqs in request order
        self.lane_q_elems = lane_q_elems
        self.lane_q_used = [0] * engine.lanes_count
        self.lane_q_stalls = 0

    def idle(self):
        return not self.pending

    def next_work_ps(self, now):
        """Earliest future ps the VLU could deliver; ``_INF`` while the
        head line is in flight (the L1D fill fires on an executed memory
        tick) or a lane queue is full (lanes drain on executed ticks)."""
        if not self.pending:
            return _INF
        req = self.pending[0]
        t = req.data_ready
        if t is None:
            return _INF
        if t > now:
            return t
        for (_chime, lane), count in req.deliveries:
            if self.lane_q_used[lane] + count > self.lane_q_elems:
                return _INF  # skip_ticks compensates the per-tick stall
        return 0

    def skip_ticks(self, n, now):
        if not self.pending:
            return
        req = self.pending[0]
        if req.data_ready is None or req.data_ready > now:
            return
        self.lane_q_stalls += n  # head blocked on a full lane queue

    def tick(self, now):
        if not self.pending:
            return
        req = self.pending[0]
        if req.data_ready is None or req.data_ready > now:
            return
        for (chime, lane), count in req.deliveries:
            if self.lane_q_used[lane] + count > self.lane_q_elems:
                self.lane_q_stalls += 1
                return
        for (_chime, lane), count in req.deliveries:
            self.lane_q_used[lane] += count
        self.engine.deliver_load_batch(req.seq, req.deliveries,
                                       now + self.engine.period)
        self.pending.popleft()
        if req.pv is not None:
            self.engine.vmu._pv.retire(req.pv, now + self.engine.period)
        # free the slice's SRAM load-queue entry
        bank = self.engine.vmu.bank_map.bank_of(req.line)
        self.engine.vmu.vmsus[bank].ldq_used -= 1

    def consume(self, lane, count):
        """A lane's load-writeback µop drained ``count`` elements."""
        self.lane_q_used[lane] -= count


class VSU:
    """Vector store unit: assembles store lines from per-lane element data."""

    __slots__ = ("engine", "pending", "_have", "_need")

    def __init__(self, engine):
        self.engine = engine
        self.pending = deque()  # store LineReqs in request order
        self._have = {}  # seq -> (elements received, last arrival cycle)
        self._need = {}  # seq -> total elements

    def register_store(self, seq, nelems):
        self._need[seq] = nelems
        self._have.setdefault(seq, [0, 0])

    def credit(self, seq, count, at):
        h = self._have.setdefault(seq, [0, 0])
        h[0] += count
        if at > h[1]:
            h[1] = at

    def idle(self):
        return not self.pending

    def next_work_ps(self, now):
        """Earliest future ps the VSU could assemble its head line;
        ``_INF`` while waiting on lane store-data credits."""
        if not self.pending:
            return _INF
        req = self.pending[0]
        if req.store_data_at is not None:
            return 0  # head pops next tick
        h = self._have.get(req.seq)
        need = self._need.get(req.seq, 0)
        if h is None or h[0] < need:
            return _INF
        if h[1] > now:
            return h[1]
        return 0

    def tick(self, now):
        if not self.pending:
            return
        req = self.pending[0]
        if req.store_data_at is not None:
            self.pending.popleft()
            return
        h = self._have.get(req.seq)
        need = self._need.get(req.seq, 0)
        if h is None or h[0] < need or h[1] > now:
            return
        req.store_data_at = now + self.engine.period
        self.pending.popleft()
