"""System assembly and the multi-clock-domain simulation loop.

All component timing runs in integer picoseconds; each clock domain (big
cluster, little cluster, memory) ticks its components at its own period, so
independent big/little voltage-frequency scaling (paper §VII) falls out of
the same simulation that produces §V's iso-frequency results.

Two run loops drive it. The default is the per-unit event core in
:mod:`repro.soc.events`: every ticking component exposes a pure
``next_work_ps(now)`` bound — the earliest future picosecond at which it
could change architectural state — and only units whose bound is due
execute, so provably idle ticks are skipped. Skipped ticks are replayed
into the per-cycle accounting (stall breakdowns, observability
categories, histograms) by each component's ``skip_ticks``. The dense
loop in :meth:`System.run` (``skip=False``) ticks every component at
every tick of its domain and is the reference: every stat except the
``sim.ticks_*`` executed/skipped split is bit-identical between the two
(see docs/performance.md for the contract).

:meth:`System.units` is the one table of a loaded system's ticking
units, in ground order, with their report groups: the event core,
deadlock forensics, hostprof and critpath all read it.
"""

from __future__ import annotations

import time

from repro.cores import BigCore, LittleCore
from repro.errors import ConfigError, WorkloadError
from repro.mem import MemorySystem
from repro.runtime.workstealing import WorkStealingRuntime
from repro.soc.config import SoCConfig
from repro.soc.events import (WATCHDOG_PS, horizon_deadlock, progress_check,
                              run_event_loop, watchdog_deadlock)
from repro.stats import RunResult
from repro.trace import TaskProgram, Trace, TraceSource, single_trace_program
from repro.vector import DecoupledVectorEngine, VLittleEngine


class System:
    """One simulated SoC built from a :class:`SoCConfig`."""

    __slots__ = ("config", "obs", "_pending_obs", "ms", "bigs", "littles",
                 "engine", "runtime", "_pb", "_pl", "_pm", "_name",
                 "_wall_t0", "_ticks_big", "_ticks_little", "_ticks_mem",
                 "_skipped_big", "_skipped_little", "_skipped_mem",
                 "_done_blocker", "_event_unit_ticks")

    def __init__(self, config, obs=None):
        if not isinstance(config, SoCConfig):
            raise ConfigError("System expects a SoCConfig")
        self.config = config
        # observability is deliberately *not* part of SoCConfig: attaching an
        # Observation must never change canonical_json(), cache keys, or any
        # pre-existing stat — it only adds obs.* keys to the result
        self.obs = None
        self._pending_obs = obs
        pb, pl, pm = config.period_big(), config.period_little(), config.period_mem()
        m = config.mem
        self.ms = MemorySystem(
            n_big=config.n_big,
            n_little=config.n_little,
            l1_size=m.l1_size,
            l1_assoc=m.l1_assoc,
            l1_hit_latency=m.l1_hit_latency,
            l1i_hit_latency=m.l1i_hit_latency,
            l1_mshrs=m.l1_mshrs,
            l2_size=m.l2_size,
            l2_assoc=m.l2_assoc,
            l2_banks=m.l2_banks,
            l2_latency=m.l2_latency,
            dram_latency=m.dram_latency,
            dram_line_interval=m.dram_line_interval,
            line_bytes=m.line_bytes,
            big_period=pb,
            little_period=pl,
            mem_period=pm,
        )
        self.littles = [
            LittleCore(f"lit{i}", self.ms.little_l1i[i], self.ms.little_l1d[i],
                       period=pl, line_bytes=m.line_bytes)
            for i in range(config.n_little)
        ]
        self.engine = None
        vector_mode = "none"
        if config.vector == "vlittle":
            self.engine = VLittleEngine(
                self.littles,
                chimes=config.chimes,
                packed=config.packed,
                loadq_lines=config.vmu_loadq,
                storeq_lines=config.vmu_storeq,
                switch_penalty=config.switch_penalty,
                vxu_extra_latency=config.vxu_extra_latency,
                coalesce_width=config.coalesce_width,
                line_bytes=m.line_bytes,
                period=pl,
            )
            vector_mode = "decoupled"
        elif config.vector == "dve":
            port = self.ms.make_raw_port("dve0")
            self.engine = DecoupledVectorEngine(
                self.ms.l2, port,
                vlen_bits=config.dve_vlen_bits,
                lanes=config.dve_lanes,
                line_bytes=m.line_bytes,
                period=pb,
            )
            vector_mode = "decoupled"
        elif config.vector == "ivu":
            vector_mode = "integrated"

        self.bigs = [
            BigCore(f"big{i}", self.ms.big_l1i[i], self.ms.big_l1d[i],
                    vector_mode=vector_mode if i == 0 else "none",
                    ivu_vlen_bits=config.ivu_vlen_bits,
                    engine=self.engine if (i == 0 and vector_mode == "decoupled") else None,
                    period=pb, line_bytes=m.line_bytes)
            for i in range(config.n_big)
        ]
        self.runtime = None
        self._pb, self._pl, self._pm = pb, pl, pm
        self._name = ""
        self._ticks_big = self._ticks_little = self._ticks_mem = 0
        self._skipped_big = self._skipped_little = self._skipped_mem = 0
        self._done_blocker = None
        self._event_unit_ticks = None  # per-unit executed ticks (event loop)
        self._wall_t0 = time.perf_counter()

    # ------------------------------------------------------------------- run

    def load(self, program):
        """Attach a workload: a Trace or a TaskProgram."""
        if isinstance(program, Trace):
            program = single_trace_program(program)
        if not isinstance(program, TaskProgram):
            raise WorkloadError("load() expects a Trace or TaskProgram")
        self._name = program.name
        if program.total_tasks == 0:
            # pure serial: one trace on the fastest core available
            traces = [p.serial for p in program.phases if p.serial is not None]
            if len(traces) != 1:
                raise WorkloadError("a serial program must have exactly one trace")
            src = TraceSource(traces[0])
            if self.bigs:
                self.bigs[0].set_source(src)
            else:
                self.littles[0].set_source(src)
            return
        # task-parallel: the VLITTLE cluster runs in *scalar mode* — the paper
        # guarantees it behaves exactly like the equivalent big.LITTLE system
        # (§V-A), so the engine is bypassed and the cores re-enabled
        if isinstance(self.engine, VLittleEngine):
            for c in self.littles:
                c.active = True
                c.l1d.set_private_mode()
            if self.bigs:
                self.bigs[0].vector_mode = "none"
                self.bigs[0].engine = None
            self.engine = None
        # work-stealing runtime over every active core
        workers = []
        caps = []
        for b in self.bigs:
            workers.append(b)
            caps.append(self.config.vector == "ivu")
        for l in self.littles:
            if l.active:
                workers.append(l)
                caps.append(False)
        if not workers:
            raise WorkloadError("no active cores to run tasks on")
        self.runtime = WorkStealingRuntime(program, len(workers), vector_capable=caps)
        for w, worker_src in zip(workers, self.runtime.workers):
            w.set_source(worker_src)
            worker_src.core = w  # a scheduler transition wakes w

    def units(self):
        """The ticking units of the loaded system, in ground order.

        One ``(name, domain, group, component)`` row per unit: big cores
        (``big<i>``), the big-domain ``dve``, little cores (``lit<i>``,
        lanes included), the little-domain ``vcu``, then ``mem``. Domain
        0 is big, 1 little, 2 mem; the group names the unit's row in the
        hostprof, critpath and forensics reports. The table depends on
        the loaded program: a task-parallel program bypasses the VLITTLE
        engine (:meth:`load`), so ``vcu`` drops out and its lanes tick as
        little cores again. The event core, forensics and both tick
        instruments take their unit list from here.
        """
        engine = self.engine
        units = [(c.core_id, 0, "big", c) for c in self.bigs]
        if isinstance(engine, DecoupledVectorEngine):
            units.append(("dve", 0, "dve", engine))
        units += [(c.core_id, 1, "little", c) for c in self.littles]
        if isinstance(engine, VLittleEngine):
            units.append(("vcu", 1, "vcu", engine))
        units.append(("mem", 2, "mem", self.ms))
        return units

    def _attach_obs(self, obs):
        """Fan an Observation out to every component that can report."""
        self.obs = obs
        for c in self.bigs:
            c.attach_obs(obs)
        for c in self.littles:
            c.attach_obs(obs)
        if self.engine is not None:
            self.engine.attach_obs(obs)
        self.ms.attach_obs(obs)
        if obs.sampler is not None:
            obs.sampler.attach(self, obs)

    def run(self, program=None, max_ns=50_000_000, obs=None, skip=True,
            hostscope=None, critpath=None):
        """Simulate to completion; returns a :class:`RunResult`.

        ``skip=True`` (default) runs the per-unit event core in
        :mod:`repro.soc.events`, which elides idle time; ``skip=False``
        runs the dense reference loop below, which grinds through every
        tick. ``skip`` is a run-time knob only — deliberately *not* part
        of :class:`SoCConfig` (it must never change ``canonical_json()``
        or cache keys) — and every stat except the ``sim.ticks_*``
        executed/skipped split is bit-identical across the two loops.

        ``hostscope`` (a :class:`~repro.obs.host.HostScope`, host
        wall-time per unit group) and ``critpath`` (a
        :class:`~repro.obs.critpath.CritPath`, the unit group that gated
        each advance of simulated time) are handed to the event core,
        which wraps each unit's dispatch with them. Like ``obs`` they are
        run-time-only and stat-invisible; the dense loop has no per-unit
        dispatch to wrap, so it refuses them.
        """
        if not skip and (hostscope is not None or critpath is not None):
            raise ConfigError("hostscope and critpath require the event "
                              "loop (skip=True)")
        if program is not None:
            self.load(program)
        if obs is None:
            obs = self._pending_obs
        if obs is not None and self.obs is None:
            # attach after load(): task-parallel programs may bypass the
            # engine, and only surviving components should own obs units
            self._attach_obs(obs)
        if skip:
            return run_event_loop(self, max_ns, hostscope, critpath)
        pb, pl, pm = self._pb, self._pl, self._pm
        bigs, littles, engine = self.bigs, self.littles, self.engine
        # pre-bound engine tick callables: the engine's domain is fixed for
        # the whole run, so resolve the isinstance dispatch once here
        big_engine_tick = engine.tick if isinstance(engine, DecoupledVectorEngine) else None
        little_engine_tick = engine.tick if isinstance(engine, VLittleEngine) else None
        ms_tick = self.ms.tick
        done = self._done
        t_big = t_little = t_mem = 0
        t = 0
        max_ps = max_ns * 1000
        # interval sampling: with no sampler the loop pays one int compare
        sampler = self.obs.sampler if self.obs is not None else None
        next_sample = sampler.interval_ps if sampler is not None else max_ps + 1
        watchdog_ps = WATCHDOG_PS
        last_progress_check = 0
        last_instrs = -1
        ticks_big = ticks_little = ticks_mem = 0
        self._skipped_big = self._skipped_little = self._skipped_mem = 0
        self._done_blocker = None
        self._wall_t0 = time.perf_counter()

        def close():
            self._ticks_big, self._ticks_little, self._ticks_mem = \
                ticks_big, ticks_little, ticks_mem

        while t < max_ps:
            t = min(t_big, t_little, t_mem)
            if t == t_big:
                for c in bigs:
                    c.set_now_hint(t)
                    c.tick(t)
                if big_engine_tick is not None:
                    big_engine_tick(t)
                t_big += pb
                ticks_big += 1
            if t == t_little:
                for c in littles:
                    c.tick(t)
                if little_engine_tick is not None:
                    little_engine_tick(t)
                t_little += pl
                ticks_little += 1
            if t == t_mem:
                ms_tick(t)
                t_mem += pm
                ticks_mem += 1
            if t >= next_sample:
                sampler.sample(t)
                next_sample = t + sampler.interval_ps
            if done():
                close()
                return self._result(t + max(pb, pl, pm))
            # watchdog (window must exceed any legitimate idle period,
            # e.g. a long mode-switch penalty)
            if t - last_progress_check >= watchdog_ps:  # every ~20k ns
                last_progress_check = t
                stalled, instrs = progress_check(self, t, last_instrs, "dense")
                if stalled:
                    close()
                    raise watchdog_deadlock(self, t, "dense")
                last_instrs = instrs
        close()
        raise horizon_deadlock(self, t, max_ns, "dense")

    def _progress_signature(self):
        """Monotonic global progress count for the deadlock watchdog:
        retired instructions on every core, memory-side DRAM traffic, and
        engine instruction/uop issue."""
        instrs = sum(c.instrs for c in self.bigs) + sum(c.instrs for c in self.littles)
        instrs += self.ms.dram.reads + self.ms.dram.writes  # memory-side progress
        engine = self.engine
        if engine is not None:
            instrs += getattr(engine, "instrs", 0)
            if isinstance(engine, VLittleEngine):
                instrs += sum(l.uops_issued for l in engine.lanes)
        return instrs

    def _done(self):
        # O(1) fast path on quiet iterations: re-check only the unit that
        # blocked completion last time — a unit can only *become* done, so
        # while the cached blocker is still busy nothing else needs a look
        blk = self._done_blocker
        if blk is not None and not blk():
            return False
        for c in self.bigs:
            if not c.done():
                self._done_blocker = c.done
                return False
        for c in self.littles:
            if c.active and not c.done():
                self._done_blocker = c.done
                return False
        engine = self.engine
        if engine is not None and not engine.idle():
            self._done_blocker = engine.idle
            return False
        runtime = self.runtime
        if runtime is not None and not runtime.finished:
            self._done_blocker = lambda: runtime.finished
            return False
        return True

    # ----------------------------------------------------------------- stats

    def _result(self, t_ps):
        stats = {}
        stats["time_ps"] = t_ps
        stats["cycles_1ghz"] = t_ps // 1000
        # simulated clock ticks per domain: deterministic work counters that
        # let the harness report sim throughput (ticks / wall second).
        # ticks_* counts only *executed* loop ticks; ticks_skipped_* counts
        # ticks the event core proved idle and skipped, so
        # ticks_X + ticks_skipped_X is invariant under the skip toggle
        stats["sim.ticks_big"] = self._ticks_big
        stats["sim.ticks_little"] = self._ticks_little
        stats["sim.ticks_mem"] = self._ticks_mem
        stats["sim.ticks_skipped_big"] = self._skipped_big
        stats["sim.ticks_skipped_little"] = self._skipped_little
        stats["sim.ticks_skipped_mem"] = self._skipped_mem
        stats["fetch_requests"] = self.ms.fetch_requests()
        data_reqs = self.ms.data_requests()
        if isinstance(self.engine, DecoupledVectorEngine):
            data_reqs += self.engine.line_reqs
        stats["data_requests"] = data_reqs
        for c in self.bigs + self.littles:
            stats.update(c.stats())
        if self.engine is not None:
            stats.update(self.engine.stats())
        if self.runtime is not None:
            stats.update(self.runtime.stats())
        stats.update(self.ms.stats())
        if self.obs is not None:
            if self.obs.sampler is not None:
                # close the final (partial) interval so short runs still
                # produce at least one sample
                self.obs.sampler.sample(t_ps)
            # per-unit cycle attribution covers executed *and* compensated
            # (skipped) ticks, so validation totals include both
            self.obs.validate({
                "big": self._ticks_big + self._skipped_big,
                "little": self._ticks_little + self._skipped_little,
                "mem": self._ticks_mem + self._skipped_mem,
            })
            stats.update(self.obs.stats_dict())
        wall = time.perf_counter() - self._wall_t0
        timing = {
            "wall_s": wall,
            # sim_wall_s is the time actually spent simulating; a later
            # disk-cache load of this result keeps it and records its own
            # load_wall_s, so hit and miss costs stay distinguishable
            "sim_wall_s": wall,
            "from_cache": False,
        }
        return RunResult(self._name, self.config.name, t_ps // 1000, stats, timing)
