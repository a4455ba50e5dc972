"""Interval time-series sampling (``repro.obs.sampler``).

Aggregate observability (stall totals, end-of-run metrics) answers *how
much*; this module answers *when*: every ``interval`` reference cycles
(1 cycle = 1 ns at the 1 GHz reference clock) the sampler snapshots

* committed-instruction deltas per cluster (→ interval IPC),
* the cluster-wide stall-category mix delta (Fig.-7 categories),
* queue occupancies: big-core ROB, VCU µop queue, scalar-operand data
  queue, VMSU load-queue lines (or the DVE command queue / lines in
  flight on a ``1bDV`` system),
* L2 hit/miss and DRAM read/write line deltas (→ interval MPKI and DRAM
  bandwidth),
* mode-switch activity (switch starts this interval, and whether the
  VLITTLE engine is mid-penalty at the sample point),
* optionally — pass ``energy=("b1", "l1")`` — per-interval power and
  energy from the Table VII DVFS model (:func:`repro.power.power_split`):
  big-cluster W, engine W, interval joules, and cumulative joules,

into columnar series. The series are exported three ways: as Chrome
``counter`` tracks on the run's :class:`~repro.obs.tracer.Tracer` (one
``sampler`` process in Perfetto), as CSV, and as JSON — so IPC dips,
occupancy ramps, bandwidth saturation, and power-over-time curves can be
read over time and compared across runs mechanically (see
:mod:`repro.obs.diff` and :mod:`repro.obs.phases`).

Opt-in on top of the opt-in Observation: pass
``Observation(sampler=IntervalSampler(interval))``. With no sampler
attached the simulation loop pays a single integer compare per scheduler
iteration and nothing else.

Rates (IPC, GB/s, W) are normalized by each interval's *actual* width:
the final flush at run end closes a partial interval, and cumulative
energy is computed from the exact simulated end time, so the last
cumulative-joules sample equals ``energy_j(time_ps, system_power_w(...))``
bit for bit.
"""

from __future__ import annotations

import json

from repro.errors import ConfigError
from repro.stats.breakdown import STALL_NAMES, Stall

#: simulated picoseconds per reference cycle (1 GHz)
PS_PER_CYCLE = 1000

#: columns added by ``energy=``; every value is in SI units (W / J)
ENERGY_COLUMNS = ("big_w", "engine_w", "power_w", "energy_j", "cum_energy_j")

TIMELINE_SCHEMA = "bigvlittle-timeline-v1"


def load_timeline(path):
    """Load a ``bigvlittle-timeline-v1`` dump written by :meth:`to_json`."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("schema") != TIMELINE_SCHEMA:
        raise ValueError(f"{path}: not a {TIMELINE_SCHEMA} dump")
    return doc


class IntervalSampler:
    """Fixed-interval time-series snapshots of one observed run."""

    __slots__ = ("interval", "interval_ps", "samples", "columns", "_series",
                 "_sys", "_obs", "_track", "_last_ps", "_prev",
                 "_vlittle", "_dve", "energy", "_big_w", "_engine_w")

    def __init__(self, interval=1000, energy=None):
        if interval < 1:
            raise ConfigError("sampler interval must be >= 1 cycle")
        self.interval = int(interval)
        self.interval_ps = self.interval * PS_PER_CYCLE
        self.samples = 0
        self.columns = []
        self._series = {}  # column -> list of values, all equal length
        self._sys = None
        self._obs = None
        self._track = None
        self._last_ps = 0
        self._prev = {}
        if energy is True:
            energy = ("b1", "l1")
        elif isinstance(energy, dict):
            energy = (energy.get("big", "b1"), energy.get("little", "l1"))
        elif energy is not None:
            energy = tuple(energy)
            if len(energy) != 2:
                raise ConfigError(
                    "energy expects (big_level, little_level), e.g. ('b1','l1')")
        self.energy = energy
        self._big_w = self._engine_w = 0.0

    # ----------------------------------------------------------------- wiring

    def attach(self, system, obs):
        """Bind to a built system; called by ``System`` when obs attaches."""
        self._sys = system
        self._obs = obs
        self._track = obs.tracer.track("timeline", process="sampler")
        self._last_ps = 0
        engine = system.engine
        self._vlittle = engine is not None and hasattr(engine, "_uopq")
        self._dve = engine is not None and hasattr(engine, "_cmdq")
        self.columns = (
            ["cycle", "d_cycles", "d_instrs_big", "d_instrs_little", "d_uops"]
            + [f"d_stall_{name}" for name in STALL_NAMES]
            + ["rob0", "uopq", "dataq", "ldq",
               "d_l2_hits", "d_l2_misses", "d_dram_reads", "d_dram_writes",
               "d_switches", "switching",
               "ipc_big", "ipc_little", "l2_mpki", "dram_gbps"]
        )
        if self.energy is not None:
            from repro.power import power_split

            big, little = self.energy
            cfg = system.config
            self._big_w, self._engine_w = power_split(
                cfg.name, big, little, n_little=cfg.n_little or 4)
            self.columns += list(ENERGY_COLUMNS)
        self._series = {c: [] for c in self.columns}
        self._prev = self._cumulative()

    def _cumulative(self):
        """Monotonic counters snapshotted for per-interval deltas."""
        s = self._sys
        engine = s.engine
        out = {
            "instrs_big": sum(c.instrs for c in s.bigs),
            "instrs_little": sum(c.instrs for c in s.littles),
            "uops": (sum(l.uops_issued for l in engine.lanes)
                     if self._vlittle else 0),
            "switches": engine.mode_switches if self._vlittle else 0,
            "l2_hits": s.ms.l2.hits,
            "l2_misses": s.ms.l2.misses,
            "dram_reads": s.ms.dram.reads,
            "dram_writes": s.ms.dram.writes,
        }
        units = self._obs.units.values()
        for cat, name in enumerate(STALL_NAMES):
            out[f"stall_{name}"] = sum(u.counts[cat] for u in units)
        return out

    def _levels(self):
        """Instantaneous occupancies at the sample point."""
        s = self._sys
        engine = s.engine
        rob0 = len(s.bigs[0]._rob) if s.bigs else 0
        if self._vlittle:
            uopq = len(engine._uopq)
            dataq = engine._dataq_used
            ldq = sum(v.ldq_used for v in engine.vmu.vmsus)
        elif self._dve:
            uopq = len(engine._cmdq)
            dataq = engine._inflight
            ldq = engine._loadq_used
        else:
            uopq = dataq = ldq = 0
        return rob0, uopq, dataq, ldq

    # --------------------------------------------------------------- sampling

    def sample(self, t_ps):
        """Record one interval ending at simulated-ps ``t_ps``."""
        d_ps = t_ps - self._last_ps
        if d_ps <= 0:
            return
        # rates are normalized by the interval's *actual* width: the final
        # flush closes a partial interval, and dividing its deltas by the
        # rounded-down whole-cycle count would bias the last row
        d_cycles = d_ps // PS_PER_CYCLE
        width = d_ps / PS_PER_CYCLE
        cur = self._cumulative()
        prev, self._prev = self._prev, cur
        d = {k: cur[k] - prev[k] for k in cur}
        rob0, uopq, dataq, ldq = self._levels()
        engine = self._sys.engine
        switching = int(self._vlittle and engine._ready_at is not None
                        and t_ps < engine._ready_at)

        ipc_big = round(d["instrs_big"] / width, 6)
        ipc_little = round(d["instrs_little"] / width, 6)
        d_instrs = d["instrs_big"] + d["instrs_little"]
        l2_mpki = round(1000.0 * d["l2_misses"] / max(d_instrs, 1), 6)
        # one line per DRAM read/write; 64 B per line; interval width is ns
        d_lines = d["dram_reads"] + d["dram_writes"]
        dram_gbps = round(64.0 * d_lines / width, 6)

        row = {
            "cycle": t_ps // PS_PER_CYCLE,
            "d_cycles": d_cycles,
            "d_instrs_big": d["instrs_big"],
            "d_instrs_little": d["instrs_little"],
            "d_uops": d["uops"],
            "rob0": rob0, "uopq": uopq, "dataq": dataq, "ldq": ldq,
            "d_l2_hits": d["l2_hits"], "d_l2_misses": d["l2_misses"],
            "d_dram_reads": d["dram_reads"], "d_dram_writes": d["dram_writes"],
            "d_switches": d["switches"], "switching": switching,
            "ipc_big": ipc_big, "ipc_little": ipc_little,
            "l2_mpki": l2_mpki, "dram_gbps": dram_gbps,
        }
        for name in STALL_NAMES:
            row[f"d_stall_{name}"] = d[f"stall_{name}"]
        if self.energy is not None:
            # cumulative joules come straight from the exact simulated end
            # time of the interval (same expression as repro.power.energy_j),
            # so the final sample reconciles bit-for-bit with the
            # end-of-run energy total instead of accumulating float error
            power_w = self._big_w + self._engine_w
            row["big_w"] = self._big_w
            row["engine_w"] = self._engine_w
            row["power_w"] = power_w
            row["energy_j"] = d_ps * 1e-12 * power_w
            row["cum_energy_j"] = t_ps * 1e-12 * power_w
        for c in self.columns:
            self._series[c].append(row[c])

        tr = self._obs.tracer
        counters = [
            ("ipc_big", ipc_big), ("ipc_little", ipc_little),
            ("rob0", rob0), ("uopq", uopq), ("ldq", ldq),
            ("l2_mpki", l2_mpki), ("dram_gbps", dram_gbps),
            ("stall_busy_frac",
             round(d[f"stall_{STALL_NAMES[Stall.BUSY]}"]
                   / max(sum(d[f"stall_{n}"] for n in STALL_NAMES), 1), 6)),
        ]
        if self.energy is not None:
            counters.append(("power_w", row["power_w"]))
            counters.append(("cum_energy_mj", round(row["cum_energy_j"] * 1e3, 9)))
        for name, value in counters:
            tr.counter(self._track, name, t_ps, value)

        self._last_ps = t_ps
        self.samples += 1

    # ---------------------------------------------------------------- folding

    def stats_dict(self):
        """Deterministic ints, merged under ``obs.sampler.*`` in stats."""
        return {
            "obs.sampler.samples": self.samples,
            "obs.sampler.interval_cycles": self.interval,
        }

    # ----------------------------------------------------------------- export

    def series(self, column):
        return list(self._series[column])

    def rows(self):
        """The samples as a list of per-interval dicts."""
        cols = self.columns
        n = self.samples
        return [{c: self._series[c][i] for c in cols} for i in range(n)]

    def as_dict(self):
        """Columnar machine-readable form (JSON-safe)."""
        doc = {
            "schema": TIMELINE_SCHEMA,
            "interval_cycles": self.interval,
            "samples": self.samples,
            "columns": list(self.columns),
            "series": {c: list(self._series[c]) for c in self.columns},
        }
        if self.energy is not None:
            doc["energy_levels"] = list(self.energy)
        return doc

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.as_dict(), f, indent=1)
            f.write("\n")
        return self.samples

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(self.columns))
            f.write("\n")
            for i in range(self.samples):
                f.write(",".join(repr(self._series[c][i]) for c in self.columns))
                f.write("\n")
        return self.samples
