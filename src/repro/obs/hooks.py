"""The :class:`Observation` facade and per-component :class:`UnitObs` hooks.

An ``Observation`` is attached to a :class:`~repro.soc.system.System` (via
``System(cfg, obs=...)`` or ``System.run(..., obs=...)``); the system hands
each ticking component a :class:`UnitObs` handle bundling

* a per-unit **cycle classifier** — exactly one :class:`~repro.stats.Stall`
  category per tick of the unit's clock domain, so per-unit sums equal
  ``sim.ticks_<domain>`` (checked by :meth:`Observation.validate`);
* the shared :class:`~repro.obs.tracer.Tracer` with the unit's track
  pre-bound;
* the shared :class:`~repro.obs.metrics.MetricsRegistry`.

Components that never attach keep their class-level ``obs = None`` and pay
only one ``is None`` check per hook site.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.stats.breakdown import STALL_NAMES, Stall


class ObsValidationError(AssertionError):
    """A unit's per-cycle attribution failed to sum to its domain ticks."""


class UnitObs:
    """Observability handle for one ticking component."""

    __slots__ = ("name", "domain", "counts", "tracer", "metrics", "track")

    def __init__(self, name, domain, tracer, metrics, track):
        self.name = name
        self.domain = domain
        self.counts = [0] * len(Stall)
        self.tracer = tracer
        self.metrics = metrics
        self.track = track

    # ---------------------------------------------------- cycle attribution

    def cycle(self, category, n=1):
        """Charge this unit's current cycle to one Stall category."""
        self.counts[category] += n

    def total(self):
        return sum(self.counts)

    # ------------------------------------------------------- tracing sugar

    def instant(self, name, ts, args=None):
        self.tracer.instant(self.track, name, ts, args)

    def begin(self, name, ts, args=None):
        self.tracer.begin(self.track, name, ts, args)

    def end(self, name, ts):
        self.tracer.end(self.track, name, ts)

    def complete(self, name, ts, dur, args=None):
        self.tracer.complete(self.track, name, ts, dur, args)

    def counter(self, name, ts, value):
        self.tracer.counter(self.track, name, ts, value)

    def __repr__(self):
        return f"<UnitObs {self.name} ({self.domain}) total={self.total()}>"


class Observation:
    """One simulation's worth of traces, metrics, and stall attribution.

    Two further layers are opt-in on top (each ``None`` by default, so an
    Observation without them does zero per-instruction / per-interval
    work):

    * ``pipeview`` — a :class:`~repro.obs.pipeview.PipeView` tracking
      per-instruction pipeline lifecycles (Konata / O3PipeView export);
    * ``sampler`` — an :class:`~repro.obs.sampler.IntervalSampler`
      snapshotting IPC / occupancy / stall-mix time series every N cycles.
    """

    __slots__ = ("tracer", "metrics", "units", "pipeview", "sampler",
                 "_validated_ticks")

    def __init__(self, max_events=1_000_000, pipeview=None, sampler=None):
        self.tracer = Tracer(max_events)
        self.metrics = MetricsRegistry()
        self.units = {}  # name -> UnitObs
        self.pipeview = pipeview
        self.sampler = sampler
        self._validated_ticks = None

    # ----------------------------------------------------------- unit setup

    def unit(self, name, domain, process="sim"):
        """Register a ticking unit; ``domain`` is big | little | mem."""
        if domain not in ("big", "little", "mem"):
            raise ConfigError(f"unknown clock domain {domain!r}")
        if name in self.units:
            raise ConfigError(f"duplicate obs unit {name!r}")
        u = UnitObs(name, domain, self.tracer, self.metrics,
                    self.tracer.track(name, process))
        self.units[name] = u
        return u

    # ----------------------------------------------------------- validation

    def validate(self, ticks_by_domain):
        """Check every unit's cycle sum against its domain's tick count.

        A unit that never ticked (e.g. a VLITTLE engine bypassed for a
        task-parallel run) legitimately sums to zero; anything else must
        account for *every* tick of its domain.
        """
        for u in self.units.values():
            expected = ticks_by_domain.get(u.domain, 0)
            got = u.total()
            if got not in (0, expected):
                raise ObsValidationError(
                    f"unit {u.name!r} attributed {got} cycles but its "
                    f"{u.domain!r} domain ticked {expected} times")
        self._validated_ticks = dict(ticks_by_domain)
        return True

    # -------------------------------------------------------------- folding

    def stats_dict(self):
        """Deterministic flat stats: per-unit cycles plus all metrics.

        Safe to merge into ``RunResult.stats`` — values are ints and a
        function only of the simulated events.
        """
        out = {}
        for name in sorted(self.units):
            u = self.units[name]
            for cat, v in zip(STALL_NAMES, u.counts):
                out[f"obs.cycles.{name}.{cat}"] = v
        out.update(self.metrics.as_stats())
        # ring-buffer drop accounting is surfaced both here and in the
        # Chrome trace metadata, so truncated traces are never silent
        out["obs.metric.tracer.dropped"] = self.tracer.dropped
        out["obs.trace.events"] = len(self.tracer)
        out["obs.trace.dropped"] = self.tracer.dropped
        if self.pipeview is not None:
            out.update(self.pipeview.stats_dict())
        if self.sampler is not None:
            out.update(self.sampler.stats_dict())
        return out

    # ---------------------------------------------------------------- trace

    def chrome_trace(self):
        return self.tracer.chrome_trace()

    def write_chrome_trace(self, path):
        return self.tracer.write_json(path)

    # -------------------------------------------------------------- profile

    def profile_rows(self):
        """Per-unit attribution rows (dicts), idle units omitted."""
        rows = []
        for name in sorted(self.units):
            u = self.units[name]
            total = u.total()
            if total == 0:
                continue
            row = {"unit": name, "domain": u.domain, "total": total,
                   "busy_frac": u.counts[Stall.BUSY] / total}
            for cat, v in zip(STALL_NAMES, u.counts):
                row[cat] = v
            rows.append(row)
        rows.sort(key=lambda r: (r["busy_frac"], r["unit"]))
        return rows

    def profile_table(self, top=None):
        """Text stall table: one row per unit, most-stalled units first."""
        rows = self.profile_rows()
        if top is not None:
            rows = rows[:top]
        hdr = f"{'unit':<10} {'domain':<7} {'cycles':>10} {'busy%':>6}"
        for cat in STALL_NAMES[1:]:
            hdr += f" {cat:>8}"
        lines = [hdr, "-" * len(hdr)]
        for r in rows:
            line = (f"{r['unit']:<10} {r['domain']:<7} {r['total']:>10}"
                    f" {100.0 * r['busy_frac']:>5.1f}%")
            for cat in STALL_NAMES[1:]:
                line += f" {r[cat]:>8}"
            lines.append(line)
        return "\n".join(lines)
