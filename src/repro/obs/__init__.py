"""Observability: structured event tracing, metrics, stall attribution.

The subsystem is strictly opt-in: components carry a class-level
``obs = None`` attribute and every hook sits behind a single
``if self.obs is not None:`` check, so a simulation without an attached
:class:`Observation` does *zero* extra work and its ``RunResult.stats``
stay bit-identical to an uninstrumented build.

Enable it by handing an :class:`Observation` to the system::

    from repro.obs import Observation
    from repro.soc import preset, System

    obs = Observation()
    result = System(preset("1b-4VL")).run(program, obs=obs)
    obs.write_chrome_trace("trace.json")   # load in Perfetto / chrome://tracing
    print(obs.profile_table())             # per-unit stall attribution

Three pillars (see ``docs/observability.md``):

* :class:`~repro.obs.tracer.Tracer` — ring-buffer-bounded begin/end,
  instant, complete, and counter events on per-component tracks,
  exportable as Chrome ``trace_event`` JSON.
* :class:`~repro.obs.metrics.MetricsRegistry` — typed counters, gauges,
  and fixed-bucket histograms folded deterministically into
  ``RunResult.stats`` under ``obs.metric.*``.
* Per-unit **stall attribution** — every cycle of every ticking unit is
  classified into the Figure-7 :class:`~repro.stats.Stall` categories and
  the per-unit sums are checked against ``sim.ticks_*``.

Two deeper layers opt in on top of an Observation (each ``None`` unless
requested, and free when off):

* :class:`~repro.obs.pipeview.PipeView` — instruction-grain pipeline
  lifecycle traces (ROB, VCU µop broadcast, lane execute, VMU, VXU),
  exported as Konata / gem5-O3PipeView text.
* :class:`~repro.obs.sampler.IntervalSampler` — IPC / occupancy /
  stall-mix / MPKI / DRAM-bandwidth time series every N cycles — plus
  Table-VII power/energy columns with ``energy=("b1", "l1")`` — exported
  as Chrome counter tracks, CSV, and JSON.

Two analysis layers consume those series after the run:

* :mod:`repro.obs.phases` — :func:`~repro.obs.phases.detect_phases`
  segments a sampled timeline into the paper's scalar / mode-switch /
  vector-burst / drain phases, each carrying its stall mix and energy.
* :mod:`repro.obs.diff` compares the canonical stat dumps of two runs
  with exact/meta delta classification (every non-meta delta gates),
  aligns two timeline dumps cycle-for-cycle
  (:func:`~repro.obs.diff.diff_timelines`) to localize where runs first
  diverge, and drives the CLI's ``bigvlittle diff --gate`` regression
  gate.
"""

from repro.obs.diff import (
    DiffReport,
    TimelineDiffReport,
    classify,
    diff_files,
    diff_stats,
    diff_timeline_files,
    diff_timelines,
    dump_result,
)
from repro.obs.critpath import CritPath
from repro.obs.forensics import format_report as format_forensics
from repro.obs.forensics import snapshot as forensics_snapshot
from repro.obs.hooks import Observation, UnitObs
from repro.obs.host import HostScope
from repro.obs.metrics import MetricsRegistry
from repro.obs.phases import PhaseReport, PhaseThresholds, detect_phases
from repro.obs.pipeview import PipeView
from repro.obs.sampler import IntervalSampler, load_timeline
from repro.obs.tracer import Tracer

__all__ = [
    "Observation", "UnitObs", "MetricsRegistry", "Tracer", "HostScope",
    "CritPath", "forensics_snapshot", "format_forensics",
    "PipeView", "IntervalSampler", "load_timeline",
    "PhaseReport", "PhaseThresholds", "detect_phases",
    "DiffReport", "classify", "diff_files", "diff_stats", "dump_result",
    "TimelineDiffReport",
    "diff_timelines", "diff_timeline_files",
]
