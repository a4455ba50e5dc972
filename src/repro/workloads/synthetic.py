"""Synthetic phase-structure microbenchmarks (``kind="synthetic"``).

Unlike the Tables IV & V apps, these three workloads exist to exercise
specific *temporal* regimes of the simulator — the phase taxonomy that
:mod:`repro.obs.phases` detects and that the ``sim_throughput`` guard
in ``benchmarks/guards.py`` stresses:

* ``switch_thrash`` — alternating scalar stretches and short vector
  regions, each region re-arming the §III-B mode-switch penalty on a
  VLITTLE system. One run walks the full scalar → mode-switch →
  vector-burst cycle dozens of times, which makes it the canonical input
  for ``bigvlittle phases`` and for quiescence-skipping benchmarks.
* ``dram_chain`` — a serially dependent pointer-chase at a cache-hostile
  stride: every load misses the whole hierarchy, the ROB drains while
  DRAM serves it, and the timeline shows scalar phases whose stall mix
  is almost pure ``raw_mem``.
* ``mode_regions`` — one fixed amount of vector work split into
  ``regions`` vector regions with a mode exit between them: the input of
  the region-granularity ablation
  (:func:`repro.experiments.ablations.region_granularity`).

They register under ``kind="synthetic"`` so the Tables IV & V suites
(``KERNELS`` / ``DATA_PARALLEL`` / ``TASK_PARALLEL``) — and therefore
every figure and energy table — are unchanged. The experiment runner
maps synthetic workloads onto any system as a single trace: vectorized
where the system has an engine, scalar otherwise.

Constructor keywords override the per-scale defaults
(``get_workload("switch_thrash", "small", regions=80, scalar=10,
nvec=16)``); the sim-throughput benchmark pins its historical parameters
that way so recorded baselines stay comparable.
"""

from __future__ import annotations

from repro.workloads.common import Workload, register


@register
class SwitchThrash(Workload):
    """Scalar / mode-switch / vector-burst alternation (§III-B thrash)."""

    name = "switch_thrash"
    suite = "synthetic"
    kind = "synthetic"

    def __init__(self, scale="small", seed=1, regions=None, scalar=None,
                 nvec=None):
        super().__init__(scale=scale, seed=seed)
        if regions is not None:
            self.params["regions"] = int(regions)
        if scalar is not None:
            self.params["scalar"] = int(scalar)
        if nvec is not None:
            self.params["nvec"] = int(nvec)

    def _params(self, scale):
        # scalar = addi count per region: long enough that a scalar phase
        # spans whole sampler intervals at the documented 100-cycle default
        return {
            "tiny": dict(regions=6, scalar=300, nvec=64),
            "small": dict(regions=30, scalar=1200, nvec=256),
            "full": dict(regions=120, scalar=4000, nvec=1024),
        }[scale]

    def _bases(self, r):
        src = 0x300000 + r * 0x4000
        return src, src + 0x100000

    def scalar_trace(self):
        p = self.params
        tb = self._tb()
        for r in range(p["regions"]):
            for _ in range(p["scalar"]):
                tb.addi(None)
            src, dst = self._bases(r)
            with tb.loop(p["nvec"]) as loop:
                for i in loop:
                    x = tb.flw(src + 4 * i)
                    y = tb.fadd(x, x)
                    tb.fsw(y, dst + 4 * i)
        return tb.finish(self.name)

    def vector_trace(self, vlen_bits):
        p = self.params
        tb = self._tb()
        vb = self._vb(tb, vlen_bits)
        for r in range(p["regions"]):
            for _ in range(p["scalar"]):
                tb.addi(None)
            src, dst = self._bases(r)
            for base, vl in vb.strip_mine(src, n=p["nvec"], ew=4):
                v = vb.vle(base, vl=vl)
                v2 = vb.vfadd(v, v)
                vb.vse(v2, base + 0x100000, vl=vl)
            # the OS returns the cluster to scalar mode after every region,
            # so the next region re-pays the switch penalty
            tb.csrrw()
        return tb.finish(self.name)


@register
class DramChain(Workload):
    """Serially dependent loads at a page-ish stride: pure DRAM latency."""

    name = "dram_chain"
    suite = "synthetic"
    kind = "synthetic"

    def __init__(self, scale="small", seed=1, n=None, stride=None):
        super().__init__(scale=scale, seed=seed)
        if n is not None:
            self.params["n"] = int(n)
        if stride is not None:
            self.params["stride"] = int(stride)

    def _params(self, scale):
        return {
            "tiny": dict(n=200, stride=8192),
            "small": dict(n=1000, stride=8192),
            "full": dict(n=8000, stride=8192),
        }[scale]

    def scalar_trace(self):
        p = self.params
        tb = self._tb()
        for i in range(p["n"]):
            r = tb.lw(0x1000000 + i * p["stride"])
            tb.addi(r)
        return tb.finish(self.name)

    def vector_trace(self, vlen_bits):
        # a dependent miss chain has no data parallelism to expose; vector
        # systems run the same scalar trace on their control core
        return self.scalar_trace()


@register
class ModeRegions(Workload):
    """The same element work split into ``regions`` vector regions, with
    a mode exit (CSR write, engine drain, re-switch) and 30 scalar
    instructions between each two."""

    name = "mode_regions"
    suite = "synthetic"
    kind = "synthetic"

    def __init__(self, scale="small", seed=1, regions=None):
        super().__init__(scale=scale, seed=seed)
        if regions is not None:
            self.params["regions"] = int(regions)

    def _params(self, scale):
        return {
            "tiny": dict(regions=4, elems=1024),
            "small": dict(regions=4, elems=2048),
            "full": dict(regions=4, elems=8192),
        }[scale]

    def scalar_trace(self):
        p = self.params
        tb = self._tb()
        per = p["elems"] // p["regions"]
        for r in range(p["regions"]):
            base = 0x100000 + r * 0x40000
            with tb.loop(per) as loop:
                for i in loop:
                    x = tb.flw(base + 4 * i)
                    y = tb.fmul(x, x)
                    tb.fsw(y, base + 0x20000 + 4 * i)
            if r != p["regions"] - 1:
                for _ in range(30):
                    tb.addi(None)
        return tb.finish(self.name)

    def vector_trace(self, vlen_bits):
        p = self.params
        tb = self._tb()
        vb = self._vb(tb, vlen_bits)
        per = p["elems"] // p["regions"]
        for r in range(p["regions"]):
            base = 0x100000 + r * 0x40000
            for chunk, vl in vb.strip_mine(base, per, ew=4):
                v = vb.vle(chunk, vl=vl)
                v2 = vb.vfmul(v, v)
                vb.vse(v2, chunk + 0x20000, vl=vl)
            if r != p["regions"] - 1:
                vb.mode_exit()
                for _ in range(30):
                    tb.addi(None)
        return tb.finish(self.name)
