"""Run (system, workload) pairs the way the paper's methodology maps them.

The mapping (paper §IV):

* kernels & data-parallel apps — single-threaded scalar on ``1L``/``1b``;
  RVV single-threaded (strip-mined for the system's VLEN) on
  ``1bIV``/``1bDV``/``1b-4VL``; work-stealing task program with per-task
  scalar *and* vector bodies on ``1bIV-4L`` (the big core runs vector tasks
  through the IVU); scalar-only task program on ``1b-4L``.
* task-parallel (Ligra) apps — scalar single-threaded on the single-core
  systems (``1bDV``/``1bIV`` can only use their big core: the engines are
  useless for irregular code); work-stealing task program on the multicore
  systems (``1b-4VL`` runs it in scalar mode, identically to ``1b-4L``).

:func:`simulate` builds and runs one program; every cached run goes
through :class:`~repro.experiments.parallel.ParallelRunner`, which
memoizes results per full canonical config + workload identity in
:mod:`repro.experiments.cache` (memory, then disk), so the figure
generators share runs within a process *and* across harness invocations.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.experiments.cache import get_cache
from repro.soc import System, preset
from repro.workloads import get_workload

#: chunks for data-parallel task decomposition: fine enough that the slow
#: little cores never hold a long critical path (Cilk-style grain sizing)
DATA_PARALLEL_CHUNKS = 48


def clear_cache():
    get_cache().clear()


def _program_for(cfg, workload):
    kind = workload.kind
    name = cfg.name
    if kind == "synthetic":
        # phase-structure microbenchmarks always run as one trace: the
        # vectorized view where the system has an engine, scalar otherwise
        vlen = cfg.vlen_bits(4)
        return workload.vector_trace(vlen) if vlen else workload.scalar_trace()
    if kind in ("kernel", "data-parallel"):
        if name in ("1L", "1b"):
            return workload.scalar_trace()
        if name in ("1bIV", "1bDV", "1b-4VL"):
            return workload.vector_trace(cfg.vlen_bits(4))
        if name == "1bIV-4L":
            return workload.task_program(vector_vlen=cfg.vlen_bits(4),
                                         n_chunks=DATA_PARALLEL_CHUNKS)
        if name == "1b-4L":
            return workload.task_program(n_chunks=DATA_PARALLEL_CHUNKS)
        raise ConfigError(f"no mapping for system {name}")
    # task-parallel
    if name in ("1L", "1b", "1bIV", "1bDV"):
        return workload.scalar_trace()
    return workload.task_program()


def simulate(cfg, workload, scale, obs=None, params=None):
    """Build ``workload``'s program for ``cfg`` and run it once: no cache,
    no run events.  ``params`` are workload keyword arguments (e.g.
    ``{"graph_kind": "uniform"}``).  Every simulation goes through this
    one recipe, and it looks ``get_workload``, ``_program_for`` and
    ``System`` up as module globals, so wrapping them here times every
    simulation's stages."""
    program = _program_for(cfg, get_workload(workload, scale,
                                             **(params or {})))
    return System(cfg).run(program, obs=obs)


def run_pair(system_name, workload_name, scale="small", use_cache=True,
             cache=None, **cfg_overrides):
    """Simulate one (system, workload) pair under :func:`~repro.soc.preset`
    overrides; returns a RunResult.  A cached call is a one-request
    :class:`~repro.experiments.parallel.ParallelRunner` sweep, keyed by the
    *entire* config, the workload and the simulator version; an uncached
    call is one :func:`simulate`."""
    if not use_cache:
        return simulate(preset(system_name, **cfg_overrides), workload_name,
                        scale)
    from repro.experiments.parallel import ParallelRunner, RunRequest

    (result,) = ParallelRunner(cache=cache).run(
        [RunRequest(system_name, workload_name, scale, cfg_overrides)])
    return result
