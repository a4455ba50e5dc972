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

Results are memoized per full canonical config + workload identity through
:mod:`repro.experiments.cache` (an in-memory dict backed by a persistent
on-disk store), so the figure generators share runs within a process *and*
across harness invocations.
"""

from __future__ import annotations

import time

from repro.errors import ConfigError
from repro.experiments import telemetry
from repro.experiments.cache import SIM_VERSION, get_cache
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


def run_pair(system_name, workload_name, scale="small", cfg=None, use_cache=True,
             cache=None, **cfg_overrides):
    """Simulate one (system, workload) pair; returns a RunResult.

    The cache key is a content hash of the *entire* serialized config (see
    :meth:`SoCConfig.canonical_json`) plus the workload identity and the
    simulator version — any ``cfg_overrides``-reachable field change, down
    to individual ``cfg.mem`` parameters, produces a distinct key.
    """
    if cfg is None:
        cfg = preset(system_name, **cfg_overrides)
    cache = cache if cache is not None else get_cache()
    tel = telemetry.current()
    # the key is read only by the cache and by telemetry events
    key = (cache.key_for(cfg, workload_name, scale)
           if use_cache or tel is not None else None)
    if use_cache:
        hit = cache.get(key)
        if hit is not None:
            return hit
    workload = get_workload(workload_name, scale)
    program = _program_for(cfg, workload)
    if tel is not None:
        tel.event("run_start", key=key, system=system_name,
                  workload=workload_name, scale=scale,
                  sim_version=SIM_VERSION)
    t_start = time.time()
    result = System(cfg).run(program)
    t_end = time.time()
    if tel is not None:
        timing = result.timing
        tel.event("run_end", key=key,
                  wall_s=round(timing.get("wall_s", 0.0), 6),
                  sim_wall_s=round(timing.get("sim_wall_s",
                                              timing.get("wall_s", 0.0)), 6),
                  load_wall_s=round(timing.get("load_wall_s", 0.0), 6),
                  level="disk" if timing.get("from_cache") else "fresh",
                  cycles=result.cycles)
        tel.span("main", f"{system_name}/{workload_name}@{scale}",
                 t_start, t_end, key=key)
    if use_cache:
        cache.put(key, result)
    return result
