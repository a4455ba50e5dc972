"""Parallel experiment runner: fan (system, workload, scale, knobs) requests
out over a process pool, backed by the persistent result cache.

The unit of work is a :class:`RunRequest` — everything needed to rebuild the
run in a worker process (`preset(system, **overrides)` + workload identity).
The runner:

1. resolves each request against the cache (memory, then disk) in the
   parent — hits never reach the pool;
2. deduplicates the misses by cache key, so a sweep that mentions the same
   pair twice simulates it once;
3. simulates the remaining keys on ``jobs`` worker processes (serially
   in-process for ``jobs`` None or ``<= 1``), or on a long-lived executor
   the caller passes as ``pool=``; the parent stores each result in the
   cache once, as it arrives, so an interrupted sweep resumes;
4. emits optional per-run progress lines (through the
   :mod:`repro.log` structured logger) and a wall-clock/hit-rate/worker-
   utilization summary.

Every figure, ablation and energy generator lists its whole sweep once and
takes its results from one :meth:`ParallelRunner.run` call
(:func:`run_sweep`). A warm cache therefore turns a full figure sweep into
one lookup per request — zero ``System.run`` calls — and a cold one runs at
``jobs``-way parallelism.

The runner is the only code that looks a run up in the result cache,
stores it, and reports it: :func:`repro.experiments.runner.run_pair` is a
one-request sweep, and every simulation, inline or in a pool worker, is
one :func:`~repro.experiments.runner.simulate` call.  When sweep telemetry
is enabled (:mod:`repro.experiments.telemetry`), the runner brackets the
sweep with ``sweep_start``/``sweep_end`` events, the cache emits
per-request hit/miss events, and every simulation finishes through one
function that emits its ``run_start`` (stamped with the simulation's own
start time, wherever it ran), ``run_end`` and ``worker_busy`` span, so the
whole sweep exports as a one-track-per-worker Chrome trace
(``SweepTelemetry.write_chrome_trace``).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.experiments import telemetry
from repro.experiments.cache import SIM_VERSION, get_cache
from repro.experiments.runner import simulate
from repro.log import get_logger
from repro.soc import preset
from repro.stats import RunResult

_logger = get_logger("repro.experiments.parallel")


@dataclass
class RunRequest:
    """One (system, workload) simulation request with config overrides."""

    system: str
    workload: str
    scale: str = "small"
    overrides: dict = field(default_factory=dict)

    def config(self):
        return preset(self.system, **self.overrides)

    def label(self):
        knobs = ",".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))
        return f"{self.system}/{self.workload}@{self.scale}" + (
            f" [{knobs}]" if knobs else "")


def _simulate(req):
    """Worker body: simulate one request, touching no cache.

    The parent already looked the key up, and it is the only writer: it
    stores the result in its own cache, in that cache's layout.  Returns
    the result dict plus the worker's identity and busy interval; the
    parent turns those into the run's telemetry events (the worker
    disables its inherited telemetry so nothing is double-logged).
    """
    telemetry.disable()
    t_start = time.time()
    result = simulate(req.config(), req.workload, req.scale)
    return {"result": result.to_dict(), "pid": os.getpid(),
            "t_start": t_start, "t_end": time.time()}


class ParallelRunner:
    """Run many :class:`RunRequest`\\ s concurrently with shared caching.

    ``jobs`` None or ``<= 1`` simulates serially in this process.
    ``pool`` is an executor that outlives the runner (the sweep service
    keeps one per server); the runner then simulates on it rather than
    on a process pool of its own, and ``jobs`` is the pool's size.
    """

    def __init__(self, jobs=None, cache=None, pool=None):
        self.jobs = 1 if jobs is None else jobs
        self.cache = cache if cache is not None else get_cache()
        self.pool = pool
        self._summary = None
        self._levels = None

    # ------------------------------------------------------------------- run

    def run(self, requests, progress=False):
        """Resolve every request; returns RunResults aligned with input."""
        requests = list(requests)
        t0 = time.perf_counter()
        results = [None] * len(requests)
        levels = [None] * len(requests)  # per-request cache-hit level
        hits = 0
        load_wall = 0.0
        # a disabled parent cache means fully cacheless (workers included)
        use_cache = self.cache.enabled
        tel = telemetry.current()
        if tel is not None:
            tel.event("sweep_start", requests=len(requests), jobs=self.jobs,
                      sim_version=SIM_VERSION)
        pending = {}  # cache key -> (request, [indices])
        for i, req in enumerate(requests):
            key = self.cache.key_for(req.config(), req.workload, req.scale)
            # only a *fresh* disk load costs load time; a memory-level
            # re-hit of a previously loaded result is free
            dh0 = self.cache.disk_hits
            hit = self.cache.get(key) if use_cache else None
            if hit is not None:
                if self.cache.disk_hits > dh0:
                    load_wall += hit.timing.get("load_wall_s", 0.0)
                    levels[i] = "disk"
                else:
                    levels[i] = "memory"
                results[i] = hit
                hits += 1
                continue
            # without caching, duplicate requests are deliberately re-simulated
            pending.setdefault(key if use_cache else object(),
                               (req, []))[1].append(i)

        n_sim = len(pending)
        done = 0
        sim_wall = 0.0
        busy_s = 0.0
        if progress and hits:
            _logger.info(f"[cache] {hits}/{len(requests)} requests served "
                         f"from cache")

        def finish(key, req, idxs, result, worker, t_start, t_end):
            """Complete one simulation, inline or pooled: emit its run
            events, store it once and hand it to every request for it."""
            nonlocal done, sim_wall, busy_s
            done += 1
            wall_s = result.timing.get("wall_s", 0.0)
            sim_wall += wall_s
            busy_s += t_end - t_start
            if tel is not None:
                tel.event("run_start", ts=t_start, key=key, system=req.system,
                          workload=req.workload, scale=req.scale,
                          sim_version=SIM_VERSION)
                tel.event("run_end", key=key, wall_s=round(wall_s, 6),
                          sim_wall_s=round(result.timing.get(
                              "sim_wall_s", wall_s), 6),
                          load_wall_s=0.0, level="fresh",
                          cycles=result.cycles)
                tel.span(worker, req.label(), t_start, t_end, key=key)
            if use_cache:
                self.cache.put(key, result)
            for i in idxs:
                results[i] = result
                levels[i] = "fresh"
            if progress:
                _logger.info(f"[{done}/{n_sim}] {req.label()} simulated in "
                             f"{wall_s:.2f}s")

        if n_sim and (self.pool is not None or self.jobs > 1):
            workers = min(self.jobs, n_sim)
            with (nullcontext(self.pool) if self.pool is not None
                  else ProcessPoolExecutor(max_workers=workers)) as pool:
                futs = {pool.submit(_simulate, req): (key, req, idxs)
                        for key, (req, idxs) in pending.items()}
                not_done = set(futs)
                try:
                    while not_done:
                        ready, not_done = wait(not_done,
                                               return_when=FIRST_COMPLETED)
                        for fut in ready:
                            payload = fut.result()
                            finish(*futs[fut],
                                   RunResult.from_dict(payload["result"]),
                                   payload["pid"], payload["t_start"],
                                   payload["t_end"])
                finally:
                    # a failed sweep leaves no work queued on a shared pool
                    for fut in not_done:
                        fut.cancel()
        else:
            workers = 1 if n_sim else 0
            for key, (req, idxs) in pending.items():
                t_start = time.time()
                result = simulate(req.config(), req.workload, req.scale)
                finish(key, req, idxs, result, "main", t_start, time.time())

        wall = time.perf_counter() - t0
        self._levels = levels
        self._summary = {
            "levels": dict(Counter(levels)),
            "requests": len(requests),
            "cache_hits": hits,
            "simulated": n_sim,
            "jobs": self.jobs,
            "workers": workers,
            "wall_s": wall,
            "sim_wall_s": sim_wall,
            "load_wall_s": load_wall,
            "hit_ratio": hits / len(requests) if requests else 0.0,
            "worker_util": min(1.0, busy_s / (workers * wall))
            if workers and wall > 0 else 0.0,
        }
        if tel is not None:
            tel.event("sweep_end", **{k: round(v, 6)
                                      if isinstance(v, float) else v
                                      for k, v in self._summary.items()})
        return results

    def summary(self):
        """Stats from the most recent :meth:`run`."""
        return dict(self._summary) if self._summary else None

    def levels(self):
        """Per-request cache-hit levels from the most recent :meth:`run`,
        aligned with its inputs: ``"memory"``, ``"disk"``, or ``"fresh"``
        (every request is ``"fresh"`` when the cache is disabled).  The
        sweep service forwards these so every API response says how hot
        its path was."""
        return list(self._levels) if self._levels is not None else None


def run_sweep(requests, jobs=None):
    """Resolve a ``{point: RunRequest}`` sweep in one
    :meth:`ParallelRunner.run` call, in the sweep's order; returns
    ``{point: RunResult}``."""
    results = ParallelRunner(jobs=jobs).run(requests.values())
    return dict(zip(requests, results))


def format_summary(summary):
    if not summary:
        return "no runs recorded"
    line = (f"{summary['requests']} requests: {summary['cache_hits']} cache "
            f"hits, {summary['simulated']} simulated on {summary['jobs']} "
            f"jobs in {summary['wall_s']:.1f}s wall "
            f"({summary['sim_wall_s']:.1f}s total sim time)")
    extras = []
    if "hit_ratio" in summary:
        extras.append(f"hit ratio {summary['hit_ratio'] * 100:.0f}%")
    if summary.get("load_wall_s"):
        extras.append(f"cache loads {summary['load_wall_s'] * 1000:.0f}ms")
    if summary.get("simulated") and "worker_util" in summary:
        extras.append(f"worker util {summary['worker_util'] * 100:.0f}% "
                      f"on {summary.get('workers', summary['jobs'])} workers")
    if extras:
        line += f" [{', '.join(extras)}]"
    return line
