"""``paper-sweep``: the report a researcher regenerates, cold then warm.

One round builds the paper-vs-measured report (``repro.experiments.report``
``render``) from every figure generator at ``tiny`` scale, in two halves:

* **cold** — a fresh private result cache in the CLI's default (flat)
  layout; each figure's sweep fans its misses out through
  ``ParallelRunner`` on ``min(nproc, 2)`` worker processes, which write
  the cache. Every system, the Fig. 7/8 knobs and the DVFS-skewed clocks
  of Figs. 9-11 are simulated.
* **warm** — the same report regenerated ``WARM_REPEATS`` times, each
  from a new cache object on the warm directory (an empty memory level),
  so every lookup is a disk hit and nothing simulates; the seed orders
  each regeneration's figure generators, and the output must not change.

Each figure generator runs over a fixed workload subset (the full report
takes every workload); the subset sets the round's length. Rounds
repeat until the time is up.

In the traced run, spans wrap each figure generator, ``ParallelRunner.run``,
every cache lookup and store (a ``ResultCache`` subclass), ``RunResult``
dump/load and ``render``. Simulations happen in forked pool workers, so
the traced run also wraps the runner module's ``get_workload``,
``_program_for`` and ``System`` before the pool forks; each worker stores
its trace-build, system-build and run-loop seconds in the result's
host-side ``timing`` block, which travels back to the parent with the
result.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from contextlib import contextmanager, nullcontext

from harness import HOST, SCALE, WORK, Ops, percentile, span, stat_counts, \
    text_digest, workers

TASK_PARALLEL = ("bfs",)
VECTOR = ("saxpy", "backprop")
DVFS = ("backprop",)
#: warm regenerations per round
WARM_REPEATS = 25
#: report digest key in reference.json
REPORT_ID = "paper-sweep@" + SCALE

_TIMING = "perfbench."


def collect(n_jobs, tracer=None, times=None, rng=None):
    """``report.collect`` over the benchmark's workload subset, in the
    report's own order or, given ``rng``, a shuffled one; each generator's
    seconds go to ``times`` when given."""
    from repro.experiments import figures, tables

    vec = list(VECTOR)
    plan = [
        ("fig4", figures.fig4, dict(workloads=list(TASK_PARALLEL) + vec)),
        ("fig5", figures.fig5, dict(workloads=vec)),
        ("fig6", figures.fig6, dict(workloads=vec)),
        ("fig7", figures.fig7, dict(workloads=vec)),
        ("fig8", figures.fig8, dict(workloads=vec)),
        ("fig9", figures.fig9, dict(workloads=list(DVFS))),
        ("fig10", figures.fig10, dict(workloads=list(DVFS))),
        ("fig11", figures.fig11, dict(workloads=list(DVFS))),
        ("table6", tables.table6_data, {}),
    ]
    if rng is not None:
        rng.shuffle(plan)
    data = {}
    for name, fn, kw in plan:
        t0 = time.perf_counter()
        with span(tracer, f"figures.{name}"):
            data[name] = fn(scale=SCALE, jobs=n_jobs, **kw)
        if times is not None:
            times[name] = time.perf_counter() - t0
    return data


def report(n_jobs, tracer=None, times=None, rng=None):
    from repro.experiments.report import render

    data = collect(n_jobs, tracer, times, rng)
    t0 = time.perf_counter()
    with span(tracer, "report.render"):
        md = render(data, SCALE)
    if times is not None:
        times["render"] = time.perf_counter() - t0
    return md


def disk_cycles(cache_dir):
    """Simulated cycles of every result on disk (outside the timed part)."""
    import json

    total = 0
    for fn in os.listdir(cache_dir):
        if fn.endswith(".json"):
            with open(os.path.join(cache_dir, fn), encoding="utf-8") as f:
                total += json.load(f)["result"]["cycles"]
    return total


# ------------------------------------------------------------------- tracing

class _Layers:
    """Per-layer tallies of one traced half."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.n = {}

    def add(self, name, v):
        self.n[name] = self.n.get(name, 0) + v


def _traced_cache_class(layers):
    from repro.experiments.cache import ResultCache

    tracer = layers.tracer

    class TracedCache(ResultCache):
        def get(self, key):
            dh, hits = self.disk_hits, self.hits
            with tracer.span("cache.get") as sp:
                result = ResultCache.get(self, key)
            level = "disk" if self.disk_hits > dh else (
                "memory" if self.hits > hits else "miss")
            tracer.spans[sp.idx][0] = f"cache.get_{level}"
            layers.add(f"cache.get_{level}_calls", 1)
            return result

        def put(self, key, result):
            with tracer.span("cache.put"):
                ResultCache.put(self, key, result)
            layers.add("cache.put_calls", 1)
            for part in ("trace.build", "soc.build", "events.run"):
                layers.add(part + "_s", result.timing.get(_TIMING + part, 0.0))
            for k, v in stat_counts(result.stats).items():
                layers.add(k, v)

    return TracedCache


@contextmanager
def _patched(obj, name, value):
    orig = obj.__dict__[name]
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, orig)


@contextmanager
def traced_layers(layers):
    """Wrap the parallel runner, ``RunResult`` dump/load and the runner
    module's simulation entry points for the duration of the block."""
    from repro.experiments import runner
    from repro.experiments.parallel import ParallelRunner
    from repro.stats import RunResult

    tracer = layers.tracer
    pc = time.perf_counter
    run_orig = ParallelRunner.run
    to_orig = RunResult.to_dict
    from_orig = RunResult.__dict__["from_dict"].__func__

    def sweep(self, requests, progress=False):
        with tracer.span("parallel.sweep"):
            out = run_orig(self, requests, progress)
        s = self.summary()
        layers.add("parallel.misses", s["requests"] - s["cache_hits"])
        layers.add("parallel.simulated", s["simulated"])
        if s["simulated"]:
            layers.add("parallel.busy_wall", s["worker_util"] * s["wall_s"])
            layers.add("parallel.sim_wall", s["wall_s"])
        return out

    def to_dict(self):
        with tracer.span("stats.to_dict"):
            return to_orig(self)

    def from_dict(cls, d):
        with tracer.span("stats.from_dict"):
            return from_orig(cls, d)

    # simulation entry points as run_pair sees them, inherited by the
    # forked pool workers; timings ride back in RunResult.timing
    acc = {}
    get_orig, prog_orig, sys_orig = (runner.get_workload, runner._program_for,
                                     runner.System)

    def get_workload(name, scale):
        t = pc()
        w = get_orig(name, scale)
        acc["trace"] = acc.get("trace", 0.0) + pc() - t
        return w

    def program_for(cfg, workload):
        t = pc()
        p = prog_orig(cfg, workload)
        acc["trace"] = acc.get("trace", 0.0) + pc() - t
        return p

    class TimedSystem(sys_orig):
        __slots__ = ()

        def __init__(self, config, obs=None):
            t = pc()
            sys_orig.__init__(self, config, obs)
            acc["init"] = pc() - t

        def run(self, program=None, **kw):
            t = pc()
            result = sys_orig.run(self, program, **kw)
            total = pc() - t
            loop = result.timing.get("wall_s", 0.0)
            result.timing[_TIMING + "trace.build"] = acc.pop("trace", 0.0)
            result.timing[_TIMING + "soc.build"] = \
                acc.pop("init", 0.0) + total - loop
            result.timing[_TIMING + "events.run"] = loop
            return result

    with _patched(ParallelRunner, "run", sweep), \
            _patched(RunResult, "to_dict", to_dict), \
            _patched(RunResult, "from_dict", classmethod(from_dict)), \
            _patched(runner, "get_workload", get_workload), \
            _patched(runner, "_program_for", program_for), \
            _patched(runner, "System", TimedSystem):
        yield


# ---------------------------------------------------------------- workload

def _round(i, n_jobs, ref_digest, ops, out, cache_cls, tracer, rng):
    from repro.experiments.cache import set_cache

    cache_dir = os.path.join(WORK, "sweep", f"round-{os.getpid()}-{i}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    try:
        cache = set_cache(cache_cls(cache_dir=cache_dir))
        times = {}
        with span(tracer, "bench.cold"):
            t0 = time.perf_counter()
            md = report(n_jobs, tracer, times)
            cold = time.perf_counter() - t0
        digest = text_digest(md)
        if ops.check(cache.misses > 0 and digest == ref_digest,
                     f"cold report digest {digest} != reference "
                     f"{ref_digest} ({cache.misses} misses)"):
            out["cold_s"].append(cold)
            out["cycles"] = disk_cycles(cache_dir)
            for k, v in times.items():
                out["best"][k] = min(v, out["best"].get(k, v))
        out["corrupt"] += cache.corrupt
        for _ in range(WARM_REPEATS):
            warm = set_cache(cache_cls(cache_dir=cache_dir))
            with span(tracer, "bench.warm"):
                t0 = time.perf_counter()
                md2 = report(n_jobs, tracer, rng=rng)
                dt = time.perf_counter() - t0
            if ops.check(md2 == md and warm.misses == 0,
                         f"warm report: {warm.misses} cache misses, "
                         f"identical={md2 == md}"):
                out["warm_ms"].append(dt * 1e3)
            out["corrupt"] += warm.corrupt
            # untraced only, as in sims.run; the pool is idle here
            if tracer is None:
                HOST.tick()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run(seconds, seed, reference, tracer=None, between=None):
    """Rounds of cold + warm report generation for ``seconds``, calling
    ``between`` after each.

    ``seed`` orders the figure generators of each warm regeneration. The
    cold report keeps the report's own order: reordering it changes how
    the pool packs its work and when the collector runs, which only adds
    noise.
    """
    from repro.experiments.cache import ResultCache

    rng = random.Random(seed)
    ops = Ops()
    n_jobs = workers()
    ref_digest = reference.get(REPORT_ID)
    out = {"cold_s": [], "best": {}, "cycles": 0, "warm_ms": [],
           "corrupt": 0}
    if tracer is None:
        layers, cache_cls, wrapped = None, ResultCache, nullcontext()
    else:
        layers = _Layers(tracer)
        cache_cls, wrapped = _traced_cache_class(layers), traced_layers(layers)
    deadline = time.perf_counter() + seconds
    rounds = 0
    with span(tracer, "bench.measure"), wrapped:
        while rounds == 0 or time.perf_counter() < deadline:
            try:
                _round(rounds, n_jobs, ref_digest, ops, out, cache_cls,
                       tracer, rng)
            except Exception as exc:
                ops.fail(f"round {rounds}: {type(exc).__name__}: {exc}")
            rounds += 1
            HOST.sample()
            if between is not None:
                between()
    # the host's speed swings by tens of percent within seconds, and every
    # round is the same work in the same order: the cold report is the sum
    # of each figure generator's (and render's) best of the run's rounds
    sim_s = sum(out["best"].values())
    metrics = {
        "sim_s": sim_s,
        "sim_throughput": out["cycles"] / 1e3 / sim_s if sim_s else 0.0,
        "op_p90_ms": percentile(out["warm_ms"], 90),
        "report_cold_s": min(out["cold_s"], default=0.0),
        "report_warm_s": percentile(out["warm_ms"], 50) / 1e3,
        "passes": rounds,
        "jobs": n_jobs,
    }
    if tracer is not None:
        metrics.update(layer_metrics(layers, rounds, out["corrupt"]))
    return ops, metrics


def layer_metrics(layers, rounds, corrupt):
    tr = layers.tracer
    tot, selfs, n = tr.totals(), tr.self_times(), layers.n
    per = {k: v / rounds for k, v in n.items()}
    out = {}
    for part in ("trace.build", "soc.build", "events.run"):
        out[part + "_s"] = per.get(part + "_s", 0.0)
    for k in ("events.ticks_executed", "events.ticks_skipped",
              "cores.instrs", "runtime.tasks", "runtime.steals",
              "mem.l2_misses", "mem.dram_reads"):
        out[k] = per.get(k, 0)
    ex, sk = n.get("events.ticks_executed", 0), n.get("events.ticks_skipped", 0)
    out["events.skip_frac"] = sk / (ex + sk) if ex + sk else 0.0
    out["events.tick_ns"] = n.get("events.run_s", 0.0) / ex * 1e9 if ex else 0.0
    for name in ("stats.to_dict", "stats.from_dict", "cache.get_memory",
                 "cache.get_disk", "cache.put", "parallel.sweep",
                 "report.render"):
        out[name + "_s"] = tot.get(name, 0.0) / rounds
    for name in ("cache.get_memory", "cache.get_disk", "cache.put"):
        out[name + "_calls"] = per.get(name + "_calls", 0)
    lookups = sum(n.get(f"cache.get_{lv}_calls", 0)
                  for lv in ("memory", "disk", "miss"))
    hits = n.get("cache.get_memory_calls", 0) + n.get("cache.get_disk_calls", 0)
    out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["cache.corrupt"] = corrupt / rounds
    out["parallel.simulated"] = per.get("parallel.simulated", 0)
    misses = n.get("parallel.misses", 0)
    out["parallel.dedup_ratio"] = \
        (misses - n.get("parallel.simulated", 0)) / misses if misses else 0.0
    sim_wall = n.get("parallel.sim_wall", 0.0)
    out["parallel.worker_util"] = \
        n.get("parallel.busy_wall", 0.0) / sim_wall if sim_wall else 0.0
    out["figures.aggregate_s"] = sum(
        v for k, v in selfs.items() if k.startswith("figures.")) / rounds
    return out


def setup_probe():
    """What a fresh process does before its first timed op: import the
    report stack and open a fresh cache."""
    from repro.experiments import figures, report, tables  # noqa: F401
    from repro.experiments.cache import ResultCache, set_cache

    probe = os.path.join(WORK, f"setup-{os.getpid()}")
    try:
        set_cache(ResultCache(cache_dir=probe)).stats()
    finally:
        shutil.rmtree(probe, ignore_errors=True)
