"""Benchmark guards: the overhead and speed bounds every change must hold.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/guards.py [--bench-json PATH]

One run measures every guard, prints each verdict against the bounds in
``benchmarks/guards_baseline.json`` (limit = recorded value x tolerance)
and exits 1 if any guard failed. Every bound is a ratio measured in this
process, as absolute times are machine-dependent:

* obs, pipeview, hostprof and critpath bound overhead ratios over the
  five saxpy arms in :data:`ARMS`; hostprof's recorded value must also
  stay under its budget.
* sim_throughput bounds ``dense/event``, the geomean over nine (workload,
  system) pairs of the dense loop's time over the event core's.
* parallel: a cold Fig. 4 sub-sweep on ``ParallelRunner(jobs=4)`` must
  beat the serial loop on two or more cores, and a warm re-run must
  simulate nothing. It alone uses wall time, as a pool's gain is
  wall-clock by definition; every other arm is timed in CPU time.

Re-baselining is a reviewed edit of ``guards_baseline.json``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import shutil
import statistics
import sys
import tempfile
import time

from repro.experiments.cache import ResultCache, set_cache
from repro.experiments.figures import fig4_requests
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import _program_for, run_pair
from repro.obs import CritPath, HostScope, IntervalSampler, Observation, PipeView
from repro.soc import System, preset
from repro.workloads import KERNELS, TASK_PARALLEL, get_workload

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "guards_baseline.json")

SAXPY = ("1b-4VL", "saxpy", "small")
SAXPY_REPEATS = 15
#: the saxpy arms: each maps to a factory of its ``System.run`` arguments
ARMS = {
    "off": dict,
    "obs": lambda: {"obs": Observation()},
    "deep": lambda: {"obs": Observation(pipeview=PipeView(),
                                        sampler=IntervalSampler(100))},
    "hostprof": lambda: {"hostscope": HostScope(stride=16)},
    "critpath": lambda: {"critpath": CritPath()},
}

THROUGHPUT_SYSTEMS = ("1b-4VL", "1bIV-4L", "1bDV")
#: the synthetics' sizes are pinned to those the recorded geomean was
#: measured with (the registry's per-scale defaults are larger)
THROUGHPUT_WORKLOADS = {"saxpy": {},
                        "switch_thrash": dict(regions=80, scalar=10, nvec=16),
                        "dram_chain": dict(n=1000, stride=8192)}
THROUGHPUT_REPEATS = 3
DOMAINS = ("big", "little", "mem")

POOL_JOBS = 4
POOL_MIN_CORES = 2

COMPARE = {"lower": ("<=", operator.le), "higher": (">=", operator.ge)}

#: ledger result -> {metric: measured quantity}, named so that they
#: continue the existing series of ``BENCH_history.jsonl``
LEDGER = {
    "obs_overhead": dict(off_ms="off", on_ms="obs", off_on_ratio="off/obs"),
    "pipeview_overhead": dict(off_ms="off", shallow_ms="obs", deep_ms="deep",
                              off_deep_ratio="off/deep",
                              shallow_deep_ratio="obs/deep"),
    "hostprof_overhead": dict(off_ms="off", sampled_ms="hostprof",
                              sampled_off_ratio="hostprof/off"),
    "critpath_overhead": dict(off_ms="off", on_ms="critpath",
                              off_on_ratio="off/critpath"),
}


def _run(system, workload, scale, params=None, **run_kw):
    """CPU seconds and result of one ``System.run`` (building the program
    and the system is not timed)."""
    cfg = preset(system)
    program = _program_for(cfg, get_workload(workload, scale,
                                             **(params or {})))
    sim = System(cfg)
    t0 = time.process_time()
    result = sim.run(program, **run_kw)
    return time.process_time() - t0, result


def best_of(arms, repeats):
    """Each arm's minimum CPU time over ``repeats`` interleaved rounds
    after an untimed warm-up round, and each arm's last result.

    Alternate rounds reverse the order: a run can slow the next one
    (``HostScope`` patches classes, invalidating the interpreter's inline
    caches), so each arm also follows an arm that does not."""
    best = dict.fromkeys(arms, float("inf"))
    last = {}
    for round_ in range(repeats + 1):
        for name in list(arms)[::-1 if round_ % 2 else 1]:
            t, last[name] = arms[name]()
            if round_:
                best[name] = min(best[name], t)
    return best, last


def measure_saxpy():
    """Best CPU milliseconds of each saxpy arm."""
    best, _ = best_of({name: lambda make=make: _run(*SAXPY, **make())
                       for name, make in ARMS.items()}, SAXPY_REPEATS)
    return {name: t * 1000 for name, t in best.items()}


def measure_throughput():
    """Per (workload, system) pair: best CPU seconds of the event core
    and the dense loop, the speedup and the event core's skipped share."""
    pairs = {}
    for workload, params in THROUGHPUT_WORKLOADS.items():
        for system in THROUGHPUT_SYSTEMS:
            run = functools.partial(_run, system, workload, "small", params)
            best, last = best_of({"event": run, "dense": functools.partial(
                run, skip=False)}, THROUGHPUT_REPEATS)
            stats = last["event"].stats
            skipped = sum(stats[f"sim.ticks_skipped_{d}"] for d in DOMAINS)
            total = skipped + sum(stats[f"sim.ticks_{d}"] for d in DOMAINS)
            pairs[workload, system] = {
                "event_cpu_s": best["event"], "dense_cpu_s": best["dense"],
                "event_speedup": best["dense"] / best["event"],
                "event_skipped_frac": skipped / total}
    return pairs


def measure_pool():
    """Wall seconds of the cold sub-sweep (35 runs), serial and pooled,
    and of a warm pooled re-run, plus the simulations that re-run needed."""
    requests = fig4_requests("tiny", workloads=KERNELS + TASK_PARALLEL[:2])
    tmp = tempfile.mkdtemp(prefix="bvl-guards-")
    try:
        set_cache(ResultCache(cache_dir=tmp))
        t0 = time.perf_counter()
        for r in requests:
            run_pair(r.system, r.workload, r.scale, **r.overrides)
        serial = time.perf_counter() - t0
        set_cache(ResultCache(cache_dir=tmp)).clear()
        t0 = time.perf_counter()
        ParallelRunner(jobs=POOL_JOBS).run(requests)
        pooled = time.perf_counter() - t0
        set_cache(ResultCache(cache_dir=tmp))  # fresh memory, warm disk
        warm = ParallelRunner(jobs=POOL_JOBS)
        t0 = time.perf_counter()
        warm.run(requests)
        warm_s = time.perf_counter() - t0
        return {"serial_s": serial, "pool_s": pooled, "warm_s": warm_s,
                "warm_simulated": warm.summary()["simulated"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def verdicts(bounds, measured, cores):
    """``(guard, quantity, got, op, limit, ok)`` for each row of
    ``bounds`` (``guards_baseline.json``) and for the pool guard; ``ok``
    is None where this host cannot judge."""
    rows = []
    for b in bounds:
        got, limit = measured[b["quantity"]], b["value"] * b["tolerance"]
        op, compare = COMPARE[b["better"]]
        rows.append((b["guard"], b["quantity"], got, op, limit,
                     compare(got, limit)))
        if "budget" in b:
            rows.append((b["guard"], "recorded " + b["quantity"], b["value"],
                         "<=", b["budget"], b["value"] <= b["budget"]))
    warm = measured["warm_simulated"]
    rows.append(("parallel", "warm_simulated", warm, "<=", 0, warm == 0))
    speed = measured["pool/serial"]
    rows.append(("parallel", "pool/serial", speed, "<", 1.0,
                 speed < 1.0 if cores >= POOL_MIN_CORES else None))
    return rows


def _result(name, metrics, system, workload, scale, repeats):
    """One ``bigvlittle-bench-v1`` result."""
    return {"name": name, "metrics": {k: round(v, 5)
                                      for k, v in metrics.items()},
            "meta": {"system": system, "workload": workload, "scale": scale,
                     "repeats": repeats}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-json", metavar="PATH", help="write every "
                    "measurement as a bigvlittle-bench-v1 results file")
    args = ap.parse_args(argv)
    with open(BASELINE, encoding="utf-8") as f:
        bounds = json.load(f)

    arms = measure_saxpy()
    print(f"{'/'.join(SAXPY)}, CPU ms, best of {SAXPY_REPEATS}: "
          + "  ".join(f"{a} {t:.1f}" for a, t in arms.items()))
    pairs = measure_throughput()
    print(f"event core vs dense loop, CPU, best of {THROUGHPUT_REPEATS}:")
    for (workload, system), m in pairs.items():
        print(f"  {workload + ':' + system:22s} " + "  ".join(
            f"{k} {v:.4f}" for k, v in m.items()))
    pool = measure_pool()
    print(f"fig4 sub-sweep @tiny, jobs={POOL_JOBS}, wall: " + "  ".join(
        f"{k} {v:.3g}" for k, v in pool.items()))

    measured = dict(arms, warm_simulated=pool["warm_simulated"])
    for num, den in itertools.permutations(arms, 2):
        measured[f"{num}/{den}"] = arms[num] / arms[den]
    measured["dense/event"] = statistics.geometric_mean(
        m["event_speedup"] for m in pairs.values())
    measured["pool/serial"] = pool["pool_s"] / pool["serial_s"]

    cores = os.cpu_count() or 1
    rows = verdicts(bounds, measured, cores)
    for guard, quantity, got, op, limit, ok in rows:
        verdict = {True: "OK", False: "FAIL", None: f"SKIP ({cores} core)"}[ok]
        print(f"  {guard:15s} {quantity:26s} {got:8.4f} {op:2s} "
              f"{limit:7.4f}  {verdict}")

    if args.bench_json:
        results = [_result(name, {k: measured[q] for k, q in spec.items()},
                           *SAXPY, SAXPY_REPEATS)
                   for name, spec in LEDGER.items()]
        results += [_result(f"sim_throughput:{workload}:{system}", m, system,
                            workload, "small", THROUGHPUT_REPEATS)
                    for (workload, system), m in pairs.items()]
        with open(args.bench_json, "w", encoding="utf-8") as f:
            json.dump({"schema": "bigvlittle-bench-v1", "results": sorted(
                results, key=lambda r: r["name"])}, f, indent=2)
            f.write("\n")
        print(f"wrote {args.bench_json}")
    return 1 if any(row[-1] is False for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
