"""Benchmark + CI guard: the event core's idle skipping must pay for itself.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --record baseline.json
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --check \
        benchmarks/sim_throughput_baseline.json

Each (workload, system) pair runs two interleaved arms of the same
simulation:

* **event** — the per-unit event-driven core (``run(...)``, the
  default);
* **dense** — ``run(..., skip=False)``, grinding through every tick.

Both arms produce bit-identical stats apart from the ``sim.ticks_*``
executed/skipped split, so the wall-time ratio isolates the scheduler.
The workload grid covers the three regimes the event core was built
for:

* ``saxpy``         — a dense vector kernel (little idle time; the guard
  checks skipping never *costs* throughput here);
* ``switch_thrash`` — many short vector regions, each paying the §III-B
  mode-switch penalty: long fully-idle spans on the VLITTLE system;
* ``dram_chain``    — a dependent scalar miss chain with a cache-hostile
  stride: the core blocks on DRAM for ~100-tick stretches.

Absolute wall time is machine-dependent, so ``--check`` guards the
machine-relative **dense/event speedup**: its geometric mean over the
whole grid must not fall more than ``--tolerance`` (default 10%) below
the recorded baseline. Individual pairs are reported but not gated —
single (workload, system) speedups swing ±15% run to run, while the
geomean is stable to a couple of percent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.experiments.runner import _program_for
from repro.soc import System, preset
from repro.workloads import get_workload

from bench_pipeview_overhead import emit_bench_json

SYSTEMS = ("1b-4VL", "1bIV-4L", "1bDV")
SCALE = "small"
DOMAINS = ("big", "little", "mem")

#: ``switch_thrash`` / ``dram_chain`` now live in the workload registry
#: (``repro.workloads.synthetic``) with larger per-scale defaults sized
#: for phase detection; the benchmark pins the parameters its recorded
#: baselines were measured with so old and new baselines stay comparable
#: (the pinned traces are bit-identical to the builders this file used
#: to inline).
_SYNTH_PARAMS = {
    "switch_thrash": dict(regions=80, scalar=10, nvec=16),
    "dram_chain": dict(n=1000, stride=8192),
}


def _program(workload, cfg):
    params = _SYNTH_PARAMS.get(workload, {})
    return _program_for(cfg, get_workload(workload, SCALE, **params))


WORKLOADS = ("saxpy", "switch_thrash", "dram_chain")

#: measurement arms: the event core and the dense reference
_ARMS = ("event", "dense")


def _one_run(workload, system_name, arm):
    cfg = preset(system_name)
    program = _program(workload, cfg)
    system = System(cfg)
    t0 = time.perf_counter()
    result = system.run(program, skip=arm == "event")
    wall = time.perf_counter() - t0
    ticks = sum(result.stats[f"sim.ticks_{d}"] for d in DOMAINS)
    skipped = sum(result.stats[f"sim.ticks_skipped_{d}"] for d in DOMAINS)
    return wall, ticks, skipped


def measure(repeats):
    """Best-of-``repeats`` wall time per (workload, system, arm),
    interleaved so frequency scaling and cache warmth hit all arms
    equally."""
    out = {}
    for workload in WORKLOADS:
        for system_name in SYSTEMS:
            # warm traces/caches; the executed/skipped split is
            # deterministic, so this run also supplies it
            _, ticks, skipped = _one_run(workload, system_name, "event")
            best = {arm: float("inf") for arm in _ARMS}
            for _ in range(repeats):
                for arm in _ARMS:
                    wall = _one_run(workload, system_name, arm)[0]
                    best[arm] = min(best[arm], wall)
            total = ticks + skipped
            out[(workload, system_name)] = {
                "event_wall_s": best["event"],
                "dense_wall_s": best["dense"],
                "ticks_total": total,
                "event_speedup": best["dense"] / best["event"],
                "event_skipped_frac": skipped / total if total else 0.0,
            }
    return out


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--record", metavar="PATH",
                    help="write the measured speedups as the new baseline")
    ap.add_argument("--check", metavar="PATH",
                    help="fail (exit 1) if the geomean speedup falls "
                         "below this baseline by more than --tolerance")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed relative speedup drop (default 0.10)")
    ap.add_argument("--bench-json", metavar="PATH",
                    help="merge the measurements into a bigvlittle-bench-v1 "
                         "results file (CI artifact)")
    args = ap.parse_args(argv)

    results = measure(args.repeats)
    print(f"run-loop throughput, best of {args.repeats} per arm:")
    print(f"  {'workload':14s} {'system':9s} {'event':>9s} {'dense':>9s} "
          f"{'speedup':>7s} {'skipped':>7s}")
    for (workload, system_name), m in results.items():
        print(f"  {workload:14s} {system_name:9s} "
              f"{m['event_wall_s'] * 1000:7.1f}ms "
              f"{m['dense_wall_s'] * 1000:7.1f}ms "
              f"{m['event_speedup']:6.2f}x "
              f"{m['event_skipped_frac']:7.1%}")

    speedups = {f"{w}:{s}": round(m["event_speedup"], 4)
                for (w, s), m in results.items()}
    geomean = _geomean(list(speedups.values()))
    print(f"  geomean speedup: {geomean:.3f}x")
    if args.record:
        payload = {"scale": SCALE, "repeats": args.repeats,
                   "loops": {"event": {
                       "geomean_speedup": round(geomean, 4),
                       "speedups": speedups}}}
        with open(args.record, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"recorded baseline to {args.record}")
    if args.bench_json:
        for (workload, system_name), m in results.items():
            emit_bench_json(
                args.bench_json, f"sim_throughput:{workload}:{system_name}",
                {"event_wall_s": round(m["event_wall_s"], 5),
                 "dense_wall_s": round(m["dense_wall_s"], 5),
                 "event_speedup": round(m["event_speedup"], 4),
                 "event_skipped_frac": round(m["event_skipped_frac"], 4)},
                {"system": system_name, "workload": workload,
                 "scale": SCALE, "repeats": args.repeats})
        print(f"merged results into {args.bench_json}")

    rc = 0
    if args.check:
        with open(args.check) as f:
            base = json.load(f)["loops"]["event"]["geomean_speedup"]
        limit = base * (1.0 - args.tolerance)
        ok = geomean >= limit
        print(f"  guard geomean speedup: {geomean:.3f}x vs limit "
              f"{limit:.3f}x (baseline {base:.3f}x -{args.tolerance:.0%}) "
              f"-> {'OK' if ok else 'FAIL'}")
        if not ok:
            rc = 1
            print("sim-throughput regression: the event core lost ground "
                  "against the dense loop; check for new per-iteration "
                  "work ahead of the probe, next_work_ps hooks returning "
                  "0 too eagerly, or skip spans being clamped harder than "
                  "before.")
    return rc


if __name__ == "__main__":
    sys.exit(main())
