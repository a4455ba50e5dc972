"""``sim-engine`` and ``sim-cores``: uncached simulation, one pair per op.

One op does what ``run_pair(..., use_cache=False)`` does, with each
layer timed from outside: build the workload's program
(``repro.workloads`` + ``repro.trace``), build and load the ``System``
(``repro.soc.system``), then run it (``repro.soc.events``). The output
check round-trips the ``RunResult`` through ``to_dict``/``from_dict``
(``repro.stats``) and compares the reloaded stats' digest with the
reference. A pass runs every pair of the workload's list once, in an
order drawn from the seed; passes repeat until the time is up.

In the traced run, spans wrap those calls and a ``HostScope`` attached
through ``System.run(hostscope=...)`` splits the run loop's host time
into unit groups (cores, vector units, memory, scheduler residual).
"""

from __future__ import annotations

import random
import time

from harness import HOST, SCALE, Ops, pair_id, percentile, span, \
    stat_counts, stats_digest

VECTOR_SYSTEMS = ("1b-4VL", "1bDV")

#: kernels and data-parallel apps on the two decoupled-engine systems:
#: the VLITTLE engine (VCU, batched lanes, VMU, VXU) and the DVE do the work
ENGINE_PAIRS = tuple(
    (s, w)
    for w in ("vvadd", "saxpy", "mmult", "backprop", "blackscholes",
              "jacobi2d", "kmeans", "lavamd", "particlefilter",
              "pathfinder", "sw")
    for s in VECTOR_SYSTEMS)

#: Ligra apps (work stealing over big + 4 littles on 1b-4VL with the
#: engine bypassed; a lone big core on 1bDV, idle-skip heavy), task
#: programs of data-parallel apps on 1bIV-4L, and the two phase-structure
#: synthetics: cores, runtime, L2/DRAM and the skip/wake machinery
CORES_PAIRS = (
    tuple((s, w) for w in ("bfs", "pagerank", "cc", "radii")
          for s in VECTOR_SYSTEMS)
    + tuple(("1bIV-4L", w) for w in ("mmult", "saxpy", "backprop",
                                     "pathfinder", "kmeans"))
    + tuple((s, w) for w in ("switch_thrash", "dram_chain")
            for s in VECTOR_SYSTEMS))

PAIRS = {"sim-engine": ENGINE_PAIRS, "sim-cores": CORES_PAIRS}

#: HostScope unit group -> per-layer metric
HOST_GROUPS = {
    "big": "cores.big_s",
    "little": "cores.little_s",
    "vcu": "vector.vcu_s",
    "vcu.lanes.batch": "vector.lanes_batch_s",
    "vcu.lanes.scalar": "vector.lanes_scalar_s",
    "vmu": "vector.vmu_s",
    "vxu": "vector.vxu_s",
    "dve": "vector.dve_s",
    "mem": "mem.tick_s",
    "l2": "mem.l2_s",
    "dram": "mem.dram_s",
    "scheduler": "events.scheduler_s",
}


def program_instrs(program):
    """Dynamic instructions in a built program (every trace variant)."""
    from repro.trace import Trace

    if isinstance(program, Trace):
        return len(program)
    n = 0
    for phase in program.phases:
        if phase.serial is not None:
            n += len(phase.serial)
        for task in phase.tasks:
            n += sum(len(t) for t in task.traces.values())
    return n


def simulate(system, workload, tracer=None):
    """One op: program build, System build + load, run.

    Returns ``(result, op_seconds, counters)``; the op time excludes the
    benchmark's own output check.
    """
    from repro.experiments.runner import _program_for
    from repro.obs.host import HostScope
    from repro.soc import System, preset
    from repro.vector import VLittleEngine
    from repro.workloads import get_workload

    rid = pair_id(system, workload)
    t0 = time.perf_counter()
    cfg = preset(system)
    with span(tracer, "trace.build", rid):
        program = _program_for(cfg, get_workload(workload, SCALE))
    with span(tracer, "soc.build", rid):
        sysm = System(cfg)
        sysm.load(program)
    engine = sysm.engine
    hs = HostScope() if tracer is not None else None
    with span(tracer, "events.run", rid):
        result = sysm.run(hostscope=hs)
        if hs is not None:
            for row in hs.group_rows():
                metric = HOST_GROUPS.get(row["group"],
                                         f"events.{row['group']}_s")
                tracer.add(metric[:-2], row["wall_s"], rid=rid)
    op_s = time.perf_counter() - t0
    counters = stat_counts(result.stats)
    counters["trace.instrs"] = \
        program_instrs(program) if tracer is not None else 0
    counters["vector.batch_fallbacks"] = engine.batch_fallbacks \
        if isinstance(engine, VLittleEngine) else 0
    return result, op_s, counters


def check_output(result, reference, rid, tracer=None):
    """Round-trip the result as the cache would store it and compare its
    stats digest with the reference; returns an error string or None."""
    import json

    from repro.stats import RunResult

    with span(tracer, "stats.to_dict", rid):
        blob = json.dumps(result.to_dict())
    with span(tracer, "stats.from_dict", rid):
        again = RunResult.from_dict(json.loads(blob))
    with span(tracer, "bench.check", rid):
        got = stats_digest(again.stats)
    want = reference.get(rid)
    if got != want:
        return f"{rid}: stats digest {got} != reference {want}"
    return None


def run(workload, seconds, seed, reference, tracer=None, pairs=None,
        between=None):
    """Measure passes over the pair list for ``seconds``, calling
    ``between`` after each; returns ``(ops, metrics)`` where metrics hold
    the end-to-end numbers and, when traced, the per-layer ones."""
    pairs = list(PAIRS[workload] if pairs is None else pairs)
    rng = random.Random(seed)
    ops = Ops()
    best, cycles = {}, {}
    counters = {}
    deadline = time.perf_counter() + seconds
    passes = 0
    with span(tracer, "bench.measure"):
        while passes == 0 or time.perf_counter() < deadline:
            order = pairs[:]
            rng.shuffle(order)
            for system, wl in order:
                rid = pair_id(system, wl)
                try:
                    with span(tracer, "bench.op", rid):
                        result, dt, cnt = simulate(system, wl, tracer)
                        err = check_output(result, reference, rid, tracer)
                except Exception as exc:  # a failed op, DeadlockError included
                    ops.fail(f"{rid}: {type(exc).__name__}: {exc}")
                    continue
                best[rid] = min(dt, best.get(rid, dt))
                cycles[rid] = result.cycles
                for k, v in cnt.items():
                    counters[k] = counters.get(k, 0) + v
                if err:
                    ops.fail(err)
                else:
                    ops.ok()
                # the traced half calibrates only between passes, so that
                # its root span stays the program's work
                if tracer is None:
                    HOST.tick()
            passes += 1
            HOST.sample()
            if between is not None:
                between()
    # the host's speed swings by tens of percent within seconds, so each
    # pair reports its best of the run's passes (as the repo's earlier
    # benchmarks did) and a pass is the sum of those bests
    sim_s = sum(best.values())
    op_ms = [v * 1e3 for v in best.values()]
    metrics = {
        "sim_s": sim_s,
        "sim_throughput": sum(cycles.values()) / 1e3 / sim_s
        if sim_s > 0 else 0.0,
        "op_p90_ms": percentile(op_ms, 90),
        "passes": passes,
    }
    if tracer is not None:
        metrics.update(layer_metrics(tracer, counters, passes))
    return ops, metrics


def layer_metrics(tracer, counters, passes):
    """Per-pass layer numbers from the traced run's spans and counters."""
    tot = tracer.totals()
    out = {k: v / passes for k, v in counters.items()}
    for name in ("trace.build", "soc.build", "events.run", "stats.to_dict",
                 "stats.from_dict"):
        out[name + "_s"] = tot.get(name, 0.0) / passes
    for metric in HOST_GROUPS.values():
        out[metric] = tot.get(metric[:-2], 0.0) / passes
    executed = counters.get("events.ticks_executed", 0)
    skipped = counters.get("events.ticks_skipped", 0)
    out["events.skip_frac"] = skipped / (executed + skipped) \
        if executed + skipped else 0.0
    out["events.tick_ns"] = tot.get("events.run", 0.0) / executed * 1e9 \
        if executed else 0.0
    return out


def setup_probe():
    """What a fresh process does before its first timed op: import the
    simulator and build the first pair's program and system."""
    from repro.experiments.runner import _program_for
    from repro.soc import System, preset
    from repro.workloads import get_workload

    system, wl = ENGINE_PAIRS[0]
    cfg = preset(system)
    System(cfg).load(_program_for(cfg, get_workload(wl, SCALE)))
