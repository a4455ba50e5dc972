"""Differential-equivalence harness: the event core vs a reference arm.

The event core (``repro.soc.events``) must be *stat-invisible*: for any
config and program, ``run()`` and the dense reference ``run(skip=False)``
produce bit-identical :class:`RunResult` stats apart from the
``sim.ticks_*`` executed/skipped META split, whose per-domain sums must
agree (both equal the dense tick total). This module generates seeded
randomized cases — config knobs (little-core count, vector length,
chime count, L2 banks, DVFS point) crossed with workload kinds (dense
kernel, the ``switch_thrash``/``dram_chain`` synthetics, work-stealing
task-parallel) — and checks each pair through :mod:`repro.obs.diff`.

Two reference arms (:data:`ARMS`):

* ``dense`` — the dense loop that executes every tick;
* ``batched-off`` — the same event loop with the VLITTLE engine's
  per-lane scalar execution forced (``VLittleEngine.batched = False``),
  which pins the chime-batched lane executor.

``tests/soc/test_skip_equivalence.py`` parametrizes its randomized
matrix over seeds 0–29 × both arms through :func:`make_case` and
:func:`check_case`. Run it standalone for wider seed ranges:

    PYTHONPATH=src python -m tests.soc.equivalence --seed 30 --cases 100
    PYTHONPATH=src python -m tests.soc.equivalence --loop-arm batched-off
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.experiments.runner import _program_for
from repro.obs.diff import diff_stats, dump_result
from repro.soc import System, preset
from repro.soc.config import MemConfig
from repro.trace import Phase, Task, TaskProgram, TraceBuilder
from repro.vector.vlittle import VLittleEngine
from repro.workloads import get_workload

from tests.soc.test_system import alu_trace, vec_trace

DOMAINS = ("big", "little", "mem")
TICK_KEYS = tuple(f"sim.ticks_{d}" for d in DOMAINS) + \
    tuple(f"sim.ticks_skipped_{d}" for d in DOMAINS)

#: reference arms the event core is checked against
ARMS = ("dense", "batched-off")

#: workload kinds; seeds rotate through these so any contiguous seed
#: range covers all of them
KINDS = ("dense", "switch_thrash", "dram_chain", "task")

#: synthetic workload parameters, sized so one case runs in tens of ms
_SYNTH = {
    "switch_thrash": dict(regions=6, scalar=8, nvec=8),
    "dram_chain": dict(n=80, stride=8192),
}


class Case:
    """One randomized (config, program) equivalence case."""

    __slots__ = ("ident", "kind", "cfg", "program")

    def __init__(self, ident, kind, cfg, program):
        self.ident = ident
        self.kind = kind
        self.cfg = cfg
        self.program = program


def task_phases(rng):
    """A random multi-phase work-stealing program: 2-4 phases, serial
    prologues on most, one serial-only phase (an empty task bag) and,
    from three phases up, one phase with neither, so every scheduler
    transition that wakes parked workers runs: a task bag opening, a
    serial stage handing straight to the next phase, the last barrier
    arrival, an empty phase skipped, and the end of the run."""
    n = rng.randint(2, 4)
    shapes = ["tasks"] * n
    order = rng.sample(range(n), n)
    shapes[order[0]] = "serial-only"
    if n >= 3:
        shapes[order[1]] = "empty"
    phases = []
    tid = 0
    for k, shape in enumerate(shapes):
        serial = None
        if shape == "serial-only" or (shape == "tasks"
                                      and rng.random() < 0.75):
            serial = alu_trace(rng.choice((5, 10, 20)), f"prologue{k}")
        tasks = []
        if shape == "tasks":
            for _ in range(rng.randint(1, 6)):
                tb = TraceBuilder()
                base = 0x400000 + tid * 0x1000
                with tb.loop(rng.choice((10, 30, 60)), overhead=False) as loop:
                    for i in loop:
                        r = tb.lw(base + 4 * i)
                        tb.addi(r)
                tasks.append(Task(tid, {"scalar": tb.finish(f"t{tid}")}))
                tid += 1
        phases.append(Phase(tasks, serial=serial))
    return TaskProgram(phases, name="tp")


def make_case(seed):
    """Deterministically derive a randomized case from ``seed``."""
    rng = random.Random(0xB16_B1E55 + seed)
    kind = KINDS[seed % len(KINDS)]
    if kind == "task":
        # work-stealing needs real little cores running the runtime
        base = rng.choice(("1b-4L", "1bIV-4L"))
    else:
        base = rng.choice(("1b-4L", "1bIV-4L", "1bDV", "1b-4VL"))
    over = {"mem": MemConfig(l2_banks=rng.choice((1, 2, 4, 8)))}
    if base != "1bDV":
        over["n_little"] = rng.choice((1, 2, 3, 4))
    if base == "1b-4VL":
        over["chimes"] = rng.choice((1, 2, 4))
        over["switch_penalty"] = rng.choice((50, 200, 500))
        # the engine takes one or two chimes and banks its lanes by a
        # power of two: redraw what it rejects from the same rng, so every
        # case the engine accepts keeps its draw
        if over["n_little"] == 3:
            over["n_little"] = rng.choice((1, 2, 4))
        if over["chimes"] == 4:
            over["chimes"] = rng.choice((1, 2))
    elif base in ("1bIV", "1bIV-4L"):
        over["ivu_vlen_bits"] = rng.choice((64, 128, 256))
    elif base == "1bDV":
        over["dve_vlen_bits"] = rng.choice((512, 1024, 2048))
    cfg = preset(base, **over)
    # DVFS point: roughly half the cases skew the three clock domains
    if rng.random() < 0.5:
        cfg = cfg.with_freqs(big=rng.choice((1.0, 1.6, 2.5)),
                             little=rng.choice((0.6, 1.0, 1.3)))
    if kind == "dense":
        vlen = cfg.vlen_bits(4)
        program = (vec_trace(vlen, n=rng.choice((32, 64)))
                   if vlen else alu_trace(250))
    elif kind == "task":
        program = task_phases(rng)
    else:
        workload = get_workload(kind, "small", **_SYNTH[kind])
        program = _program_for(cfg, workload)
    ident = f"s{seed:02d}-{kind}-{base}"
    return Case(ident, kind, cfg, program)


def split_meta(result):
    """``(meta, rest)`` from a result's canonical dump: the META tick
    split versus everything that must match bit-identically."""
    stats = dict(dump_result(result)["stats"])
    meta = {k: stats.pop(k) for k in TICK_KEYS}
    return meta, stats


def _run_forced_scalar(case):
    """Event-loop run with the VLITTLE engine's batched lane executor
    forced off (the per-lane scalar path for every tick). ``batched`` is
    a run-time knob like ``skip``: never in SoCConfig or cache keys, and
    by contract stat-invisible."""
    sys_ = System(case.cfg)
    if isinstance(sys_.engine, VLittleEngine):
        sys_.engine.batched = False
    return sys_.run(case.program)


def check_case(case, arm="dense"):
    """Run the event core and the ``arm`` reference (one of
    :data:`ARMS`) on ``case``; raise AssertionError on any divergence.
    Returns ``(reference, event)``."""
    if arm == "batched-off":
        ref = _run_forced_scalar(case)
        names = ("scalar", "batched")
    else:
        ref = System(case.cfg).run(case.program, skip=False)
        names = ("dense", "event")
    event = System(case.cfg).run(case.program)
    meta_r, rest_r = split_meta(ref)
    meta_e, rest_e = split_meta(event)
    report = diff_stats(rest_r, rest_e, *names)
    assert report.identical, (
        f"{case.ident}: stat divergence\n" + report.format_table())
    assert ref.cycles == event.cycles, (
        f"{case.ident}: cycles {ref.cycles} != {event.cycles}")
    for d in DOMAINS:
        sr = meta_r[f"sim.ticks_{d}"] + meta_r[f"sim.ticks_skipped_{d}"]
        se = meta_e[f"sim.ticks_{d}"] + meta_e[f"sim.ticks_skipped_{d}"]
        assert sr == se, (
            f"{case.ident}: {d} tick total {sr} ({names[0]}) != "
            f"{se} ({names[1]})")
    # (Work-stealing programs skip too. A worker whose impure source
    # could claim work on the next tick vetoes its own skip, so every
    # task-steal race resolves at exactly the dense loop's instant; a
    # parked worker's core sleeps until the runtime's transition wakes
    # it, in ground order, at the slot where the dense loop's re-peek
    # would first see the new scheduler state. The bit-identical diff
    # above is the proof; only the META split differs between the arms.)
    return ref, event


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0,
                    help="first seed of the contiguous seed range")
    ap.add_argument("--loop-arm", choices=ARMS, default="dense",
                    help="reference arm: the dense loop, or the event "
                         "core with batched lane execution forced off "
                         "(scalar per-lane path)")
    args = ap.parse_args(argv)
    failures = 0
    for seed in range(args.seed, args.seed + args.cases):
        case = make_case(seed)
        try:
            _, event = check_case(case, arm=args.loop_arm)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {case.ident}: {exc}")
            continue
        print(f"ok   {case.ident:24s} cycles={event.cycles}")
    print(f"{args.cases - failures}/{args.cases} equivalent")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
