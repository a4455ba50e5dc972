"""Skipping idle ticks must be invisible in the stats.

``System.run(..., skip=False)`` grinds through every tick of every clock
domain; ``skip=True`` (the default) runs the event core, which
executes a unit only when its ``next_work_ps`` says it can change state.
The contract (docs/performance.md) is that the two runs produce
**bit-identical** ``RunResult.stats`` apart from the ``sim.ticks_*``
executed/skipped split, and that per domain

    on.ticks_X + on.ticks_skipped_X == off.ticks_X + off.ticks_skipped_X

(the forced-off arm reports zero skipped ticks, so its executed count is
the full tick total). The parametrization sweeps the Section IV system
matrix — serial scalar, task-parallel, VLITTLE, DVE, IVU — plus an
8-little task-parallel system (a clock domain with more units than any
preset builds) and a DVFS-skewed clock grid where the three domains
tick at unrelated periods.
"""

import pytest

from repro.experiments.runner import _program_for
from repro.obs import IntervalSampler, Observation
from repro.soc import System, preset
from repro.workloads import get_workload

from tests.soc.test_system import (alu_trace, stream_trace, task_program,
                                   vec_trace)

DOMAINS = ("big", "little", "mem")
TICK_KEYS = tuple(f"sim.ticks_{d}" for d in DOMAINS) + \
    tuple(f"sim.ticks_skipped_{d}" for d in DOMAINS)


def _cases():
    yield "serial-big", preset("1b"), alu_trace(120)
    yield "serial-little", preset("1L"), stream_trace(64)
    yield "task-parallel", preset("1b-4L"), task_program(n_tasks=6, body=40)
    yield ("task-parallel-8L", preset("1b-4L", n_little=8),
           task_program(n_tasks=16, body=40))
    cfg = preset("1b-4VL", switch_penalty=50)
    yield "vlittle", cfg, vec_trace(cfg.vlen_bits(4), n=96)
    cfg = preset("1bDV")
    yield "dve", cfg, vec_trace(cfg.vlen_bits(4), n=96)
    cfg = preset("1bIV")
    yield "ivu", cfg, vec_trace(cfg.vlen_bits(4), n=96)
    # DVFS-skewed: big at 2.5 GHz, little at 0.6 GHz -> periods 400/1667/1000
    cfg = preset("1b-4VL", switch_penalty=50).with_freqs(big=2.5, little=0.6)
    yield "dvfs-skew", cfg, vec_trace(cfg.vlen_bits(4), n=96)


CASES = list(_cases())


def _split_stats(stats):
    ticks = {k: stats[k] for k in TICK_KEYS}
    rest = {k: v for k, v in stats.items() if k not in ticks}
    return ticks, rest


@pytest.mark.parametrize("cfg,program", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_skip_on_off_stats_bit_identical(cfg, program):
    on = System(cfg).run(program, skip=True)
    off = System(cfg).run(program, skip=False)
    on_ticks, on_rest = _split_stats(on.stats)
    off_ticks, off_rest = _split_stats(off.stats)
    assert on_rest == off_rest
    # the forced-off arm executes every tick itself
    for d in DOMAINS:
        assert off_ticks[f"sim.ticks_skipped_{d}"] == 0
        assert (on_ticks[f"sim.ticks_{d}"] +
                on_ticks[f"sim.ticks_skipped_{d}"] ==
                off_ticks[f"sim.ticks_{d}"])


@pytest.mark.parametrize("cfg,program", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_skip_equivalence_holds_under_observation(cfg, program):
    """Attaching obs + a sampler must not perturb either arm's stats.

    The sampler interval is chosen coprime-ish to the clock periods so
    sample boundaries routinely land *inside* skipped spans; the
    scheduler must stop at each boundary, snapshot, and resume without
    changing the executed/skipped split or any sampled series.
    """
    runs = {}
    for skip in (True, False):
        obs = Observation(sampler=IntervalSampler(interval=777))
        res = System(cfg, obs=obs).run(program, skip=skip)
        runs[skip] = res.stats
    on_ticks, on_rest = _split_stats(runs[True])
    off_ticks, off_rest = _split_stats(runs[False])
    assert on_rest == off_rest  # includes every obs.sample.* series point
    for d in DOMAINS:
        assert (on_ticks[f"sim.ticks_{d}"] +
                on_ticks[f"sim.ticks_skipped_{d}"] ==
                off_ticks[f"sim.ticks_{d}"])


def test_skipping_actually_happens_on_idle_heavy_case():
    """Guard against the trivial way to pass the tests above: a scheduler
    that never skips. The VLITTLE mode-switch case has long fully-idle
    penalty spans, so a healthy scheduler must skip a nonzero number of
    ticks there."""
    cfg = preset("1b-4VL")  # full 500-cycle switch penalty
    res = System(cfg).run(vec_trace(cfg.vlen_bits(4), n=64))
    skipped = sum(res.stats[f"sim.ticks_skipped_{d}"] for d in DOMAINS)
    assert skipped > 0


# ---- known drift on registry apps: event core vs dense loop ---------
#
# The matrices above build every case from synthetic programs. On these
# four 1bDV apps at ``tiny`` (scalar code between vector regions) the
# event core trades ``big0.stall.busy`` against ``big0.stall.misc``
# cycles with the dense loop. The xfails are strict: the change that
# makes the loops agree must turn them into plain tests.

DRIFT_WORKLOADS = ("blackscholes", "jacobi2d", "pathfinder", "sw")


def _assert_loops_agree_on_registry_app(system, workload, freqs=None,
                                        interval=None):
    """Event core vs dense loop on one registry app: every stat that is
    neither META nor ``obs.*`` must agree. ``freqs`` skews the DVFS
    point; ``interval`` attaches an IntervalSampler to both loops."""
    cfg = preset(system)
    if freqs is not None:
        cfg = cfg.with_freqs(**freqs)
    program = _program_for(cfg, get_workload(workload, "tiny"))
    rest = {}
    for skip in (True, False):
        obs = (None if interval is None else
               Observation(sampler=IntervalSampler(interval=interval)))
        res = System(cfg, obs=obs).run(program, skip=skip)
        rest[skip] = {k: v for k, v in _split_stats(res.stats)[1].items()
                      if not k.startswith("obs.")}
    assert rest[True] == rest[False]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the event core drifts from the dense loop on "
                   "1bDV registry apps (ROADMAP item 1)")
@pytest.mark.parametrize("workload", DRIFT_WORKLOADS)
def test_event_matches_dense_on_1bdv_registry_app(workload):
    _assert_loops_agree_on_registry_app("1bDV", workload)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an interval sampler moves big0.stall.* on 1bDV "
                   "jacobi2d under the event core (ROADMAP item 1)")
def test_sampler_leaves_stats_alone_on_1bdv_jacobi2d():
    """An observer must not move a non-META stat. The interval-100
    sampler that ``profile --json`` and every service ``timeline`` job
    attach trades ``big0.stall.busy`` 528 -> 531 against
    ``big0.stall.misc`` 1591 -> 1588 here."""
    cfg = preset("1bDV")
    program = _program_for(cfg, get_workload("jacobi2d", "tiny"))
    plain = System(cfg).run(program)
    obs = Observation(sampler=IntervalSampler(interval=100))
    observed = System(cfg).run(program, obs=obs)
    rest = {k: v for k, v in _split_stats(observed.stats)[1].items()
            if not k.startswith("obs.")}
    assert rest == _split_stats(plain.stats)[1]


# Work-stealing registry programs: the task programs of data-parallel
# apps on 1bIV-4L, and Ligra on 1b-4VL (engine bypassed) and 1b-4L. The
# runtime splices overhead and task bodies into each worker's stream at
# run time, which no synthetic case above exercises at this size. The
# event core sleeps a core whose worker is parked until the runtime's
# next transition wakes it, so the Ligra pairs, where the littles park
# the most, also run on skewed clocks (the wake lands between little
# slots) and under an interval-100 sampler (boundary stops split the
# sleeps).

LIGRA = ("bfs", "pagerank", "cc", "radii")
WORKSTEALING_PAIRS = (
    tuple(("1bIV-4L", w) for w in ("mmult", "saxpy", "backprop",
                                   "pathfinder", "kmeans"))
    + tuple(("1b-4VL", w) for w in LIGRA)
    + (("1b-4L", "bfs"), ("1b-4L", "kmeans")))
SKEW = {"big": 2.5, "little": 0.6}  # periods 400/1667/1000 ps
WORKSTEALING_VARIANTS = {
    "": {},
    "dvfs-skew": {"freqs": SKEW},
    "sampler-100": {"interval": 100},
    "dvfs-skew-sampler-100": {"freqs": SKEW, "interval": 100},
}
WORKSTEALING_CASES = (
    [(s, w, "") for s, w in WORKSTEALING_PAIRS]
    + [("1b-4VL", w, v) for v in list(WORKSTEALING_VARIANTS)[1:]
       for w in LIGRA])


@pytest.mark.parametrize(
    "system,workload,variant", WORKSTEALING_CASES,
    ids=[f"{s}/{w}" + (f"-{v}" if v else "")
         for s, w, v in WORKSTEALING_CASES])
def test_event_matches_dense_on_workstealing_registry_app(system, workload,
                                                          variant):
    _assert_loops_agree_on_registry_app(
        system, workload, **WORKSTEALING_VARIANTS[variant])


# ---- seeded randomized differential matrix: event vs reference ------
#
# The cases rotate through the workload kinds (dense kernel, the
# switch_thrash/dram_chain synthetics, work-stealing task-parallel)
# while randomizing little-core count, vector length, chime count, L2
# banks and the DVFS point; each is checked against both reference arms
# (the dense loop, and the event loop with batched lane execution
# forced off). tests/soc/equivalence.py holds the generator and the
# bit-identity check.

from tests.soc.equivalence import ARMS, check_case, make_case  # noqa: E402

N_RANDOM_CASES = 30
_MATRIX = [make_case(seed) for seed in range(N_RANDOM_CASES)]


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("case", _MATRIX, ids=[c.ident for c in _MATRIX])
def test_event_matches_reference_randomized(case, arm):
    check_case(case, arm=arm)


def test_check_case_catches_one_stall_stat_divergence(monkeypatch):
    """The harness compares every non-META stat, not just ``cycles`` and
    the tick totals: a stall stat moved on the event arm alone, with
    both of those unchanged, must fail the case."""
    case = _MATRIX[0]
    run = System.run

    def nudged(self, program, skip=True, **kw):
        result = run(self, program, skip=skip, **kw)
        if skip:
            key = next(k for k in sorted(result.stats)
                       if k.endswith(".stall.busy"))
            result.stats[key] += 7
        return result

    monkeypatch.setattr(System, "run", nudged)
    with pytest.raises(AssertionError, match="stat divergence"):
        check_case(case, arm="dense")
