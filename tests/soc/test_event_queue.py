"""Event-core scheduling: the per-unit must-actually-idle guarantee.

The event core's defining property, checked end-to-end: units the dense
loop would tick thousands of times while quiescent execute (almost)
nothing under the event core, visible through
``system._event_unit_ticks``.
"""

from repro.experiments.runner import _program_for
from repro.soc import System, preset
from repro.workloads import get_workload

from tests.soc.test_system import alu_trace, vec_trace


def _unit_ticks(cfg, program):
    system = System(cfg)
    result = system.run(program)
    return system._event_unit_ticks, result


def test_quiescent_littles_are_never_ticked():
    """A scalar program on the big core leaves the four littles with no
    work at all: each may execute only its initial t=0 probe tick, no
    matter how long the big core runs."""
    ticks, result = _unit_ticks(preset("1b-4L"), alu_trace(300))
    for name, n in ticks.items():
        if name.startswith("lit"):
            assert n <= 1, f"{name} executed {n} ticks while quiescent"
    assert ticks["big0"] > 100  # the busy unit really ran


def test_parked_workers_are_never_ticked():
    """Ligra on 1b-4VL runs under the work-stealing runtime. bfs at
    ``tiny`` has one task per phase, which the big core claims, so the
    four littles' workers stay parked: at a serial stage or at the
    barrier. Each little core may execute at most 1% of the little
    domain's slots instead of re-peeking its worker at every one."""
    cfg = preset("1b-4VL")
    ticks, result = _unit_ticks(
        cfg, _program_for(cfg, get_workload("bfs", "tiny")))
    slots = (result.stats["sim.ticks_little"]
             + result.stats["sim.ticks_skipped_little"])
    for name, n in ticks.items():
        if name.startswith("lit"):
            assert n <= slots // 100, (
                f"{name} executed {n} of {slots} little-domain slots "
                f"with its worker parked")
    assert ticks["big0"] > 1000  # the working core really ran


def test_unit_ticks_match_domain_meta_for_single_unit_domains():
    """With one unit per domain, the per-unit executed counts are the
    per-domain executed cycle counts."""
    cfg = preset("1bDV")
    ticks, result = _unit_ticks(cfg, vec_trace(cfg.vlen_bits(4), n=48))
    assert ticks["mem"] == result.stats["sim.ticks_mem"]
    # big domain has two units (core + engine): each executes at most
    # the domain's executed-cycle count
    for name in ("big0", "dve"):
        assert ticks[name] <= result.stats["sim.ticks_big"]


def test_mode_switch_drain_does_not_spin_the_big_core():
    """During a §III-B mode-switch drain the big core is blocked purely
    on the engine; the event core must put it to sleep rather than
    re-probing it every cycle, so its executed ticks stay well below
    the dense big-domain cycle count."""
    cfg = preset("1b-4VL")  # full 500-cycle switch penalty
    program = vec_trace(cfg.vlen_bits(4), n=64)
    ticks, result = _unit_ticks(cfg, program)
    dense = System(cfg).run(program, skip=False)
    assert ticks["big0"] < dense.stats["sim.ticks_big"] // 2, (
        "big core executed {} of {} dense cycles while the engine "
        "drained".format(ticks["big0"], dense.stats["sim.ticks_big"]))


def test_rearm_on_wakeup_resumes_the_sleeper():
    """The vcu sleeps between vector regions and is re-armed by the big
    core's dispatch hook; if the wakeup path were broken the run would
    deadlock instead of completing with the dense arm's stats."""
    cfg = preset("1b-4VL", switch_penalty=50)
    program = vec_trace(cfg.vlen_bits(4), n=96)
    ticks, result = _unit_ticks(cfg, program)
    dense = System(cfg).run(program, skip=False)
    assert result.cycles == dense.cycles
    assert ticks["vcu"] > 0
    # the engine slept at least part of the run
    assert ticks["vcu"] < dense.stats["sim.ticks_little"]


def test_unit_ticks_cover_every_unit():
    cfg = preset("1b-4VL")
    ticks, _ = _unit_ticks(cfg, vec_trace(cfg.vlen_bits(4), n=32))
    names = set(ticks)
    assert "big0" in names and "vcu" in names and "mem" in names
    assert sum(1 for n in names if n.startswith("lit")) == 4
