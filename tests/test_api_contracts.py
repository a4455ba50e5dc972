"""API-contract tests: the error behaviour a downstream user relies on."""

import pytest

from repro.errors import (
    ConfigError,
    DeadlockError,
    ReproError,
    SimulationError,
    TraceError,
    WorkloadError,
)


def test_exception_hierarchy():
    assert issubclass(ConfigError, ReproError)
    assert issubclass(TraceError, ReproError)
    assert issubclass(WorkloadError, ReproError)
    assert issubclass(DeadlockError, SimulationError)
    assert issubclass(SimulationError, ReproError)


def test_deadlock_error_carries_cycle():
    e = DeadlockError(1234, "stuck")
    assert e.cycle == 1234
    assert "1234" in str(e) and "stuck" in str(e)


def test_deadlock_error_survives_pickling():
    """A pool process sends its errors back pickled: the copy must read
    as the original, not wrap the finished message as a new cycle."""
    import pickle

    e = DeadlockError(40_000_000, "no instruction progress",
                      forensics={"reason": "deadlock"})
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is DeadlockError
    assert str(back) == str(e) == ("simulation deadlocked at cycle "
                                   "40000000: no instruction progress")
    assert (back.cycle, back.detail, back.forensics) == (
        e.cycle, e.detail, e.forensics)


def test_alloc_alignment_and_disjointness():
    from repro.workloads import Alloc

    a = Alloc()
    xs = [a.array(n) for n in (1, 63, 64, 65, 1000)]
    for base in xs:
        assert base % 64 == 0
    # regions never overlap
    spans = []
    a2 = Alloc()
    for n in (10, 100, 5):
        b = a2.array(n)
        spans.append((b, b + n * 4))
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_registry_rejects_duplicates():
    from repro.workloads import Workload, register

    class Dup(Workload):
        name = "vvadd"  # already taken

    with pytest.raises(WorkloadError):
        register(Dup)

    class NoName(Workload):
        name = ""

    with pytest.raises(WorkloadError):
        register(NoName)


def test_system_rejects_bad_program():
    from repro.soc import System, preset

    s = System(preset("1b"))
    with pytest.raises(WorkloadError):
        s.load(42)
    with pytest.raises(ConfigError):
        System("1b")  # must be a SoCConfig


def test_public_package_surface():
    import repro
    import repro.experiments as E
    import repro.soc as S
    import repro.workloads as W

    assert repro.__version__
    assert callable(E.run_pair)
    assert callable(S.preset)
    assert callable(W.get_workload)
    assert len(S.SYSTEM_NAMES) == 7


def test_run_result_is_stable_snapshot():
    from repro.experiments import run_pair

    r = run_pair("1L", "vvadd", "tiny")
    before = dict(r.stats)
    _ = run_pair("1b", "vvadd", "tiny")
    assert r.stats == before  # results never mutate after the run


def test_config_copies_are_independent():
    from repro.soc import preset

    a = preset("1b-4VL")
    b = a.with_freqs(big=1.4)
    assert a.freq_big == 1.0 and b.freq_big == 1.4
    c = a.scaled(chimes=1)
    assert a.chimes == 2 and c.chimes == 1


def test_trace_builder_is_single_use():
    from repro.errors import TraceError
    from repro.trace import TraceBuilder

    tb = TraceBuilder()
    tb.addi(None)
    tb.finish()
    with pytest.raises(TraceError):
        tb.addi(None)


def test_vector_builder_checks_vlen():
    from repro.errors import TraceError
    from repro.trace import TraceBuilder, VectorBuilder

    with pytest.raises(TraceError):
        VectorBuilder(TraceBuilder(), vlen_bits=96)
