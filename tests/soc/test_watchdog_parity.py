"""Watchdog and horizon parity across run loops, plus the forensics
payload every DeadlockError now carries.

Contract: a wedged workload (an instruction source that never produces
but never reports done) deadlocks with the *same* timestamp and the
*same* message in the event loop (``skip=True``) and the dense
reference loop (``skip=False``) — the watchdog is part of the
simulation contract, not a loop implementation detail. The attached
``err.forensics`` report is diagnostic-only and must name the stuck
unit.
"""

import pytest

from repro.errors import DeadlockError
from repro.obs.forensics import SCHEMA
from repro.soc import System, preset
from repro.trace.source import InstrSource

SKIPS = (True, False)


class WedgedSource(InstrSource):
    """Never produces, never finishes: the classic hung workload."""

    __slots__ = ()

    pure_peek = True

    def peek(self):
        return None

    def pop(self):  # pragma: no cover - a wedged core must never pop
        raise AssertionError("pop() on a wedged source")

    def done(self):
        return False


def _wedged_system():
    sys_ = System(preset("1b"))
    sys_.bigs[0].set_source(WedgedSource())
    return sys_


def _deadlock(skip, **kwargs):
    with pytest.raises(DeadlockError) as ei:
        _wedged_system().run(skip=skip, **kwargs)
    return ei.value


def test_watchdog_fires_identically_across_loops():
    errs = {skip: _deadlock(skip) for skip in SKIPS}
    cycles = {e.cycle for e in errs.values()}
    messages = {str(e) for e in errs.values()}
    assert len(cycles) == 1 and len(messages) == 1
    (msg,) = messages
    assert msg == (f"simulation deadlocked at cycle {cycles.pop()}: "
                   f"no instruction progress in system 1b")


def test_horizon_fires_identically_across_loops():
    errs = {skip: _deadlock(skip, max_ns=10) for skip in SKIPS}
    assert {e.cycle for e in errs.values()} == {10_000}
    assert {str(e) for e in errs.values()} == {
        "simulation deadlocked at cycle 10000: exceeded max_ns=10"}


@pytest.mark.parametrize("skip", SKIPS)
def test_forensics_names_the_wedged_unit(skip):
    rep = _deadlock(skip).forensics
    assert rep is not None and rep["schema"] == SCHEMA
    assert rep["reason"] == "watchdog"
    assert rep["system"] == "1b"
    assert rep["blocking_frontier"] == ["big0"]
    assert any(e["waiter"] == "big0" and e["on"] == "source"
               for e in rep["wait_for"])
    big0 = next(u for u in rep["units"] if u["unit"] == "big0")
    assert not big0["done"] and big0["state"] == "asleep"


def test_horizon_forensics_reason_and_timestamp():
    rep = _deadlock(True, max_ns=10).forensics
    assert rep["reason"] == "horizon"
    assert rep["t_ps"] == 10_000 and rep["t_ns"] == 10


def test_forensics_never_touches_the_message():
    e = _deadlock(True)
    bare = DeadlockError(e.cycle, e.detail)
    assert str(bare) == str(e)
    assert bare.forensics is None
