"""Instruction sources: where a core's front end pulls instructions from.

A source decouples "what to execute next" from "how it is timed": fixed
traces (single-threaded programs) and the work-stealing runtime's workers
(which splice task bodies and runtime-overhead sequences together at run
time) present the same pull interface to the core models.
"""

from __future__ import annotations


class InstrSource:
    """Pull interface used by core front ends.

    ``peek()`` returns the next instruction without consuming it, or ``None``
    if no instruction is currently available (the core idles and the stall is
    attributed by the caller). ``pop()`` consumes it. ``done()`` is True once
    the source will never produce again.

    ``pure_peek`` declares whether ``peek()`` is free of observable side
    effects. The event core only probes sources whose peeks are pure; an
    impure source (e.g. a work-stealing worker whose peek may claim a
    task) vetoes skipping so the claim happens on the exact tick it
    would have without skipping.

    ``parked`` lets an impure source lift that veto: while it is True,
    ``peek()`` is guaranteed to return ``None`` with no side effect, so
    the core sleeps like one on an empty pure source. Whatever ends the
    guarantee must first fire the core's ``_ev_notify`` wake hook and
    then clear the flag. A source that can park also provides
    ``waits_on()``: the ``(unit, why)`` pairs whose progress can end
    it, which forensics reports.
    """

    __slots__ = ()

    pure_peek = False
    parked = False

    def peek(self):
        raise NotImplementedError

    def pop(self):
        raise NotImplementedError

    def done(self):
        raise NotImplementedError


class TraceSource(InstrSource):
    """A fixed pre-generated trace."""

    __slots__ = ("_instrs", "_pos")

    pure_peek = True

    def __init__(self, trace):
        self._instrs = trace.instrs if hasattr(trace, "instrs") else list(trace)
        self._pos = 0

    def peek(self):
        if self._pos < len(self._instrs):
            return self._instrs[self._pos]
        return None

    def pop(self):
        ins = self._instrs[self._pos]
        self._pos += 1
        return ins

    def done(self):
        return self._pos >= len(self._instrs)

    @property
    def remaining(self):
        return len(self._instrs) - self._pos
