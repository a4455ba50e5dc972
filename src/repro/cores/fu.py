"""Functional-unit pools and latency tables shared by the core models."""

from __future__ import annotations

from repro.errors import ConfigError
from repro.isa.scalar import FUClass

#: Execution latencies in cycles (identical little/big per paper Table II's
#: spirit: same ISA, same units, different issue machinery).
DEFAULT_LATENCY = {
    FUClass.NONE: 1,
    FUClass.ALU: 1,
    FUClass.MUL: 3,
    FUClass.DIV: 12,
    FUClass.FPU: 4,
    FUClass.FDIV: 12,
    FUClass.MEM: 1,  # AGU; cache adds its own latency
}

#: Units that cannot accept a new op until the previous one finishes.
UNPIPELINED = frozenset({FUClass.DIV, FUClass.FDIV})

#: Little core: one of everything (single-issue in-order).
LITTLE_FU_COUNTS = {
    FUClass.ALU: 1,
    FUClass.MUL: 1,
    FUClass.DIV: 1,
    FUClass.FPU: 1,
    FUClass.FDIV: 1,
    FUClass.MEM: 1,
}

#: Big core: 3 ALUs, 2 FP pipes, 2 cache ports (4-wide OoO mobile class).
BIG_FU_COUNTS = {
    FUClass.ALU: 3,
    FUClass.MUL: 1,
    FUClass.DIV: 1,
    FUClass.FPU: 2,
    FUClass.FDIV: 1,
    FUClass.MEM: 2,
}


#: Slot count for ``FUClass.NONE``: ops without an execution resource
#: never contend.
_UNLIMITED = 1 << 30

_N_FU = len(FUClass)


class FUPool:
    """Per-cycle issue slots plus busy tracking for unpipelined units.

    The hot state lives in flat lists indexed by the ``FUClass`` value
    (slot counts, latency in ps, the unpipelined flag, per-cycle use and
    busy-until), so an issue attempt is a few list indexings. ``counts``
    and ``latency`` stay as dicts for readers; they are snapshots taken
    at construction and are not re-read afterwards. ``FUClass.NONE``
    always issues, takes no slot and completes in 1 ps.
    """

    __slots__ = ("counts", "latency", "period", "_count", "_lat",
                 "_unpiped", "_used", "_now", "_busy_until")

    def __init__(self, counts, latency=None, period=1):
        for fu, n in counts.items():
            if n < 1:
                raise ConfigError(f"FU count for {fu} must be >= 1")
        self.counts = dict(counts)
        self.latency = dict(DEFAULT_LATENCY)
        if latency:
            self.latency.update(latency)
        self.period = period
        self._count = [self.counts.get(fu, 0) for fu in FUClass]
        self._lat = [self.latency[fu] * period for fu in FUClass]
        self._unpiped = [fu in UNPIPELINED for fu in FUClass]
        self._count[FUClass.NONE] = _UNLIMITED
        self._lat[FUClass.NONE] = 1
        self._used = [0] * _N_FU
        self._now = -1
        self._busy_until = [0] * _N_FU

    def can_issue(self, fu, now):
        used = self._used[fu] if now == self._now else 0
        if used >= self._count[fu]:
            return False
        return not (self._unpiped[fu] and self._busy_until[fu] > now)

    def issue(self, fu, now, occupancy=None):
        """Claim a slot; returns the op's completion latency."""
        if now != self._now:
            self._now = now
            self._used = [0] * _N_FU
        self._used[fu] += 1
        lat = self._lat[fu]
        if self._unpiped[fu]:
            self._busy_until[fu] = now + (occupancy * self.period
                                          if occupancy is not None else lat)
        return lat

    def try_issue(self, fu, now, occupancy=None):
        """can_issue + issue in one step; returns latency or None."""
        if now != self._now:
            self._now = now
            self._used = [0] * _N_FU
        used = self._used
        if used[fu] >= self._count[fu]:
            return None
        lat = self._lat[fu]
        if self._unpiped[fu]:
            busy = self._busy_until
            if busy[fu] > now:
                return None
            busy[fu] = now + (occupancy * self.period
                              if occupancy is not None else lat)
        used[fu] += 1
        return lat

    def sync_from(self, other):
        """Adopt ``other``'s dynamic issue state (per-cycle slot usage and
        unpipelined busy tracking). Used by the VLITTLE engine's batched
        lane executor: while the lanes run in lockstep only the leader
        lane's pool is charged, and a divergence fallback copies it into
        the followers — whose conceptual state is identical — before the
        per-lane path resumes."""
        self._now = other._now
        self._used = other._used[:]
        self._busy_until = other._busy_until[:]

    def same_busy_after(self, other, now):
        """True when ``other`` keeps every unpipelined unit busy until the
        same time as this pool, counting any time at or before ``now`` as
        free: from the next cycle on, both pools accept the same ops. The
        batched lane executor's re-convergence test."""
        mine = self._busy_until
        theirs = other._busy_until
        for fu in UNPIPELINED:
            a = mine[fu]
            b = theirs[fu]
            if a != b and (a > now or b > now):
                return False
        return True

    def next_free_ps(self, fu, now):
        """Earliest future ps at which a *fresh* cycle could issue ``fu``,
        or 0 if the very next tick can (per-cycle slot usage resets every
        cycle, so only unpipelined busy-tracking blocks future ticks).
        Pure — used by the quiescence-skipping scheduler."""
        if self._unpiped[fu]:
            t = self._busy_until[fu]
            if t > now:
                return t
        return 0
