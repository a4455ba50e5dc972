"""The run-result container."""

from __future__ import annotations


class RunResult:
    """Outcome of one simulated run: cycles plus the full stat dump.

    ``stats`` holds only deterministic counters (identical for identical
    configs across processes); host-side measurements — wall-clock seconds,
    whether the result came from the cache — live in ``timing`` so that
    determinism checks and cache round-trips can compare ``stats``
    bit-for-bit.
    """

    __slots__ = ("name", "system", "cycles", "stats", "timing")

    def __init__(self, name, system, cycles, stats, timing=None):
        self.name = name
        self.system = system
        self.cycles = cycles
        self.stats = stats
        self.timing = timing if timing is not None else {}

    def get(self, key, default=0):
        return self.stats.get(key, default)

    def items(self):
        return self.stats.items()

    def __getitem__(self, key):
        return self.get(key)

    def __contains__(self, key):
        return key in self.stats

    def to_dict(self):
        """JSON-safe form for the on-disk result cache."""
        return {
            "name": self.name,
            "system": self.system,
            "cycles": self.cycles,
            "stats": dict(self.stats),
            "timing": dict(self.timing),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["name"], d["system"], d["cycles"], d["stats"],
                   d.get("timing", {}))

    def __repr__(self):
        return f"<RunResult {self.system}:{self.name} cycles={self.cycles}>"
