"""Statistics: stall breakdowns, run results."""

from repro.stats.breakdown import Breakdown, Stall, STALL_NAMES
from repro.stats.counters import RunResult

__all__ = ["Breakdown", "Stall", "STALL_NAMES", "RunResult"]
