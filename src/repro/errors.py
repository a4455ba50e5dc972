"""Exception hierarchy for the big.VLITTLE reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A system or component configuration is invalid or inconsistent."""


class TraceError(ReproError):
    """A trace is malformed (bad operands, unknown register, bad loop nesting)."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state (a modeling bug)."""


class DeadlockError(SimulationError):
    """No component made progress for a full watchdog window.

    ``forensics``, when present, is the structured
    ``bigvlittle-forensics-v1`` scheduling snapshot taken at the raise
    (see :mod:`repro.obs.forensics`): every unit's state, a wait-for
    graph with cycle detection, and the blocking frontier. It never
    changes the exception message — timestamps and text stay
    bit-identical across run loops."""

    def __init__(self, cycle, detail="", forensics=None):
        self.cycle = cycle
        self.detail = detail
        self.forensics = forensics
        msg = f"simulation deadlocked at cycle {cycle}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error survives
        # the trip back from a pool process with its message intact
        return type(self), (self.cycle, self.detail, self.forensics)


class WorkloadError(ReproError):
    """A workload generator was given unusable parameters."""
