"""SoC assembly: configurations, the system, simulation loops."""

from repro.soc.config import MemConfig, SoCConfig, SYSTEM_NAMES, preset
from repro.soc.system import System

__all__ = ["MemConfig", "SoCConfig", "SYSTEM_NAMES", "preset", "System"]
