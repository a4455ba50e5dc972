"""SoC assembly: configurations, system builder, simulation loops."""

from repro.soc.config import MemConfig, SoCConfig, SYSTEM_NAMES, preset
from repro.soc.system import System, build_system

__all__ = ["MemConfig", "SoCConfig", "SYSTEM_NAMES", "preset", "System",
           "build_system"]
