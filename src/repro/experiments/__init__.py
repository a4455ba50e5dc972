"""Experiment harness: runners, caching, per-figure/table generators, CLI."""

from repro.experiments.cache import ResultCache, configure, get_cache, set_cache
from repro.experiments.parallel import ParallelRunner, RunRequest, format_summary
from repro.experiments.runner import clear_cache, run_pair
from repro.experiments import figures, tables

__all__ = [
    "ResultCache",
    "configure",
    "get_cache",
    "set_cache",
    "ParallelRunner",
    "RunRequest",
    "format_summary",
    "clear_cache",
    "run_pair",
    "figures",
    "tables",
]
