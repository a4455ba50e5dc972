"""Dynamic traces: instruction records, builder DSLs, tasks, and sources."""

from repro.trace.instr import SInstr, VInstr, Trace
from repro.trace.builder import TraceBuilder
from repro.trace.vbuilder import VectorBuilder
from repro.trace.task import Task, Phase, TaskProgram, single_trace_program
from repro.trace.source import InstrSource, TraceSource

__all__ = [
    "SInstr",
    "VInstr",
    "Trace",
    "TraceBuilder",
    "VectorBuilder",
    "Task",
    "Phase",
    "TaskProgram",
    "single_trace_program",
    "InstrSource",
    "TraceSource",
]
