"""Unit tests for tasks, programs and instruction sources."""

import pytest

from repro.errors import WorkloadError
from repro.trace import (
    Phase,
    Task,
    TaskProgram,
    Trace,
    TraceBuilder,
    TraceSource,
    single_trace_program,
)


def small_trace(n=3, name="t"):
    tb = TraceBuilder()
    for _ in range(n):
        tb.addi(None)
    return tb.finish(name)


def test_task_requires_scalar_variant():
    with pytest.raises(WorkloadError):
        Task(0, {"vector": small_trace()})


def test_task_variant_selection():
    s, v = small_trace(name="s"), small_trace(name="v")
    t = Task(1, {"scalar": s, "vector": v})
    assert t.trace_for(vector_capable=True) is v
    assert t.trace_for(vector_capable=False) is s
    t2 = Task(2, {"scalar": s})
    assert t2.trace_for(vector_capable=True) is s


def test_task_program_counts():
    tasks = [Task(i, {"scalar": small_trace()}) for i in range(5)]
    prog = TaskProgram([Phase(tasks[:2]), Phase(tasks[2:], serial=small_trace())], name="p")
    assert prog.total_tasks == 5
    assert len(list(prog.all_tasks())) == 5


def test_single_trace_program():
    tr = small_trace(name="solo")
    prog = single_trace_program(tr)
    assert prog.name == "solo"
    assert prog.total_tasks == 0
    assert prog.phases[0].serial is tr


def test_single_trace_program_type_check():
    with pytest.raises(WorkloadError):
        single_trace_program([1, 2, 3])


def test_trace_source_order_and_done():
    tr = small_trace(4)
    src = TraceSource(tr)
    seen = []
    while not src.done():
        assert src.peek() is tr.instrs[len(seen)]
        seen.append(src.pop())
    assert seen == tr.instrs
    assert src.peek() is None


def test_trace_counts():
    tr = small_trace(3)
    ns, nv = tr.counts()
    assert (ns, nv) == (3, 0)
    assert tr.vector_element_ops() == 0
