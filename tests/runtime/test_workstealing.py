"""Unit tests for the work-stealing runtime model (no cores: drive sources)."""

import pytest

from repro.errors import WorkloadError
from repro.isa.scalar import Op
from repro.runtime import WorkStealingRuntime
from repro.trace import Phase, Task, TaskProgram, TraceBuilder


def mk_trace(n=5, name="t"):
    tb = TraceBuilder()
    for _ in range(n):
        tb.addi(None)
    return tb.finish(name)


def mk_program(n_tasks=8, phases=1, serial=True):
    phs = []
    tid = 0
    for _ in range(phases):
        tasks = []
        for _ in range(n_tasks):
            tasks.append(Task(tid, {"scalar": mk_trace(5, f"task{tid}")}))
            tid += 1
        phs.append(Phase(tasks, serial=mk_trace(3, "serial") if serial else None))
    return TaskProgram(phs, name="prog")


def drain(rt, rounds=100_000):
    """Round-robin drain every worker until the runtime finishes."""
    popped = [0] * len(rt.workers)
    for _ in range(rounds):
        progress = False
        for i, w in enumerate(rt.workers):
            if w.peek() is not None:
                w.pop()
                popped[i] += 1
                progress = True
        if rt.finished and all(w.done() for w in rt.workers):
            return popped
        if not progress and rt.finished:
            return popped
    raise AssertionError("runtime never finished")


def test_all_tasks_execute_exactly_once():
    prog = mk_program(n_tasks=16)
    rt = WorkStealingRuntime(prog, n_workers=4)
    drain(rt)
    assert rt.tasks_executed == 16
    assert sorted(rt._executed_ids) == list(range(16))


def test_serial_runs_only_on_worker_zero():
    prog = mk_program(n_tasks=0, serial=True)
    rt = WorkStealingRuntime(prog, n_workers=3)
    assert rt.workers[1].peek() is None
    assert rt.workers[2].peek() is None
    assert rt.workers[0].peek() is not None
    drain(rt)


def test_tasks_gated_behind_serial_prologue():
    prog = mk_program(n_tasks=4, serial=True)
    rt = WorkStealingRuntime(prog, n_workers=2)
    # worker 1 sees nothing until worker 0 drains the serial trace
    assert rt.workers[1].peek() is None
    while rt._stage == 0 and rt.workers[0].peek() is not None:
        rt.workers[0].pop()
    assert rt.workers[1].peek() is not None


def test_work_distributes_across_workers():
    prog = mk_program(n_tasks=32, serial=False)
    rt = WorkStealingRuntime(prog, n_workers=4)
    popped = drain(rt)
    assert all(p > 0 for p in popped)
    assert rt.steals > 0


def test_multiphase_barrier_ordering():
    prog = mk_program(n_tasks=4, phases=3)
    rt = WorkStealingRuntime(prog, n_workers=2)
    drain(rt)
    assert rt.tasks_executed == 12
    assert rt.finished


def test_vector_capable_worker_gets_vector_variant():
    s, v = mk_trace(5, "s"), mk_trace(2, "v")
    tasks = [Task(i, {"scalar": s, "vector": v}) for i in range(4)]
    prog = TaskProgram([Phase(tasks)], name="p")
    rt = WorkStealingRuntime(prog, n_workers=1, vector_capable=[True])
    seen = []
    while not (rt.finished and rt.workers[0].done()):
        ins = rt.workers[0].peek()
        if ins is None:
            break
        seen.append(ins)
        rt.workers[0].pop()
    # vector variant bodies are 2 instrs; with overhead the total is well
    # below what 4 scalar 5-instr bodies would produce
    assert rt.tasks_executed == 4


def test_deterministic_given_seed():
    a = WorkStealingRuntime(mk_program(16), n_workers=4, seed=7)
    b = WorkStealingRuntime(mk_program(16), n_workers=4, seed=7)
    drain(a)
    drain(b)
    assert a._executed_ids == b._executed_ids


def test_zero_workers_rejected():
    with pytest.raises(WorkloadError):
        WorkStealingRuntime(mk_program(1), n_workers=0)


def test_empty_program_finishes_immediately():
    prog = TaskProgram([], name="empty")
    rt = WorkStealingRuntime(prog, n_workers=2)
    assert rt.finished
    assert all(w.done() for w in rt.workers)


def _one_instr(pc, reg):
    tb = TraceBuilder(start_pc=pc, start_reg=reg)
    tb.addi(None)
    return tb.finish()


def test_worker_stream_order_and_runtime_pcs():
    """One worker's popped stream, row by row: the serial body then the
    spawn overhead; per task the dequeue overhead then the body; then the
    barrier overhead. Runtime PCs are fixed because Fig. 5 counts
    instruction fetches."""
    tasks = [Task(0, {"scalar": _one_instr(0x200, 10)}),
             Task(1, {"scalar": _one_instr(0x300, 20)})]
    prog = TaskProgram([Phase(tasks, serial=_one_instr(0x100, 1))])
    rt = WorkStealingRuntime(prog, n_workers=1, spawn_overhead=1,
                             deque_overhead=2, barrier_overhead=3)
    w = rt.workers[0]
    rows = []
    while w.peek() is not None:
        ins = w.pop()
        rows.append((ins.pc, ins.op, ins.dst))
    rt_reg = 1_000_000
    assert rows == [
        (0x100, Op.ADDI, 1),  # serial body
        (0x8100, Op.ADDI, rt_reg + 1),  # spawn: 1 per task, tag 1
        (0x8104, Op.ADDI, rt_reg + 2),
        (0x8200, Op.ADDI, rt_reg + 2),  # dequeue: tag 2 + worker 0
        (0x8204, Op.ADDI, rt_reg + 3),
        (0x200, Op.ADDI, 10),  # task 0
        (0x8200, Op.ADDI, rt_reg + 2),
        (0x8204, Op.ADDI, rt_reg + 3),
        (0x300, Op.ADDI, 20),  # task 1
        (0x8A00, Op.ADDI, rt_reg + 10),  # barrier: tag 10 + worker 0
        (0x8A04, Op.ADDI, rt_reg + 11),
        (0x8A08, Op.ADDI, rt_reg + 12),
    ]
    assert rt.finished and w.done()


def test_overhead_runs_are_built_once_per_runtime():
    a = WorkStealingRuntime(mk_program(8), n_workers=2)
    b = WorkStealingRuntime(mk_program(8), n_workers=2)
    drain(a)
    drain(b)
    assert a._overheads and a._overheads.keys() == b._overheads.keys()
    for key, run in a._overheads.items():
        assert a._overhead(*key) is run
        assert b._overheads[key] is not run


class _Core:
    """Stands in for the core a worker feeds: counts wake-hook calls."""

    def __init__(self):
        self.wakes = 0
        self._ev_notify = self._wake

    def _wake(self):
        self.wakes += 1


def _sched_state(rt):
    return (rt._phase, rt._stage, sorted(rt._arrived), len(rt._tasks),
            rt._serial_given, rt.finished, rt.tasks_executed, rt.steals,
            rt._rng.state)


def test_parked_workers_wake_exactly_at_scheduler_transitions():
    """A worker whose claim came back empty is parked; re-peeking it
    changes no scheduler state, and only a transition (a serial body
    consumed, the last barrier arrival, the end of the run) clears the
    flag, firing each parked worker's core hook exactly once."""
    prog = mk_program(n_tasks=3, phases=3)
    prog.phases.insert(1, Phase([], serial=mk_trace(4, "serial-only")))
    rt = WorkStealingRuntime(prog, n_workers=4)
    cores = [_Core() for _ in rt.workers]
    for w, core in zip(rt.workers, cores):
        w.core = core
    transitions = 0
    for _ in range(10_000):
        if rt.finished and all(w.done() for w in rt.workers):
            break
        for w in rt.workers:
            if w.parked:
                state = _sched_state(rt)
                assert w.peek() is None
                assert _sched_state(rt) == state
                continue
            was_parked = [x.parked for x in rt.workers]
            wakes = [core.wakes for core in cores]
            stage = (rt._phase, rt._stage, rt.finished)
            if w.peek() is None:
                assert w.parked
            else:
                w.pop()
            moved = (rt._phase, rt._stage, rt.finished) != stage
            transitions += moved
            for x, core, was, n in zip(rt.workers, cores, was_parked, wakes):
                assert core.wakes == n + (was and moved)
                if was and moved:
                    assert not x.parked
    else:
        raise AssertionError("runtime never finished")
    assert rt.tasks_executed == 9
    assert transitions == 7  # 3 bags opened, 1 serial-only, 3 barriers
    assert all(core.wakes for core in cores[1:])
