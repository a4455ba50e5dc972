"""Work-stealing task runtime model (paper §IV-B).

The paper parallelizes task-parallel applications with a TBB/Cilk-Plus-like
runtime using random work stealing, and lets each data-parallel task carry
both a scalar and a vectorized body so the scheduler can run vector tasks on
the big core (via its integrated vector unit) and scalar tasks on the little
cores.

We model the runtime at instruction granularity: every scheduling action
(task spawn, local dequeue, steal, barrier) costs a burst of runtime
instructions spliced into the worker's instruction stream, so scheduling
overhead shows up in the same pipelines, caches and branch predictors as the
application itself — which is exactly why the paper's ``1bIV-4L`` issues more
instruction fetches than the single-engine systems (Fig. 5).

Phases execute sequentially: an optional serial prologue runs on the big
core (worker 0 by convention), then the phase's task bag is drained by all
workers, then an implicit barrier.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.isa.scalar import Op
from repro.trace.instr import SInstr
from repro.trace.source import InstrSource
from repro.utils import Xorshift64

_RUNTIME_PC = 0x8000  # runtime code region: shared, stays hot in the L1I


def _overhead_trace(n, tag):
    """``n`` ALU-ish instructions at stable runtime PCs."""
    pc = _RUNTIME_PC + tag * 256
    reg = 1_000_000 + tag  # dedicated runtime registers, self-dependences ok
    return [SInstr(pc + 4 * (i % 16), Op.ADDI, reg + (i % 4))
            for i in range(n)]


# stages of a phase
_SERIAL = 0
_PARALLEL = 1


class _Worker(InstrSource):
    """One worker's instruction stream: the flat list of the work it
    claimed last (runtime overhead spliced with a task body) and a
    cursor into it.

    ``peek()`` may claim the next task (or barrier slice) from the
    shared scheduler, so it is impure (``pure_peek = False``): probing
    it off the exact tick grid would reorder task-steal races. A worker
    whose last claim came back empty is *parked*: it waits for worker 0
    to finish a serial body, for the other workers to reach the
    barrier, or the run is over. While parked, another peek returns
    ``None`` with no side effect (a barrier arrival is idempotent, and
    only worker 0 gets work in a serial stage), so its core may sleep
    instead of re-peeking. Only a scheduler transition ends that; the
    runtime then clears ``parked`` and fires ``core._ev_notify``, the
    wake hook of the core ``System.load`` paired this worker with.
    """

    pure_peek = False

    __slots__ = ("sched", "idx", "vector_capable", "_stream", "_pos",
                 "parked", "core")

    def __init__(self, sched, idx, vector_capable):
        self.sched = sched
        self.idx = idx
        self.vector_capable = vector_capable
        self._stream = ()
        self._pos = 0
        self.parked = False
        self.core = None  # wake target: the core that pulls this stream

    def peek(self):
        stream = self._stream
        pos = self._pos
        while pos >= len(stream):
            stream = self.sched._next_work(self)
            if stream is None:
                self.parked = True
                return None
            self._stream = stream
            self._pos = pos = 0
        return stream[pos]

    def pop(self):
        ins = self._stream[self._pos]
        self._pos += 1
        return ins

    def done(self):
        return self.sched.finished and self._pos >= len(self._stream)

    def waits_on(self):
        """``(core id, why)`` for each worker that can unpark this one:
        worker 0 during a serial stage, else the workers not yet at the
        barrier (none once the run is finished)."""
        sched = self.sched
        if sched.finished:
            return []
        if sched._stage == _SERIAL:
            return [(sched.workers[0].core.core_id,
                     "parked worker: serial body running")]
        return [(w.core.core_id, "parked worker: barrier arrival pending")
                for w in sched.workers if w.idx not in sched._arrived]


class WorkStealingRuntime:
    """Builds one :class:`InstrSource` per worker from a TaskProgram.

    :meth:`_next_work` hands a worker one flat instruction list per claim:
    the serial body then the spawn overhead; the dequeue or steal overhead
    then the task's chosen variant; or the barrier overhead, for the last
    worker to arrive. Each runtime-overhead run is built once per (length,
    tag) and shared: instructions are never mutated after construction.
    """

    __slots__ = ("program", "n_workers", "_rng", "spawn_overhead",
                 "deque_overhead", "steal_overhead", "barrier_overhead",
                 "workers", "_phase", "_stage", "_tasks", "_arrived",
                 "_serial_given", "finished", "tasks_executed", "steals",
                 "_executed_ids", "_overheads")

    def __init__(
        self,
        program,
        n_workers,
        vector_capable=(),
        seed=12345,
        spawn_overhead=10,
        deque_overhead=30,
        steal_overhead=140,
        barrier_overhead=60,
    ):
        if n_workers < 1:
            raise WorkloadError("need at least one worker")
        self.program = program
        self.n_workers = n_workers
        self._rng = Xorshift64(seed)
        self.spawn_overhead = spawn_overhead
        self.deque_overhead = deque_overhead
        self.steal_overhead = steal_overhead
        self.barrier_overhead = barrier_overhead
        self._overheads = {}  # (length, tag) -> overhead instruction list

        caps = list(vector_capable) + [False] * (n_workers - len(vector_capable))
        self.workers = [_Worker(self, i, caps[i]) for i in range(n_workers)]

        self._phase = 0
        self._stage = _SERIAL
        self._tasks = []
        self._arrived = set()
        self._serial_given = False
        self.finished = False
        self.tasks_executed = 0
        self.steals = 0
        self._executed_ids = []
        self._enter_phase()

    # ---------------------------------------------------------------- phases

    def _enter_phase(self):
        while self._phase < len(self.program.phases):
            phase = self.program.phases[self._phase]
            self._tasks = list(phase.tasks)
            self._arrived = set()
            self._serial_given = False
            if phase.serial is not None:
                self._stage = _SERIAL
                return
            if self._tasks:
                self._stage = _PARALLEL
                return
            self._phase += 1
        self.finished = True

    def _next_work(self, worker):
        if self.finished:
            return None
        if self._stage == _SERIAL:
            if worker.idx != 0:
                return None
            if not self._serial_given:
                self._serial_given = True
                body = self.program.phases[self._phase].serial.instrs
                spawn_cost = self.spawn_overhead * len(self._tasks)
                if spawn_cost:
                    return body + self._overhead(spawn_cost, 1)
                return body
            # serial body fully consumed by worker 0 -> open the task bag
            self._unpark()
            if self._tasks:
                self._stage = _PARALLEL
            else:
                self._phase += 1
                self._enter_phase()
                if self.finished:
                    return None
            return self._next_work(worker)
        # parallel stage
        if self._tasks:
            task = self._pick_task(worker)
            self.tasks_executed += 1
            self._executed_ids.append(task.tid)
            overhead = self.deque_overhead if worker.idx == 0 else self._grab_cost(worker)
            return (self._overhead(overhead, 2 + worker.idx)
                    + task.trace_for(worker.vector_capable).instrs)
        # barrier
        self._arrived.add(worker.idx)
        if len(self._arrived) == self.n_workers:
            self._unpark()
            self._phase += 1
            self._enter_phase()
            return self._overhead(self.barrier_overhead, 10 + worker.idx)
        return None

    def _unpark(self):
        """The scheduler is about to move (a serial body consumed, the
        last barrier arrival, possibly the end of the run): wake every
        parked worker's core, so its next peek runs at exactly the tick
        the dense loop's would, then clear the flag."""
        for w in self.workers:
            if w.parked:
                core = w.core
                if core is not None:
                    n = core._ev_notify
                    if n is not None:
                        n()
                w.parked = False

    def _overhead(self, n, tag):
        key = (n, tag)
        run = self._overheads.get(key)
        if run is None:
            run = self._overheads[key] = _overhead_trace(n, tag)
        return run

    def _pick_task(self, worker):
        # random victim selection is what "random work stealing" randomizes;
        # with a central bag we randomize which task a thief grabs
        if worker.idx == 0:
            return self._tasks.pop(0)
        i = self._rng.randint(0, len(self._tasks) - 1)
        return self._tasks.pop(i)

    def _grab_cost(self, worker):
        self.steals += 1
        return self.steal_overhead

    # ----------------------------------------------------------------- stats

    def stats(self):
        return {
            "runtime.tasks": self.tasks_executed,
            "runtime.steals": self.steals,
        }
