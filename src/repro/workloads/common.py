"""Workload framework: registry, allocation, chunking, scales.

Every benchmark (Tables IV & V) is a :class:`Workload` subclass providing up
to three views of the same computation:

* ``scalar_trace()`` — single-threaded scalar code (runs on ``1L``/``1b``,
  and is the per-task body on the multicore systems),
* ``vector_trace(vlen_bits)`` — the RVV-intrinsics version, strip-mined for
  the target engine's hardware vector length (``1bIV``/``1bDV``/``1b-4VL``),
* ``task_program(vector_vlen=)`` — the work-stealing decomposition
  (``1b-4L``/``1bIV-4L``); data-parallel apps attach a vector variant to each
  task so the big core's integrated unit gets used, exactly as §IV-B
  describes.

``scale`` picks input sizes: ``tiny`` for unit tests and the paper-claim tests,
``small`` for the figure harness, ``full`` for the examples.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.trace import Phase, Task, TaskProgram, TraceBuilder, VectorBuilder
from repro.utils import Xorshift64, ceil_div

SCALES = ("tiny", "small", "full")

#: data segment start; code PCs live far below
_HEAP_BASE = 0x1000_0000


class Alloc:
    """Bump allocator for workload data arrays (64-byte aligned)."""

    def __init__(self, base=_HEAP_BASE):
        self._next = base

    def array(self, n_elems, elem_bytes=4):
        size = n_elems * elem_bytes
        base = self._next
        self._next = (base + size + 63) & ~63
        return base


def chunk_ranges(n, n_chunks):
    """Split [0, n) into n_chunks nearly equal [start, stop) ranges."""
    n_chunks = max(1, min(n_chunks, n)) if n else 1
    step = ceil_div(n, n_chunks)
    out = []
    start = 0
    while start < n:
        out.append((start, min(start + step, n)))
        start += step
    return out


class Workload:
    """Base class; subclasses set ``name``, ``suite``, ``kind``."""

    name = ""
    suite = ""
    kind = ""  # 'kernel' | 'data-parallel' | 'task-parallel'
    #: approximate fraction of dynamic work that is vectorized (Table V VOp)
    vop_fraction = 1.0

    def __init__(self, scale="small", seed=1):
        if scale not in SCALES:
            raise WorkloadError(f"unknown scale {scale!r}")
        self.scale = scale
        self.seed = seed
        self.alloc = Alloc()
        self.params = self._params(scale)

    # -- subclass interface --------------------------------------------------

    def _params(self, scale):
        raise NotImplementedError

    def scalar_trace(self):
        raise NotImplementedError

    def vector_trace(self, vlen_bits):
        raise NotImplementedError("this workload has no vectorized version")

    def task_program(self, vector_vlen=None, n_chunks=16):
        """Default data-parallel decomposition: chunked parallel loop."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def _tb(self):
        return TraceBuilder()

    def _vb(self, tb, vlen_bits):
        return VectorBuilder(tb, vlen_bits=vlen_bits)

    def rng(self):
        return Xorshift64(self.seed * 0x9E3779B9 + 7)


REGISTRY = {}


def register(cls):
    """Class decorator adding a workload to the global registry."""
    if not cls.name:
        raise WorkloadError("workload must define a name")
    if cls.name in REGISTRY:
        raise WorkloadError(f"duplicate workload {cls.name}")
    REGISTRY[cls.name] = cls
    return cls


def get_workload(name, scale="small", **kw):
    if name not in REGISTRY:
        raise WorkloadError(f"unknown workload {name!r}; have {sorted(REGISTRY)}")
    return REGISTRY[name](scale=scale, **kw)


def workloads_by_kind(kind):
    return [n for n, c in sorted(REGISTRY.items()) if c.kind == kind]


class ChunkedDataParallel(Workload):
    """Shared scaffolding for data-parallel apps: a chunkable main loop.

    Subclasses implement ``_emit_scalar(tb, start, stop)`` and
    ``_emit_vector(tb, vb, start, stop)`` over the element range plus an
    optional ``_emit_prologue`` / ``_emit_epilogue`` (scalar-only work such
    as Smith-Waterman's traceback, included in every view).
    """

    def _n(self):
        raise NotImplementedError

    def _emit_scalar(self, tb, start, stop):
        raise NotImplementedError

    def _emit_vector(self, tb, vb, start, stop):
        raise NotImplementedError

    def _emit_prologue(self, tb):
        pass

    def _emit_epilogue(self, tb):
        pass

    def scalar_trace(self):
        tb = self._tb()
        self._emit_prologue(tb)
        self._emit_scalar(tb, 0, self._n())
        self._emit_epilogue(tb)
        return tb.finish(self.name)

    def vector_trace(self, vlen_bits):
        tb = self._tb()
        vb = self._vb(tb, vlen_bits)
        self._emit_prologue(tb)
        self._emit_vector(tb, vb, 0, self._n())
        self._emit_epilogue(tb)
        return tb.finish(self.name)

    def task_program(self, vector_vlen=None, n_chunks=16):
        tasks = []
        for tid, (start, stop) in enumerate(chunk_ranges(self._n(), n_chunks)):
            tb = self._tb()
            self._emit_scalar(tb, start, stop)
            traces = {"scalar": tb.finish(f"{self.name}.s{tid}")}
            if vector_vlen:
                tbv = self._tb()
                vbv = self._vb(tbv, vector_vlen)
                self._emit_vector(tbv, vbv, start, stop)
                traces["vector"] = tbv.finish(f"{self.name}.v{tid}")
            tasks.append(Task(tid, traces))
        ptb = self._tb()
        self._emit_prologue(ptb)
        phases = [Phase(tasks, serial=ptb.finish(f"{self.name}.pro"))]
        etb = self._tb()
        self._emit_epilogue(etb)
        epi = etb.finish(f"{self.name}.epi")
        if len(epi):
            phases.append(Phase((), serial=epi))
        return TaskProgram(phases, name=self.name)
