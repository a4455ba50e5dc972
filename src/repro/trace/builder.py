"""Scalar trace-builder DSL.

Workload generators use this builder the way a compiler's code generator would
be used: they emit the *dynamic* instruction stream (loops unrolled at
generation time) while the builder keeps program counters stable across loop
iterations so instruction-fetch behaviour looks like real looped code.

Example
-------
>>> tb = TraceBuilder()
>>> acc = tb.li(0)
>>> with tb.loop(4) as loop:
...     for i in loop:
...         x = tb.lw(0x1000 + 4 * i)
...         acc = tb.add(acc, x)
>>> trace = tb.finish("sum4")
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.isa.scalar import OP_MEM_SIZE, Op
from repro.trace.instr import SInstr, Trace

_ILEN = 4  # bytes per instruction for PC bookkeeping


class _Loop:
    """Context object returned by :meth:`TraceBuilder.loop`.

    Iterating over it yields the iteration index; between iterations the
    builder resets the program counter to the loop head and emits the
    backward branch of the previous iteration, so every iteration's body
    occupies the same PCs (stable i-cache footprint) and the trace contains
    a realistic taken/not-taken branch stream.
    """

    def __init__(self, builder, n, emit_overhead):
        self._tb = builder
        self._n = n
        self._emit_overhead = emit_overhead
        self._head_pc = None
        self._high_pc = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __iter__(self):
        tb = self._tb
        self._head_pc = tb._pc
        for i in range(self._n):
            tb._pc = self._head_pc
            yield i
            if self._emit_overhead:
                # induction-variable increment + compare folded into branch
                tb.addi(None)
            taken = i != self._n - 1
            tb.emit_op(Op.BR, None, (), None, 0, taken,
                       self._head_pc if taken else None)
            self._high_pc = max(self._high_pc, tb._pc)
        tb._pc = max(self._high_pc, tb._pc)


class TraceBuilder:
    """Emit a dynamic scalar instruction stream with virtual registers."""

    def __init__(self, start_pc=0x10000, start_reg=64):
        self._pc = start_pc
        self._next_reg = start_reg
        self._instrs = []
        self._finished = False

    # ------------------------------------------------------------------ core

    def newreg(self):
        """Allocate a fresh virtual register id."""
        r = self._next_reg
        self._next_reg += 1
        return r

    def _emit(self, instr):
        if self._finished:
            raise TraceError("builder already finished")
        self._instrs.append(instr)

    def emit_op(self, op, dst=None, srcs=(), addr=None, size=0, taken=None, target=None):
        """Low-level emission; prefer the mnemonic helpers below."""
        if self._finished:
            raise TraceError("builder already finished")
        if type(srcs) is not tuple:
            srcs = tuple(srcs)
        ins = SInstr(self._pc, op, dst, srcs, addr, size, taken, target)
        self._instrs.append(ins)
        self._pc += _ILEN
        return ins

    def finish(self, name=""):
        """Seal the builder and return the trace."""
        self._finished = True
        return Trace(self._instrs, name=name)

    @property
    def pc(self):
        return self._pc

    # -------------------------------------------------------------- mnemonics

    def _alu2(self, op, a, b):
        d = self.newreg()
        self.emit_op(op, d, (a, b))
        return d

    def _alu1(self, op, a):
        d = self.newreg()
        self.emit_op(op, d, (a,))
        return d

    def li(self, _value=0):
        """Load-immediate; the value is irrelevant to timing."""
        d = self.newreg()
        self.emit_op(Op.LUI, d)
        return d

    def add(self, a, b):
        return self._alu2(Op.ADD, a, b)

    def addi(self, a):
        """Add-immediate; ``a`` may be None for pure overhead instructions."""
        d = self.newreg()
        self.emit_op(Op.ADDI, d, (a,) if a is not None else ())
        return d

    def sub(self, a, b):
        return self._alu2(Op.SUB, a, b)

    def and_(self, a, b):
        return self._alu2(Op.AND, a, b)

    def or_(self, a, b):
        return self._alu2(Op.OR, a, b)

    def xor(self, a, b):
        return self._alu2(Op.XOR, a, b)

    def sll(self, a, _sh=1):
        return self._alu1(Op.SLL, a)

    def srl(self, a, _sh=1):
        return self._alu1(Op.SRL, a)

    def slt(self, a, b):
        return self._alu2(Op.SLT, a, b)

    def mv(self, a):
        return self._alu1(Op.MV, a)

    def mul(self, a, b):
        return self._alu2(Op.MUL, a, b)

    def div(self, a, b):
        return self._alu2(Op.DIV, a, b)

    def fadd(self, a, b):
        return self._alu2(Op.FADD, a, b)

    def fsub(self, a, b):
        return self._alu2(Op.FSUB, a, b)

    def fmul(self, a, b):
        return self._alu2(Op.FMUL, a, b)

    def fmadd(self, a, b, c):
        d = self.newreg()
        self.emit_op(Op.FMADD, d, (a, b, c))
        return d

    def fdiv(self, a, b):
        return self._alu2(Op.FDIV, a, b)

    def fsqrt(self, a):
        return self._alu1(Op.FSQRT, a)

    def fcvt(self, a):
        return self._alu1(Op.FCVT, a)

    def fcmp(self, a, b):
        return self._alu2(Op.FCMP, a, b)

    def fmin(self, a, b):
        return self._alu2(Op.FMIN, a, b)

    def fmax(self, a, b):
        return self._alu2(Op.FMAX, a, b)

    # memory -----------------------------------------------------------------

    def _load(self, op, addr, addr_reg=None):
        d = self.newreg()
        srcs = (addr_reg,) if addr_reg is not None else ()
        self.emit_op(op, d, srcs, addr, OP_MEM_SIZE[op])
        return d

    def _store(self, op, src, addr, addr_reg=None):
        srcs = (src,) if addr_reg is None else (src, addr_reg)
        self.emit_op(op, None, srcs, addr, OP_MEM_SIZE[op])

    def lw(self, addr, addr_reg=None):
        return self._load(Op.LW, addr, addr_reg)

    def ld(self, addr, addr_reg=None):
        return self._load(Op.LD, addr, addr_reg)

    def lb(self, addr, addr_reg=None):
        return self._load(Op.LB, addr, addr_reg)

    def flw(self, addr, addr_reg=None):
        return self._load(Op.FLW, addr, addr_reg)

    def fld(self, addr, addr_reg=None):
        return self._load(Op.FLD, addr, addr_reg)

    def sw(self, src, addr, addr_reg=None):
        self._store(Op.SW, src, addr, addr_reg)

    def sd(self, src, addr, addr_reg=None):
        self._store(Op.SD, src, addr, addr_reg)

    def sb(self, src, addr, addr_reg=None):
        self._store(Op.SB, src, addr, addr_reg)

    def fsw(self, src, addr, addr_reg=None):
        self._store(Op.FSW, src, addr, addr_reg)

    def fsd(self, src, addr, addr_reg=None):
        self._store(Op.FSD, src, addr, addr_reg)

    def amoadd(self, addr, src):
        d = self.newreg()
        self.emit_op(Op.AMOADD, dst=d, srcs=(src,), addr=addr, size=8)
        return d

    # control flow -----------------------------------------------------------

    def label(self):
        """Return the current PC (for hand-rolled control flow)."""
        return self._pc

    def branch(self, taken, cond_reg=None, target=None):
        """Emit a conditional branch with a resolved direction."""
        srcs = (cond_reg,) if cond_reg is not None else ()
        self.emit_op(Op.BR, srcs=srcs, taken=taken, target=target)

    def jump(self, target=None):
        self.emit_op(Op.JAL, taken=True, target=target)

    def set_pc(self, pc):
        """Force the next instruction's PC (loop helpers use this)."""
        self._pc = pc

    def loop(self, n, overhead=True):
        """Iterate a loop body ``n`` times with stable per-iteration PCs.

        ``overhead=True`` adds the induction-variable update each iteration,
        approximating compiled loop bookkeeping (the compare is folded into
        the branch).
        """
        if n < 0:
            raise TraceError(f"loop count must be >= 0, got {n}")
        return _Loop(self, n, overhead)

    # misc ---------------------------------------------------------------------

    def nop(self, count=1):
        for _ in range(count):
            self.emit_op(Op.NOP)

    def csrrw(self):
        d = self.newreg()
        self.emit_op(Op.CSRRW, dst=d)
        return d

    def fence(self):
        self.emit_op(Op.FENCE)
