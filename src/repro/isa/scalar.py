"""Scalar (RV64IMAFD-like) opcode metadata.

Opcodes are plain ``IntEnum`` members; the timing-relevant properties are
precomputed into flat lists indexed by opcode value so that core models pay a
single list index in their hot loops.
"""

from __future__ import annotations

from enum import IntEnum


class FUClass(IntEnum):
    """Functional-unit class an opcode executes on."""

    NONE = 0  # no execution resource (e.g. NOP)
    ALU = 1  # single-cycle integer ops and branches
    MUL = 2  # pipelined integer multiply
    DIV = 3  # unpipelined integer divide
    FPU = 4  # pipelined FP add/sub/mul/madd/convert/compare
    FDIV = 5  # unpipelined FP divide / sqrt
    MEM = 6  # loads and stores (address generation + cache port)


class Op(IntEnum):
    """Scalar opcodes. Mnemonics follow RISC-V; several encodings that share
    timing behaviour are collapsed (e.g. all conditional branches are ``BR``).
    """

    NOP = 0
    # integer ALU
    ADD = 1
    ADDI = 2
    SUB = 3
    AND = 4
    OR = 5
    XOR = 6
    SLL = 7
    SRL = 8
    SRA = 9
    SLT = 10
    LUI = 11
    MV = 12
    # integer mul/div
    MUL = 13
    MULH = 14
    DIV = 15
    REM = 16
    # loads / stores (integer)
    LB = 17
    LH = 18
    LW = 19
    LD = 20
    SB = 21
    SH = 22
    SW = 23
    SD = 24
    # FP loads / stores
    FLW = 25
    FLD = 26
    FSW = 27
    FSD = 28
    # FP arithmetic
    FADD = 29
    FSUB = 30
    FMUL = 31
    FMADD = 32
    FDIV = 33
    FSQRT = 34
    FCVT = 35
    FCMP = 36
    FSGNJ = 37
    FMIN = 38
    FMAX = 39
    # control flow
    BR = 40  # any conditional branch (beq/bne/blt/bge/...)
    JAL = 41
    JALR = 42
    # system
    CSRRW = 43  # CSR write (e.g. vector-mode switch request)
    FENCE = 44  # scalar memory fence
    AMOADD = 45  # atomic fetch-and-add (runtime synchronization)


_LOAD_OPS = frozenset({Op.LB, Op.LH, Op.LW, Op.LD, Op.FLW, Op.FLD})
_STORE_OPS = frozenset({Op.SB, Op.SH, Op.SW, Op.SD, Op.FSW, Op.FSD})
_BRANCH_OPS = frozenset({Op.BR, Op.JAL, Op.JALR})

_FU_BY_OP = {
    Op.NOP: FUClass.NONE,
    Op.ADD: FUClass.ALU,
    Op.ADDI: FUClass.ALU,
    Op.SUB: FUClass.ALU,
    Op.AND: FUClass.ALU,
    Op.OR: FUClass.ALU,
    Op.XOR: FUClass.ALU,
    Op.SLL: FUClass.ALU,
    Op.SRL: FUClass.ALU,
    Op.SRA: FUClass.ALU,
    Op.SLT: FUClass.ALU,
    Op.LUI: FUClass.ALU,
    Op.MV: FUClass.ALU,
    Op.MUL: FUClass.MUL,
    Op.MULH: FUClass.MUL,
    Op.DIV: FUClass.DIV,
    Op.REM: FUClass.DIV,
    Op.LB: FUClass.MEM,
    Op.LH: FUClass.MEM,
    Op.LW: FUClass.MEM,
    Op.LD: FUClass.MEM,
    Op.SB: FUClass.MEM,
    Op.SH: FUClass.MEM,
    Op.SW: FUClass.MEM,
    Op.SD: FUClass.MEM,
    Op.FLW: FUClass.MEM,
    Op.FLD: FUClass.MEM,
    Op.FSW: FUClass.MEM,
    Op.FSD: FUClass.MEM,
    Op.FADD: FUClass.FPU,
    Op.FSUB: FUClass.FPU,
    Op.FMUL: FUClass.FPU,
    Op.FMADD: FUClass.FPU,
    Op.FDIV: FUClass.FDIV,
    Op.FSQRT: FUClass.FDIV,
    Op.FCVT: FUClass.FPU,
    Op.FCMP: FUClass.FPU,
    Op.FSGNJ: FUClass.FPU,
    Op.FMIN: FUClass.FPU,
    Op.FMAX: FUClass.FPU,
    Op.BR: FUClass.ALU,
    Op.JAL: FUClass.ALU,
    Op.JALR: FUClass.ALU,
    Op.CSRRW: FUClass.ALU,
    Op.FENCE: FUClass.NONE,
    Op.AMOADD: FUClass.MEM,
}

#: Natural access size in bytes of the memory opcodes.
_MEM_SIZE_BY_OP = {
    Op.LB: 1,
    Op.SB: 1,
    Op.LH: 2,
    Op.SH: 2,
    Op.LW: 4,
    Op.SW: 4,
    Op.FLW: 4,
    Op.FSW: 4,
    Op.LD: 8,
    Op.SD: 8,
    Op.FLD: 8,
    Op.FSD: 8,
    Op.AMOADD: 8,
}

_N = max(Op) + 1

#: Flat lookup tables indexed by ``int(op)`` — hot-path friendly.
OP_FU = [FUClass.NONE] * _N
OP_IS_LOAD = [False] * _N
OP_IS_STORE = [False] * _N
OP_IS_BRANCH = [False] * _N
OP_MEM_SIZE = [0] * _N  # 0: the opcode does not access memory

for _op in Op:
    OP_FU[_op] = _FU_BY_OP[_op]
    OP_IS_LOAD[_op] = _op in _LOAD_OPS
    OP_IS_STORE[_op] = _op in _STORE_OPS
    OP_IS_BRANCH[_op] = _op in _BRANCH_OPS
    OP_MEM_SIZE[_op] = _MEM_SIZE_BY_OP.get(_op, 0)

# AMO behaves as both a load and a store for dependence purposes.
OP_IS_LOAD[Op.AMOADD] = True
OP_IS_STORE[Op.AMOADD] = True


def mem_size(op: Op) -> int:
    """Natural access size in bytes for a memory opcode."""
    return _MEM_SIZE_BY_OP[op]
