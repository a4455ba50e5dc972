"""Dynamic-trace instruction records.

A trace is a list of ``SInstr`` / ``VInstr`` records in program order. Records
carry everything the timing models need — opcode, virtual register operands,
resolved memory addresses, resolved branch direction — and nothing else (no
data values: the simulation is timing-only).

Virtual registers behave like post-rename physical registers: reusing an id
creates a true dependence; builders allocate fresh ids for values that real
hardware would rename. Vector records additionally carry the *granted* vector
length, so engines with different VLENs consume traces generated for their
VLEN (RVV strip-mining is resolved at trace-generation time, exactly as it is
resolved at run time on real hardware).
"""

from __future__ import annotations

from repro.isa.scalar import Op
from repro.isa.vector import VOp


class SInstr:
    """One dynamic scalar instruction."""

    __slots__ = ("pc", "op", "dst", "srcs", "addr", "size", "taken", "target")

    is_vector = False

    def __init__(self, pc, op, dst=None, srcs=(), addr=None, size=0, taken=None, target=None):
        self.pc = pc
        self.op = op
        self.dst = dst
        self.srcs = srcs
        self.addr = addr
        self.size = size
        self.taken = taken  # branches only: resolved direction
        self.target = target  # branches only: resolved target pc

    def __repr__(self):
        bits = [Op(self.op).name, f"pc={self.pc:#x}"]
        if self.dst is not None:
            bits.append(f"d{self.dst}")
        if self.srcs:
            bits.append("s" + ",".join(str(s) for s in self.srcs))
        if self.addr is not None:
            bits.append(f"@{self.addr:#x}/{self.size}")
        if self.taken is not None:
            bits.append("T" if self.taken else "NT")
        return f"<SInstr {' '.join(bits)}>"


class VInstr:
    """One dynamic vector instruction (dispatched to a vector engine).

    Attributes
    ----------
    vd / vs : destination / source vector register ids (0..31, v0 = mask).
    rs : scalar source virtual registers (values forwarded with the dispatch).
    rd : scalar destination virtual register (engine responds to the core).
    vl : granted vector length in elements for this instruction.
    ew : element width in bytes.
    base, stride : memory ops (stride in bytes; unit-stride => ew).
    addrs : per-element addresses for indexed memory ops.
    masked : executes under the v0 mask.
    seq : builder-assigned sequence id; dep_ids are producer seq ids, giving
        engines an exact dependence graph without re-deriving rename state.
    """

    __slots__ = (
        "pc",
        "op",
        "vd",
        "vs",
        "rs",
        "rd",
        "vl",
        "ew",
        "base",
        "stride",
        "addrs",
        "masked",
        "seq",
        "dep_ids",
    )

    is_vector = True

    def __init__(
        self,
        pc,
        op,
        vd=None,
        vs=(),
        rs=(),
        rd=None,
        vl=0,
        ew=4,
        base=None,
        stride=None,
        addrs=None,
        masked=False,
        seq=-1,
        dep_ids=(),
    ):
        self.pc = pc
        self.op = op
        self.vd = vd
        self.vs = vs
        self.rs = rs
        self.rd = rd
        self.vl = vl
        self.ew = ew
        self.base = base
        self.stride = stride
        self.addrs = addrs
        self.masked = masked
        self.seq = seq
        self.dep_ids = dep_ids

    def element_addrs(self):
        """Resolved per-element byte addresses for a memory instruction."""
        if self.addrs is not None:
            return self.addrs
        if self.base is None:
            raise ValueError(f"{self!r} is not a memory instruction")
        step = self.stride if self.stride is not None else self.ew
        return [self.base + i * step for i in range(self.vl)]

    def __repr__(self):
        bits = [VOp(self.op).name, f"vl={self.vl}", f"ew={self.ew}"]
        if self.vd is not None:
            bits.append(f"v{self.vd}")
        if self.base is not None:
            bits.append(f"@{self.base:#x}+{self.stride or self.ew}")
        if self.masked:
            bits.append("m")
        return f"<VInstr {' '.join(bits)}>"


class Trace:
    """An ordered dynamic instruction stream plus summary metadata."""

    __slots__ = ("instrs", "name")

    def __init__(self, instrs=None, name=""):
        self.instrs = instrs if instrs is not None else []
        self.name = name

    def __len__(self):
        return len(self.instrs)

    def __iter__(self):
        return iter(self.instrs)

    def __getitem__(self, i):
        return self.instrs[i]

    def counts(self):
        """Return (scalar_count, vector_count)."""
        nv = sum(1 for i in self.instrs if i.is_vector)
        return len(self.instrs) - nv, nv

    def vector_element_ops(self):
        """Total vector element operations (for VOp-fraction accounting)."""
        return sum(i.vl for i in self.instrs if i.is_vector)
