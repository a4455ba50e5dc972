"""Vector trace-builder DSL (RVV-intrinsics style).

Mirrors how the paper's workloads are written — "manually vectorized using
RISC-V RVV vector intrinsics" — but at trace level: the builder is
parameterized by the target hardware vector length (VLEN), and ``vsetvl``
performs the strip-mine grant exactly as hardware would (``vl = min(avl,
VLMAX)``), so the same generator function produces correct VLEN-specific
traces for the 128-bit integrated unit, the 512-bit VLITTLE engine, and the
2048-bit decoupled engine.

Vector register allocation rotates through v1..v31 (v0 is the architectural
mask register); true dependences are tracked explicitly through producer
sequence ids (``VInstr.dep_ids``), so rotation never creates false
dependences for the engines.

Example
-------
>>> tb = TraceBuilder()
>>> vb = VectorBuilder(tb, vlen_bits=512)
>>> for base, vl in vb.strip_mine(0x1000, n=100, ew=4):
...     v = vb.vle(base, ew=4, vl=vl)
...     v2 = vb.vadd(v, v)
...     vb.vse(v2, base, ew=4, vl=vl)
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.isa.vector import VOp
from repro.trace.instr import VInstr

_ILEN = 4

#: Handle type returned for vector values: (vreg_id, producer_seq).
VReg = tuple


class VectorBuilder:
    """Emit vector instructions into an underlying :class:`TraceBuilder`."""

    def __init__(self, tb, vlen_bits):
        if vlen_bits % 64 != 0 or vlen_bits <= 0:
            raise TraceError(f"VLEN must be a positive multiple of 64, got {vlen_bits}")
        self.tb = tb
        self.vlen_bits = vlen_bits
        self._next_vreg = 1  # v0 reserved for masks
        self._seq = 0
        self._vl = 0
        self._ew = 4

    # ----------------------------------------------------------------- state

    def vlmax(self, ew):
        """Maximum vector length in elements for element width ``ew`` bytes."""
        return self.vlen_bits // (8 * ew)

    @property
    def vl(self):
        return self._vl

    def _alloc_vreg(self):
        r = self._next_vreg
        self._next_vreg += 1
        if self._next_vreg == 32:
            self._next_vreg = 1
        return r

    def _emit(self, op, vd=None, vsrcs=(), rs=(), rd=None, vl=None, ew=None,
              base=None, stride=None, addrs=None, masked=False, mask=None):
        """Emit one VInstr. ``vsrcs`` are VReg handles; returns a VReg handle
        for ``vd`` (or the scalar dest register for scalar-producing ops)."""
        vl = self._vl if vl is None else vl
        ew = self._ew if ew is None else ew
        deps = tuple(h[1] for h in vsrcs if h is not None)
        if mask is not None:
            masked = True
            deps = deps + (mask[1],)
        seq = self._seq
        self._seq += 1
        ins = VInstr(
            self.tb.pc,
            op,
            vd=vd,
            vs=tuple(h[0] for h in vsrcs if h is not None),
            rs=tuple(rs),
            rd=rd,
            vl=vl,
            ew=ew,
            base=base,
            stride=stride,
            addrs=addrs,
            masked=masked,
            seq=seq,
            dep_ids=deps,
        )
        self.tb._emit(ins)
        self.tb.set_pc(self.tb.pc + _ILEN)
        if vd is not None:
            return (vd, seq)
        return rd

    # ------------------------------------------------------------------ ctrl

    def vsetvl(self, avl, ew=4):
        """Request ``avl`` elements; returns the granted vl (an int).

        Also emits the VSETVL control instruction carrying the grant, and a
        scalar destination register the big core receives the grant in.
        """
        if avl <= 0:
            raise TraceError(f"vsetvl avl must be positive, got {avl}")
        vl = min(avl, self.vlmax(ew))
        self._vl = vl
        self._ew = ew
        rd = self.tb.newreg()
        self._emit(VOp.VSETVL, rd=rd, vl=vl, ew=ew)
        return vl

    def strip_mine(self, base, n, ew=4, bookkeeping=True):
        """Generate the canonical RVV strip-mine loop.

        Yields ``(chunk_base_addr, vl)`` per iteration after emitting the
        per-iteration ``vsetvl`` plus (optionally) the scalar loop bookkeeping
        the compiler would produce (pointer bumps + branch).
        """
        if n < 0:
            raise TraceError("strip_mine needs n >= 0")
        remaining = n
        addr = base
        head_pc = self.tb.pc
        while remaining > 0:
            self.tb.set_pc(head_pc)
            vl = self.vsetvl(remaining, ew=ew)
            yield addr, vl
            remaining -= vl
            addr += vl * ew
            if bookkeeping:
                self.tb.addi(None)  # pointer bump
                self.tb.addi(None)  # remaining -= vl
            self.tb.branch(taken=remaining > 0, target=head_pc if remaining > 0 else None)

    # ---------------------------------------------------------------- memory

    def vle(self, base, ew=None, vl=None, mask=None):
        """Unit-stride load."""
        return self._emit(VOp.VLE, vd=self._alloc_vreg(), base=base, ew=ew, vl=vl,
                          mask=mask)

    def vse(self, vsrc, base, ew=None, vl=None, mask=None):
        """Unit-stride store."""
        self._emit(VOp.VSE, vsrcs=(vsrc,), base=base, ew=ew, vl=vl, mask=mask)

    def vlse(self, base, stride, ew=None, vl=None, mask=None):
        """Constant-stride load (stride in bytes)."""
        return self._emit(VOp.VLSE, vd=self._alloc_vreg(), base=base, stride=stride,
                          ew=ew, vl=vl, mask=mask)

    def vsse(self, vsrc, base, stride, ew=None, vl=None, mask=None):
        """Constant-stride store."""
        self._emit(VOp.VSSE, vsrcs=(vsrc,), base=base, stride=stride, ew=ew, vl=vl,
                   mask=mask)

    def vluxei(self, addrs, vindex=None, ew=None, mask=None):
        """Indexed (gather) load; ``addrs`` are resolved element addresses."""
        vsrcs = (vindex,) if vindex is not None else ()
        return self._emit(VOp.VLUXEI, vd=self._alloc_vreg(), vsrcs=vsrcs,
                          addrs=list(addrs), ew=ew, vl=len(addrs), mask=mask)

    def vsuxei(self, vsrc, addrs, vindex=None, ew=None, mask=None):
        """Indexed (scatter) store."""
        vsrcs = (vsrc, vindex) if vindex is not None else (vsrc,)
        self._emit(VOp.VSUXEI, vsrcs=vsrcs, addrs=list(addrs), ew=ew,
                   vl=len(addrs), mask=mask)

    # ------------------------------------------------------------ arithmetic

    def _arith2(self, op, a, b, mask=None):
        return self._emit(op, vd=self._alloc_vreg(), vsrcs=(a, b), mask=mask)

    def _arith1(self, op, a, mask=None):
        return self._emit(op, vd=self._alloc_vreg(), vsrcs=(a,), mask=mask)

    def _arith_vx(self, op, a, rs, mask=None):
        """Vector-scalar form: scalar operand travels in the data queue."""
        return self._emit(op, vd=self._alloc_vreg(), vsrcs=(a,), rs=(rs,), mask=mask)

    def vadd(self, a, b, mask=None):
        return self._arith2(VOp.VADD, a, b, mask)

    def vadd_vx(self, a, rs, mask=None):
        return self._arith_vx(VOp.VADD, a, rs, mask)

    def vsub(self, a, b, mask=None):
        return self._arith2(VOp.VSUB, a, b, mask)

    def vand(self, a, b, mask=None):
        return self._arith2(VOp.VAND, a, b, mask)

    def vor(self, a, b, mask=None):
        return self._arith2(VOp.VOR, a, b, mask)

    def vxor(self, a, b, mask=None):
        return self._arith2(VOp.VXOR, a, b, mask)

    def vsll(self, a, mask=None):
        return self._arith1(VOp.VSLL, a, mask)

    def vsrl(self, a, mask=None):
        return self._arith1(VOp.VSRL, a, mask)

    def vmin(self, a, b, mask=None):
        return self._arith2(VOp.VMIN, a, b, mask)

    def vmax(self, a, b, mask=None):
        return self._arith2(VOp.VMAX, a, b, mask)

    def vmul(self, a, b, mask=None):
        return self._arith2(VOp.VMUL, a, b, mask)

    def vmacc(self, acc, a, b, mask=None):
        """acc += a*b; writes the accumulator register in place."""
        return self._emit(VOp.VMACC, vd=acc[0], vsrcs=(acc, a, b), mask=mask)

    def vdiv(self, a, b, mask=None):
        return self._arith2(VOp.VDIV, a, b, mask)

    def vfadd(self, a, b, mask=None):
        return self._arith2(VOp.VFADD, a, b, mask)

    def vfsub(self, a, b, mask=None):
        return self._arith2(VOp.VFSUB, a, b, mask)

    def vfmul(self, a, b, mask=None):
        return self._arith2(VOp.VFMUL, a, b, mask)

    def vfmul_vf(self, a, rs, mask=None):
        return self._arith_vx(VOp.VFMUL, a, rs, mask)

    def vfmacc(self, acc, a, b, mask=None):
        return self._emit(VOp.VFMACC, vd=acc[0], vsrcs=(acc, a, b), mask=mask)

    def vfdiv(self, a, b, mask=None):
        return self._arith2(VOp.VFDIV, a, b, mask)

    def vfsqrt(self, a, mask=None):
        return self._arith1(VOp.VFSQRT, a, mask)

    def vfcvt(self, a, mask=None):
        return self._arith1(VOp.VFCVT, a, mask)

    def vfmin(self, a, b, mask=None):
        return self._arith2(VOp.VFMIN, a, b, mask)

    def vfmax(self, a, b, mask=None):
        return self._arith2(VOp.VFMAX, a, b, mask)

    # ----------------------------------------------------------------- masks

    def vmseq(self, a, b):
        return self._arith2(VOp.VMSEQ, a, b)

    def vmslt(self, a, b):
        return self._arith2(VOp.VMSLT, a, b)

    def vmflt(self, a, b):
        return self._arith2(VOp.VMFLT, a, b)

    def vmand(self, a, b):
        return self._arith2(VOp.VMAND, a, b)

    def vmor(self, a, b):
        return self._arith2(VOp.VMOR, a, b)

    def vmerge(self, a, b, mask):
        return self._emit(VOp.VMERGE, vd=self._alloc_vreg(), vsrcs=(a, b), mask=mask)

    # ------------------------------------------------------------ reductions

    def vredsum(self, a, mask=None):
        return self._arith1(VOp.VREDSUM, a, mask)

    def vredmin(self, a, mask=None):
        return self._arith1(VOp.VREDMIN, a, mask)

    def vredmax(self, a, mask=None):
        return self._arith1(VOp.VREDMAX, a, mask)

    def vfredsum(self, a, mask=None):
        return self._arith1(VOp.VFREDSUM, a, mask)

    def vfredmin(self, a, mask=None):
        return self._arith1(VOp.VFREDMIN, a, mask)

    def vpopc(self, mask_vreg):
        """Population count of a mask; returns the scalar dest register."""
        rd = self.tb.newreg()
        return self._emit(VOp.VPOPC, vsrcs=(mask_vreg,), rd=rd)

    # ---------------------------------------------------------- permutations

    def vrgather(self, a, vindex, mask=None):
        return self._emit(VOp.VRGATHER, vd=self._alloc_vreg(), vsrcs=(a, vindex),
                          mask=mask)

    def vslideup(self, a, mask=None):
        return self._arith1(VOp.VSLIDEUP, a, mask)

    def vslidedown(self, a, mask=None):
        return self._arith1(VOp.VSLIDEDOWN, a, mask)

    # ----------------------------------------------------------------- moves

    def vmv_x_s(self, a):
        """Move element 0 to a scalar register (engine responds to big core)."""
        rd = self.tb.newreg()
        return self._emit(VOp.VMV_XS, vsrcs=(a,), rd=rd)

    def vmv_s_x(self, rs):
        return self._emit(VOp.VMV_SX, vd=self._alloc_vreg(), rs=(rs,))

    def vmv_v_x(self, rs):
        """Broadcast a scalar to all elements."""
        return self._emit(VOp.VMV_VX, vd=self._alloc_vreg(), rs=(rs,))

    def vid(self):
        return self._emit(VOp.VID, vd=self._alloc_vreg())

    # ------------------------------------------------------------- ordering

    def vmfence(self):
        """Scalar/vector memory ordering fence (paper §III-B)."""
        self._emit(VOp.VMFENCE, vl=0)

    def mode_exit(self):
        """Request the OS to switch the cluster back to scalar mode (a CSR
        write on the big core, §III-B); the next vector instruction re-pays
        the mode-switch penalty."""
        self.tb.csrrw()
