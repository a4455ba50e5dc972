"""Property tests for the VCU's per-(chime, lane) element geometry.

The chime-batched lane executor trusts ``VLittleEngine.elem_count`` to
tell every lane how many elements of a memory instruction it owns in a
given chime: the LDWB µop waits for exactly that many writebacks and the
STDATA µop emits exactly that many store elements, in batch and scalar
mode alike. ``VectorMemoryUnit.register`` takes the map from
``VLittleEngine.elem_geometry``, so its defining invariant is conservation:
summed over every (chime, lane) pair it must reproduce the
instruction's element total, for any lane count, chime count, packing
mode and — especially — non-power-of-two ``vl`` remainders whose last
chime is ragged.
"""

import pytest

from tests.vector.harness import build_vlittle, vec_builder


def _register(eng, vl, ew, kind="unit"):
    """Build one vector memory instruction and register it with the VMU."""
    tb, vb = vec_builder(eng.vlen_bits(ew))
    granted = vb.vsetvl(vl, ew=ew)
    assert granted == vl, "case must fit vlmax so the remainder is exact"
    if kind == "unit":
        vb.vle(0x100000, ew=ew)
    elif kind == "strided":
        vb.vlse(0x100000, stride=192, ew=ew)
    else:  # indexed: a cache-hostile shuffle of element addresses
        addrs = [0x100000 + ((i * 7919) % vl) * 64 for i in range(vl)]
        vb.vluxei(addrs, ew=ew)
    ins = tb.finish("geom").instrs[-1]
    eng.vmu.register(ins)
    return ins


def _case_grid():
    for n_lanes in (1, 2, 4, 8):
        for chimes in (1, 2):
            for packed in (False, True):
                yield n_lanes, chimes, packed


@pytest.mark.parametrize("n_lanes,chimes,packed", list(_case_grid()))
@pytest.mark.parametrize("kind", ("unit", "strided", "indexed"))
def test_elem_count_sums_to_element_total(n_lanes, chimes, packed, kind):
    for ew in (1, 4, 8):
        ms, big, eng = build_vlittle(n_lanes, chimes=chimes, packed=packed)
        if eng.vlen_bits(ew) % 64 != 0:
            continue  # below the trace layer's minimum VLEN granule
        vlmax = eng.vlmax(ew)
        epc = eng.lanes_count * eng.pack_for(ew)
        # full vector, single element, one ragged remainder below vlmax,
        # and a sub-chime sliver that leaves whole lanes without work
        vls = {vlmax, 1, max(1, vlmax - 1), max(1, vlmax // 2 + 1),
               min(vlmax, max(1, epc - 1))}
        for vl in sorted(vls):
            ins = _register(eng, vl, ew, kind)
            nch = max(1, -(-vl // epc))
            total = 0
            for c in range(nch):
                for lane in range(eng.lanes_count):
                    total += eng.elem_count(ins.seq, c, lane)
            assert total == vl, (
                f"lanes={n_lanes} chimes={chimes} packed={packed} "
                f"ew={ew} vl={vl} kind={kind}: {total} != {vl}")


def test_elem_count_stays_inside_chime_and_lane_bounds():
    ms, big, eng = build_vlittle(4, chimes=2, packed=True)
    ew = 4
    epc = eng.lanes_count * eng.pack_for(ew)
    vl = eng.vlmax(ew) - 3  # ragged last chime
    ins = _register(eng, vl, ew)
    nch = -(-vl // epc)
    expected = eng._elem_expected[ins.seq]
    assert expected, "register must populate the per-(chime, lane) map"
    for (c, lane), n in expected.items():
        assert 0 <= c < nch
        assert 0 <= lane < eng.lanes_count
        assert 0 < n <= eng.pack_for(ew)
    # unknown coordinates and unknown seqs read as zero, never KeyError
    assert eng.elem_count(ins.seq, nch + 5, 0) == 0
    assert eng.elem_count(ins.seq + 999, 0, 0) == 0


def test_unit_stride_packs_lanes_in_order():
    """Unit-stride elements land lane-major: element i of a chime belongs
    to lane (i % epc) // pack — the layout the batched leader/mirror
    arrays assume when they replay one lane's timing for the rest."""
    ms, big, eng = build_vlittle(4, chimes=2, packed=False)
    ew = 4
    vl = eng.vlmax(ew)
    ins = _register(eng, vl, ew)
    for c in range(eng.chimes):
        for lane in range(eng.lanes_count):
            assert eng.elem_count(ins.seq, c, lane) == eng.pack_for(ew)
