"""Tests for the statistics infrastructure."""

from repro.stats import Breakdown, RunResult, STALL_NAMES, Stall


def test_stall_categories_match_fig7():
    assert STALL_NAMES == ["busy", "simd", "raw_mem", "raw_llfu",
                           "struct", "xelem", "misc"]


def test_breakdown_accounting():
    b = Breakdown()
    b.add(Stall.BUSY, 3)
    b.add(Stall.RAW_MEM)
    assert b.total() == 4
    assert b.fraction(Stall.BUSY) == 0.75
    assert b.as_dict()["raw_mem"] == 1


def test_breakdown_empty_fraction():
    assert Breakdown().fraction(Stall.BUSY) == 0.0


def test_breakdown_fractions_zero_total():
    fr = Breakdown().fractions()
    assert set(fr) == set(STALL_NAMES)
    assert all(v == 0.0 for v in fr.values())


def test_breakdown_fractions_sum_to_one():
    b = Breakdown()
    b.add(Stall.BUSY, 3)
    b.add(Stall.RAW_MEM, 1)
    fr = b.fractions()
    assert fr["busy"] == 0.75 and fr["raw_mem"] == 0.25
    assert sum(fr.values()) == 1.0


def test_breakdown_merge():
    a, b = Breakdown(), Breakdown()
    a.add(Stall.BUSY, 2)
    b.add(Stall.BUSY, 3)
    b.add(Stall.SIMD, 1)
    m = a.merged_with(b)
    assert m.counts[Stall.BUSY] == 5
    assert m.counts[Stall.SIMD] == 1
    assert a.counts[Stall.BUSY] == 2  # originals untouched


def test_run_result_access():
    r = RunResult("w", "1b", 123, {"a": 1})
    assert r["a"] == 1
    assert r["missing"] == 0
    assert "1b" in repr(r)


def test_run_result_delegates_to_stats():
    r = RunResult("w", "1b", 123, {"a": 1, "b": 2})
    assert "a" in r and "missing" not in r
    assert r.get("a") == 1
    assert r.get("missing") == 0
    assert r.get("missing", None) is None
    assert sorted(r.items()) == [("a", 1), ("b", 2)]
