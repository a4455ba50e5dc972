"""Design-space ablations (DESIGN.md §7 extras, beyond the paper's figures)."""

from repro.experiments import ablations


def test_cluster_scaling():
    data = ablations.cluster_scaling(workload="saxpy", scale="tiny")
    # more lanes -> longer hardware vector
    assert data[2]["vlen_bits"] < data[4]["vlen_bits"] < data[8]["vlen_bits"]
    # and more performance, with sub-linear returns (shared VMIU/VLU rate)
    assert data[4]["speedup"] > data[2]["speedup"]
    assert data[8]["speedup"] > data[4]["speedup"]
    scaling_4_to_8 = data[8]["speedup"] / data[4]["speedup"]
    assert scaling_4_to_8 < 2.0
    print("cluster scaling:", {n: round(d["speedup"], 2) for n, d in data.items()})


def test_switch_penalty():
    data = ablations.switch_penalty(workload="saxpy")
    # penalty hurts a small region far more than a large one
    small_hit = data["tiny"][8000]
    large_hit = data["small"][8000]
    assert small_hit > large_hit
    assert data["tiny"][0] == 1.0
    for scale in data:
        row = [data[scale][p] for p in sorted(data[scale])]
        assert row == sorted(row)  # monotone in penalty
    print("switch penalty slowdown:", data)


def test_vxu_topology():
    data = ablations.vxu_topology(workload="kmeans", scale="tiny")
    # kmeans has few cross-element ops; topology should barely matter —
    # the paper's justification for the cheap ring
    assert max(data.values()) < 1.15
    print("vxu topology (relative time):", data)


def test_coalesce_width():
    data = ablations.coalesce_width(workload="particlefilter", scale="tiny")
    # performance is monotone non-decreasing in the window
    widths = sorted(data)
    perf = [data[w] for w in widths]
    for a, b in zip(perf, perf[1:]):
        assert b >= a - 0.02
    print("coalesce width (relative perf):", data)


def test_dram_bandwidth():
    data = ablations.dram_bandwidth(workload="vvadd", scale="tiny")
    # with starved DRAM both designs hit the same wall: the advantage shrinks
    assert data[16] < data[1] + 0.05
    print("4VL advantage vs DRAM interval:", data)


def test_region_granularity():
    data = ablations.region_granularity(scale="tiny")
    # the paper's coarse-grained-switching argument: fine regions are
    # strictly worse, and per-region cost compounds
    ns = sorted(data)
    slow = [data[n] for n in ns]
    assert slow == sorted(slow)
    assert data[ns[-1]] > 2.0  # 8 regions >> 1 region
    assert data[1] == 1.0
    print("region granularity slowdown:", data)
