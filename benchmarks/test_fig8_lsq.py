"""Figure 8: 1b-4VL performance vs VMU load/store data-queue depth.

Paper claims: memory-intensive workloads (vvadd, saxpy, pathfinder,
backprop) improve significantly with deeper queues and then saturate;
performance is monotonically non-decreasing in depth.
"""

from repro.experiments import figures


def test_fig8():
    data = figures.fig8(scale="tiny")
    depths = sorted(next(iter(data.values())))

    for w, row in data.items():
        perf = [row[d] for d in depths]
        # monotone within measurement jitter
        for a, b in zip(perf, perf[1:]):
            assert b >= a - 0.03, (w, perf)
        assert abs(row[depths[-1]] - 1.0) < 1e-9  # normalized to deepest

    # at least some memory-bound workloads lose >10% at the shallowest depth
    losers = [w for w, row in data.items() if row[depths[0]] < 0.9]
    assert "pathfinder" in losers or "backprop" in losers
    assert len(losers) >= 2

    figures.print_fig8(data)
