"""Figure 10: 1b-4VL execution time vs estimated power across DVFS points.

Paper claim: the Pareto-optimal points boost the little cluster and slow the
big core — the power saved on the (mostly idle) big core buys little-cluster
frequency that the vector engine actually uses.
"""

from repro.experiments import figures

APPS = ("saxpy", "blackscholes", "pathfinder")


def test_fig10():
    data = figures.fig10(scale="tiny", workloads=APPS)
    for w in APPS:
        pareto = data[w]["pareto"]
        assert len(pareto) >= 2
        tags = [t for _, _, t in pareto]
        # Pareto points prefer a slow big core: none should boost the big
        # core to b3 while leaving the little cluster slow
        assert all(not (b == "b3" and l in ("l0", "l1")) for b, l in tags), tags
        # the fastest Pareto point runs the little cluster at full speed
        fastest = min(pareto, key=lambda p: p[0])
        assert fastest[2][1] == "l3"
    figures.print_fig10(data)
