"""Figure 6: data requests to memory, normalized to 1bDV.

Paper claim: wide vector line requests mean 1b-4VL and 1bDV issue far fewer
data requests than 1bIV-4L's mix of short-vector and scalar accesses.
"""

from repro.experiments import figures
from repro.utils import geomean


def test_fig6():
    data = figures.fig6(scale="tiny")
    for w, row in data.items():
        assert row["1bIV-4L"] > row["1b-4VL"], w
    gm = geomean([row["1bIV-4L"] / row["1b-4VL"] for row in data.values()])
    assert gm > 2.0
    figures.print_normalized(data, "data reqs / 1bDV")
