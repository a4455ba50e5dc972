"""Figure 5: instruction-fetch requests to memory, normalized to 1bDV.

Paper claim: 1bIV-4L performs significantly more fetches than the
long-vector systems (short VL + duplicated fetch on four scalar cores +
runtime overhead); 1b-4VL is close to 1bDV.
"""

from repro.experiments import figures
from repro.utils import geomean


def test_fig5():
    data = figures.fig5(scale="tiny")
    for w, row in data.items():
        assert row["1bIV-4L"] > row["1b-4VL"], w
        assert row["1bIV-4L"] > 2.0, f"{w}: expected >>1bDV fetches"
    gm = geomean([row["1bIV-4L"] for row in data.values()])
    assert gm > 5.0
    figures.print_normalized(data, "ifetch / 1bDV")
