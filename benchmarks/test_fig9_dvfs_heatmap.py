"""Figure 9: 1bIV-4L and 1b-4VL performance across the (big, little) DVFS
grid.

Paper claims: boosting the big core barely helps 1b-4VL (the big core is only
a control core for the VLITTLE engine) — except for ``sw``, which is only 69%
vectorized; boosting the little cluster helps 1b-4VL strongly.
"""

from repro.experiments import figures

# a representative subset keeps the 16-point grid affordable per app
APPS = ("saxpy", "blackscholes", "sw")


def test_fig9():
    data = figures.fig9(scale="tiny", workloads=APPS)

    for w in APPS:
        vl = data[w]["1b-4VL"]
        # little-cluster boost at fixed big frequency helps substantially
        gain_little = vl[("b1", "l3")] / vl[("b1", "l0")]
        assert gain_little > 1.25, (w, gain_little)

    # big-core boost sensitivity at fixed little frequency:
    def big_gain(w):
        vl = data[w]["1b-4VL"]
        return vl[("b3", "l1")] / vl[("b0", "l1")]

    # sw (31% scalar) must respond to the big core more than the
    # fully-vectorized apps do
    assert big_gain("sw") > big_gain("saxpy")
    assert big_gain("sw") > big_gain("blackscholes")
    assert big_gain("saxpy") < 1.25  # nearly insensitive

    # 1bIV-4L runs real work on the big core, so it responds to big boosts
    for w in APPS:
        iv = data[w]["1bIV-4L"]
        assert iv[("b3", "l1")] > iv[("b0", "l1")]

    figures.print_fig9(data)
