"""Figure 7: little-core execution-time breakdown in 1b-4VL across the
compute-pipeline configurations 1c / 1c+sw / 2c+sw.

Paper claims: packed-element support (sw) cuts executed µops and overall
time; the second chime (2c) hides long-latency stalls (raw_llfu) in
compute-intensive applications.
"""

from repro.experiments import figures
from repro.utils import geomean


def test_fig7():
    data = figures.fig7(scale="tiny")

    # packed elements speed up every 32-bit workload
    speedup_sw = geomean([d["1c"]["cycles"] / d["1c+sw"]["cycles"] for d in data.values()])
    assert speedup_sw > 1.15

    # the second chime helps overall
    speedup_2c = geomean([d["1c+sw"]["cycles"] / d["2c+sw"]["cycles"] for d in data.values()])
    assert speedup_2c > 1.05

    # and specifically reduces long-latency-unit stalls in FP-heavy apps
    for w in ("blackscholes", "jacobi2d", "kmeans"):
        d = data[w]
        frac1 = d["1c+sw"]["raw_llfu"] / max(d["1c+sw"]["cycles"], 1)
        frac2 = d["2c+sw"]["raw_llfu"] / max(d["2c+sw"]["cycles"], 1)
        assert frac2 < frac1, w

    # exact accounting: categories sum to lane-cycles (4 lanes)
    cats = ["busy", "simd", "raw_mem", "raw_llfu", "struct", "xelem", "misc"]
    for w, cfgs in data.items():
        for cname, bd in cfgs.items():
            assert sum(bd[c] for c in cats) <= 4 * bd["cycles"]

    figures.print_fig7(data)
