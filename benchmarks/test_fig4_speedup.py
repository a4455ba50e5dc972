"""Figure 4: speedup over 1L for all systems, task- and data-parallel.

Paper claims checked (shape, not absolute numbers):
* task-parallel: 1b-4VL == 1bIV-4L exactly; both ~1.7x faster than 1bDV;
* data-parallel: 1b-4VL ~1.6x over 1bIV-4L; ~half of 1bDV.
"""

from repro.experiments import figures
from repro.utils import geomean
from repro.workloads import DATA_PARALLEL, KERNELS, TASK_PARALLEL


def _fig4_mixed():
    # data-parallel apps at tiny scale; task-parallel apps need real graphs
    # (the tiny 128-vertex rMAT leaves too little parallel work for 5 cores)
    dp = figures.fig4(scale="tiny", workloads=KERNELS + DATA_PARALLEL)
    tp = figures.fig4(scale="small", workloads=list(TASK_PARALLEL))
    dp["speedups"].update(tp["speedups"])
    dp["summary"].update(tp["summary"])
    return dp


def test_fig4():
    data = _fig4_mixed()
    sp = data["speedups"]

    # every system at least matches a single little core on every workload
    for w, row in sp.items():
        assert row["1L"] == 1.0

    # --- task-parallel claims (paper §V-A) ---
    tp_vl = [sp[w]["1b-4VL"] for w in TASK_PARALLEL]
    tp_iv = [sp[w]["1bIV-4L"] for w in TASK_PARALLEL]
    tp_dv = [sp[w]["1bDV"] for w in TASK_PARALLEL]
    for a, b in zip(tp_vl, tp_iv):
        assert a == b, "scalar-mode big.VLITTLE must equal big.LITTLE"
    ratio_tp = geomean(tp_vl) / geomean(tp_dv)
    assert 1.3 < ratio_tp < 2.6, f"task-parallel 4VL/DV ratio {ratio_tp} (paper: 1.7)"

    # --- data-parallel claims ---
    dp = KERNELS + DATA_PARALLEL
    ratio_dp = geomean([sp[w]["1b-4VL"] / sp[w]["1bIV-4L"] for w in dp])
    assert 1.0 < ratio_dp < 2.2, f"data-parallel 4VL/IV-4L ratio {ratio_dp} (paper: 1.6)"
    ratio_dv = geomean([sp[w]["1bDV"] / sp[w]["1b-4VL"] for w in dp])
    assert 1.3 < ratio_dv < 3.0, f"DV/4VL ratio {ratio_dv} (paper: ~2)"

    figures.print_fig4(data)
