"""Quantitative energy comparison (extends the paper's qualitative §VII-A).

The paper argues big.VLITTLE is more energy-efficient than the big.LITTLE
baseline (fewer instruction and data memory accesses, higher performance at
similar power) and leaves detailed evaluation to future work. With the
Table VII power model and simulated execution times we can quantify it:
energy = average power x execution time, plus an energy-delay product (EDP)
view that rewards finishing fast.
"""

from __future__ import annotations

from repro.experiments.parallel import RunRequest, run_sweep
from repro.power import energy_j, system_power_w
from repro.utils import geomean
from repro.workloads import DATA_PARALLEL, KERNELS


def energy_table(scale="small", workloads=None,
                 systems=("1bIV-4L", "1bDV", "1b-4VL"), big="b1", little="l1",
                 jobs=None):
    """Per-workload energy (J) and EDP (J*s) at a fixed DVFS point."""
    if workloads is None:
        workloads = KERNELS + DATA_PARALLEL
    res = run_sweep({(w, s): RunRequest(s, w, scale)
                     for w in workloads for s in systems}, jobs)
    out = {}
    for w in workloads:
        row = {}
        for s in systems:
            t_ps = res[w, s].stats["time_ps"]
            p = system_power_w(s, big, little)
            e = energy_j(t_ps, p)
            row[s] = {"time_ps": t_ps, "power_w": p, "energy_j": e,
                      "edp": e * t_ps * 1e-12}
        out[w] = row
    return out


def energy_summary(table):
    """Geomean energy and EDP ratios of 1b-4VL vs the baselines."""
    out = {}
    for other in ("1bIV-4L", "1bDV"):
        if not all(other in row and "1b-4VL" in row for row in table.values()):
            continue
        out[f"energy_{other}_over_4VL"] = geomean(
            [row[other]["energy_j"] / row["1b-4VL"]["energy_j"]
             for row in table.values()])
        out[f"edp_{other}_over_4VL"] = geomean(
            [row[other]["edp"] / row["1b-4VL"]["edp"] for row in table.values()])
    return out
