"""Regenerate every figure of the paper's evaluation (Figs. 4-11).

Each ``figN`` function returns plain data structures (dicts keyed by
workload/system) that the CLI and the benchmark harness print; shapes match
the corresponding paper figure so paper-vs-measured comparison is direct.

Each generator lists its (system, workload, knobs) sweep once and takes
every result from one :class:`~repro.experiments.parallel.ParallelRunner`
call (:func:`~repro.experiments.parallel.run_sweep`): ``jobs`` None or 1
simulates the misses serially in-process, ``jobs=N`` on ``N`` worker
processes, and the data returned is byte-identical either way.
"""

from __future__ import annotations

from repro.power import (
    BIG_LEVELS,
    LITTLE_LEVELS,
    freqs,
    pareto_frontier,
    system_power_w,
)
from repro.soc import SYSTEM_NAMES
from repro.experiments.parallel import RunRequest, run_sweep
from repro.utils import geomean
from repro.workloads import DATA_PARALLEL, KERNELS, TASK_PARALLEL

#: Figure 7's three 1b-4VL configurations (chimes / packed-element support).
FIG7_CONFIGS = {
    "1c": dict(chimes=1, packed=False),
    "1c+sw": dict(chimes=1, packed=True),
    "2c+sw": dict(chimes=2, packed=True),
}

#: Figure 8's VMU load/store data-queue depths (cache lines per VMSU).
FIG8_DEPTHS = (4, 8, 16, 32, 64)

#: The engine-bearing systems compared in Figs. 5 & 6.
VECTOR_SYSTEMS = ("1bIV-4L", "1bDV", "1b-4VL")


def fig4(scale="small", systems=SYSTEM_NAMES, workloads=None, jobs=None):
    """Speedup over 1L for every system and workload (plus geomeans)."""
    if workloads is None:
        workloads = TASK_PARALLEL + KERNELS + DATA_PARALLEL
    res = run_sweep({(r.workload, r.system): r
                     for r in fig4_requests(scale, systems, workloads)}, jobs)
    out = {w: {s: res[w, "1L"].stats["time_ps"] / res[w, s].stats["time_ps"]
               for s in systems}
           for w in workloads}
    summary = {}
    tp = [w for w in workloads if w in TASK_PARALLEL]
    dp = [w for w in workloads if w in DATA_PARALLEL]
    for s in systems:
        if tp:
            summary[f"{s}.task_parallel_geomean"] = geomean([out[w][s] for w in tp])
        if dp:
            summary[f"{s}.data_parallel_geomean"] = geomean([out[w][s] for w in dp])
    return {"speedups": out, "summary": summary}


def fig4_requests(scale="small", systems=SYSTEM_NAMES, workloads=None):
    """The full (system, workload) sweep behind :func:`fig4`."""
    if workloads is None:
        workloads = TASK_PARALLEL + KERNELS + DATA_PARALLEL
    sys_all = list(dict.fromkeys(["1L", *systems]))
    return [RunRequest(s, w, scale) for w in workloads for s in sys_all]


def _normalized_requests(stat_key, scale, workloads, jobs=None):
    res = run_sweep({(w, s): RunRequest(s, w, scale)
                     for w in workloads for s in ("1bDV", *VECTOR_SYSTEMS)},
                    jobs)
    out = {}
    for w in workloads:
        base = res[w, "1bDV"].stats[stat_key]
        out[w] = {s: res[w, s].stats[stat_key] / max(base, 1)
                  for s in VECTOR_SYSTEMS}
    return out


def fig5(scale="small", workloads=None, jobs=None):
    """Instruction-fetch requests normalized to 1bDV (vectorizable apps)."""
    if workloads is None:
        workloads = KERNELS + DATA_PARALLEL
    return _normalized_requests("fetch_requests", scale, workloads, jobs=jobs)


def fig6(scale="small", workloads=None, jobs=None):
    """Data requests to memory normalized to 1bDV."""
    if workloads is None:
        workloads = KERNELS + DATA_PARALLEL
    return _normalized_requests("data_requests", scale, workloads, jobs=jobs)


def fig7(scale="small", workloads=None, jobs=None):
    """Per-lane execution-time breakdown of 1b-4VL under the three
    compute-pipeline configurations (1c, 1c+sw, 2c+sw)."""
    if workloads is None:
        workloads = KERNELS + DATA_PARALLEL
    res = run_sweep({(w, cname): RunRequest("1b-4VL", w, scale, dict(kw))
                     for w in workloads for cname, kw in FIG7_CONFIGS.items()},
                    jobs)
    out = {}
    for (w, cname), r in res.items():
        bd = {
            k.split(".")[-1]: v
            for k, v in r.stats.items()
            if k.startswith("vlittle.lane_stall.")
        }
        bd["cycles"] = r.cycles
        out.setdefault(w, {})[cname] = bd
    return out


def fig8(scale="small", workloads=None, depths=FIG8_DEPTHS, jobs=None):
    """1b-4VL performance vs VMU load/store data-queue depth, normalized to
    the deepest configuration."""
    if workloads is None:
        workloads = KERNELS + DATA_PARALLEL
    res = run_sweep({(w, d): RunRequest("1b-4VL", w, scale,
                                        dict(vmu_loadq=d, vmu_storeq=d))
                     for w in workloads for d in depths}, jobs)
    out = {}
    for w in workloads:
        best = res[w, max(depths)].stats["time_ps"]
        out[w] = {d: best / res[w, d].stats["time_ps"] for d in depths}
    return out


def _dvfs_requests(system, workload, scale, little_levels=LITTLE_LEVELS):
    """``{(system, workload, big, little): RunRequest}`` over the DVFS
    grid."""
    out = {}
    for b in BIG_LEVELS:
        for l in little_levels:
            fb, fl = freqs(b, l)
            out[system, workload, b, l] = RunRequest(
                system, workload, scale, dict(freq_big=fb, freq_little=fl))
    return out


def fig9(scale="small", workloads=None, systems=("1bIV-4L", "1b-4VL"), jobs=None):
    """Speedup over 1L@1GHz at every (big, little) DVFS combination."""
    if workloads is None:
        workloads = DATA_PARALLEL
    reqs = {("1L", w): RunRequest("1L", w, scale) for w in workloads}
    for w in workloads:
        for s in systems:
            reqs.update(_dvfs_requests(s, w, scale))
    res = run_sweep(reqs, jobs)
    out = {}
    for w in workloads:
        base = res["1L", w].stats["time_ps"]
        out[w] = {s: {(b, l): base / res[s, w, b, l].stats["time_ps"]
                      for b in BIG_LEVELS for l in LITTLE_LEVELS}
                  for s in systems}
    return out


def fig10(scale="small", workloads=None, jobs=None):
    """1b-4VL execution time vs estimated power across the DVFS grid,
    plus the per-workload Pareto-optimal points."""
    if workloads is None:
        workloads = DATA_PARALLEL
    reqs = {}
    for w in workloads:
        reqs.update(_dvfs_requests("1b-4VL", w, scale))
    res = run_sweep(reqs, jobs)
    out = {}
    for w in workloads:
        pts = [(res["1b-4VL", w, b, l].stats["time_ps"],
                system_power_w("1b-4VL", b, l), (b, l))
               for b in BIG_LEVELS for l in LITTLE_LEVELS]
        out[w] = {"points": pts, "pareto": pareto_frontier(pts)}
    return out


def fig11(scale="small", workloads=None,
          systems=("1b-4L", "1bIV-4L", "1bDV", "1b-4VL"), jobs=None):
    """All designs' time/power points and the overall Pareto frontier."""
    if workloads is None:
        workloads = DATA_PARALLEL
    little = {s: LITTLE_LEVELS if s != "1bDV" else {"l1": LITTLE_LEVELS["l1"]}
              for s in systems}
    reqs = {}
    for w in workloads:
        for s in systems:
            reqs.update(_dvfs_requests(s, w, scale, little[s]))
    res = run_sweep(reqs, jobs)
    out = {}
    for w in workloads:
        sys_pts = {s: [(res[s, w, b, l].stats["time_ps"],
                        system_power_w(s, b, l), (s, b, l))
                       for b in BIG_LEVELS for l in little[s]]
                   for s in systems}
        allpts = [p for pts in sys_pts.values() for p in pts]
        out[w] = {"points": sys_pts, "pareto": pareto_frontier(allpts)}
    return out


# ------------------------------------------------------------------ printing


def print_fig4(data):
    systems = list(next(iter(data["speedups"].values())))
    print(f"{'workload':16s}" + "".join(f"{s:>10s}" for s in systems))
    for w, row in data["speedups"].items():
        print(f"{w:16s}" + "".join(f"{row[s]:10.2f}" for s in systems))
    for k, v in data["summary"].items():
        print(f"  {k}: {v:.2f}")


def print_normalized(data, title):
    print(title)
    systems = list(next(iter(data.values())))
    print(f"{'workload':16s}" + "".join(f"{s:>10s}" for s in systems))
    for w, row in data.items():
        print(f"{w:16s}" + "".join(f"{row[s]:10.2f}" for s in systems))


def print_fig7(data):
    cats = ["busy", "simd", "raw_mem", "raw_llfu", "struct", "xelem", "misc"]
    for w, cfgs in data.items():
        print(w)
        for cname, bd in cfgs.items():
            total = max(sum(bd.get(c, 0) for c in cats), 1)
            frac = " ".join(f"{c}={bd.get(c, 0) / total:.2f}" for c in cats)
            print(f"  {cname:7s} cycles={bd['cycles']:8d}  {frac}")


def print_fig8(data):
    depths = sorted(next(iter(data.values())))
    print(f"{'workload':16s}" + "".join(f"{d:>8d}" for d in depths))
    for w, row in data.items():
        print(f"{w:16s}" + "".join(f"{row[d]:8.2f}" for d in depths))


def print_fig9(data):
    for w, systems in data.items():
        print(w)
        for s, pts in systems.items():
            print(f"  {s}")
            for b in BIG_LEVELS:
                row = " ".join(f"{pts[(b, l)]:6.2f}" for l in LITTLE_LEVELS)
                print(f"    {b}: {row}")


def print_fig10(data):
    for w, d in data.items():
        tags = [t for _, _, t in d["pareto"]]
        print(f"{w:16s} pareto points (low power -> high perf): {tags}")


def print_fig11(data):
    for w, d in data.items():
        tags = [t for _, _, t in d["pareto"]]
        print(f"{w:16s} frontier: {tags}")
