"""Design-space ablations for the choices DESIGN.md calls out.

Beyond the paper's own sweeps (Fig. 7 chimes/packing, Fig. 8 queue depth),
these ablate the remaining design decisions, the paper's inputs and its
stated future work:

* ``cluster_scaling``   — VLITTLE engines built from 2 / 4 / 8 little cores
  (the paper's conclusion: "future research can explore the scalability of
  big.VLITTLE architectures").
* ``switch_penalty``    — sensitivity to the mode-switch cost (§IV-A's fixed
  500 cycles) as a function of vector-region size.
* ``vxu_topology``      — the pipelined ring (§III-D) vs an idealized
  crossbar (extra latency 0) for cross-element-heavy code.
* ``coalesce_width``    — the VMIU's indexed-coalescing window (§III-E's
  "e.g., four").
* ``dram_bandwidth``    — how much of big.VLITTLE's win survives on a
  bandwidth-starved memory system.
* ``graph_topology``    — Fig. 4's multicore scaling on power-law (rMAT)
  vs uniform graphs.
* ``region_granularity`` — the cost of splitting the same vector work into
  more, shorter vector regions (§III-B's coarse-grained switching).

Each lists its runs as :class:`~repro.experiments.parallel.RunRequest`
objects and takes them from one ``run_sweep`` call, so every ablation is
cached, pooled under ``jobs`` and reported in sweep telemetry like the
figures.
"""

from __future__ import annotations

from repro.experiments.parallel import RunRequest, run_sweep


def cluster_scaling(workload="saxpy", scale="small", sizes=(2, 4, 8), jobs=None):
    """Speedup over 1L of VLITTLE engines with different lane counts.

    The trace is regenerated per size: more lanes -> longer hardware vector
    (VLA code adapts automatically, as on real RVV hardware)."""
    reqs = {"1L": RunRequest("1L", workload, scale)}
    for n in sizes:
        reqs[n] = RunRequest("1b-4VL", workload, scale, dict(n_little=n))
    res = run_sweep(reqs, jobs)
    base = res["1L"].stats["time_ps"]
    return {n: {"vlen_bits": reqs[n].config().vlen_bits(4),
                "speedup": base / res[n].stats["time_ps"]}
            for n in sizes}


def switch_penalty(workload="saxpy", scales=("tiny", "small"),
                   penalties=(0, 500, 2000, 8000), jobs=None):
    """Relative slowdown of 1b-4VL vs zero-cost switching, per region size."""
    res = run_sweep({(s, p): RunRequest("1b-4VL", workload, s,
                                        dict(switch_penalty=p))
                     for s in scales for p in penalties}, jobs)
    out = {}
    for scale in scales:
        base = None
        row = {}
        for p in penalties:
            t = res[scale, p].stats["time_ps"]
            base = base or t
            row[p] = t / base
        out[scale] = row
    return out


def vxu_topology(workload="kmeans", scale="small", latencies=(0, 2, 8), jobs=None):
    """Ring (latency 2) vs crossbar (0) vs a slow serial network (8)."""
    res = run_sweep({lat: RunRequest("1b-4VL", workload, scale,
                                     dict(vxu_extra_latency=lat))
                     for lat in latencies}, jobs)
    base = res[min(latencies)].stats["time_ps"]
    return {lat: r.stats["time_ps"] / base for lat, r in res.items()}


def coalesce_width(workload="particlefilter", scale="small", widths=(1, 2, 4, 8),
                   jobs=None):
    """VMIU indexed-coalescing window sweep (relative performance)."""
    res = run_sweep({wdt: RunRequest("1b-4VL", workload, scale,
                                     dict(coalesce_width=wdt))
                     for wdt in widths}, jobs)
    times = {wdt: r.stats["time_ps"] for wdt, r in res.items()}
    best = min(times.values())
    return {wdt: best / t for wdt, t in times.items()}


def dram_bandwidth(workload="vvadd", scale="small", intervals=(1, 2, 8, 16),
                   jobs=None):
    """1b-4VL vs 1bIV-4L advantage as DRAM bandwidth shrinks
    (line service interval in memory cycles: larger = less bandwidth)."""
    res = run_sweep({(s, iv): RunRequest(s, workload, scale,
                                         dict(mem=dict(dram_line_interval=iv)))
                     for s in ("1b-4VL", "1bIV-4L") for iv in intervals}, jobs)
    return {iv: res["1bIV-4L", iv].stats["time_ps"]
            / res["1b-4VL", iv].stats["time_ps"] for iv in intervals}


def graph_topology(apps=("bfs", "pagerank", "cc"), scale="small", jobs=None):
    """Multicore scaling (1b-4L over 1b) on power-law vs uniform graphs.

    Skewed rMAT degree distributions create load imbalance that random work
    stealing must absorb; uniform graphs parallelize more evenly.  The rMAT
    runs are Fig. 4's own ``1b`` and ``1b-4L`` runs."""
    params = {"rmat": {}, "uniform": {"graph_kind": "uniform"}}
    res = run_sweep({(kind, s, app): RunRequest(s, app, scale,
                                                 params=params[kind])
                     for kind in params for app in apps
                     for s in ("1b", "1b-4L")}, jobs)
    return {kind: {app: res[kind, "1b", app].stats["time_ps"]
                   / res[kind, "1b-4L", app].stats["time_ps"]
                   for app in apps}
            for kind in params}


def region_granularity(scale="small", n_regions=(1, 2, 4, 8),
                       switch_penalty=500, jobs=None):
    """Cost of fine-grained mode switching (§III-B: switching "typically
    happens at a coarse-grained level ... to amortize its overhead").

    The same total vector work (the ``mode_regions`` workload: 1024
    elements at ``tiny``, 2048 at ``small``) split into N regions with a
    mode exit (CSR write + engine drain + re-switch) between them; reported
    as slowdown relative to a single region."""
    res = run_sweep({n: RunRequest("1b-4VL", "mode_regions", scale,
                                   dict(switch_penalty=switch_penalty),
                                   dict(regions=n))
                     for n in n_regions}, jobs)
    base = res[n_regions[0]].stats["time_ps"]
    return {n: r.stats["time_ps"] / base for n, r in res.items()}
