"""Design-space ablations for the choices DESIGN.md calls out.

Beyond the paper's own sweeps (Fig. 7 chimes/packing, Fig. 8 queue depth),
these ablate the remaining design decisions and the paper's stated future
work:

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
    stealing must absorb; uniform graphs parallelize more evenly."""
    from repro.soc import System, preset
    from repro.workloads import get_workload

    out = {}
    for kind in ("rmat", "uniform"):
        row = {}
        for app in apps:
            w1 = get_workload(app, scale, graph_kind=kind)
            t1 = System(preset("1b")).run(w1.scalar_trace()).stats["time_ps"]
            w2 = get_workload(app, scale, graph_kind=kind)
            t4 = System(preset("1b-4L")).run(w2.task_program()).stats["time_ps"]
            row[app] = t1 / t4
        out[kind] = row
    return out


def region_granularity(scale="small", n_regions=(1, 2, 4, 8), elems=2048,
                       switch_penalty=500, jobs=None):
    """Cost of fine-grained mode switching (§III-B: switching "typically
    happens at a coarse-grained level ... to amortize its overhead").

    The same total vector work split into N regions with a mode exit (CSR
    write + engine drain + re-switch) between them; reported as slowdown
    relative to a single region."""
    from repro.soc import System, preset
    from repro.trace import TraceBuilder, VectorBuilder

    def trace(vlen_bits, n):
        tb = TraceBuilder()
        vb = VectorBuilder(tb, vlen_bits=vlen_bits)
        per = elems // n
        for r in range(n):
            base = 0x100000 + r * 0x40000
            for chunk, vl in vb.strip_mine(base, per, ew=4):
                v = vb.vle(chunk, vl=vl)
                v2 = vb.vfmul(v, v)
                vb.vse(v2, chunk + 0x20000, vl=vl)
            if r != n - 1:
                vb.mode_exit()
                for _ in range(30):
                    tb.addi(None)
        return tb.finish(f"regions-{n}")

    out = {}
    base_t = None
    for n in n_regions:
        cfg = preset("1b-4VL", switch_penalty=switch_penalty)
        t = System(cfg).run(trace(cfg.vlen_bits(4), n)).stats["time_ps"]
        base_t = base_t or t
        out[n] = t / base_t
    return out
