#!/usr/bin/env python3
"""Voltage/frequency design-space exploration (paper §VII, Figs. 9-11).

Sweeps the 4x4 (big, little) DVFS grid for one application on big.VLITTLE,
prints the performance heatmap and the Pareto-optimal operating points, and
contrasts against the decoupled-engine design's power floor.
"""

import sys

from repro.experiments import run_pair
from repro.power import BIG_LEVELS, LITTLE_LEVELS, freqs, pareto_frontier, system_power_w


def main():
    app = sys.argv[1] if len(sys.argv) > 1 else "blackscholes"
    scale = sys.argv[2] if len(sys.argv) > 2 else "tiny"
    base = run_pair("1L", app, scale).stats["time_ps"]

    print(f"{app}: 1b-4VL speedup over 1L@1GHz across the DVFS grid\n")
    print("          " + "".join(f"{l:>8s}" for l in LITTLE_LEVELS))
    points = []
    for b in BIG_LEVELS:
        row = []
        for l in LITTLE_LEVELS:
            fb, fl = freqs(b, l)
            t = run_pair("1b-4VL", app, scale, freq_big=fb,
                         freq_little=fl).stats["time_ps"]
            row.append(base / t)
            points.append((t, system_power_w("1b-4VL", b, l), (b, l)))
        print(f"  {b:>4s}    " + "".join(f"{v:8.2f}" for v in row))

    print("\nPareto-optimal (time, power) points — slow big + fast little wins:")
    for t, w, (b, l) in pareto_frontier(points):
        fb, fl = freqs(b, l)
        print(f"  big {fb:.1f} GHz / little {fl:.1f} GHz: "
              f"{base / t:5.2f}x at {w:.2f} W")

    dv_min = min(system_power_w("1bDV", b) for b in BIG_LEVELS)
    print(f"\n1bDV power floor: {dv_min:.2f} W — infeasible in the <1 W region "
          "(paper Fig. 11)")


if __name__ == "__main__":
    main()
