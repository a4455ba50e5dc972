#!/usr/bin/env python3
"""OS scheduling of on-demand vector mode (paper §III-B's open question).

A vector region (saxpy) arrives while the little cores are busy running a
task-parallel job (pagerank). The OS can wait for the cores, preempt them,
or fall back to the big core's integrated vector unit. This example
evaluates all three policies at two vector-region sizes, showing why the
paper advocates coarse-grained switching: small regions cannot amortize the
mode-switch cost and belong on the IVU.
"""

from repro.experiments.scheduler import POLICIES, VectorModeScheduler


def show(scale):
    s = VectorModeScheduler("pagerank", "saxpy", scale=scale, arrival_fraction=0.5)
    m = s._measure()
    print(f"vector region size: scale={scale} "
          f"(VLITTLE run = {m['vector_vlittle_ps'] // 1000} cycles)")
    print(f"{'policy':10s} {'vector done (us)':>18s} {'makespan (us)':>15s}")
    for p in POLICIES:
        o = s.evaluate(p)
        print(f"{p:10s} {o.vector_done_ps / 1e6:18.1f} {o.total_ps / 1e6:15.1f}")
    best = s.best("vector_done_ps")
    print(f"-> lowest vector latency: {best.policy}\n")


def main():
    show("tiny")   # small region: the IVU fallback should win
    show("small")  # large region: preempting for the VLITTLE engine wins


if __name__ == "__main__":
    main()
