"""OS-level vector-mode scheduling policies (paper §III-B extension).

The paper defers the OS decision of *how* a vector region acquires the
little-core cluster when those cores are busy: "the OS can decide to either
wait, pre-empt processes running on those little cores, or simply allocate a
light-weight integrated vector unit in the big core". This module implements
those three policies as timeline composition over real simulations:

* ``wait`` — the vector region starts once the little cores drain their
  currently running tasks (remaining task work is estimated from the
  task-parallel simulation's critical path).
* ``preempt`` — the little cores are interrupted after a context-save
  penalty; the displaced task work resumes on the cluster after the vector
  region completes.
* ``fallback`` — the vector region runs immediately on the big core's
  integrated 128-bit unit while the little cores keep running tasks
  untouched.

Every policy's ingredients come from cycle-level simulation of the pieces
(tasks on the multicore, vector region on the VLITTLE engine or the IVU);
the policies differ only in how the timelines compose, which is exactly the
scheduling decision the paper leaves open.  The three simulations are one
:func:`~repro.experiments.parallel.run_sweep`, so they are cached and
shared with the figures' runs of the same pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.experiments.parallel import RunRequest, run_sweep

POLICIES = ("wait", "preempt", "fallback")


@dataclass
class ScheduleOutcome:
    policy: str
    vector_start_ps: int  # when the vector region begins executing
    vector_done_ps: int  # when the vector region's results are available
    total_ps: int  # makespan: vector region + all task work complete
    detail: dict


class VectorModeScheduler:
    """Evaluate arrival of a vector region while tasks occupy the cluster."""

    def __init__(self, task_workload, vector_workload, scale="tiny",
                 arrival_fraction=0.5, preempt_penalty=500, resume_penalty=500):
        """``arrival_fraction``: how far through the task program the vector
        request arrives (0 = immediately, 1 = after tasks finish)."""
        if not 0.0 <= arrival_fraction <= 1.0:
            raise ConfigError("arrival_fraction must be in [0, 1]")
        self.task_workload = task_workload
        self.vector_workload = vector_workload
        self.scale = scale
        self.arrival_fraction = arrival_fraction
        self.preempt_penalty = preempt_penalty
        self.resume_penalty = resume_penalty
        self._measurements = None

    # ------------------------------------------------------------ simulation

    def _measure(self):
        if self._measurements is not None:
            return self._measurements
        # tasks on the little cluster (big core is busy issuing the vector
        # region, so tasks run on the four littles via 1b-4L minus the big:
        # approximate with the full multicore — the big core's share is
        # small for the graph apps); the vector region on the VLITTLE
        # engine and on the big core's IVU
        res = run_sweep({
            "task_total_ps": RunRequest("1b-4L", self.task_workload,
                                        self.scale),
            "vector_vlittle_ps": RunRequest("1b-4VL", self.vector_workload,
                                            self.scale),
            "vector_ivu_ps": RunRequest("1bIV", self.vector_workload,
                                        self.scale),
        })
        self._measurements = {k: r.stats["time_ps"] for k, r in res.items()}
        return self._measurements

    # -------------------------------------------------------------- policies

    def evaluate(self, policy):
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}; choose from {POLICIES}")
        m = self._measure()
        arrive = int(m["task_total_ps"] * self.arrival_fraction)
        remaining = m["task_total_ps"] - arrive
        ps = 1000  # 1 GHz cycles -> ps

        if policy == "wait":
            start = arrive + remaining  # drain everything first
            done = start + m["vector_vlittle_ps"]
            total = done
            detail = {"waited_ps": remaining}
        elif policy == "preempt":
            start = arrive + self.preempt_penalty * ps
            done = start + m["vector_vlittle_ps"]
            # displaced task work resumes afterwards
            total = done + self.resume_penalty * ps + remaining
            detail = {"displaced_ps": remaining}
        else:  # fallback to the IVU
            start = arrive
            done = start + m["vector_ivu_ps"]
            # tasks keep running concurrently on the littles
            total = max(done, arrive + remaining)
            detail = {"ivu_slowdown": m["vector_ivu_ps"] / m["vector_vlittle_ps"]}

        return ScheduleOutcome(policy, start, done, total, detail)

    def best(self, objective="vector_done_ps"):
        """Pick the policy minimizing an objective ('vector_done_ps' for
        vector-region latency, 'total_ps' for system makespan)."""
        outcomes = [self.evaluate(p) for p in POLICIES]
        return min(outcomes, key=lambda o: getattr(o, objective))

    def compare(self):
        return {p: self.evaluate(p) for p in POLICIES}
