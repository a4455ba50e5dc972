"""Shared pieces of the benchmark: paths, op accounting, spans, digests.

Everything the workloads measure goes through three objects:

* :class:`Ops` counts attempted and failed operations and keeps the
  first few failure messages;
* :class:`Tracer` records spans (name, start, end, parent, request id)
  in memory around calls into the program's layers, and derives each
  layer's self time (its span minus its child spans);
* :func:`stats_digest` fingerprints a run's non-META stats, which the
  benchmark compares against ``reference.json`` to check every output.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout: caches, server roots, traces, results
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

#: every simulated input is the registry's fixed seed-1 input at this scale
SCALE = "tiny"


def ensure_src_on_path():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env():
    """Environment for child processes: the checkout's sources on the
    path and temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = WORK
    env["PYTHONHASHSEED"] = "0"
    return env


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def workers():
    """Worker processes or connections a workload may use: at most
    ``nproc``, and at most 2 so the load is the same on bigger hosts."""
    return min(nproc(), 2)


# ------------------------------------------------------------------ numbers

def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mib():
    """Peak resident set of this process or any child it has waited for
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------- host speed

#: fastest :func:`_calib_kernel` seconds over a run on the reference host
#: (a 2-vCPU x86-64 VM, CPython 3.11)
CALIB_NOMINAL_S = 0.0053


class _Unit:
    __slots__ = ("busy", "done", "queue")

    def __init__(self):
        self.busy = 0
        self.done = 0
        self.queue = []


def _calib_kernel(steps=20000):
    """A fixed pure-Python loop that never touches the program: slotted
    objects, list and dict traffic and integer arithmetic, the mix the
    simulator's tick loops spend their time on."""
    units = [_Unit() for _ in range(8)]
    table = {}
    for t in range(steps):
        u = units[t & 7]
        if u.busy <= t:
            u.queue.append(t)
            if len(u.queue) > 4:
                u.done += u.queue.pop(0)
            u.busy = t + (t * 2654435761 >> 7) % 5
        k = t & 255
        table[k] = table.get(k, 0) + u.busy
    return sum(u.done for u in units) + len(table)


class HostSpeed:
    """How slow the host runs plain Python, relative to the reference host.

    The host's speed drifts by tens of percent for seconds to minutes at a
    time, far more than a later change to the program may move a metric.
    The workloads time the calibration kernel while the program's own
    processes are idle: :meth:`tick` after each op (one timing at most
    every :attr:`EVERY_S`), :meth:`sample` at the end of a pass or round
    and after each set-up. The run's :meth:`factor` is its fastest timing
    over :data:`CALIB_NOMINAL_S`, and CPU-bound end-to-end times are
    divided by it, just as those times are each unit's best of the run.
    (A low percentile instead of the fastest timing tracked calm runs
    slightly better, but in some runs the loop alone slowed 1.7-1.9x while
    the simulations did not.)
    """

    EVERY_S = 0.1

    def __init__(self):
        self.timings = []
        self._last = 0.0

    def sample(self, reps=5):
        for _ in range(reps):
            t0 = time.perf_counter()
            _calib_kernel()
            self._last = time.perf_counter()
            self.timings.append(self._last - t0)

    def tick(self):
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample(1)

    def factor(self):
        if not self.timings:
            self.sample()
        return min(self.timings) / CALIB_NOMINAL_S


#: the run's calibration timings (each run is a process of its own)
HOST = HostSpeed()


def time_child(argv, timeout=120):
    """Seconds from spawning ``argv`` until it prints, as its last line,
    the system-wide monotonic clock at which it was ready (waiting for the
    exit instead would add the interpreter's teardown and the poll
    interval of a timed wait)."""
    t0 = time.monotonic()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe {argv[2:]} exited "
                           f"{proc.returncode}")
    return float(proc.stdout.split()[-1]) - t0


# -------------------------------------------------------------------- digests

def stats_digest(stats):
    """SHA-256 prefix of the stats a run must reproduce exactly: every key
    that :func:`repro.obs.diff.classify` does not mark META (scheduler
    bookkeeping such as executed/skipped tick splits)."""
    from repro.obs.diff import META, classify

    kept = {k: v for k, v in stats.items() if classify(k) != META}
    blob = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def stat_counts(stats):
    """The per-layer counts one run's stats carry (they repeat exactly)."""
    ticks = ("big", "little", "mem")
    return {
        "events.ticks_executed": sum(stats.get(f"sim.ticks_{d}", 0)
                                     for d in ticks),
        "events.ticks_skipped": sum(stats.get(f"sim.ticks_skipped_{d}", 0)
                                    for d in ticks),
        "cores.instrs": sum(v for k, v in stats.items()
                            if k.endswith(".instrs")
                            and k.split(".")[0].startswith(("big", "lit"))),
        "runtime.tasks": stats.get("runtime.tasks", 0),
        "runtime.steals": stats.get("runtime.steals", 0),
        "mem.l2_misses": stats.get("l2_misses", 0),
        "mem.dram_reads": stats.get("dram_reads", 0),
    }


def text_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def pair_id(system, workload):
    return f"{system}/{workload}@{SCALE}"


def load_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ------------------------------------------------------------------- accounting

class Ops:
    """Attempted and failed operations of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def ok(self):
        self.attempted += 1

    def fail(self, msg):
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(str(msg))

    def check(self, cond, msg):
        """Count one op, failed unless ``cond``; returns ``cond``."""
        if cond:
            self.ok()
        else:
            self.fail(msg)
        return cond


# ---------------------------------------------------------------------- spans

class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "idx")

    def __init__(self, tracer, idx):
        self.tracer = tracer
        self.idx = idx

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.idx][2] = time.perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``[name, start, end, parent, rid]`` (perf-counter seconds;
    ``parent`` indexes :attr:`spans`, -1 for a root). Spans are only
    ever written out by :meth:`write_jsonl` after the measurement.
    Aggregate children (the host-time groups ``HostScope`` reports) are
    added with :meth:`add`: they carry a duration inside their parent
    rather than a measured interval. Client threads trace concurrently,
    so each thread keeps its own stack of open spans.
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def _stack(self):
        return self._local.__dict__.setdefault("stack", [])

    def _append(self, rec):
        with self._lock:
            self.spans.append(rec)
            return len(self.spans) - 1

    def span(self, name, rid=None):
        parent = self._stack[-1] if self._stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][4]
        idx = self._append([name, time.perf_counter(), None, parent, rid])
        self._stack.append(idx)
        return _Span(self, idx)

    def add(self, name, duration, rid=None):
        """Record an aggregate child of the open span lasting ``duration``
        seconds."""
        parent = self._stack[-1] if self._stack else -1
        start = self.spans[parent][1] if parent >= 0 else time.perf_counter()
        self._append([name, start, start + max(duration, 0.0), parent, rid,
                      True])

    def self_times(self):
        """``{span name: summed self seconds}``; a span's self time is its
        duration minus its children's durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0 and s[2] is not None:
                child[s[3]] += s[2] - s[1]
        out = {}
        for i, s in enumerate(self.spans):
            if s[2] is None:
                continue
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - child[i]
        return out

    def totals(self):
        """``{span name: summed inclusive seconds}``."""
        out = {}
        for s in self.spans:
            if s[2] is not None:
                out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1])
        return out

    def write_jsonl(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[0], "start_s": round(s[1] - t0, 6),
                       "end_s": round((s[2] or s[1]) - t0, 6),
                       "parent": s[3], "rid": s[4]}
                if len(s) > 5:
                    rec["aggregate"] = True
                f.write(json.dumps(rec) + "\n")


def span(tracer, name, rid=None):
    """``tracer.span(...)`` or a no-op context when tracing is off."""
    return tracer.span(name, rid) if tracer is not None else _NULL


def coverage(tracer, root_name, layer_prefixes):
    """Share of the ``root_name`` spans' wall time that layer spans'
    self times account for."""
    wall = tracer.totals().get(root_name, 0.0)
    if wall <= 0:
        return 0.0
    selfs = tracer.self_times()
    covered = sum(v for k, v in selfs.items()
                  if k.split(".", 1)[0] in layer_prefixes)
    return covered / wall
