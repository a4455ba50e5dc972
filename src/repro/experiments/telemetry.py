"""Structured sweep telemetry: what did the harness *do*, and when?

A :class:`SweepTelemetry` collects the experiment harness's run-level
events — sweep started/finished, per-request cache hits and misses,
individual simulations starting and ending, worker-busy spans — as an
append-only JSONL log (one ``{"ts", "ev", ...fields}`` object per line)
plus an in-memory record, and can export the worker-busy spans as a
Chrome ``trace_event`` JSON with **one track per worker process**
(Perfetto-loadable, like the simulator's own :mod:`repro.obs.tracer`
output — but here the tracks are host processes, not simulated units).

Event vocabulary (all carry ``ts``, wall-clock seconds since the epoch):

========== ===========================================================
``sweep_start``   ``requests``, ``jobs``, ``sim_version``
``cache_hit``     ``key``, ``level`` (``memory``/``disk``), ``load_wall_s``
``cache_miss``    ``key``
``cache_corrupt`` ``key``, ``path``
``run_start``     ``key``, ``system``, ``workload``, ``scale``,
                  ``sim_version``
``run_end``       ``key``, ``wall_s``, ``sim_wall_s``, ``load_wall_s``,
                  ``level`` (``fresh``/``disk``), ``cycles``
``worker_busy``   ``worker``, ``label``, ``t_start``, ``t_end``, ``dur_s``
``sweep_end``     the runner's summary dict
``job_enqueued``  ``job``, ``runs``, ``keys`` (sweep-service submit)
``job_start``     ``job``, ``worker`` (a service worker claimed the job)
``job_done``      ``job``, ``ok``, ``levels`` (per-key cache-hit levels)
``job_retry``     ``job``, ``attempt``, ``error``, ``backoff_s``
========== ===========================================================

The ``job_*`` family is emitted by :mod:`repro.service.jobs` on exactly
the branches that bump the queue's own counters (``enqueued`` /
``started`` / ``done`` + ``failed`` / ``retried``), the same contract
the ``cache_*`` events keep with :meth:`ResultCache.stats` — a service
telemetry log reconciles with ``JobQueue.counters`` to the event.

Telemetry is a process-global opt-in, mirroring the cache:
:func:`enable` installs a sink, :func:`current` is what the cache /
runner / job queue consult (``None`` when disabled — the common case
costs one module-attribute read per branch). Worker processes spawned by
the parallel runner call :func:`disable` first thing: on fork-start
platforms they inherit the parent's enabled telemetry, and the parent
emits each run's events from the worker's returned timing payload.
"""

from __future__ import annotations

import json
import time

#: event names a well-formed sweep log may contain
EVENTS = ("sweep_start", "cache_hit", "cache_miss", "cache_corrupt",
          "run_start", "run_end", "worker_busy", "sweep_end",
          "job_enqueued", "job_start", "job_done", "job_retry")


class SweepTelemetry:
    """One sweep's structured event log (JSONL sink + in-memory record)."""

    __slots__ = ("path", "_f", "events", "counts", "spans")

    def __init__(self, path=None):
        self.path = path
        self._f = open(path, "a", encoding="utf-8") if path else None
        self.events = []   # every event dict, in emit order
        self.counts = {}   # event name -> occurrences
        self.spans = []    # worker-busy spans for the Chrome trace

    # ------------------------------------------------------------- recording

    def event(self, ev, ts=None, **fields):
        """Record one event, stamped ``ts`` or now (and append it to the
        JSONL sink, if any)."""
        rec = {"ts": round(time.time() if ts is None else ts, 6), "ev": ev}
        rec.update(fields)
        self.events.append(rec)
        self.counts[ev] = self.counts.get(ev, 0) + 1
        if self._f is not None:
            self._f.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
            self._f.flush()
        return rec

    def span(self, worker, label, t_start, t_end, **fields):
        """Record one worker-busy interval (absolute epoch seconds)."""
        self.spans.append({"worker": str(worker), "label": label,
                           "t_start": t_start, "t_end": t_end})
        return self.event("worker_busy", worker=str(worker), label=label,
                          t_start=round(t_start, 6), t_end=round(t_end, 6),
                          dur_s=round(t_end - t_start, 6), **fields)

    def busy_s(self):
        """Total worker-busy seconds across all recorded spans."""
        return sum(s["t_end"] - s["t_start"] for s in self.spans)

    # --------------------------------------------------------------- exports

    def chrome_trace(self):
        """The sweep as Chrome ``trace_event`` JSON: one ``sweep`` process,
        one thread (track) per distinct worker, X (complete) events in
        microseconds relative to the first span."""
        events = []
        workers = sorted({s["worker"] for s in self.spans})
        tids = {w: i + 1 for i, w in enumerate(workers)}
        events.append({"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                       "args": {"name": "sweep"}})
        for w, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": f"worker {w}"}})
        t0 = min((s["t_start"] for s in self.spans), default=0.0)
        for s in self.spans:
            events.append({
                "name": s["label"], "ph": "X", "pid": 1,
                "tid": tids[s["worker"]],
                "ts": round((s["t_start"] - t0) * 1e6, 1),
                "dur": round((s["t_end"] - s["t_start"]) * 1e6, 1),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path):
        doc = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
            f.write("\n")
        return len(doc["traceEvents"])

    def close(self):
        if self._f is not None:
            self._f.close()
            self._f = None

    def __repr__(self):
        return (f"<SweepTelemetry events={len(self.events)} "
                f"spans={len(self.spans)} path={self.path!r}>")


# ------------------------------------------------------------ process global

_current = None


def enable(path=None):
    """Install a fresh process-wide telemetry sink; returns it."""
    global _current
    if _current is not None:
        _current.close()
    _current = SweepTelemetry(path=path)
    return _current


def disable():
    """Close and remove the process-wide sink (workers call this first)."""
    global _current
    if _current is not None:
        _current.close()
    _current = None


def current():
    """The active :class:`SweepTelemetry`, or ``None`` when disabled."""
    return _current


def load_jsonl(path):
    """Parse a telemetry JSONL log back into a list of event dicts
    (corrupt or truncated lines are skipped, mirroring the cache's
    tolerance for damaged files)."""
    events = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "ev" in rec:
                events.append(rec)
    return events
