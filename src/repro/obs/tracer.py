"""Structured event tracer with Chrome ``trace_event`` export.

Events are timestamped in simulated picoseconds and stored in a bounded
ring buffer (oldest events are dropped once ``max_events`` is reached, so
an instrumented run can never exhaust host memory).  Each component logs
onto its own *track*; tracks are grouped into processes (``cores``,
``vector``, ``mem``) so Perfetto / ``chrome://tracing`` renders one lane
per component.

On export, timestamps are divided by 1000 (1 viewer microsecond == 1
simulated nanosecond == one cycle at 1 GHz), which keeps the JSON integer
and the viewer's time axis readable.
"""

from __future__ import annotations

import json
from collections import deque

# event kinds (match Chrome trace_event "ph" phases)
_BEGIN = "B"
_END = "E"
_INSTANT = "i"
_COMPLETE = "X"
_COUNTER = "C"

#: divide sim-picosecond timestamps by this for export (ps -> ns)
TS_DIVISOR = 1000


class Tracer:
    """Bounded structured event log with per-component tracks."""

    __slots__ = ("max_events", "events", "dropped", "_tracks", "_pids")

    def __init__(self, max_events=1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self.events = deque(maxlen=max_events)
        self.dropped = 0
        self._tracks = {}  # name -> (pid, tid)
        self._pids = {}  # process name -> pid

    # ---------------------------------------------------------------- tracks

    def track(self, name, process="sim"):
        """Register (or look up) a track; returns its name as the handle."""
        if name not in self._tracks:
            pid = self._pids.setdefault(process, len(self._pids) + 1)
            tid = 1 + sum(1 for p, _ in self._tracks.values() if p == pid)
            self._tracks[name] = (pid, tid)
        return name

    # ---------------------------------------------------------------- events

    def _push(self, ev):
        if len(self.events) == self.max_events:
            self.dropped += 1
        self.events.append(ev)

    def instant(self, track, name, ts, args=None):
        self._push((_INSTANT, track, name, ts, 0, args))

    def begin(self, track, name, ts, args=None):
        self._push((_BEGIN, track, name, ts, 0, args))

    def end(self, track, name, ts):
        self._push((_END, track, name, ts, 0, None))

    def complete(self, track, name, ts, dur, args=None):
        """A span with a known duration (Chrome "X" event)."""
        self._push((_COMPLETE, track, name, ts, dur, args))

    def counter(self, track, name, ts, value):
        """A sampled counter series (Chrome "C" event)."""
        self._push((_COUNTER, track, name, ts, 0, value))

    def __len__(self):
        return len(self.events)

    # ---------------------------------------------------------------- export

    def chrome_trace(self):
        """The full trace as a Chrome ``trace_event`` JSON object."""
        out = []
        for process, pid in sorted(self._pids.items(), key=lambda kv: kv[1]):
            out.append({"ph": "M", "pid": pid, "tid": 0,
                        "name": "process_name", "args": {"name": process}})
        for name, (pid, tid) in self._tracks.items():
            out.append({"ph": "M", "pid": pid, "tid": tid,
                        "name": "thread_name", "args": {"name": name}})
        for ph, track, name, ts, dur, payload in self.events:
            pid, tid = self._tracks[track]
            ev = {"ph": ph, "pid": pid, "tid": tid, "name": name,
                  "ts": ts // TS_DIVISOR, "cat": "sim"}
            if ph == _COMPLETE:
                ev["dur"] = max(dur // TS_DIVISOR, 1)
            if ph == _INSTANT:
                ev["s"] = "t"  # thread-scoped instant
            if ph == _COUNTER:
                ev["args"] = {"value": payload}
            elif payload is not None:
                ev["args"] = payload
            out.append(ev)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ns",
            "otherData": {
                "source": "repro big.VLITTLE simulator",
                "time_unit": "1 trace us = 1 simulated ns (1 cycle at 1 GHz)",
                "events": len(self),
                "max_events": self.max_events,
                "dropped_events": self.dropped,
            },
        }

    def write_json(self, path):
        """Write the Chrome trace to ``path``; returns the event count."""
        doc = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
        return len(doc["traceEvents"])
