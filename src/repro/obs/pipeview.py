"""Instruction-grain pipeline lifecycle tracking (``repro.obs.pipeview``).

Every dynamic instruction — scalar and vector, plus the VCU's per-element-
group µops, the VMU's line requests, and the VXU's cross-element ops — gets
a :class:`PipeRecord` carrying begin timestamps for each pipeline stage it
passes through (fetch, issue, complete, VCU queue, broadcast, lane execute,
VMSU/L1 access, ring rotate, …). Records are exported in two formats that
standard pipeline viewers open directly:

* **Kanata** text (``write_kanata``) — the native log format of the
  `Konata <https://github.com/shioyadan/Konata>`_ pipeline visualizer;
* **gem5 O3PipeView** text (``write_o3pipeview``) — consumed by Konata and
  by gem5's ``util/o3-pipeview.py``.

Timestamps are simulated picoseconds; Kanata cycles are reported at the
1 GHz reference clock (1 cycle = 1000 ps), matching the Chrome-trace
convention of :mod:`repro.obs.tracer`. Retired records live in a bounded
ring (``window`` newest instructions); older records drop and are counted
in ``dropped``, mirroring the Tracer's ring-buffer accounting, so tracking
a long run can never exhaust host memory.

The layer is opt-in *on top of* the opt-in Observation: pass
``Observation(pipeview=PipeView())``. Every hook site in the simulator is
gated on a class-level ``_pv is None`` check, so an Observation without a
PipeView does zero per-instruction work (the pipeview guard in
``benchmarks/guards.py`` enforces this).
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError

#: 1 Kanata cycle == this many simulated picoseconds (1 GHz reference).
PS_PER_CYCLE = 1000

KANATA_HEADER = "Kanata\t0004"

#: Stage mnemonics used by the simulator's hook sites (left = short name
#: shown by Konata). Kept in one place so exports and docs stay in sync.
STAGES = {
    "F": "fetch / dispatch into the ROB or issue stage",
    "Is": "issued to a functional unit",
    "X": "single-cycle in-order execute",
    "Cp": "result complete / writeback",
    "VD": "handed from the ROB head to the decoupled vector engine",
    "Q": "buffered in a command / µop queue",
    "Bc": "µop broadcast from the VCU to the lanes",
    "Lx": "lane execute",
    "VM": "line request issued by the VMIU",
    "L1": "L1D slice access",
    "SQ": "store line waiting in the VMSU store queue",
    "Gt": "VXU gathering source elements",
    "Rt": "VXU ring rotating",
}

#: Mapping from simulator stage mnemonics onto gem5's fixed O3 stage set.
_O3_MAP = {
    "F": "fetch",
    "Ds": "dispatch",
    "VD": "dispatch",
    "Is": "issue",
    "X": "issue",
    "Cp": "complete",
    "Q": "fetch",
    "Bc": "dispatch",
    "Lx": "issue",
    "VM": "fetch",
    "SQ": "dispatch",
    "L1": "issue",
    "Gt": "fetch",
    "Rt": "issue",
}

_O3_STAGES = ("decode", "rename", "dispatch", "issue", "complete")


class PipeRecord:
    """Lifecycle of one dynamic instruction / µop / line request."""

    __slots__ = ("pvid", "unit", "label", "pc", "stages", "end", "parent", "seq")

    def __init__(self, pvid, unit, label, pc, stage, ts, parent, seq):
        self.pvid = pvid
        self.unit = unit
        self.label = label
        self.pc = pc
        self.stages = [(stage, ts)]
        self.end = None
        self.parent = parent  # producing PipeRecord (dependency edge) or None
        self.seq = seq  # vector sequence id, for µop -> instruction linking

    @property
    def start(self):
        return self.stages[0][1]

    def __repr__(self):
        state = "live" if self.end is None else f"end={self.end}"
        return f"<PipeRecord #{self.pvid} {self.unit} {self.label!r} {state}>"


class PipeView:
    """Bounded per-instruction pipeline tracker with Konata/O3 export."""

    __slots__ = ("window", "_live", "_done", "_seq2rec", "_next_id",
                 "dropped", "retired")

    def __init__(self, window=50_000):
        if window < 1:
            raise ConfigError("pipeview window must be >= 1")
        self.window = window
        self._live = {}  # pvid -> PipeRecord still in flight
        self._done = deque(maxlen=window)
        self._seq2rec = {}  # vector seq -> dispatching core's record
        self._next_id = 0
        self.dropped = 0
        self.retired = 0

    # -------------------------------------------------------------- recording

    def begin(self, unit, label, ts, stage="F", pc=0, seq=None, parent=None):
        """Open a record in stage ``stage`` at simulated-ps ``ts``."""
        rec = PipeRecord(self._next_id, unit, label, pc, stage, ts, parent, seq)
        self._next_id += 1
        self._live[rec.pvid] = rec
        if seq is not None:
            self._seq2rec[seq] = rec
        return rec

    def stage(self, rec, name, ts):
        """Advance ``rec`` into stage ``name``; the previous stage ends here."""
        rec.stages.append((name, ts))

    def retire(self, rec, ts):
        """Close the record; it enters the bounded retired ring."""
        rec.end = ts
        self._live.pop(rec.pvid, None)
        if rec.seq is not None:
            self._seq2rec.pop(rec.seq, None)
        if len(self._done) == self.window:
            self.dropped += 1
        self._done.append(rec)
        self.retired += 1

    def seq_record(self, seq):
        """The in-flight record of the vector instruction with this seq id."""
        return self._seq2rec.get(seq)

    def __len__(self):
        return len(self._done) + len(self._live)

    # ---------------------------------------------------------------- folding

    def stats_dict(self):
        """Deterministic ints, merged under ``obs.pipeview.*`` in stats."""
        return {
            "obs.pipeview.records": self.retired + len(self._live),
            "obs.pipeview.retired": self.retired,
            "obs.pipeview.dropped": self.dropped,
            "obs.pipeview.window": self.window,
        }

    # ----------------------------------------------------------------- export

    def _export_records(self):
        """Retired + still-live records in start-time order."""
        recs = [*self._done, *self._live.values()]
        recs.sort(key=lambda r: (r.start, r.pvid))
        return recs

    @staticmethod
    def _end_of(rec):
        last_stage_ts = rec.stages[-1][1]
        end = rec.end if rec.end is not None else last_stage_ts
        return max(end, last_stage_ts, rec.start)

    def kanata_lines(self, lane=None):
        """The trace as Kanata log lines (Konata's native format).

        With ``lane`` (a :func:`lane_of` group name) only that unit
        group's records are exported — one self-contained log per lane,
        each with its own ``Kanata`` header. Cross-lane dependency
        edges are dropped with the records they point at; within-lane
        edges survive.
        """
        recs = self._export_records()
        if lane is not None:
            recs = [r for r in recs if lane_of(r.unit) == lane]
        fid = {r.pvid: i for i, r in enumerate(recs)}
        events = []  # (cycle, emit order, text)
        n = 0

        def emit(cycle, text):
            nonlocal n
            events.append((cycle, n, text))
            n += 1

        for i, r in enumerate(recs):
            start_c = r.start // PS_PER_CYCLE
            end_c = max(self._end_of(r) // PS_PER_CYCLE, start_c)
            emit(start_c, f"I\t{i}\t{i}\t0")
            emit(start_c, f"L\t{i}\t0\t{_clean(r.label)}")
            emit(start_c, f"L\t{i}\t1\t{_clean(r.unit)} pc={r.pc:#x} start={r.start}ps")
            if r.parent is not None and r.parent.pvid in fid:
                emit(start_c, f"W\t{i}\t{fid[r.parent.pvid]}\t0")
            prev = None
            for name, ts in r.stages:
                c = min(max(ts // PS_PER_CYCLE, start_c), end_c)
                if prev is not None:
                    emit(c, f"E\t{i}\t0\t{prev}")
                emit(c, f"S\t{i}\t0\t{name}")
                prev = name
            emit(end_c, f"E\t{i}\t0\t{prev}")
            emit(end_c, f"R\t{i}\t{i}\t0")

        events.sort(key=lambda e: (e[0], e[1]))
        lines = [KANATA_HEADER]
        cur = events[0][0] if events else 0
        lines.append(f"C=\t{cur}")
        for c, _, text in events:
            if c > cur:
                lines.append(f"C\t{c - cur}")
                cur = c
            lines.append(text)
        return lines

    def o3_lines(self):
        """The trace as gem5 ``O3PipeView:`` lines."""
        lines = []
        for i, r in enumerate(self._export_records()):
            mapped = {}
            for name, ts in r.stages:
                o3 = _O3_MAP.get(name)
                if o3 is not None and o3 not in mapped:
                    mapped[o3] = ts
            start = mapped.pop("fetch", r.start)
            lines.append(
                f"O3PipeView:fetch:{start}:0x{r.pc:08x}:0:{i}:{_clean(r.label, o3=True)}")
            last = start
            for st in _O3_STAGES:
                last = max(mapped.get(st, last), last)
                lines.append(f"O3PipeView:{st}:{last}")
            end = max(self._end_of(r), last)
            lines.append(f"O3PipeView:retire:{end}:store:0")
        return lines

    def lanes(self):
        """Sorted lane-group names with at least one record."""
        return sorted({lane_of(r.unit) for r in self._export_records()})

    def write_kanata(self, path):
        """Write the Kanata log to ``path``; returns the record count."""
        lines = self.kanata_lines()
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines))
            f.write("\n")
        return len(self)

    def write_kanata_lanes(self, prefix):
        """Write one Kanata log per unit-group lane.

        Konata renders one flat id space per file, so a combined log
        interleaves big-core ROB entries with VCU µops and VMU line
        requests; splitting by :func:`lane_of` group gives one viewer
        tab per machine layer. Files are named
        ``<prefix>.<lane>.kanata``; returns ``{lane: path}`` for the
        non-empty lanes.
        """
        out = {}
        for lane in self.lanes():
            path = f"{prefix}.{lane}.kanata"
            with open(path, "w", encoding="utf-8") as f:
                f.write("\n".join(self.kanata_lines(lane=lane)))
                f.write("\n")
            out[lane] = path
        return out

    def write_o3pipeview(self, path):
        """Write gem5 O3PipeView lines to ``path``; returns the record count."""
        with open(path, "w", encoding="utf-8") as f:
            for line in self.o3_lines():
                f.write(line)
                f.write("\n")
        return len(self)


def lane_of(unit):
    """Konata lane group for a hook-site unit name: core pipelines
    (big ROBs and little in-order pipes), engine µops (VCU / DVE
    command streams, lane executes, VXU ring ops), or memory-side line
    requests (the VMU's VMIU/VMSU traffic)."""
    if unit.startswith(("big", "lit")):
        return "cores"
    if unit == "vmu":
        return "mem"
    return "engine"


def _clean(text, o3=False):
    """Labels must not carry the format's structural characters."""
    text = str(text).replace("\t", " ").replace("\n", " ")
    if o3:
        text = text.replace(":", ";")
    return text
