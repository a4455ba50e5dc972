"""Content-addressed artifact store for the sweep service.

Artifacts are files derived from one cached run, stored under
``<root>/<key>/<filename>``, keyed by the same config hash as the result
cache entry ``<cache_dir>/<key>.json`` they derive from.  Because the key
pins the full canonical config, the workload, and the simulator version,
an artifact never goes stale: once written it is served as raw bytes
forever (level ``artifact``).

Two artifact classes exist, mirroring :mod:`repro.service.schemas`:

* **derived** (``stats``, ``result``, ``summary``, ``stall.svg``) —
  pure functions of the cached :class:`RunResult`; generated on first
  ``GET`` (level ``generated``), persisted, and served from disk after.
  The ``stats`` artifact is the canonical ``bigvlittle-run-v1`` dump
  of the plain cached run: :func:`repro.obs.diff.dump_result` of it,
  byte for byte, which is what ``tools/service_smoke.py`` compares it
  with.  It is *not* ``bigvlittle profile --json`` of the same config:
  that dump adds ``workload``, ``scale``, ``phases`` and the ``obs.*``
  stats, and its sampler can move the six ``sim.ticks_*`` values.  Both
  are inputs of ``bigvlittle diff``.
* **simulated** (``timeline``, ``phases``) — require one instrumented
  simulation (an :class:`IntervalSampler` run).  Workers generate them
  when the submit body asks (``"artifacts": ["timeline", "phases"]``):
  the run happens on the worker pool's simulation processes
  (:func:`render_timeline`), and ``phases`` derives from its timeline
  dump with *no* second simulation.  ``GET`` never simulates: an absent
  simulated artifact is a 404 with a hint, keeping the serving hot path
  pure cache.

Every file lands through :meth:`ArtifactStore.put_bytes`, which writes
with the result cache's :func:`~repro.experiments.cache.write_atomic`
(temp file + rename), so a reader sees a whole artifact or none.
"""

from __future__ import annotations

import json
import os

from repro.experiments.cache import write_atomic
from repro.obs.diff import dump_result
from repro.service.schemas import SERVICE_SCHEMA, SIMULATED_ARTIFACTS

#: artifact name -> (filename, content type)
ARTIFACT_FILES = {
    "stats": ("stats.json", "application/json"),
    "result": ("result.json", "application/json"),
    "summary": ("summary.json", "application/json"),
    "stall.svg": ("stall.svg", "image/svg+xml"),
    "timeline": ("timeline.json", "application/json"),
    "phases": ("phases.json", "application/json"),
}

#: default sampler interval for worker-generated timelines (cycles)
TIMELINE_INTERVAL = 100


# ------------------------------------------------------------------ renderers

def render_stats(result):
    """Canonical run dump: ``dump_result`` of the plain run, serialized
    deterministically (no host timing)."""
    doc = dump_result(result)
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def render_result(result):
    """The full ``RunResult.to_dict()`` round-trip form — includes the
    host-side ``timing`` block, so unlike ``stats`` it is *not*
    byte-deterministic across machines."""
    return (json.dumps(result.to_dict(), indent=1, sort_keys=True)
            + "\n").encode("utf-8")


def render_summary(result, key):
    doc = {
        "schema": SERVICE_SCHEMA,
        "key": key,
        "name": result.name,
        "system": result.system,
        "cycles": result.cycles,
        "time_ps": result.stats.get("time_ps"),
        "instrs": sum(v for k, v in result.stats.items()
                      if k.endswith(".instrs")),
    }
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def render_stall_svg(result):
    """Fig.-7-style stacked stall bars per unit, from the run's own
    ``<unit>.stall.<category>`` counters (present on every cached result —
    no observability attachment needed)."""
    from repro.experiments.svgplot import stacked_bars

    per_unit = {}
    for stat, value in sorted(result.stats.items()):
        parts = stat.split(".stall.")
        if len(parts) == 2 and value:
            per_unit.setdefault(parts[0], {})[parts[1]] = value
    categories = sorted({c for cats in per_unit.values() for c in cats})
    data = {unit: {"cycles": cats} for unit, cats in per_unit.items()}
    if not data:  # a run with zero recorded stalls still gets a valid SVG
        data = {"(no stalls)": {"cycles": {}}}
        categories = ["none"]
    svg = stacked_bars(data, categories,
                       title=f"{result.system}/{result.name} stall cycles")
    return svg.render().encode("utf-8")


DERIVED_RENDERERS = {
    "stats": lambda result, key: render_stats(result),
    "result": lambda result, key: render_result(result),
    "summary": render_summary,
    "stall.svg": lambda result, key: render_stall_svg(result),
}


def _json_bytes(doc):
    """``doc`` serialized byte for byte as the observability dumps'
    ``to_json`` writes it."""
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def simulate_timeline(run_spec, interval=TIMELINE_INTERVAL):
    """One fresh instrumented run of ``run_spec`` returning the sampler.

    This is the only simulation the artifact layer ever performs, and only
    for submit bodies that request ``timeline`` / ``phases``; the HTTP GET
    path never reaches here.  The run goes through
    :func:`repro.experiments.runner.simulate`, the one recipe every
    simulation uses, with an :class:`IntervalSampler` attached.
    """
    from repro.experiments.parallel import RunRequest
    from repro.experiments.runner import simulate
    from repro.obs import IntervalSampler, Observation

    req = RunRequest(**run_spec)
    obs = Observation(sampler=IntervalSampler(interval=interval))
    simulate(req.config(), req.workload, req.scale, obs=obs)
    return obs.sampler


def render_timeline(run_spec):
    """The ``timeline`` artifact of ``run_spec``: a :func:`simulate_timeline`
    run dumped as :meth:`IntervalSampler.to_json` writes it.  The worker
    pool runs this in a simulation process and stores the bytes."""
    return _json_bytes(simulate_timeline(run_spec).as_dict())


class ArtifactStore:
    """Per-key artifact files with atomic writes."""

    def __init__(self, root):
        self.root = root
        self.generated = 0   # artifacts rendered this process
        self.served = 0      # artifact files served from disk

    def dir_for(self, key):
        """Directory of ``key``'s artifacts: ``<root>/<key>/``."""
        return os.path.join(self.root, key)

    def path_for(self, key, name):
        filename, _ = ARTIFACT_FILES[name]
        return os.path.join(self.dir_for(key), filename)

    def content_type(self, name):
        return ARTIFACT_FILES[name][1]

    def get_bytes(self, key, name):
        """Raw bytes of a persisted artifact, or ``None``."""
        try:
            with open(self.path_for(key, name), "rb") as f:
                data = f.read()
        except OSError:
            return None
        self.served += 1
        return data

    def put_bytes(self, key, name, data):
        """Persist one artifact atomically (temp + rename, like the cache)."""
        target = self.path_for(key, name)
        write_atomic(target, data)
        return target

    def ensure_derived(self, key, name, result):
        """Bytes of a derived artifact, generating and persisting on first
        touch; returns ``(data, level)`` with level ``artifact`` (disk) or
        ``generated`` (first render)."""
        data = self.get_bytes(key, name)
        if data is not None:
            return data, "artifact"
        data = DERIVED_RENDERERS[name](result, key)
        self.put_bytes(key, name, data)
        self.generated += 1
        return data, "generated"

    def timeline_due(self, key, names):
        """Whether serving ``names`` for ``key`` needs a timeline run: a
        simulated artifact is asked for and no timeline is stored yet."""
        return (any(n in SIMULATED_ARTIFACTS for n in names)
                and not os.path.exists(self.path_for(key, "timeline")))

    def generate_simulated(self, key, names, timeline):
        """Worker-side persistence of the simulation-backed artifacts.

        ``timeline`` is the :func:`render_timeline` dump the worker had
        simulated because :meth:`timeline_due` said so, or ``None`` when
        a timeline is already stored.  ``phases`` is detected *from that
        dump* (or from the stored one), so asking for both costs one run
        and re-asking costs zero.
        """
        written = []
        tl_path = self.path_for(key, "timeline")
        if timeline is not None and not os.path.exists(tl_path):
            self.put_bytes(key, "timeline", timeline)
            self.generated += 1
            written.append("timeline")
        if "phases" in names and not os.path.exists(
                self.path_for(key, "phases")):
            from repro.obs.phases import detect_phases
            from repro.obs.sampler import load_timeline

            doc = (json.loads(timeline) if timeline is not None
                   else load_timeline(tl_path))
            self.put_bytes(key, "phases",
                           _json_bytes(detect_phases(doc).as_dict()))
            self.generated += 1
            written.append("phases")
        return written

    def available(self, key):
        """Artifact names already persisted for ``key``."""
        present = []
        for name, (filename, _) in ARTIFACT_FILES.items():
            if os.path.exists(os.path.join(self.dir_for(key), filename)):
                present.append(name)
        return sorted(present)

    def stats(self):
        files = size = 0
        if os.path.isdir(self.root):
            for dirpath, _dirnames, filenames in os.walk(self.root):
                for fn in filenames:
                    if fn.endswith(".tmp"):
                        continue
                    files += 1
                    try:
                        size += os.path.getsize(os.path.join(dirpath, fn))
                    except OSError:
                        pass
        return {"root": self.root, "files": files, "bytes": size,
                "generated": self.generated, "served": self.served}
