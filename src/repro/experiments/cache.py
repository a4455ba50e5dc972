"""Persistent result cache for the experiment harness.

Every run ``ParallelRunner`` resolves (``run_pair``'s too) is memoized twice:

* **in memory** — a per-process dict, so repeated lookups within one harness
  invocation return the *same* :class:`RunResult` object, and
* **on disk** — one JSON file per result under ``results/cache/`` (override
  with ``$BIGVLITTLE_CACHE_DIR``), so a re-run of the CLI, the figure
  generators, or a killed full-paper reproduction resumes instead of
  re-simulating.

The key is a SHA-256 over a canonical payload containing the **complete**
serialized :class:`~repro.soc.SoCConfig` (every field, ``mem`` included),
the workload identity ``(name, scale)``, and the simulator version.  Hashing
the whole config replaces the old hand-picked key tuple, which silently
aliased configs that differed in any field it forgot to list.

A corrupted or truncated cache file is treated as a miss: the harness warns,
counts it (``stats()["corrupt"]``, shown by ``bigvlittle cache stats``), and
re-simulates rather than crashing; an entry a racing ``prune`` removes
is a plain miss.

Every entry is one flat file, ``<cache_dir>/<key>.json``, whichever
program wrote it: a CLI sweep, the report, perfbench, or the sweep
service (whose cache is ``<cache-root>/cache``), so every program that
opens a directory reads every entry in it.  :meth:`ResultCache.path_for`
is the only code that knows where a key lives, and every entry lands
through :func:`write_atomic`.  ``prune(max_bytes)`` evicts
least-recently-touched entries (by file mtime) until the disk level fits
the budget, counted in ``stats()["pruned"]`` and exposed as
``bigvlittle cache prune --max-bytes N``.

When sweep telemetry is enabled (:mod:`repro.experiments.telemetry`), every
lookup also emits a ``cache_hit`` / ``cache_miss`` / ``cache_corrupt`` event
on exactly the branches that bump the hit/miss counters, so a sweep's JSONL
log reconciles with :meth:`ResultCache.stats` to the event.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import warnings

import repro
from repro.experiments import telemetry
from repro.stats import RunResult

#: results produced by a different simulator version never collide with ours
SIM_VERSION = repro.__version__

#: (``SIM_VERSION``, golden grid digest) rows, oldest first. Append only:
#: a model change that moves any stat bumps the version and adds a row;
#: no row is ever edited. The grid is the stats digest of every
#: (system, workload) pair at ``tiny`` in ``perfbench/reference.json``,
#: folded by :func:`grid_digest`; tier-1 recomputes it and requires the
#: row of the current version (``tests/integration/test_golden_digests.py``).
SIM_GRIDS = (
    ("1.1.0", "bc825085f43ac1407a00"),
)


def grid_digest(rows):
    """One digest over ``(pair, stats digest)`` rows, in any order."""
    blob = "\n".join(f"{pair} {digest}" for pair, digest in sorted(rows))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


_ENV_DIR = "BIGVLITTLE_CACHE_DIR"
_DEFAULT_DIR = os.path.join("results", "cache")


def default_cache_dir():
    return os.environ.get(_ENV_DIR, _DEFAULT_DIR)


def write_atomic(path, data):
    """Write the bytes ``data`` to ``path`` through a temp file and a rename.

    Several processes may write one path at once (two sweeps, or a sweep
    and the sweep service, storing the same key), so the temp file lives
    in the target's own directory (same filesystem) and lands via an
    atomic rename: a reader sees the old complete file or the new complete
    file, never a torn one, and a failed write leaves no temp file behind.
    """
    target_dir = os.path.dirname(path)
    os.makedirs(target_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Two-level (memory + disk) cache keyed by full-config content hash."""

    def __init__(self, cache_dir=None, enabled=True):
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        self.enabled = enabled
        self._mem = {}
        self.hits = 0          # served from memory or disk
        self.disk_hits = 0     # subset of hits that came off disk
        self.misses = 0
        self.corrupt = 0       # disk files that failed to parse (each a miss)
        self.pruned = 0        # entries evicted by prune(max_bytes)

    # ------------------------------------------------------------------ keys

    def key_for(self, cfg, workload_name, scale):
        """Content-hash key for one (config, workload, scale) run."""
        payload = {
            "sim_version": SIM_VERSION,
            "workload": workload_name,
            "scale": scale,
            "config": cfg.to_dict(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path_for(self, key):
        """On-disk path for ``key``: ``<cache_dir>/<key>.json``."""
        return os.path.join(self.cache_dir, f"{key}.json")

    def _entry_paths(self):
        """Every entry file on disk."""
        if not os.path.isdir(self.cache_dir):
            return
        for fn in os.listdir(self.cache_dir):
            if fn.endswith(".json"):
                yield os.path.join(self.cache_dir, fn)

    # ---------------------------------------------------------------- lookup

    def get(self, key):
        """Return the cached :class:`RunResult` for ``key``, or ``None``."""
        if not self.enabled:
            return None
        # telemetry events are emitted on exactly the branches that bump the
        # counters, so a sweep log's hit/miss counts match stats() exactly
        tel = telemetry.current()
        if key in self._mem:
            self.hits += 1
            if tel is not None:
                tel.event("cache_hit", key=key, level="memory",
                          load_wall_s=0.0)
            return self._mem[key]
        path = self.path_for(key)
        t0 = time.perf_counter()
        try:
            with open(path) as f:
                record = json.load(f)
            result = RunResult.from_dict(record["result"])
        except FileNotFoundError:  # never written, or a racing prune won
            pass
        except (OSError, ValueError, KeyError, TypeError) as e:
            self.corrupt += 1
            if tel is not None:
                tel.event("cache_corrupt", key=key, path=path)
            warnings.warn(
                f"corrupted result-cache file {path} ({e!r}); "
                f"re-simulating", RuntimeWarning, stacklevel=2)
        else:
            load_s = time.perf_counter() - t0
            result.timing["from_cache"] = True
            result.timing["load_wall_s"] = round(load_s, 6)
            self._mem[key] = result
            self.hits += 1
            self.disk_hits += 1
            if tel is not None:
                tel.event("cache_hit", key=key, level="disk",
                          load_wall_s=round(load_s, 6))
            return result
        self.misses += 1
        if tel is not None:
            tel.event("cache_miss", key=key)
        return None

    def put(self, key, result):
        if not self.enabled:
            return
        record = {"sim_version": SIM_VERSION, "result": result.to_dict()}
        write_atomic(self.path_for(key), json.dumps(record).encode("utf-8"))
        # only a landed write fills the memory level: a put that raised
        # (ENOSPC, EACCES) must leave the key a miss, not a hit for the
        # caller's retry with nothing on disk behind it
        self._mem[key] = result

    # ------------------------------------------------------------- lifecycle

    def clear(self):
        """Empty both levels: the process dict and the on-disk files
        (entries and stray temp files alike)."""
        self._mem.clear()
        if not os.path.isdir(self.cache_dir):
            return
        for fn in os.listdir(self.cache_dir):
            if fn.endswith((".json", ".tmp")):
                try:
                    os.unlink(os.path.join(self.cache_dir, fn))
                except OSError:
                    pass

    def prune(self, max_bytes):
        """Evict least-recently-touched disk entries until the disk level
        fits ``max_bytes``.

        LRU is approximated by file mtime (a disk hit does not rewrite the
        file, so this is least-recently-*written*; a service whose hot keys
        re-land via ``put`` keeps them fresh).  Evicted keys are dropped
        from the memory level too, so a pruned entry is really gone.
        Returns ``{"removed", "bytes_freed", "disk_bytes"}``.
        """
        entries = []
        total = 0
        for p in self._entry_paths():
            try:
                st = os.stat(p)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, p))
            total += st.st_size
        entries.sort()
        removed = freed = 0
        for mtime, size, p in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(p)
            except OSError:
                continue
            key = os.path.basename(p)[: -len(".json")]
            self._mem.pop(key, None)
            total -= size
            freed += size
            removed += 1
        self.pruned += removed
        return {"removed": removed, "bytes_freed": freed,
                "disk_bytes": total}

    def stats(self):
        disk_entries = disk_bytes = 0
        for p in self._entry_paths():
            disk_entries += 1
            try:
                disk_bytes += os.path.getsize(p)
            except OSError:
                pass
        return {
            "dir": self.cache_dir,
            "enabled": self.enabled,
            "memory_entries": len(self._mem),
            "disk_entries": disk_entries,
            "disk_bytes": disk_bytes,
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "pruned": self.pruned,
        }


# --------------------------------------------------------------- global cache

_cache = None


def get_cache():
    """The process-wide cache a ``ParallelRunner`` uses when none is passed."""
    global _cache
    if _cache is None:
        _cache = ResultCache()
    return _cache


def set_cache(cache):
    """Replace the global cache (tests point it at a tmp directory)."""
    global _cache
    _cache = cache
    return _cache


def configure(enabled):
    """Switch the global cache on or off in place; returns it."""
    c = get_cache()
    c.enabled = enabled
    return c
