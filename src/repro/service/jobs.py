"""Persistent job queue for the sweep service.

A :class:`Job` is one submitted unit of work: a list of run specs
(``system``/``workload``/``scale``/``overrides``), their config-hash keys
(computed against the service cache at submit time, so the key a client
polls is the key the artifacts land under), and the artifact names to
pre-generate.  The :class:`JobQueue` holds jobs in three places:

* **in memory** — the FIFO the worker pool claims from, guarded by one
  lock with two condition variables: one wakes claiming workers, the
  other wakes readers blocked in :meth:`JobQueue.wait` on a job's end;
* **in a JSONL journal** — every state transition appends one line, so a
  restarted service replays the journal and *re-queues* whatever was
  queued or running when the process died (counted as ``recovered``).
  Each line opens the file, appends and closes it again: the queue holds
  no handle, so a job that ends after :meth:`JobQueue.close` (a graceful
  drain) still writes its terminal line;
* **in telemetry** — ``job_enqueued`` / ``job_start`` / ``job_done`` /
  ``job_retry`` events are emitted on exactly the branches that bump the
  queue's :attr:`~JobQueue.counters`, extending the PR-7 sweep log with
  the same reconciliation contract the ``cache_*`` events keep with
  :meth:`ResultCache.stats`.

**In-flight dedup:** submitting a body whose sorted key set and artifact
request match a queued or running job returns that job instead of a new
one (``counters["deduped"]``), so a thundering herd of identical clients
costs one simulation.  The dedup window closes when the job leaves the
queue — a completed job's results live in the cache, which is the
persistent dedup layer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from repro.errors import ConfigError
from repro.experiments import telemetry
from repro.service.schemas import SERVICE_SCHEMA, ValidationError
from repro.soc import preset
from repro.workloads import REGISTRY

#: counter names; each maps 1:1 onto a telemetry event branch
COUNTERS = ("enqueued", "started", "done", "failed", "retried", "deduped",
            "recovered")


class Job:
    """One submitted run/sweep request and its lifecycle record."""

    __slots__ = ("id", "runs", "artifacts", "keys", "state", "error",
                 "retries", "created_ts", "started_ts", "finished_ts",
                 "levels", "deduped")

    def __init__(self, job_id, runs, keys, artifacts=()):
        self.id = job_id
        self.runs = runs            # list of normalized run-spec dicts
        self.keys = keys            # config hashes aligned with runs
        self.artifacts = tuple(artifacts)
        self.state = "queued"
        self.error = None
        self.retries = 0
        self.created_ts = time.time()
        self.started_ts = None
        self.finished_ts = None
        self.levels = None          # key -> cache-hit level once done
        self.deduped = 0            # how many submits coalesced onto this job

    def signature(self):
        return (tuple(sorted(self.keys)), self.artifacts)

    def as_dict(self):
        return {
            "schema": SERVICE_SCHEMA,
            "id": self.id,
            "state": self.state,
            "runs": list(self.runs),
            "keys": list(self.keys),
            "artifacts": list(self.artifacts),
            "error": self.error,
            "retries": self.retries,
            "deduped": self.deduped,
            "created_ts": round(self.created_ts, 6),
            "started_ts": round(self.started_ts, 6)
            if self.started_ts else None,
            "finished_ts": round(self.finished_ts, 6)
            if self.finished_ts else None,
            "levels": dict(self.levels) if self.levels else None,
        }

    @classmethod
    def from_dict(cls, d):
        job = cls(d["id"], d.get("runs", []), d.get("keys", []),
                  d.get("artifacts", ()))
        job.state = d.get("state", "queued")
        job.error = d.get("error")
        job.retries = d.get("retries", 0)
        job.deduped = d.get("deduped", 0)
        job.created_ts = d.get("created_ts") or time.time()
        job.started_ts = d.get("started_ts")
        job.finished_ts = d.get("finished_ts")
        job.levels = d.get("levels")
        return job

    def __repr__(self):
        return f"<Job {self.id} {self.state} keys={len(self.keys)}>"


class JobQueue:
    """FIFO job queue with a JSONL journal and telemetry-reconciled
    counters; thread-safe (the HTTP handlers and worker threads share
    one instance)."""

    def __init__(self, cache, journal_path=None):
        self.cache = cache
        self.journal_path = journal_path
        self._jobs = {}                 # id -> Job (full history, FIFO dicts)
        self._pending = deque()         # ids waiting for a worker
        self._inflight = {}             # signature -> id (queued/running)
        # ``_cond`` wakes claiming workers, ``_finished`` wakes readers
        # waiting for a job to end: kept apart so that the one wake-up a
        # submit sends always reaches a worker, never a reader
        lock = threading.RLock()
        self._cond = threading.Condition(lock)
        self._finished = threading.Condition(lock)
        self._seq = 0
        self._closed = False
        self.counters = {name: 0 for name in COUNTERS}
        if journal_path:
            os.makedirs(os.path.dirname(journal_path) or ".", exist_ok=True)

    # ------------------------------------------------------------- internals

    def _journal(self, ev, job):
        if self.journal_path:
            rec = {"ts": round(time.time(), 6), "ev": ev,
                   "job": job.as_dict()}
            with open(self.journal_path, "a", encoding="utf-8") as f:
                f.write(json.dumps(rec, sort_keys=True) + "\n")

    def _emit(self, counter, ev, job, **fields):
        """Bump one counter and emit the matching telemetry event — always
        together, so a telemetry log reconciles with the counters."""
        self.counters[counter] += 1
        tel = telemetry.current()
        if tel is not None:
            tel.event(ev, job=job.id, **fields)

    def keys_for(self, runs):
        """Config-hash keys for a list of run specs, as the runner hashes
        them.  Raises :class:`ValidationError` for an unknown workload or a
        config ``preset`` refuses, so that spec is refused at submit."""
        keys = []
        for spec in runs:
            if spec["workload"] not in REGISTRY:
                raise ValidationError(
                    f"unknown workload {spec['workload']!r}; "
                    f"have {sorted(REGISTRY)}")
            try:
                cfg = preset(spec["system"], **spec.get("overrides", {}))
            except (ConfigError, TypeError) as exc:
                raise ValidationError(str(exc)) from None
            keys.append(self.cache.key_for(cfg, spec["workload"],
                                           spec["scale"]))
        return keys

    # ------------------------------------------------------------ submission

    def submit(self, runs, artifacts=()):
        """Enqueue one job; returns ``(job, deduped)``.

        ``deduped`` is True when an identical in-flight job absorbed the
        submit.  Raises ``ValidationError`` (see :meth:`keys_for`) before
        anything is queued, and ``RuntimeError`` once the queue is closed
        (the HTTP layer turns that into a 503 while draining).
        """
        keys = self.keys_for(runs)
        signature = (tuple(sorted(keys)), tuple(artifacts))
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is draining; not accepting jobs")
            existing_id = self._inflight.get(signature)
            if existing_id is not None:
                job = self._jobs[existing_id]
                job.deduped += 1
                self._emit("deduped", "job_enqueued", job,
                           runs=len(job.runs), keys=list(job.keys),
                           deduped=True)
                self._journal("job_deduped", job)
                return job, True
            self._seq += 1
            job = Job(f"job-{self._seq:06d}", runs, keys, artifacts)
            self._jobs[job.id] = job
            self._pending.append(job.id)
            self._inflight[signature] = job.id
            self._emit("enqueued", "job_enqueued", job,
                       runs=len(runs), keys=keys)
            self._journal("job_enqueued", job)
            self._cond.notify()
            return job, False

    # -------------------------------------------------------------- claiming

    def claim(self, timeout=None):
        """Pop the oldest queued job (state -> running).  Blocks until a
        job is queued or the queue closes, or at most ``timeout`` seconds;
        ``None`` on timeout or when closed and empty."""
        with self._cond:
            self._cond.wait_for(lambda: self._pending or self._closed,
                                timeout)
            if not self._pending:
                return None
            job = self._jobs[self._pending.popleft()]
            job.state = "running"
            job.started_ts = time.time()
            self._emit("started", "job_start", job,
                       worker=threading.current_thread().name)
            self._journal("job_start", job)
            return job

    # ------------------------------------------------------------ completion

    def complete(self, job, levels=None):
        with self._cond:
            job.state = "done"
            job.finished_ts = time.time()
            job.levels = dict(levels) if levels else None
            self._inflight.pop(job.signature(), None)
            self._emit("done", "job_done", job, ok=True,
                       levels=job.levels)
            self._journal("job_done", job)
            self._finished.notify_all()

    def fail(self, job, error):
        with self._cond:
            job.state = "failed"
            job.error = str(error)
            job.finished_ts = time.time()
            self._inflight.pop(job.signature(), None)
            self._emit("failed", "job_done", job, ok=False,
                       error=job.error)
            self._journal("job_failed", job)
            self._finished.notify_all()

    def requeue(self, job, error, backoff_s=0.0):
        """Put a crashed job back in line (state -> queued, retries += 1).
        The worker sleeps the backoff *before* calling this, so a re-queued
        job is immediately claimable."""
        with self._cond:
            job.retries += 1
            job.state = "queued"
            job.error = str(error)
            self._pending.append(job.id)
            self._emit("retried", "job_retry", job, attempt=job.retries,
                       error=str(error), backoff_s=round(backoff_s, 3))
            self._journal("job_retry", job)
            self._cond.notify()

    # --------------------------------------------------------------- queries

    def get(self, job_id):
        with self._cond:
            return self._jobs.get(job_id)

    def wait(self, job_id, timeout):
        """Block until job ``job_id`` is done or failed, or ``timeout``
        seconds pass; returns its record (:meth:`Job.as_dict`, taken under
        the lock so a worker's update is never half seen), or ``None``
        for an unknown id."""
        with self._finished:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            self._finished.wait_for(
                lambda: job.state in ("done", "failed"), timeout)
            return job.as_dict()

    def jobs(self, limit=50):
        """Most recent ``limit`` jobs, newest first."""
        with self._cond:
            recent = list(self._jobs.values())[-limit:] if limit else []
        return list(reversed(recent))

    def pending(self):
        with self._cond:
            return len(self._pending)

    def stats(self):
        with self._cond:
            states = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {"counters": dict(self.counters),
                    "pending": len(self._pending),
                    "jobs": len(self._jobs),
                    "states": states,
                    "closed": self._closed}

    # ------------------------------------------------------------- lifecycle

    def close(self):
        """Stop accepting submissions and wake every blocked claimer.
        Already-queued jobs stay claimable — this is the drain signal,
        not an abort."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self):
        return self._closed

    # --------------------------------------------------------------- journal

    @classmethod
    def load(cls, cache, journal_path):
        """Rebuild a queue from its journal.

        Terminal jobs (done/failed) are kept for ``GET /v1/jobs`` history;
        jobs that were queued or running when the last process died are
        re-queued and counted as ``recovered``.
        """
        queue = cls(cache, journal_path=journal_path)
        latest = {}
        if journal_path and os.path.exists(journal_path):
            with open(journal_path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except ValueError:
                        continue  # torn tail line from a crash: skip
                    job_d = rec.get("job")
                    if isinstance(job_d, dict) and "id" in job_d:
                        latest[job_d["id"]] = job_d
        for job_id in sorted(latest):
            job = Job.from_dict(latest[job_id])
            queue._jobs[job.id] = job
            seq = int(job.id.rsplit("-", 1)[-1]) \
                if job.id.rsplit("-", 1)[-1].isdigit() else 0
            queue._seq = max(queue._seq, seq)
            if job.state in ("queued", "running"):
                job.state = "queued"
                queue._pending.append(job.id)
                queue._inflight[job.signature()] = job.id
                queue.counters["recovered"] += 1
        return queue
