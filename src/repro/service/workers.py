"""Async worker pool that drains the sweep-service job queue.

Each worker is a thread that claims one job at a time, blocking in
:meth:`JobQueue.claim` until a job is queued or the queue closes, and
pushes the job's run specs through one :class:`ParallelRunner` sweep, so
a sweep submitted as one job simulates each distinct key once and a warm
cache turns it into pure lookups.  The runner's per-request cache-hit
levels (:meth:`ParallelRunner.levels`) are recorded on the job, so every
completed job says how hot each of its keys was.

The server process never simulates.  Every simulation — the sweep's
plain runs and the instrumented runs behind ``timeline``/``phases`` —
goes to one long-lived process pool of ``workers`` processes, so the
simulations run in parallel instead of taking turns on the server's
interpreter lock.  Each is one :func:`repro.experiments.runner.simulate`
call; the runner alone caches and reports the plain runs.  The pool's
processes fork from a ``forkserver`` that imports the simulator once
(never from the threaded server itself), and start lazily, on the first
simulation.

Failure handling honors the service robustness contract:

* a job that raises is re-queued with capped exponential backoff
  (``backoff_s * 2**retries``, capped at ``backoff_cap_s``) until
  ``max_retries`` is exhausted, then marked failed — every attempt is a
  ``job_retry`` telemetry event and journal line; a failing job never
  touches another job, so each job ends exactly once;
* a pool process that dies (OOM kill, SIGKILL) breaks the pool: the
  worker that notices swaps in a fresh one, and the job retries on it;
* pool processes exit as soon as the server process is gone, however it
  ended, so a killed server leaves no simulation process behind;
* ``stop(drain=True)`` closes the queue (new submits get 503), lets the
  workers finish everything already queued, joins the threads, then
  shuts the simulation pool down.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

from repro.experiments.parallel import ParallelRunner, RunRequest
from repro.log import get_logger
from repro.service.artifacts import render_timeline

_logger = get_logger("repro.service.workers")

#: modules the forkserver imports once, so every pool process it forks
#: starts with the simulator (and this module's initializer) loaded
_PRELOAD = ["repro.experiments.cli", "repro.service"]


def _watch_server(alive):
    """Pool-process initializer: exit when the server process is gone.

    ``alive`` is the read end of a pipe that only the server can write
    to and never does, so it turns readable (EOF) exactly when the
    server dies.  A pool process otherwise blocks on a call queue whose
    write end it holds itself and would outlive a killed server — and
    keep the forkserver and the resource tracker alive with it.  SIGINT
    is ignored: a Ctrl-C reaches the whole process group, and it is the
    server's drain, not the signal, that ends the pool.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch():
        wait([alive])
        os._exit(1)

    threading.Thread(target=watch, name="server-watch", daemon=True).start()


class WorkerPool:
    """Threads that claim, execute, and retry queued jobs, one at a time."""

    def __init__(self, queue, workers=2, max_retries=2, backoff_s=0.1,
                 backoff_cap_s=2.0, artifact_store=None, sleep=time.sleep):
        self.queue = queue
        self.workers = max(1, int(workers))
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.artifacts = artifact_store
        self._sleep = sleep          # injectable so tests don't wait
        self._threads = []
        self._stop = threading.Event()
        self.executed = 0            # jobs this pool ran to a terminal state
        self.executor = None         # the simulation pool, while started
        self._executor_lock = threading.Lock()
        self._alive = None           # server-death pipe: (read, write) ends

    # ------------------------------------------------------------- lifecycle

    def start(self):
        if self._threads:
            raise RuntimeError("worker pool already started")
        self._alive = multiprocessing.Pipe(duplex=False)
        self.executor = self._new_executor()
        for i in range(self.workers):
            t = threading.Thread(target=self._loop,
                                 name=f"svc-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self, drain=True):
        """Shut the pool down.

        ``drain=True`` (the graceful path) closes the queue first — new
        submissions 503 — and lets workers finish every queued job before
        joining; ``drain=False`` asks workers to stop after their current
        job, leaving the rest queued (the journal re-queues them on the
        next start).  The simulation pool shuts down last.
        """
        if not drain:
            self._stop.set()
        self.queue.close()   # wakes blocked claimers
        for t in self._threads:
            t.join()
        self._threads = []
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None
            for end in self._alive:
                end.close()
            self._alive = None

    def _new_executor(self):
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload(_PRELOAD)
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=ctx,
                                   initializer=_watch_server,
                                   initargs=(self._alive[0],))

    def _replace_executor(self, broken):
        """Swap a fresh simulation pool in for ``broken``, unless another
        worker already did."""
        with self._executor_lock:
            if self.executor is broken:
                _logger.info("[service] a simulation process died; "
                             "starting a fresh pool")
                self.executor = self._new_executor()
                broken.shutdown(wait=False)

    @property
    def alive(self):
        return sum(1 for t in self._threads if t.is_alive())

    def stats(self):
        return {"workers": self.workers, "alive": self.alive,
                "max_retries": self.max_retries, "executed": self.executed}

    # ------------------------------------------------------------- execution

    def _loop(self):
        while not self._stop.is_set():
            job = self.queue.claim()   # blocks until a job or close()
            if job is None:            # closed, and nothing left to drain
                return
            self._run_job(job)

    def _run_job(self, job):
        """Execute one claimed job; on failure either re-queue it with
        backoff (the claim loop — any worker's — picks it up again, so
        each attempt gets its own ``job_start``) or mark it failed once
        retries are exhausted."""
        try:
            self._execute(job)
        except Exception as exc:
            if job.retries >= self.max_retries:
                self.queue.fail(job, exc)
                self.executed += 1
                return
            backoff = min(self.backoff_s * (2 ** job.retries),
                          self.backoff_cap_s)
            self._sleep(backoff)
            self.queue.requeue(job, exc, backoff_s=backoff)
        else:
            self.executed += 1

    def _execute(self, job):
        """Run every spec of ``job`` through one ParallelRunner sweep on
        the simulation pool, then complete the job with its per-key cache
        levels and any requested simulation-backed artifacts.  The
        instrumented timeline runs go to the pool first, so they overlap
        the sweep's plain runs."""
        executor = self.executor
        requests = [RunRequest(**spec) for spec in job.runs]
        due = {}  # key -> run spec, for each timeline run the job needs
        if self.artifacts is not None:
            due = {key: spec for key, spec in zip(job.keys, job.runs)
                   if self.artifacts.timeline_due(key, job.artifacts)}
        timelines = {}  # key -> future of its timeline dump
        try:
            for key, spec in due.items():
                timelines[key] = executor.submit(render_timeline, spec)
            runner = ParallelRunner(jobs=self.workers, cache=self.queue.cache,
                                    pool=executor)
            runner.run(requests)
            dumps = {key: fut.result() for key, fut in timelines.items()}
        except BrokenProcessPool:
            # later jobs need a working pool; this job retries on it
            self._replace_executor(executor)
            raise
        finally:
            for fut in timelines.values():
                fut.cancel()
        if self.artifacts is not None and job.artifacts:
            for key in job.keys:
                self.artifacts.generate_simulated(key, job.artifacts,
                                                  dumps.get(key))
        self.queue.complete(job, levels=dict(zip(job.keys, runner.levels())))
