"""Sweep service: async job queue + result cache + HTTP results API.

The layers, bottom up (each importable on its own):

* :mod:`repro.service.schemas` — the ``bigvlittle-service-v1`` JSON
  contract: submit-body validation, the endpoint table, artifact and
  cache-level vocabularies.
* :mod:`repro.service.jobs` — journaled, telemetry-reconciled
  :class:`JobQueue` with in-flight dedup and crash recovery.
* :mod:`repro.service.artifacts` — per-key :class:`ArtifactStore`;
  derived artifacts render from the cache, simulation-backed ones are
  worker-generated.
* :mod:`repro.service.workers` — :class:`WorkerPool` threads running
  one job at a time through :class:`ParallelRunner` with capped-backoff
  retries.
* :mod:`repro.service.http` — :class:`ServiceApp`, the stdlib HTTP/JSON
  front end (``bigvlittle serve``).

See ``docs/service.md`` for the architecture, endpoint reference, and
operations runbook.
"""

from repro.service.artifacts import ArtifactStore
from repro.service.http import ServiceApp
from repro.service.jobs import Job, JobQueue
from repro.service.schemas import (ARTIFACT_NAMES, CACHE_LEVELS, ENDPOINTS,
                                   SERVICE_SCHEMA, ValidationError,
                                   validate_submit)
from repro.service.workers import WorkerPool

__all__ = [
    "ARTIFACT_NAMES", "ArtifactStore", "CACHE_LEVELS", "ENDPOINTS", "Job",
    "JobQueue", "SERVICE_SCHEMA", "ServiceApp", "ValidationError",
    "WorkerPool", "validate_submit",
]
