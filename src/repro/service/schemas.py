"""JSON shapes of the sweep service, versioned as ``bigvlittle-service-v1``.

Every request and response body the HTTP layer speaks is described here —
as validation code (:func:`validate_submit`) plus a machine-readable
endpoint table (:data:`ENDPOINTS`) that ``docs/service.md`` mirrors and
the tests cross-check.  The schema string rides on every response body so
clients can detect version skew without parsing anything else.

A submit body is either one run spec or a sweep of them::

    {"system": "1b-4VL", "workload": "saxpy", "scale": "small",
     "overrides": {"chimes": 1, "mem": {"dram_latency": 200}},
     "artifacts": ["timeline", "phases"]}

    {"runs": [{"system": ..., "workload": ...}, ...],
     "artifacts": ["timeline"]}

``system``/``workload`` are required per run; ``scale`` defaults to
``"small"``; ``overrides`` is anything :func:`repro.soc.preset` accepts.
``artifacts`` asks the worker to pre-generate simulation-backed artifacts
(``timeline`` and, derived from it without a second simulation,
``phases``) after the run completes, so later ``GET /v1/results`` fetches
never simulate.
"""

from __future__ import annotations

SERVICE_SCHEMA = "bigvlittle-service-v1"

#: job lifecycle states, in order
JOB_STATES = ("queued", "running", "done", "failed")

#: artifacts derivable from a cached RunResult alone (no simulation)
DERIVED_ARTIFACTS = ("stats", "result", "summary", "stall.svg")

#: artifacts that need one instrumented simulation, generated by a worker
#: when the submit body requests them ("phases" derives from "timeline")
SIMULATED_ARTIFACTS = ("timeline", "phases")

ARTIFACT_NAMES = DERIVED_ARTIFACTS + SIMULATED_ARTIFACTS

#: cache-hit levels a response's X-BigVLittle-Cache header may carry
CACHE_LEVELS = ("memory", "disk", "artifact", "generated", "fresh", "miss")

#: endpoint reference: (method, path template, one-line contract)
ENDPOINTS = (
    ("GET", "/v1/healthz",
     "liveness: schema, sim version, uptime"),
    ("GET", "/v1/stats",
     "cache stats + queue counters + worker-pool state"),
    ("POST", "/v1/runs",
     "submit one run or a sweep; 202 with the job record "
     "(200 when deduplicated onto an in-flight job)"),
    ("GET", "/v1/jobs",
     "recent jobs, newest first"),
    ("GET", "/v1/jobs/<id>",
     "one job's state, keys, per-key cache levels, retries, error; "
     "waits for a queued or running job to end, at most 0.5 s"),
    ("GET", "/v1/results/<config_hash>",
     "artifact index for one cached run"),
    ("GET", "/v1/results/<config_hash>/<artifact>",
     "artifact bytes; never simulates (404 + hint when absent)"),
)


class ValidationError(ValueError):
    """A submit body that does not match the service schema."""


def _validate_run(spec, where):
    if not isinstance(spec, dict):
        raise ValidationError(f"{where}: expected an object")
    unknown = set(spec) - {"system", "workload", "scale", "overrides"}
    if unknown:
        raise ValidationError(f"{where}: unknown fields {sorted(unknown)}")
    for field in ("system", "workload"):
        if not isinstance(spec.get(field), str) or not spec.get(field):
            raise ValidationError(f"{where}: '{field}' (string) is required")
    scale = spec.get("scale", "small")
    if scale not in ("tiny", "small", "full"):
        raise ValidationError(f"{where}: scale must be tiny|small|full, "
                              f"got {scale!r}")
    overrides = spec.get("overrides", {})
    if not isinstance(overrides, dict) or not isinstance(
            overrides.get("mem", {}), dict):
        raise ValidationError(f"{where}: 'overrides' and its 'mem' must be "
                              f"objects")
    return {"system": spec["system"], "workload": spec["workload"],
            "scale": scale, "overrides": overrides}


def validate_submit(doc):
    """Normalize a ``POST /v1/runs`` body to ``(runs, artifacts)``.

    ``runs`` is a list of normalized run specs; ``artifacts`` is the tuple
    of requested simulation-backed artifact names.  Raises
    :class:`ValidationError` with a client-presentable message otherwise.
    """
    if not isinstance(doc, dict):
        raise ValidationError("request body: expected a JSON object")
    artifacts = doc.get("artifacts", [])
    if not isinstance(artifacts, (list, tuple)):
        raise ValidationError("'artifacts' must be a list")
    for name in artifacts:
        if name not in SIMULATED_ARTIFACTS:
            raise ValidationError(
                f"unknown artifact {name!r}: only "
                f"{list(SIMULATED_ARTIFACTS)} are pre-generated "
                f"({list(DERIVED_ARTIFACTS)} derive from the cached "
                f"result on demand)")
    if "runs" in doc:
        extra = set(doc) - {"runs", "artifacts"}
        if extra:
            raise ValidationError(f"unknown fields {sorted(extra)}")
        if not isinstance(doc["runs"], list) or not doc["runs"]:
            raise ValidationError("'runs' must be a non-empty list")
        runs = [_validate_run(r, f"runs[{i}]")
                for i, r in enumerate(doc["runs"])]
    else:
        runs = [_validate_run({k: v for k, v in doc.items()
                               if k != "artifacts"}, "request body")]
    if "phases" in artifacts and "timeline" not in artifacts:
        # phases derive from the timeline dump; generating them implies it
        artifacts = list(artifacts) + ["timeline"]
    return runs, tuple(sorted(set(artifacts)))


def error_body(message, hint=None):
    doc = {"schema": SERVICE_SCHEMA, "error": message}
    if hint:
        doc["hint"] = hint
    return doc
