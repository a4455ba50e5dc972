"""stdlib HTTP/JSON front end for the sweep service.

One :class:`ServiceApp` owns the whole stack: a :class:`ResultCache`
under ``<cache_root>/cache``, an :class:`ArtifactStore` under
``<cache_root>/artifacts``, a journaled
:class:`JobQueue` (replayed from disk on start), a :class:`WorkerPool`,
and a ``ThreadingHTTPServer`` whose handler delegates every route back
into the app (so tests can drive :meth:`handle_get` /
:meth:`handle_post` through a real socket or not at all).

Every response carries two headers:

* ``X-BigVLittle-Schema: bigvlittle-service-v1`` — version skew guard;
* ``X-BigVLittle-Cache: <level>`` — how hot the path was.  Artifact
  fetches report ``artifact`` (bytes straight from disk), ``generated``
  (first render from the cached result), or ``miss``; the results index
  reports the RunResult's own level (``memory``/``disk``/``miss``);
  submissions report ``fresh`` (queued work); pure in-memory endpoints
  (health, stats, jobs) report ``memory``.

``GET /v1/results/...`` never calls ``System.run``: derived artifacts
render from the cache, simulation-backed ones 404 with a hint to
re-submit with ``"artifacts"`` — the worker pool is the only simulating
component.

Connections are meant to be kept alive: replies go out with
``TCP_NODELAY``, a poll of an unfinished job waits up to
:data:`JOB_WAIT_S` for it to end instead of answering at once, and a
request body is always read (or the connection closed) before the reply,
so a refused request never leaves bytes behind for the next one.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.experiments import telemetry
from repro.experiments.cache import SIM_VERSION, ResultCache
from repro.service.artifacts import ARTIFACT_FILES, ArtifactStore
from repro.service.jobs import JobQueue
from repro.service.schemas import (DERIVED_ARTIFACTS, SERVICE_SCHEMA,
                                   SIMULATED_ARTIFACTS, ValidationError,
                                   error_body, validate_submit)
from repro.service.workers import WorkerPool

_logger = logging.getLogger("repro.service.http")

#: request body size cap — a sweep of every preset x workload is ~100 KiB
MAX_BODY_BYTES = 4 * 1024 * 1024

#: how long the HTTP loop may take to notice :meth:`ServiceApp.stop`:
#: ``socketserver`` polls for a shutdown request, by default every 0.5 s
SHUTDOWN_POLL_S = 0.05

#: longest a ``GET /v1/jobs/<id>`` of a queued or running job blocks
#: before answering with the job's current record; a polling client thus
#: sends about one request per job rather than one per round trip
JOB_WAIT_S = 0.5


def _nonneg_int(text):
    """``text`` as a non-negative integer, or ``None`` if it is not one."""
    text = text.strip()
    return int(text) if text.isdecimal() else None


def _make_handler(app):
    class Handler(BaseHTTPRequestHandler):
        server_version = f"bigvlittle-service/{SERVICE_SCHEMA.rsplit('-', 1)[-1]}"
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY: otherwise Nagle holds the body segment until the
        # client's delayed ACK of the headers, ~40 ms per kept-alive reply
        disable_nagle_algorithm = True

        def log_request(self, code="-", size="-"):
            # a completed request logs at DEBUG, formatted lazily: at
            # INFO the line cost a measurable share of a warm GET
            _logger.debug('[http] %s "%s" %s %s', self.address_string(),
                          self.requestline, getattr(code, "value", code),
                          size)

        def log_message(self, fmt, *args):
            # what still reaches here is log_error's: malformed requests
            # and timeouts stay at INFO
            _logger.info(f"[http] {self.address_string()} {fmt % args}")

        def do_GET(self):
            app.handle_get(self)

        def do_POST(self):
            app.handle_post(self)

    return Handler


class ServiceApp:
    """The sweep service: cache + artifacts + queue + workers + HTTP."""

    def __init__(self, cache_root="results", host="127.0.0.1", port=0,
                 workers=2, max_retries=2, backoff_s=0.1,
                 telemetry_path=None):
        self.cache_root = cache_root
        self.cache = ResultCache(cache_dir=os.path.join(cache_root, "cache"))
        self.artifacts = ArtifactStore(os.path.join(cache_root, "artifacts"))
        self.telemetry_path = telemetry_path
        if telemetry_path:
            telemetry.enable(telemetry_path)
        self.queue = JobQueue.load(
            self.cache, os.path.join(cache_root, "service", "jobs.jsonl"))
        self.pool = WorkerPool(self.queue, workers=workers,
                               max_retries=max_retries, backoff_s=backoff_s,
                               artifact_store=self.artifacts)
        self.httpd = ThreadingHTTPServer((host, port), _make_handler(self))
        self.httpd.daemon_threads = True
        self._http_thread = None
        self._t0 = time.time()

    # ------------------------------------------------------------- lifecycle

    @property
    def port(self):
        return self.httpd.server_address[1]

    def start(self):
        self.pool.start()
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever, args=(SHUTDOWN_POLL_S,),
            name="svc-http", daemon=True)
        self._http_thread.start()
        _logger.info(f"[service] listening on port {self.port} "
                     f"({self.pool.workers} workers, cache at "
                     f"{self.cache.cache_dir})")
        return self

    def stop(self, drain=True):
        """Graceful shutdown: close the queue (new submits 503), drain the
        workers, then stop the HTTP loop, if it ever started, and release
        the socket."""
        self.pool.stop(drain=drain)
        if self._http_thread is not None:
            # shutdown() waits for serve_forever to exit, so it would
            # block forever on an app that was never started
            self.httpd.shutdown()
            self._http_thread.join()
            self._http_thread = None
        self.httpd.server_close()
        if self.telemetry_path:
            telemetry.disable()

    # -------------------------------------------------------------- plumbing

    def _send(self, handler, status, body, level, content_type=None):
        if isinstance(body, bytes):
            data = body
            content_type = content_type or "application/octet-stream"
        else:
            data = (json.dumps(body, indent=1, sort_keys=True)
                    + "\n").encode("utf-8")
            content_type = content_type or "application/json"
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(data)))
        handler.send_header("X-BigVLittle-Schema", SERVICE_SCHEMA)
        handler.send_header("X-BigVLittle-Cache", level)
        if handler.close_connection:
            handler.send_header("Connection", "close")
        handler.end_headers()
        handler.wfile.write(data)

    def _error(self, handler, status, message, hint=None):
        self._send(handler, status, error_body(message, hint=hint), "miss")

    @staticmethod
    def _read_body(handler):
        """Read the request body whatever the reply will be: on a
        kept-alive connection an unread body would be parsed as the next
        request.  Returns ``None``, and marks the connection to close,
        when the body cannot be read safely (``Content-Length`` not an
        integer or above ``MAX_BODY_BYTES``, or a chunked body)."""
        length = _nonneg_int(handler.headers.get("Content-Length", "0"))
        if (length is None or length > MAX_BODY_BYTES
                or "Transfer-Encoding" in handler.headers):
            handler.close_connection = True
            return None
        return handler.rfile.read(length) if length else b""

    # ---------------------------------------------------------------- routes

    def handle_get(self, handler):
        url = urlparse(handler.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            self._read_body(handler)  # ignored, but must not stay unread
            if parts == ["v1", "healthz"]:
                return self._send(handler, 200, {
                    "schema": SERVICE_SCHEMA, "ok": True,
                    "sim_version": SIM_VERSION,
                    "uptime_s": round(time.time() - self._t0, 3),
                }, "memory")
            if parts == ["v1", "stats"]:
                return self._send(handler, 200, {
                    "schema": SERVICE_SCHEMA,
                    "sim_version": SIM_VERSION,
                    "uptime_s": round(time.time() - self._t0, 3),
                    "cache": self.cache.stats(),
                    "artifacts": self.artifacts.stats(),
                    "queue": self.queue.stats(),
                    "pool": self.pool.stats(),
                }, "memory")
            if parts == ["v1", "jobs"]:
                raw = parse_qs(url.query).get("limit", ["50"])[0]
                limit = _nonneg_int(raw)
                if limit is None:
                    return self._error(handler, 400,
                                       "limit must be a non-negative "
                                       f"integer, got {raw!r}")
                return self._send(handler, 200, {
                    "schema": SERVICE_SCHEMA,
                    "jobs": [j.as_dict() for j in self.queue.jobs(limit)],
                }, "memory")
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                record = self.queue.wait(parts[2], JOB_WAIT_S)
                if record is None:
                    return self._error(handler, 404,
                                       f"no such job {parts[2]!r}")
                return self._send(handler, 200, record, "memory")
            if len(parts) == 3 and parts[:2] == ["v1", "results"]:
                return self._results_index(handler, parts[2])
            if len(parts) == 4 and parts[:2] == ["v1", "results"]:
                return self._results_artifact(handler, parts[2], parts[3])
            return self._error(handler, 404, f"no route for {url.path}",
                               hint="see GET /v1/healthz, /v1/stats, "
                                    "/v1/jobs, /v1/results/<config_hash>")
        except Exception as exc:  # keep the thread pool alive
            _logger.info(f"[http] 500 on {handler.path}: {exc}")
            self._error(handler, 500, f"internal error: {exc}")

    def handle_post(self, handler):
        url = urlparse(handler.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            raw = self._read_body(handler)
            if parts != ["v1", "runs"]:
                return self._error(handler, 404,
                                   f"no POST route for {url.path}",
                                   hint="submit work with POST /v1/runs")
            if not raw:
                return self._error(handler, 400,
                                   "a JSON body with an integer "
                                   "Content-Length is required "
                                   f"(1..{MAX_BODY_BYTES} bytes)")
            try:
                doc = json.loads(raw.decode("utf-8"))
            except ValueError as exc:
                return self._error(handler, 400, f"invalid JSON: {exc}")
            try:
                job, deduped = self.queue.submit(*validate_submit(doc))
            except ValidationError as exc:
                return self._error(handler, 400, str(exc))
            except RuntimeError as exc:
                return self._error(handler, 503, str(exc),
                                   hint="the service is draining; retry "
                                        "against the next instance")
            body = job.as_dict()
            body["deduplicated"] = deduped
            return self._send(handler, 200 if deduped else 202, body,
                              "fresh")
        except Exception as exc:
            _logger.info(f"[http] 500 on {handler.path}: {exc}")
            self._error(handler, 500, f"internal error: {exc}")

    # -------------------------------------------------------------- results

    def _lookup(self, key):
        """Cached RunResult for ``key`` plus its hit level
        (``memory``/``disk``/``miss``)."""
        dh0 = self.cache.disk_hits
        result = self.cache.get(key)
        if result is None:
            return None, "miss"
        return result, "disk" if self.cache.disk_hits > dh0 else "memory"

    def _results_index(self, handler, key):
        result, level = self._lookup(key)
        available = self.artifacts.available(key)
        if result is None and not available:
            return self._error(
                handler, 404, f"no cached result for {key!r}",
                hint="submit it with POST /v1/runs; the job record lists "
                     "the key to poll")
        body = {
            "schema": SERVICE_SCHEMA,
            "key": key,
            "cached": result is not None,
            "cache_level": level,
            "artifacts": {
                "available": available,
                "derived": list(DERIVED_ARTIFACTS),
                "simulated": list(SIMULATED_ARTIFACTS),
            },
        }
        if result is not None:
            body["name"] = result.name
            body["system"] = result.system
            body["cycles"] = result.cycles
        return self._send(handler, 200, body, level)

    def _results_artifact(self, handler, key, name):
        if name not in ARTIFACT_FILES:
            return self._error(handler, 404, f"unknown artifact {name!r}",
                               hint=f"one of {sorted(ARTIFACT_FILES)}")
        data = self.artifacts.get_bytes(key, name)
        if data is not None:
            return self._send(handler, 200, data, "artifact",
                              content_type=self.artifacts.content_type(name))
        if name in SIMULATED_ARTIFACTS:
            return self._error(
                handler, 404,
                f"artifact {name!r} was not generated for {key!r}",
                hint='re-submit the run with "artifacts": '
                     f'["{name}"] — GET never simulates')
        result, level = self._lookup(key)
        if result is None:
            return self._error(
                handler, 404, f"no cached result for {key!r}",
                hint="submit it with POST /v1/runs first")
        data, art_level = self.artifacts.ensure_derived(key, name, result)
        return self._send(handler, 200, data, art_level,
                          content_type=self.artifacts.content_type(name))
