"""HTTP API tests over a real socket: contract headers, artifact serving
(warm GETs never simulate), dedup, validation, graceful drain, and
kept-alive connections (no reply stall, bounded job polls)."""

import errno
import http.client
import importlib.util
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.service.http import JOB_WAIT_S, MAX_BODY_BYTES
from repro.service.schemas import ENDPOINTS, SERVICE_SCHEMA

RUN = {"system": "1b", "workload": "vvadd", "scale": "tiny"}


def req(app, method, path, body=None):
    r = urllib.request.Request(
        f"http://127.0.0.1:{app.port}{path}", method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"} if body else {})
    try:
        with urllib.request.urlopen(r, timeout=10) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), e.read()


def submit_and_wait(app, body, timeout=20.0):
    status, _, raw = req(app, "POST", "/v1/runs", body)
    assert status in (200, 202)
    job = json.loads(raw)
    deadline = time.time() + timeout
    while time.time() < deadline:
        # the server holds each poll until the job ends or JOB_WAIT_S
        _, _, raw = req(app, "GET", f"/v1/jobs/{job['id']}")
        doc = json.loads(raw)
        if doc["state"] in ("done", "failed"):
            return doc
    raise AssertionError(f"job never finished: {doc}")


@pytest.fixture
def connect(service_app):
    """Opens persistent HTTP/1.1 connections to the app, as a real client
    keeps them; all of them close at teardown."""
    conns = []

    def open_connection():
        conns.append(http.client.HTTPConnection(
            "127.0.0.1", service_app.port, timeout=10))
        return conns[-1]

    yield open_connection
    for conn in conns:
        conn.close()


def creq(conn, method, path, body=None, headers=None):
    """One request on a kept-alive ``http.client`` connection."""
    headers = dict(headers or {})
    data = None
    if body is not None:
        data = json.dumps(body).encode()
        headers.setdefault("Content-Type", "application/json")
    conn.request(method, path, body=data, headers=headers)
    resp = conn.getresponse()
    return resp.status, dict(resp.headers), resp.read()


def gate_worker(app):
    """Hold the worker at the start of every job until the returned
    event is set."""
    release = threading.Event()
    execute = app.pool._execute

    def gated(job):
        release.wait(20)
        return execute(job)

    app.pool._execute = gated
    return release


# ---------------------------------------------------------------- contract

def test_healthz_and_schema_headers(service_app):
    status, headers, raw = req(service_app, "GET", "/v1/healthz")
    assert status == 200
    assert headers["X-BigVLittle-Schema"] == SERVICE_SCHEMA
    assert headers["X-BigVLittle-Cache"] == "memory"
    doc = json.loads(raw)
    assert doc["ok"] is True and doc["schema"] == SERVICE_SCHEMA


def test_request_log_is_debug_and_errors_stay_info(service_app, caplog):
    """A served request logs at DEBUG, off the INFO hot path; a
    malformed request line still logs at INFO."""
    caplog.set_level(logging.DEBUG, logger="repro.service.http")

    def records(level):
        return [r for r in caplog.records
                if r.name == "repro.service.http" and r.levelno == level]

    assert req(service_app, "GET", "/v1/healthz")[0] == 200
    assert records(logging.INFO) == []
    assert any("GET /v1/healthz" in r.getMessage()
               for r in records(logging.DEBUG))
    with socket.create_connection(("127.0.0.1", service_app.port),
                                  timeout=10) as sock:
        sock.sendall(b"NOT A REQUEST LINE\r\n\r\n")
        # the server closes the connection after its error page
        reply = b"".join(iter(lambda: sock.recv(4096), b""))
    assert b"400" in reply
    assert any("code 400" in r.getMessage() for r in records(logging.INFO))


def test_every_documented_endpoint_answers(service_app):
    """Each row of the schema's ENDPOINTS table resolves (no 500s, no
    unrouted 404): the table is the API, not decoration."""
    job = submit_and_wait(service_app, dict(RUN))
    key = job["keys"][0]
    fill = {"<id>": job["id"], "<config_hash>": key, "<artifact>": "stats"}
    for method, template, _ in ENDPOINTS:
        path = template
        for token, value in fill.items():
            path = path.replace(token, value)
        status, headers, _ = req(service_app, method, path,
                                 dict(RUN) if method == "POST" else None)
        assert status in (200, 202), (method, path, status)
        assert headers["X-BigVLittle-Schema"] == SERVICE_SCHEMA


@pytest.mark.parametrize("method, path, body, length, status", [
    ("GET", "/v1/jobs?limit=abc", None, None, 400),
    ("GET", "/v1/jobs?limit=-1", None, None, 400),
    ("GET", "/v1/jobs?limit=0", None, None, 200),
    ("GET", "/v1/healthz", RUN, None, 200),
    ("POST", "/v1/runs", RUN, "abc", 400),
    ("POST", "/v1/runs", RUN, str(MAX_BODY_BYTES + 1), 400),
    ("POST", "/v1/jobs", RUN, None, 404),
])
def test_bad_requests_get_clean_errors_on_a_kept_alive_connection(
        service_app, connect, method, path, body, length, status):
    """Malformed input from outside is a 4xx with an ``error``, never a
    500, and no reply poisons the connection: a body the server does not
    use is read and discarded, or the connection closes."""
    service_app.queue.submit([dict(RUN, overrides={})])
    conn = connect()
    headers = {"Content-Length": length} if length else {}
    got, hdrs, raw = creq(conn, method, path, body, headers)
    assert got == status
    doc = json.loads(raw)
    if status != 200:
        assert doc["error"] and doc["schema"] == SERVICE_SCHEMA
    elif "limit=0" in path:
        assert doc["jobs"] == []
    if length:  # the body cannot be read safely, so the server hangs up
        assert hdrs["Connection"] == "close"
    got, hdrs, _ = creq(conn, "GET", "/v1/healthz")
    assert got == 200 and hdrs["X-BigVLittle-Schema"] == SERVICE_SCHEMA


def test_kept_alive_replies_do_not_stall(connect):
    """With Nagle on, each reply's body waits for the client's delayed
    ACK (~40 ms) on a kept-alive connection."""
    conn = connect()
    t0 = time.perf_counter()
    for _ in range(20):
        status, _, _ = creq(conn, "GET", "/v1/healthz")
        assert status == 200
    assert time.perf_counter() - t0 < 0.4


def test_job_poll_answers_as_soon_as_the_job_ends(service_app, connect):
    submit_and_wait(service_app, dict(RUN))  # so the polled rerun is warm
    release = gate_worker(service_app)
    conn = connect()
    _, _, raw = creq(conn, "POST", "/v1/runs", dict(RUN))
    job = json.loads(raw)
    timer = threading.Timer(0.1, release.set)
    timer.start()
    t0 = time.perf_counter()
    status, _, raw = creq(conn, "GET", f"/v1/jobs/{job['id']}")
    waited = time.perf_counter() - t0
    timer.join()
    doc = json.loads(raw)
    assert status == 200 and doc["state"] == "done" and doc["levels"]
    assert waited < JOB_WAIT_S


def test_job_poll_of_a_long_job_returns_its_record_at_the_bound(
        service_app, connect):
    release = gate_worker(service_app)
    try:
        conn = connect()
        _, _, raw = creq(conn, "POST", "/v1/runs", dict(RUN))
        job = json.loads(raw)
        t0 = time.perf_counter()
        status, _, raw = creq(conn, "GET", f"/v1/jobs/{job['id']}")
        waited = time.perf_counter() - t0
        assert status == 200
        assert json.loads(raw)["state"] in ("queued", "running")
        assert JOB_WAIT_S * 0.9 <= waited < JOB_WAIT_S + 2
    finally:
        release.set()


def test_submit_during_a_long_poll_is_claimed_promptly(service_app, connect):
    """A waiting poll must not absorb the wake-up a submit sends to idle
    claimers: the poller waits first, so a shared condition would wake
    it and leave the claimer asleep until its timeout."""
    release = gate_worker(service_app)
    try:
        first = json.loads(creq(connect(), "POST", "/v1/runs",
                                dict(RUN))[2])
        deadline = time.time() + 10
        while service_app.queue.get(first["id"]).state != "running":
            assert time.time() < deadline  # the held worker claims it
            time.sleep(0.01)
        poller = threading.Thread(target=creq, args=(
            connect(), "GET", f"/v1/jobs/{first['id']}"))
        poller.start()
        time.sleep(0.1)
        claimed = []
        claimer = threading.Thread(target=lambda: claimed.append(
            (service_app.queue.claim(timeout=5), time.perf_counter())))
        claimer.start()
        time.sleep(0.1)
        second = json.loads(creq(
            connect(), "POST", "/v1/runs",
            dict(RUN, overrides={"mem": {"dram_latency": 300}}))[2])
        submitted = time.perf_counter()
        claimer.join(10)
        assert not claimer.is_alive()
        job, at = claimed[0]
        assert job.id == second["id"]
        assert at - submitted < 1.0
        service_app.queue.complete(job)
    finally:
        release.set()
    poller.join(10)
    assert not poller.is_alive()


def test_unknown_routes_get_hints(service_app):
    status, headers, raw = req(service_app, "GET", "/v2/nope")
    assert status == 404 and headers["X-BigVLittle-Cache"] == "miss"
    assert "hint" in json.loads(raw)
    status, _, _ = req(service_app, "POST", "/v1/jobs", {})
    assert status == 404


# ----------------------------------------------------------------- submit

def test_submit_runs_job_to_done_with_levels(service_app):
    job = submit_and_wait(service_app, dict(RUN))
    assert job["state"] == "done" and job["schema"] == SERVICE_SCHEMA
    assert list(job["levels"].values()) == ["fresh"]
    # a second, identical submission completes from cache (warm job)
    job2 = submit_and_wait(service_app, dict(RUN))
    assert job2["levels"][job["keys"][0]] in ("memory", "disk")


def test_submit_validation_errors_are_400(service_app):
    """A body off the schema, or a run spec that could never simulate (an
    unknown system, override field or workload, or a config no ``System``
    can be built from), gets a 400 with the error text at submit, and
    nothing is queued or journaled."""
    for bad, text in (
            ({"workload": "vvadd"}, "'system'"),
            ({"system": "1b", "workload": "vvadd", "scale": "huge"},
             "scale"),
            ({"system": "1b", "workload": "vvadd", "artifacts": ["stats"]},
             "unknown artifact"),
            (dict(RUN, system="nope"), "unknown system preset 'nope'"),
            (dict(RUN, overrides={"bogus": 1}), "'bogus'"),
            (dict(RUN, overrides={"mem": {"bogus": 1}}), "'bogus'"),
            (dict(RUN, overrides={"mem": 5}), "'mem' must be"),
            (dict(RUN, workload="nope"), "unknown workload 'nope'"),
            (dict(RUN, system="1b-4VL", overrides={"chimes": 4}),
             "chimes must be 1"),
            (dict(RUN, system="1b-4VL", overrides={"n_little": 3}),
             "power of two"),
            (dict(RUN, overrides={"mem": {"dram_latency": "x"}}),
             "not supported"),
            (dict(RUN, overrides={"mem": {"l2_banks": 3}}),
             "powers of two")):
        status, _, raw = req(service_app, "POST", "/v1/runs", bad)
        assert status == 400, (bad, raw)
        doc = json.loads(raw)
        assert doc["schema"] == SERVICE_SCHEMA
        assert text in doc["error"]
    status, _, raw = req(service_app, "POST", "/v1/runs", None)
    assert status == 400
    assert service_app.queue.counters["enqueued"] == 0
    assert not os.path.exists(
        os.path.join(service_app.cache_root, "service", "jobs.jsonl"))


def test_concurrent_identical_submits_dedup(service_app):
    # stall the single worker with a first job so the next two coexist
    # in the queue and coalesce
    service_app.queue.submit([{"system": "1b", "workload": "vvadd",
                               "scale": "tiny",
                               "overrides": {"mem": {"dram_latency": 555}}}])
    s1, _, r1 = req(service_app, "POST", "/v1/runs", dict(RUN))
    s2, _, r2 = req(service_app, "POST", "/v1/runs", dict(RUN))
    a, b = json.loads(r1), json.loads(r2)
    if b["deduplicated"]:  # worker may drain a before b arrives
        assert (s1, s2) == (202, 200)
        assert a["id"] == b["id"]
        assert service_app.queue.counters["deduped"] >= 1


# ---------------------------------------------------------------- results

def test_results_index_reports_levels_and_artifacts(service_app):
    job = submit_and_wait(service_app, dict(RUN))
    key = job["keys"][0]
    status, headers, raw = req(service_app, "GET", f"/v1/results/{key}")
    assert status == 200
    doc = json.loads(raw)
    assert doc["cached"] is True
    assert headers["X-BigVLittle-Cache"] in ("memory", "disk")
    assert doc["artifacts"]["derived"] == ["stats", "result", "summary",
                                           "stall.svg"]
    status, headers, raw = req(service_app, "GET", "/v1/results/" + "0" * 64)
    assert status == 404 and headers["X-BigVLittle-Cache"] == "miss"
    assert "POST /v1/runs" in json.loads(raw)["hint"]


def test_warm_artifact_get_never_simulates(service_app, run_spy):
    """The acceptance bar: once a run is cached, GET /v1/results serves
    bytes with ZERO System.run calls — and those bytes are identical to
    the canonical dump of the directly generated result."""
    job = submit_and_wait(service_app, dict(RUN))
    key = job["keys"][0]
    assert run_spy["n"] == 1  # the one worker simulation

    baseline = run_spy["n"]
    status, h1, first = req(service_app, "GET", f"/v1/results/{key}/stats")
    status2, h2, second = req(service_app, "GET", f"/v1/results/{key}/stats")
    assert (status, status2) == (200, 200)
    assert h1["X-BigVLittle-Cache"] == "generated"
    assert h2["X-BigVLittle-Cache"] == "artifact"
    assert first == second
    for name in ("result", "summary", "stall.svg"):
        status, _, _ = req(service_app, "GET", f"/v1/results/{key}/{name}")
        assert status == 200
    assert run_spy["n"] == baseline  # zero System.run across every GET

    # byte-identical to the canonical dump of the cached result (which
    # round-tripped the simulation run_pair performed)
    from repro.obs.diff import dump_result

    direct = (json.dumps(dump_result(service_app.cache.get(key)),
                         indent=1, sort_keys=True) + "\n").encode()
    assert first == direct
    assert run_spy["n"] == baseline


def test_results_serve_what_run_pair_cached(service_app, request):
    """CLI and service share one cache directory: a result ``run_pair``
    stored under ``<cache-root>/cache`` is served as the ``stats``
    artifact with no simulation anywhere."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import run_pair
    from repro.obs.diff import dump_result
    from repro.soc import preset

    cli_cache = ResultCache(
        cache_dir=os.path.join(service_app.cache_root, "cache"))
    result = run_pair(RUN["system"], RUN["workload"], RUN["scale"],
                      cache=cli_cache)
    key = cli_cache.key_for(preset(RUN["system"]), RUN["workload"],
                            RUN["scale"])
    run_spy = request.getfixturevalue("run_spy")  # counts from here on
    status, headers, raw = req(service_app, "GET", f"/v1/results/{key}/stats")
    assert status == 200 and headers["X-BigVLittle-Cache"] == "generated"
    assert raw == (json.dumps(dump_result(result), indent=1, sort_keys=True)
                   + "\n").encode()
    assert run_spy["n"] == 0


def test_simulated_artifacts_404_with_hint_not_a_run(service_app, run_spy):
    job = submit_and_wait(service_app, dict(RUN))
    key = job["keys"][0]
    baseline = run_spy["n"]
    status, headers, raw = req(service_app, "GET",
                               f"/v1/results/{key}/timeline")
    assert status == 404
    assert "GET never simulates" in json.loads(raw)["hint"]
    assert run_spy["n"] == baseline
    status, _, raw = req(service_app, "GET", f"/v1/results/{key}/bogus")
    assert status == 404 and "stall.svg" in json.loads(raw)["hint"]


def test_requested_artifacts_serve_after_job(service_app):
    job = submit_and_wait(service_app,
                          dict(RUN, artifacts=["timeline", "phases"]))
    key = job["keys"][0]
    for name, ctype in (("timeline", "application/json"),
                        ("phases", "application/json")):
        status, headers, raw = req(service_app, "GET",
                                   f"/v1/results/{key}/{name}")
        assert status == 200
        assert headers["X-BigVLittle-Cache"] == "artifact"
        assert headers["Content-Type"] == ctype
        assert json.loads(raw)  # well-formed
    status, headers, _ = req(service_app, "GET",
                             f"/v1/results/{key}/stall.svg")
    assert headers["Content-Type"] == "image/svg+xml"


def test_server_process_never_simulates(service_app, run_spy):
    """Every simulation of a job — its plain run and the instrumented run
    behind ``timeline``/``phases`` — goes to the worker pool's processes:
    the server process itself makes zero ``System.run`` calls."""
    job = submit_and_wait(service_app,
                          dict(RUN, artifacts=["timeline", "phases"]))
    key = job["keys"][0]
    for name in ("stats", "result", "summary", "stall.svg", "timeline",
                 "phases"):
        status, _, _ = req(service_app, "GET", f"/v1/results/{key}/{name}")
        assert status == 200
    assert submit_and_wait(service_app, dict(RUN))["state"] == "done"
    assert run_spy["local"] == 0
    assert run_spy["pool"] == 2


# ------------------------------------------------------------ stats, drain

def test_stats_counters_reconcile(service_app):
    submit_and_wait(service_app, dict(RUN))
    status, _, raw = req(service_app, "GET", "/v1/stats")
    doc = json.loads(raw)
    c = doc["queue"]["counters"]
    assert c["enqueued"] >= 1 and c["done"] >= 1
    assert doc["pool"]["alive"] == doc["pool"]["workers"] == 1


def test_draining_service_returns_503(service_app):
    submit_and_wait(service_app, dict(RUN))
    service_app.queue.close()  # what stop(drain=True) does first
    status, _, raw = req(service_app, "POST", "/v1/runs", dict(RUN))
    assert status == 503
    assert "draining" in json.loads(raw)["error"]
    # reads keep working during the drain window
    status, _, _ = req(service_app, "GET", "/v1/jobs")
    assert status == 200


def test_jobs_listing_newest_first(service_app):
    first = submit_and_wait(service_app, dict(RUN))
    second = submit_and_wait(
        service_app, dict(RUN, overrides={"mem": {"dram_latency": 200}}))
    status, _, raw = req(service_app, "GET", "/v1/jobs?limit=10")
    jobs = json.loads(raw)["jobs"]
    assert [j["id"] for j in jobs[:2]] == [second["id"], first["id"]]


def test_journal_survives_restart(tmp_path):
    """Stop a service with queued work; a new instance on the same root
    recovers and runs it."""
    from repro.service import ServiceApp

    root = str(tmp_path / "svc")
    app = ServiceApp(cache_root=root, port=0, workers=1)
    # enqueue without workers running, then shut down without draining
    job, _ = app.queue.submit([{"system": "1b", "workload": "vvadd",
                                "scale": "tiny", "overrides": {}}])
    app.stop(drain=False)

    app2 = ServiceApp(cache_root=root, port=0, workers=1).start()
    try:
        assert app2.queue.counters["recovered"] == 1
        deadline = time.time() + 20
        while time.time() < deadline:
            j = app2.queue.get(job.id)
            if j.state == "done":
                break
            time.sleep(0.02)
        assert app2.queue.get(job.id).state == "done"
    finally:
        app2.stop(drain=True)


def test_stop_returns_for_an_app_that_was_never_started(tmp_path):
    """stop() on an app whose HTTP loop never ran must return, not wait
    forever for a serve_forever that will never exit."""
    from repro.service import ServiceApp

    app = ServiceApp(cache_root=str(tmp_path / "svc"), port=0, workers=1)
    stopper = threading.Thread(target=app.stop, daemon=True)
    stopper.start()
    stopper.join(5)
    assert not stopper.is_alive(), "stop() hung on a never-started app"
    assert app.httpd.socket.fileno() == -1  # the socket is released


def test_stop_of_an_idle_app_returns_promptly(tmp_path):
    """Nothing on an idle app's stop path waits out a poll: the workers
    block in ``claim()`` until ``close()`` wakes them, and the HTTP loop
    notices the shutdown within ``SHUTDOWN_POLL_S``."""
    from repro.service import ServiceApp

    app = ServiceApp(cache_root=str(tmp_path / "svc"), port=0,
                     workers=2).start()
    t0 = time.perf_counter()
    app.stop(drain=True)
    assert time.perf_counter() - t0 < 0.25
    assert app.pool.alive == 0


# ------------------------------------------------------------- disk faults

@pytest.mark.parametrize("err", [errno.ENOSPC, errno.EACCES],
                         ids=["ENOSPC", "EACCES"])
def test_failed_cache_write_fails_the_job_and_caches_nothing(
        service_app, monkeypatch, err):
    """A result whose cache write fails is not cached, not even in
    memory: every retry simulates again and hits the same fault, so the
    job ends exactly once, as failed after max_retries, with nothing
    under the cache dir and the key a 404."""
    cache_dir = os.path.abspath(service_app.cache.cache_dir)
    replace = os.replace

    def failing_replace(src, dst, *args, **kwargs):
        if os.path.dirname(os.path.abspath(dst)) == cache_dir:
            raise OSError(err, os.strerror(err), dst)
        return replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", failing_replace)
    job = submit_and_wait(service_app, dict(RUN))
    assert job["state"] == "failed"
    assert os.strerror(err) in job["error"]
    counters = service_app.queue.counters
    assert (counters["done"], counters["failed"]) == (0, 1)
    assert counters["retried"] == service_app.pool.max_retries
    journal = os.path.join(service_app.cache_root, "service", "jobs.jsonl")
    with open(journal) as f:
        ends = [json.loads(line)["ev"] for line in f]
    ends = [ev for ev in ends if ev in ("job_done", "job_failed")]
    assert ends == ["job_failed"]
    assert not [fn for fn in os.listdir(cache_dir)
                if fn.endswith((".json", ".tmp"))]
    status, headers, _ = req(service_app, "GET",
                             f"/v1/results/{job['keys'][0]}")
    assert status == 404 and headers["X-BigVLittle-Cache"] == "miss"


@pytest.mark.parametrize("err", [errno.ENOSPC, errno.EACCES],
                         ids=["ENOSPC", "EACCES"])
def test_failed_artifact_write_ends_each_job_exactly_once(
        tmp_path, monkeypatch, err):
    """Two jobs queued before the worker starts, the second asking for a
    ``timeline`` whose write into its artifact directory fails: the first
    ends ``done`` once, the second ``failed`` once after ``max_retries``,
    the journal holds one terminal line per job, no temp file is left,
    and the timeline stays a 404."""
    from repro.service import ServiceApp

    app = ServiceApp(cache_root=str(tmp_path / "svc"), port=0, workers=1,
                     backoff_s=0.01)
    try:
        first, _ = app.queue.submit([dict(RUN, overrides={})])
        second, _ = app.queue.submit(
            [dict(RUN, overrides={"mem": {"dram_latency": 300}})],
            artifacts=("timeline",))
        key_dir = os.path.abspath(app.artifacts.dir_for(second.keys[0]))
        replace = os.replace

        def failing_replace(src, dst, *args, **kwargs):
            if os.path.dirname(os.path.abspath(dst)) == key_dir:
                raise OSError(err, os.strerror(err), dst)
            return replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", failing_replace)
        app.start()
        assert app.queue.wait(second.id, 60)["state"] == "failed"
        assert app.queue.wait(first.id, 60)["state"] == "done"
        assert os.strerror(err) in second.error
        counters = app.queue.counters
        assert (counters["done"], counters["failed"]) == (1, 1)
        assert counters["retried"] == app.pool.max_retries
        journal = os.path.join(app.cache_root, "service", "jobs.jsonl")
        with open(journal) as f:
            recs = [json.loads(line) for line in f]
        ends = {job.id: [r["ev"] for r in recs if r["job"]["id"] == job.id
                         and r["ev"] in ("job_done", "job_failed")]
                for job in (first, second)}
        assert ends == {first.id: ["job_done"], second.id: ["job_failed"]}
        tmp = [os.path.join(d, fn)
               for d, _, files in os.walk(app.artifacts.root)
               for fn in files if fn.endswith(".tmp")]
        assert tmp == []
        status, _, _ = req(app, "GET",
                           f"/v1/results/{second.keys[0]}/timeline")
        assert status == 404
    finally:
        app.stop(drain=True)


# ------------------------------------------------------------ server process

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _smoke_tool():
    """``tools/service_smoke.py`` as a module, for its process-table
    helpers."""
    path = os.path.join(os.path.dirname(SRC), "tools", "service_smoke.py")
    spec = importlib.util.spec_from_file_location("service_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: a 1-worker service on ``argv[1]`` that runs one job and dies at
#: ``argv[2]``: when the job's result has landed in the cache but before
#: ``job_done`` is journaled, or after ``job_start`` is journaled but
#: before the cache write; ``os._exit`` runs no clean-up, like a SIGKILL
_DYING_SERVER = """
import os
import sys

from repro.experiments.cache import ResultCache
from repro.service import ServiceApp
from repro.service.jobs import JobQueue


def die(*args, **kwargs):
    os._exit(17)


if __name__ == "__main__":
    root, point = sys.argv[1], sys.argv[2]
    if point == "before-job-done":
        JobQueue.complete = die
    else:
        ResultCache.put = die
    app = ServiceApp(cache_root=root, port=0, workers=1)
    job, _ = app.queue.submit([%r])
    app.start()
    app.queue.wait(job.id, 60)
    sys.exit(3)  # the job ended: the hook never fired
""" % dict(RUN, overrides={})


@pytest.mark.parametrize("point,level,simulations",
                         [("before-job-done", "disk", 0),
                          ("before-cache-write", "fresh", 1)])
def test_a_server_killed_mid_job_ends_it_exactly_once(
        tmp_path, run_spy, point, level, simulations):
    """A server that dies between a job's journal lines and its cache
    write: the restart on the same root recovers the job once and ends
    it ``done``, from the disk cache if the result had landed, else by
    simulating it once; the journal holds one terminal line for it, and
    no temp file is left anywhere under the root."""
    from repro.service import ServiceApp

    root = str(tmp_path / "svc")
    script = tmp_path / "dying_server.py"
    script.write_text(_DYING_SERVER)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(script), root, point],
                          env=env, timeout=120, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    assert proc.returncode == 17
    journal = os.path.join(root, "service", "jobs.jsonl")
    with open(journal) as f:
        assert [json.loads(line)["ev"] for line in f] == [
            "job_enqueued", "job_start"]
    app = ServiceApp(cache_root=root, port=0, workers=1).start()
    try:
        assert app.queue.counters["recovered"] == 1
        [job] = app.queue.jobs()
        record = app.queue.wait(job.id, 60)
    finally:
        app.stop(drain=True)
    assert record["state"] == "done"
    assert record["levels"] == {record["keys"][0]: level}
    assert app.queue.counters["started"] == 1
    assert run_spy["pool"] == simulations
    with open(journal) as f:
        ends = [json.loads(line)["ev"] for line in f]
    assert [ev for ev in ends if ev in ("job_done", "job_failed")] == [
        "job_done"]
    assert [fn for _, _, files in os.walk(root) for fn in files
            if fn.endswith(".tmp")] == []


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads the process table from /proc")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM,
                                 signal.SIGINT],
                         ids=["SIGKILL", "SIGTERM", "SIGINT"])
def test_an_ended_server_leaves_no_process_behind(tmp_path, sig):
    """However ``bigvlittle serve`` ends — a SIGTERM or Ctrl-C drain that
    exits 0, or a SIGKILL that runs no clean-up at all — every process it
    started (the forkserver, the resource tracker, the pool's simulation
    processes) is gone within 5 s."""
    smoke = _smoke_tool()
    port = smoke.free_port()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "serve",
         "--port", str(port), "--cache-root", str(tmp_path / "svc")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    started = []
    try:
        deadline = time.monotonic() + 30
        while True:
            assert proc.poll() is None and time.monotonic() < deadline
            try:
                if creq(conn, "GET", "/v1/healthz")[0] == 200:
                    break
            except OSError:
                conn.close()
                time.sleep(0.05)
        job = json.loads(creq(conn, "POST", "/v1/runs", dict(RUN))[2])
        while job["state"] not in ("done", "failed"):
            job = json.loads(creq(conn, "GET", f"/v1/jobs/{job['id']}")[2])
        assert job["state"] == "done"
        started += smoke.descendants(proc.pid)
        # forkserver, resource tracker, and the process that ran the job
        assert len(started) >= 3, started
        proc.send_signal(sig)
        assert proc.wait(timeout=30) == (-signal.SIGKILL
                                         if sig == signal.SIGKILL else 0)
        deadline = time.monotonic() + 5
        while left := [pid for pid in started if smoke.running(pid)]:
            assert time.monotonic() < deadline, f"still running: {left}"
            time.sleep(0.05)
    finally:
        conn.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in started:  # a failed run must not leak them either
            if smoke.running(pid):
                os.kill(pid, signal.SIGKILL)
