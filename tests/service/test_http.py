"""HTTP API tests over a real socket: contract headers, artifact serving
(warm GETs never simulate), dedup, validation, graceful drain, and
kept-alive connections (no reply stall, bounded job polls)."""

import http.client
import importlib.util
import json
import os
import signal
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
    """Hold the worker at the start of every batch until the returned
    event is set."""
    release = threading.Event()
    execute = app.pool._execute

    def gated(jobs):
        release.wait(20)
        return execute(jobs)

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
    for bad in ({"workload": "vvadd"},
                {"system": "1b", "workload": "vvadd", "scale": "huge"},
                {"system": "1b", "workload": "vvadd",
                 "artifacts": ["stats"]}):
        status, _, raw = req(service_app, "POST", "/v1/runs", bad)
        assert status == 400
        assert json.loads(raw)["schema"] == SERVICE_SCHEMA
    status, _, raw = req(service_app, "POST", "/v1/runs", None)
    assert status == 400


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
    app.queue.close()
    app.httpd.server_close()

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


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads the process table from /proc")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM],
                         ids=["SIGKILL", "SIGTERM"])
def test_an_ended_server_leaves_no_process_behind(tmp_path, sig):
    """However ``bigvlittle serve`` ends — a SIGTERM drain, or a SIGKILL
    that runs no clean-up at all — every process it started (the
    forkserver, the resource tracker, the pool's simulation processes)
    is gone within 5 s."""
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
        assert proc.wait(timeout=30) == (0 if sig == signal.SIGTERM
                                         else -signal.SIGKILL)
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
