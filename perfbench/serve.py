"""``serve``: the sweep service under one closed-loop client.

``bigvlittle serve`` runs as a subprocess with default flags and a
private ``--cache-root`` inside the checkout. The client drives it over
``min(nproc, 2)`` persistent HTTP/1.1 connections, one thread each, and
sends a connection's next request only when its previous reply is in:

* **cold** — submit every pair of ``SERVE_PAIRS`` (``POST /v1/runs``),
  poll each job to ``done``, and fetch its ``stats`` artifact, whose
  stats must match the reference digest; every ``TIMELINE_EVERY``-th
  pair also asks for the simulated ``timeline`` artifact;
* **warm** — ``WARM_REQUESTS`` requests that fetch the derived
  artifacts of the cold keys, every ``WARM_JOB_EVERY``-th of them a
  resubmitted cached spec, which must complete without simulating.

Each server lifetime (spawn, cold, warm, SIGTERM) is one round; rounds
repeat on fresh cache roots until the time is up. The seed orders the
submissions, the fetches and the resubmitted specs.

Connections stay open because that is how a client reuses them; the
service's replies then stall on the kept-alive connection, and the
benchmark's warm-fetch latency shows it.

In the traced run the client records a span per request and job, and
the server additionally writes its sweep telemetry (``--telemetry``),
whose ``run_end``/``worker_busy``/``cache_*`` events give the server's
run-loop, system-build and cache-lookup times.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque

from harness import ROOT, SCALE, WORK, Ops, child_env, median, pair_id, \
    percentile, span, stat_counts, stats_digest, workers

#: cheap-to-simulate workloads, on every system: the service layers, not
#: the simulator, set the pace
SERVE_WORKLOADS = ("mmult", "vvadd", "saxpy", "backprop", "kcore")
SYSTEMS = ("1L", "1b", "1bIV", "1b-4L", "1bIV-4L", "1bDV", "1b-4VL")
SERVE_PAIRS = tuple((s, w) for w in SERVE_WORKLOADS for s in SYSTEMS)
TIMELINE_EVERY = 10
DERIVED = ("stats", "summary", "result", "stall.svg")
WARM_JOB_EVERY = 10
#: warm requests per server lifetime
WARM_REQUESTS = 60


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``bigvlittle serve`` subprocess; ``setup_s`` is spawn to the
    first 200 on ``/v1/healthz``."""

    def __init__(self, root, telemetry=None, timeout=60.0):
        self.root = root
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        self.port = _free_port()
        argv = [sys.executable, "-m", "repro.experiments.cli", "serve",
                "--port", str(self.port), "--cache-root", root]
        if telemetry:
            argv += ["--telemetry", telemetry]
        self._log = open(os.path.join(root, "server.log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server exited {self.proc.returncode}"
                                       " during start-up")
                if time.perf_counter() - t0 > timeout:
                    raise RuntimeError("server never answered /v1/healthz")
                try:
                    conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                      timeout=5)
                    try:
                        conn.request("GET", "/v1/healthz")
                        if conn.getresponse().status == 200:
                            break
                    finally:
                        conn.close()
                except OSError:
                    time.sleep(0.005)
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.stop()
            raise

    def stop(self):
        """SIGTERM (the service drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


class Conn:
    """One persistent HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, port):
        self.port = port
        self.c = None

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        if self.c is None:
            self.c = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=60)
        t0 = time.perf_counter()
        try:
            self.c.request(method, path, body=data, headers=headers)
            resp = self.c.getresponse()
            payload = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return (resp.status, resp.getheader("X-BigVLittle-Cache"), payload,
                time.perf_counter() - t0)

    def close(self):
        if self.c is not None:
            self.c.close()
            self.c = None


class _Client:
    """State shared by the client threads of one server lifetime."""

    def __init__(self, reference, tracer, ops):
        self.reference = reference
        self.tracer = tracer
        self.ops = ops
        self.lock = threading.Lock()
        self.lat = {k: [] for k in ("job", "warm_job", "get", "post", "poll",
                                    "generated", "queue_wait", "exec")}
        self.cold = {}       # pair id -> {"key", "spec", "cycles", "stats"}
        self.polls = 0
        self.warm_requests = 0

    def record(self, name, seconds):
        with self.lock:
            self.lat[name].append(seconds * 1e3)

    def fail(self, msg):
        with self.lock:
            self.ops.fail(msg)

    def ok(self):
        with self.lock:
            self.ops.ok()

    # ------------------------------------------------------------------ ops

    def _job(self, conn, body, rid, warm):
        """Submit ``body`` and poll the job to a terminal state; returns
        the final job record (raises on an unexpected status)."""
        tr = self.tracer
        with span(tr, "http.post", rid):
            status, _, raw, dt = conn.request("POST", "/v1/runs", body)
        self.record("post", dt)
        if status not in ((202, 200) if warm else (202,)):
            raise RuntimeError(f"POST /v1/runs returned {status}")
        job = json.loads(raw)
        polls = 0
        requests = 1
        while job["state"] not in ("done", "failed"):
            with span(tr, "http.job", rid):
                status, _, raw, dt = conn.request("GET",
                                                  f"/v1/jobs/{job['id']}")
            self.record("poll", dt)
            polls += 1
            requests += 1
            if status != 200:
                raise RuntimeError(f"GET /v1/jobs returned {status}")
            job = json.loads(raw)
        with self.lock:
            if warm:
                self.warm_requests += requests
            else:
                self.polls += polls
        return job

    def cold_job(self, conn, idx, system, workload):
        rid = pair_id(system, workload)
        body = {"system": system, "workload": workload, "scale": SCALE}
        if idx % TIMELINE_EVERY == 0:
            body["artifacts"] = ["timeline"]
        with span(self.tracer, "bench.job", rid):
            t0 = time.perf_counter()
            job = self._job(conn, body, rid, warm=False)
            self.record("job", time.perf_counter() - t0)
            if job["state"] != "done":
                return self.fail(f"{rid}: job {job['state']}: {job['error']}")
            key = job["keys"][0]
            if job["started_ts"] and job["finished_ts"]:
                self.record("queue_wait", job["started_ts"] - job["created_ts"])
                self.record("exec", job["finished_ts"] - job["started_ts"])
            if (job["levels"] or {}).get(key) != "fresh":
                return self.fail(f"{rid}: cold job did not simulate "
                                 f"({job['levels']})")
            with span(self.tracer, "http.generated", rid):
                status, level, raw, dt = conn.request(
                    "GET", f"/v1/results/{key}/stats")
            self.record("generated", dt)
            if status != 200 or level != "generated":
                return self.fail(f"{rid}: stats artifact {status}/{level}")
            doc = json.loads(raw)
            if "artifacts" in body:
                with span(self.tracer, "http.artifact", rid):
                    status, level, _, _ = conn.request(
                        "GET", f"/v1/results/{key}/timeline")
                if status != 200 or level != "artifact":
                    return self.fail(f"{rid}: timeline artifact "
                                     f"{status}/{level}")
        got = stats_digest(doc["stats"])
        want = self.reference.get(rid)
        if got != want:
            return self.fail(f"{rid}: served stats digest {got} != "
                             f"reference {want}")
        with self.lock:
            self.cold[rid] = {"key": key, "spec": body, "stats": raw,
                              "cycles": doc["cycles"]}
        self.ok()

    def warm_job(self, conn, spec):
        rid = pair_id(spec["system"], spec["workload"])
        body = {k: spec[k] for k in ("system", "workload", "scale")}
        with span(self.tracer, "bench.warm_job", rid):
            t0 = time.perf_counter()
            job = self._job(conn, body, rid, warm=True)
            dt = time.perf_counter() - t0
        key = job["keys"][0]
        level = (job["levels"] or {}).get(key)
        if job["state"] != "done" or level not in ("memory", "disk"):
            return self.fail(f"{rid}: warm job {job['state']} at level "
                             f"{level}")
        self.record("warm_job", dt)
        self.ok()

    def warm_get(self, conn, rid, artifact):
        entry = self.cold[rid]
        with span(self.tracer, "bench.get", rid):
            with span(self.tracer, "http.artifact", rid):
                status, level, raw, dt = conn.request(
                    "GET", f"/v1/results/{entry['key']}/{artifact}")
        with self.lock:
            self.warm_requests += 1
        if status != 200 or level not in ("artifact", "generated"):
            return self.fail(f"{rid}: GET {artifact} returned "
                             f"{status}/{level}")
        if artifact == "stats" and raw != entry["stats"]:
            return self.fail(f"{rid}: stats artifact bytes changed")
        self.record("get" if level == "artifact" else "generated", dt)
        self.ok()


def _threads(n, target):
    errors = []

    def body(i):
        try:
            target(i)
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            errors.append(f"client {i}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


def lifetime(root, seed, reference, ops, tracer=None):
    """One server lifetime: spawn, cold phase, ``WARM_REQUESTS`` warm
    requests, SIGTERM. Returns the raw measurements."""
    rng = random.Random(seed)
    telemetry = os.path.join(root, "telemetry.jsonl") if tracer else None
    server = Server(root, telemetry=telemetry)
    n_conn = workers()
    client = _Client(reference, tracer, ops)
    conns = [Conn(server.port) for _ in range(n_conn)]
    out = {"setup_s": server.setup_s}
    try:
        order = list(enumerate(SERVE_PAIRS))
        rng.shuffle(order)
        todo = deque(order)
        t_start = time.perf_counter()

        def cold(i):
            with span(tracer, "bench.client"):
                while True:
                    with client.lock:
                        if not todo:
                            return
                        idx, (system, workload) = todo.popleft()
                    try:
                        client.cold_job(conns[i], idx, system, workload)
                    except (OSError, http.client.HTTPException, RuntimeError,
                            ValueError, KeyError) as exc:
                        client.fail(f"{pair_id(system, workload)}: "
                                    f"{type(exc).__name__}: {exc}")

        for err in _threads(n_conn, cold):
            ops.fail(err)
        t_cold = time.perf_counter()
        out["cold_s"] = t_cold - t_start
        out["cycles"] = sum(e["cycles"] for e in client.cold.values())

        fetches = [(rid, a) for rid in sorted(client.cold) for a in DERIVED]
        rng.shuffle(fetches)
        specs = [client.cold[rid]["spec"] for rid in sorted(client.cold)]
        rng.shuffle(specs)
        cursor = {"n": 0}

        def warm(i):
            with span(tracer, "bench.client"):
                while True:
                    with client.lock:
                        n = cursor["n"]
                        cursor["n"] = n + 1
                    if n >= WARM_REQUESTS or not fetches:
                        return
                    try:
                        if n % WARM_JOB_EVERY == WARM_JOB_EVERY - 1:
                            client.warm_job(conns[i], specs[(n // WARM_JOB_EVERY
                                                             ) % len(specs)])
                        else:
                            rid, art = fetches[n % len(fetches)]
                            client.warm_get(conns[i], rid, art)
                    except (OSError, http.client.HTTPException, RuntimeError,
                            ValueError, KeyError) as exc:
                        client.fail(f"warm #{n}: {type(exc).__name__}: {exc}")

        for err in _threads(n_conn, warm):
            ops.fail(err)
        out["warm_s"] = time.perf_counter() - t_cold
        out["warm_requests"] = client.warm_requests
        status, _, raw, _ = conns[0].request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"GET /v1/stats returned {status}")
        out["server_stats"] = json.loads(raw)
    finally:
        for c in conns:
            c.close()
        code = server.stop()
    if code != 0:
        ops.fail(f"server exited {code} on SIGTERM")
    out["client"] = client
    if telemetry and os.path.exists(telemetry):
        from repro.experiments.telemetry import load_jsonl

        out["telemetry"] = load_jsonl(telemetry)
    shutil.rmtree(root, ignore_errors=True)
    return out


def setup_samples(n):
    """Spawn-to-healthy seconds of ``n`` throwaway servers."""
    samples = []
    for i in range(n):
        server = Server(os.path.join(WORK, "serve", f"setup-{os.getpid()}-{i}"))
        samples.append(server.setup_s)
        server.stop()
        shutil.rmtree(server.root, ignore_errors=True)
    return samples


def run(seconds, seed, reference, tracer=None):
    """Server lifetimes until ``seconds`` are up; each has its own
    seed-drawn order."""
    ops = Ops()
    lives = []
    deadline = time.perf_counter() + seconds
    with span(tracer, "bench.measure"):
        for n in itertools.count():
            root = os.path.join(WORK, "serve", f"run-{os.getpid()}-{n}")
            try:
                lives.append(lifetime(root, seed * 1000 + n, reference, ops,
                                      tracer))
            except (OSError, RuntimeError, ValueError, KeyError) as exc:
                ops.fail(f"server lifetime {n}: {type(exc).__name__}: {exc}")
                break
            if time.perf_counter() >= deadline:
                break
    if not lives:
        return ops, {}
    lat = {k: [x for life in lives for x in life["client"].lat[k]]
           for k in lives[0]["client"].lat}
    best = min(lives, key=lambda life: life["cold_s"])
    metrics = {
        "setup_samples": [life["setup_s"] for life in lives],
        "sim_s": best["cold_s"],
        "sim_throughput": best["cycles"] / 1e3 / best["cold_s"],
        "op_p90_ms": percentile(lat["get"], 90),
        "job_p50_ms": percentile(lat["job"], 50),
        "job_p90_ms": percentile(lat["job"], 90),
        "warm_job_p50_ms": percentile(lat["warm_job"], 50),
        "get_p50_ms": percentile(lat["get"], 50),
        "get_p90_ms": percentile(lat["get"], 90),
        "http_throughput": sum(life["warm_requests"] for life in lives)
        / sum(life["warm_s"] for life in lives),
        "passes": len(lives),
        "jobs": len(lat["job"]),
        "gets": len(lat["get"]),
    }
    if tracer is not None:
        metrics.update(layer_metrics(lives, lat))
    return ops, metrics


def layer_metrics(lives, lat):
    """Per-lifetime layer numbers: the client's request latencies, the
    server's counters (``GET /v1/stats``) and its telemetry events."""
    n = len(lives)
    out = {
        "jobs.queue_wait_p50_ms": median(lat["queue_wait"]),
        "workers.exec_p50_ms": median(lat["exec"]),
        "jobs.polls_per_job": sum(life["client"].polls for life in lives)
        / max(len(lat["job"]), 1),
        "http.post_p50_ms": median(lat["post"]),
        "http.job_p50_ms": median(lat["poll"]),
        "http.generated_p50_ms": median(lat["generated"]),
        "http.artifact_p50_ms": median(lat["get"]),
    }
    totals = {}

    def add(name, v):
        totals[name] = totals.get(name, 0) + v

    for life in lives:
        st = life["server_stats"]
        counters, cache = st["queue"]["counters"], st["cache"]
        for k in ("retried", "failed", "deduped"):
            add("jobs." + k, counters[k])
        add("artifacts.generated", st["artifacts"]["generated"])
        add("cache.corrupt", cache["corrupt"])
        add("cache.hits", cache["hits"])
        add("cache.lookups", cache["hits"] + cache["misses"])
        events = life.get("telemetry", [])
        run_s = {e["key"]: e.get("wall_s", 0.0) for e in events
                 if e["ev"] == "run_end"}
        busy = {e.get("key"): e.get("dur_s", 0.0) for e in events
                if e["ev"] == "worker_busy"}
        add("events.run_s", sum(run_s.values()))
        add("soc.build_s", sum(max(busy.get(k, 0.0) - v, 0.0)
                               for k, v in run_s.items()))
        for level in ("memory", "disk"):
            hits = [e for e in events
                    if e["ev"] == "cache_hit" and e.get("level") == level]
            add(f"cache.get_{level}_calls", len(hits))
            add(f"cache.get_{level}_s", sum(e.get("load_wall_s", 0.0)
                                            for e in hits))
        for entry in life["client"].cold.values():
            stats = json.loads(entry["stats"])["stats"]
            for k, v in stat_counts(stats).items():
                add(k, v)
    for k, v in totals.items():
        if k not in ("cache.hits", "cache.lookups"):
            out[k] = v / n
    out["cache.hit_ratio"] = totals["cache.hits"] / totals["cache.lookups"] \
        if totals.get("cache.lookups") else 0.0
    ex = totals.get("events.ticks_executed", 0)
    sk = totals.get("events.ticks_skipped", 0)
    out["events.skip_frac"] = sk / (ex + sk) if ex + sk else 0.0
    out["events.tick_ns"] = totals["events.run_s"] / ex * 1e9 if ex else 0.0
    return out
