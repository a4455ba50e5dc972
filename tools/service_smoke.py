#!/usr/bin/env python
"""End-to-end smoke test of ``bigvlittle serve`` over a real socket.

What CI runs (and what an operator can run locally to vet a deploy):

1. start the service as a subprocess on a free port, with telemetry on;
2. wait for ``GET /v1/healthz``;
3. ``POST /v1/runs`` one saxpy run that asks for the ``timeline`` and
   ``phases`` artifacts, and poll ``GET /v1/jobs/<id>`` to done;
4. fetch the ``stats`` artifact twice — first ``generated``, then
   ``artifact`` — and byte-compare it against a direct in-process
   ``run_pair`` dump (the no-simulation-drift guarantee);
   require the flat on-disk layout under the service root:
   ``results/cache/<key>.json`` and ``results/artifacts/<key>/stats.json``
   exist, and no two-character prefix directory was made;
5. byte-compare the served ``timeline`` against a direct in-process
   ``simulate_timeline(...).to_json`` dump, and require ``phases``;
6. fetch ``stats`` ``WARM_GETS`` more times and require a median under
   ``WARM_GET_MS`` — a reply stalled by Nagle's algorithm takes 40 ms;
7. re-submit the same body and require dedup/instant completion;
8. check ``GET /v1/stats`` counters reconcile with the telemetry JSONL;
9. SIGTERM the server and require a clean drain + exit 0, after which
   no process the server started (simulation pool, forkserver,
   resource tracker) may survive ``LEFTOVER_S`` seconds.

Every request goes over one persistent HTTP/1.1 connection, as a real
client's would, and job polls do not sleep: the server holds each poll
until the job ends or its wait bound passes.

The leftover-process check reads the process table from ``/proc`` and
is skipped where there is none.

Usage: ``python tools/service_smoke.py [--keep DIR]`` — ``--keep``
copies the server's telemetry log and fetched artifacts into DIR (CI
uploads it).  Exit 0 on success; any failure prints a diagnosis and the
server's output, and exits 1.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

#: warm ``stats`` GETs timed on the kept-alive connection, and the limit
#: on their median
WARM_GETS = 20
WARM_GET_MS = 20.0
#: how long the processes a drained server started may take to exit
LEFTOVER_S = 5.0


def request(conn, method, path, body=None):
    """One request on the kept-alive connection ``conn``."""
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    resp = conn.getresponse()
    return resp.status, dict(resp.headers), resp.read()


def poll(conn, job_id, timeout=60.0):
    """Poll a job until it ends or ``timeout`` seconds pass; returns its
    last record."""
    deadline = time.monotonic() + timeout
    while True:
        _, _, raw = request(conn, "GET", f"/v1/jobs/{job_id}")
        job = json.loads(raw)
        if job["state"] in ("done", "failed") \
                or time.monotonic() > deadline:
            return job


def descendants(pid):
    """Every process below ``pid`` in the process table (``/proc``)."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def running(pid):
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def free_port():
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def fail(msg, proc=None):
    print(f"service_smoke: FAIL: {msg}")
    if proc is not None:
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=10)
            print("---- server output ----")
            print(out)
        except subprocess.TimeoutExpired:
            proc.kill()
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keep", metavar="DIR", default=None,
                    help="copy the telemetry log + fetched artifacts here")
    args = ap.parse_args()

    root = tempfile.mkdtemp(prefix="bigvlittle-smoke-")
    tele = os.path.join(root, "service_telemetry.jsonl")
    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "serve",
         "--port", str(port), "--workers", "1",
         "--cache-root", os.path.join(root, "results"),
         "--telemetry", tele],
        env=env, cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    try:
        for _ in range(100):
            if proc.poll() is not None:
                return fail("server exited during startup", proc)
            try:
                status, _, _ = request(conn, "GET", "/v1/healthz")
                if status == 200:
                    break
            except OSError:
                conn.close()
                time.sleep(0.1)
        else:
            return fail("server never answered /v1/healthz", proc)
        print(f"service_smoke: server healthy on port {port}")

        spec = {"system": "1b-4VL", "workload": "saxpy", "scale": "tiny"}
        body = dict(spec, artifacts=["timeline", "phases"])
        status, _, raw = request(conn, "POST", "/v1/runs", body)
        if status != 202:
            return fail(f"submit returned {status}: {raw!r}", proc)
        job = json.loads(raw)
        key = job["keys"][0]
        print(f"service_smoke: submitted {job['id']} key={key[:12]}…")

        job = poll(conn, job["id"])
        if job["state"] != "done":
            return fail(f"job ended as {job['state']}: {job}", proc)
        print(f"service_smoke: job done, levels={job['levels']}")

        stats_path = f"/v1/results/{key}/stats"
        status, h1, served = request(conn, "GET", stats_path)
        status2, h2, served2 = request(conn, "GET", stats_path)
        if status != 200 or status2 != 200:
            return fail(f"stats artifact GET failed ({status}/{status2})",
                        proc)
        lvl1 = h1.get("X-BigVLittle-Cache")
        lvl2 = h2.get("X-BigVLittle-Cache")
        if (lvl1, lvl2) != ("generated", "artifact") or served != served2:
            return fail(f"artifact levels {lvl1}/{lvl2} or bytes changed "
                        "between fetches", proc)

        from repro.experiments.runner import run_pair
        from repro.obs.diff import dump_result

        direct = (json.dumps(dump_result(
            run_pair("1b-4VL", "saxpy", "tiny", use_cache=False)),
            indent=1, sort_keys=True) + "\n").encode()
        if served != direct:
            return fail("served stats artifact differs from a direct "
                        "run_pair dump", proc)
        print(f"service_smoke: stats artifact byte-identical to direct run "
              f"({len(served)} bytes)")

        state = os.path.join(root, "results")
        missing = [p for p in (os.path.join(state, "cache", f"{key}.json"),
                               os.path.join(state, "artifacts", key,
                                            "stats.json"))
                   if not os.path.isfile(p)]
        prefix_dirs = [os.path.join(tree, d)
                       for tree in ("cache", "artifacts")
                       for d in os.listdir(os.path.join(state, tree))
                       if len(d) == 2
                       and os.path.isdir(os.path.join(state, tree, d))]
        if missing or prefix_dirs:
            return fail(f"state root is not in the flat layout: missing "
                        f"{missing}, prefix directories {prefix_dirs}", proc)
        print("service_smoke: cache entry and stats artifact in the flat "
              "layout")

        from repro.service.artifacts import simulate_timeline

        fetched = {}
        for name in ("timeline", "phases"):
            status, headers, fetched[name] = request(
                conn, "GET", f"/v1/results/{key}/{name}")
            if status != 200 or \
                    headers.get("X-BigVLittle-Cache") != "artifact":
                return fail(f"{name} artifact GET returned {status}/"
                            f"{headers.get('X-BigVLittle-Cache')}", proc)
        direct_tl = os.path.join(root, "direct_timeline.json")
        simulate_timeline(spec).to_json(direct_tl)
        with open(direct_tl, "rb") as f:
            if fetched["timeline"] != f.read():
                return fail("served timeline artifact differs from a direct "
                            "simulate_timeline dump", proc)
        print(f"service_smoke: timeline artifact byte-identical to direct "
              f"run ({len(fetched['timeline'])} bytes), phases served")

        warm_ms = []
        for _ in range(WARM_GETS):
            t0 = time.perf_counter()
            status, _, data = request(conn, "GET", stats_path)
            warm_ms.append((time.perf_counter() - t0) * 1e3)
            if status != 200 or data != served:
                return fail(f"warm stats GET returned {status} or changed "
                            "bytes", proc)
        median_ms = statistics.median(warm_ms)
        if median_ms > WARM_GET_MS:
            return fail(f"median of {WARM_GETS} warm stats GETs on a "
                        f"kept-alive connection is {median_ms:.1f} ms "
                        f"(limit {WARM_GET_MS:.0f} ms)", proc)
        print(f"service_smoke: warm stats GET median {median_ms:.2f} ms "
              f"over {WARM_GETS} requests on one connection")

        status, _, raw = request(conn, "POST", "/v1/runs", body)
        if status != 200 and json.loads(raw)["state"] != "done":
            # not deduplicated (job already finished) — must at least be
            # a warm job; poll it to done and require a cache-level hit
            levels = poll(conn, json.loads(raw)["id"]).get("levels") or {}
            if levels.get(key) not in ("memory", "disk"):
                return fail(f"warm resubmit did not hit the cache: {levels}",
                            proc)
        print("service_smoke: warm resubmit served from cache")

        status, _, raw = request(conn, "GET", "/v1/stats")
        stats = json.loads(raw)
        counters = stats["queue"]["counters"]
        if counters["done"] < 1 or counters["enqueued"] < 1:
            return fail(f"queue counters look wrong: {counters}", proc)

        from repro.experiments.telemetry import load_jsonl

        events = load_jsonl(tele)
        by_ev = {}
        for ev in events:
            by_ev[ev["ev"]] = by_ev.get(ev["ev"], 0) + 1
        if by_ev.get("job_done", 0) != counters["done"] + counters["failed"]:
            return fail(f"telemetry does not reconcile: job_done="
                        f"{by_ev.get('job_done')} vs counters {counters}",
                        proc)
        print(f"service_smoke: telemetry reconciles "
              f"({by_ev.get('job_enqueued', 0)} enqueued, "
              f"{by_ev.get('job_done', 0)} done events)")

        conn.close()
        check_leftovers = os.path.isdir("/proc/self")
        started = descendants(proc.pid) if check_leftovers else []
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        if proc.returncode != 0:
            print(out)
            return fail(f"server exited {proc.returncode} on SIGTERM")
        print("service_smoke: clean drain on SIGTERM")
        if check_leftovers:
            deadline = time.monotonic() + LEFTOVER_S
            while left := [pid for pid in started if running(pid)]:
                if time.monotonic() > deadline:
                    return fail(f"processes the server started still run "
                                f"{LEFTOVER_S:.0f} s after its exit: {left}")
                time.sleep(0.05)
            print(f"service_smoke: none of the {len(started)} processes the "
                  f"server started outlived it")

        if args.keep:
            os.makedirs(args.keep, exist_ok=True)
            shutil.copy(tele, os.path.join(args.keep,
                                           "service_telemetry.jsonl"))
            with open(os.path.join(args.keep, "stats_artifact.json"),
                      "wb") as f:
                f.write(served)
            for name, data in fetched.items():
                with open(os.path.join(args.keep, f"{name}_artifact.json"),
                          "wb") as f:
                    f.write(data)
            print(f"service_smoke: kept telemetry + artifact in {args.keep}")
        print("service_smoke: OK")
        return 0
    finally:
        conn.close()
        if proc.poll() is None:
            proc.kill()
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
