#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-engine --seed 1 --seconds 25 --trace 0

``--trace 0`` measures with tracing off and reports every end-to-end
metric of ``BENCHMARK.json``, its CPU-bound times rescaled to the
reference host's speed (:func:`host_normalize`); ``--trace 1`` runs the
workload twice for half the time each, untraced then traced, and reports
every per-layer metric, including span coverage and tracing overhead.
Every metric is printed by name with its unit; the last line of standard
output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The full
result is also written as a ``bigvlittle-bench-v1`` document under
``.perfbench/results/`` (``bigvlittle bench-history --bench PATH`` charts
it), and a traced run writes its spans to ``.perfbench/traces/``.

``--record-reference`` re-records ``reference.json``, the stats digests
every op is checked against; do that only for an intended model change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

from harness import HOST, REFERENCE, ROOT, SCALE, SRC, WORK, Tracer, \
    coverage, ensure_src_on_path, load_reference, median, nproc, pair_id, \
    peak_rss_mib, stats_digest, text_digest, time_child, workers

WORKLOADS = ("sim-engine", "sim-cores", "paper-sweep", "serve")
SETUP_SAMPLES = 7
#: span-name prefixes that are layers of the program (the rest is the
#: benchmark's own work)
LAYERS = ("trace", "soc", "events", "cores", "vector", "mem", "stats",
          "cache", "parallel", "figures", "report", "http")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def git_commit():
    # only the checkout's own repository: git would otherwise search the
    # directories above it
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(workload, seconds, seed, reference, tracer=None, between=None):
    import serve
    import sims
    import sweep

    if workload in sims.PAIRS:
        return sims.run(workload, seconds, seed, reference, tracer,
                        between=between)
    if workload == "paper-sweep":
        return sweep.run(seconds, seed, reference, tracer, between=between)
    return serve.run(seconds, seed, reference, tracer)


def _probe_argv(workload):
    return [sys.executable, os.path.abspath(__file__), "--setup-probe",
            workload]


def spread_setup(workload, seconds):
    """``(samples, between)``: the workload calls ``between`` after each
    pass or round, and it times one fresh process up to its first timed op
    whenever one is due, so that ``SETUP_SAMPLES`` spread over the
    ``seconds`` measured rather than fall into one stretch of host
    speed. (Serve's server lifetimes spread theirs already.)"""
    samples, t0 = [], time.perf_counter()

    def between():
        due = int((time.perf_counter() - t0) / seconds * SETUP_SAMPLES)
        if len(samples) < min(due, SETUP_SAMPLES):
            samples.append(time_child(_probe_argv(workload)))
            HOST.sample()

    return samples, between


def setup_seconds(workload, have=()):
    """``SETUP_SAMPLES`` set-up times, topping up the samples ``have``: a
    fresh process up to its first timed op (serve: server spawn to its
    first healthy reply)."""
    need = max(SETUP_SAMPLES - len(have), 0)
    if workload == "serve":
        import serve

        return list(have) + serve.setup_samples(need)
    samples = list(have)
    for _ in range(need):
        samples.append(time_child(_probe_argv(workload)))
        HOST.sample()
    return samples


#: the end-to-end times each workload rescales to the reference host's
#: speed. ``op_p90_ms`` is a simulation only on ``sim-*``: paper-sweep's is
#: a warm regeneration, which mostly reads and parses cached results, and
#: follows the calibration loop less closely than its own spread. Serve
#: rescales nothing: between its phases there are too few idle moments to
#: time the loop at, and in two of ten runs every timing read 1.7-1.9x
#: slow while the service did not.
RESCALED = {
    "sim-engine": ("setup_s", "sim_s", "sim_throughput", "op_p90_ms"),
    "sim-cores": ("setup_s", "sim_s", "sim_throughput", "op_p90_ms"),
    "paper-sweep": ("setup_s", "sim_s", "sim_throughput"),
    "serve": (),
}


def host_normalize(workload, m):
    """Rescale ``RESCALED[workload]`` to the reference host's speed
    (:class:`harness.HostSpeed`), keeping each as measured under
    ``raw.<name>``."""
    f = HOST.factor()
    m["host.factor"] = f
    for k in RESCALED[workload]:
        m["raw." + k] = m[k]
        m[k] = m[k] * f if k == "sim_throughput" else m[k] / f


def setup_probe(workload):
    if workload == "paper-sweep":
        import sweep

        sweep.setup_probe()
    elif workload != "serve":
        import sims

        sims.setup_probe()


def record_reference(path):
    """Digest every pair the workloads simulate and the sweep's report."""
    import repro
    import serve
    import sims
    import sweep
    from repro.experiments.cache import ResultCache, set_cache
    from repro.experiments.runner import run_pair

    pairs = sorted(set(sims.ENGINE_PAIRS) | set(sims.CORES_PAIRS)
                   | set(serve.SERVE_PAIRS))
    digests = {}
    for system, wl in pairs:
        result = run_pair(system, wl, SCALE, use_cache=False)
        digests[pair_id(system, wl)] = stats_digest(result.stats)
    cache_dir = tempfile.mkdtemp(dir=WORK)
    try:
        set_cache(ResultCache(cache_dir=cache_dir))
        digests[sweep.REPORT_ID] = text_digest(sweep.report(workers()))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    doc = {"schema": "perfbench-reference-v1",
           "sim_version": repro.__version__, "digests": digests}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests to {path}")


def write_result(workload, args, metrics, ops, elapsed):
    from repro.experiments.benchhistory import BENCH_SCHEMA

    name = f"perfbench:{workload}" + (":traced" if args.trace else "")
    metrics = dict(metrics, ops=ops.attempted, ops_failed=ops.failed)
    doc = {"schema": BENCH_SCHEMA, "results": [{
        "name": name,
        "metrics": {k: v for k, v in sorted(metrics.items())
                    if isinstance(v, (int, float))},
        "meta": {"workload": workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "nproc": nproc(), "python": platform.python_version(),
                 "commit": git_commit(), "wall_s": round(elapsed, 3)},
    }]}
    out = os.path.join(WORK, "results",
                       f"{workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=REFERENCE,
                    help="stats digests to check against")
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record the reference digests and exit")
    ap.add_argument("--setup-probe", choices=WORKLOADS,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    ensure_src_on_path()
    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = WORK
    tempfile.tempdir = WORK
    if args.setup_probe:
        setup_probe(args.setup_probe)
        print(repr(time.monotonic()))
        return 0
    if args.record_reference:
        record_reference(args.reference)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    t0 = time.perf_counter()
    spec = load_spec()
    reference = load_reference(args.reference)["digests"]
    wl = args.workload
    if not args.trace:
        samples, between = spread_setup(wl, args.seconds)
        ops, m = measure(wl, args.seconds, args.seed, reference,
                         between=between)
        samples += m.get("setup_samples", [])
        m["setup_s"] = median(setup_seconds(wl, samples))
        m["peak_rss_mib"] = peak_rss_mib()
        host_normalize(wl, m)
        declared = spec["end_to_end"]
    else:
        ops, off = measure(wl, args.seconds / 2, args.seed, reference)
        # each half against its own host speed, so that the host drifting
        # between the halves does not read as tracing overhead
        rescaled = "sim_s" in RESCALED[wl]
        off_f = HOST.factor() if rescaled else 1.0
        HOST.timings.clear()
        tracer = Tracer()
        ops_on, m = measure(wl, args.seconds / 2, args.seed, reference,
                            tracer)
        ops.attempted += ops_on.attempted
        ops.failed += ops_on.failed
        ops.errors += ops_on.errors
        root = "bench.client" if wl == "serve" else "bench.measure"
        m["tracing.coverage"] = coverage(tracer, root, LAYERS)
        on_f = HOST.factor() if rescaled else 1.0
        m["tracing.overhead"] = \
            (m["sim_s"] / on_f) / (off["sim_s"] / off_f) - 1 \
            if off.get("sim_s") and m.get("sim_s") else 0.0
        # the workload's own user-facing numbers, as measured untraced
        for k in ("report_cold_s", "report_warm_s", "job_p50_ms",
                  "job_p90_ms", "warm_job_p50_ms", "get_p50_ms",
                  "get_p90_ms", "http_throughput"):
            m[k] = off.get(k, 0.0)
        tracer.write_jsonl(os.path.join(
            WORK, "traces", f"{wl}-seed{args.seed}.jsonl"))
        declared = spec["per_layer"]
    metrics = {d["name"]: {"value": float(m.get(d["name"], 0.0)),
                           "unit": d["unit"]} for d in declared}
    path = write_result(wl, args, m, ops, time.perf_counter() - t0)

    for err in ops.errors:
        print(f"FAILED: {err}")
    print(f"{wl} seed={args.seed} trace={args.trace}: {ops.attempted} ops, "
          f"{ops.failed} failed; result in {os.path.relpath(path, ROOT)}")
    for name, v in metrics.items():
        print(f"  {name:28s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": ops.failed == 0,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
