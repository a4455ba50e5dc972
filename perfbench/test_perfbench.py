"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Every workload runs once at minimal length and must finish with no failed
op and every declared metric; a corrupted reference digest must count as a
failed op; without the simulator's sources the benchmark must refuse to
report.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from harness import ROOT, Tracer, ensure_src_on_path, load_reference

ensure_src_on_path()

import sims  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sim-engine", "sim-cores",
                                      "paper-sweep", "serve"])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["failed"] == 0 and doc["correct"], proc.stdout
    assert doc["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())
    else:
        assert 0 < doc["metrics"]["tracing.coverage"]["value"] <= 1.0


def test_corrupted_reference_digest_fails_the_op():
    reference = dict(load_reference()["digests"])
    pairs = [("1bDV", "saxpy"), ("1bDV", "vvadd")]
    ops, _ = sims.run("sim-engine", 0, 1, reference, pairs=pairs)
    assert (ops.attempted, ops.failed) == (2, 0)
    reference[sims.pair_id("1bDV", "saxpy")] = "0" * 20
    ops, _ = sims.run("sim-engine", 0, 1, reference, pairs=pairs)
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "1bDV/saxpy@tiny" in ops.errors[0]


def test_traced_sim_op_splits_the_run_loop():
    tracer = Tracer()
    ops, m = sims.run("sim-engine", 0, 1, load_reference()["digests"],
                      tracer=tracer, pairs=[("1b-4VL", "saxpy")])
    assert ops.failed == 0
    assert m["vector.vcu_s"] > 0 and m["events.scheduler_s"] > 0
    # the HostScope groups tile the run loop
    assert m["events.run_s"] >= m["vector.vcu_s"] + m["cores.big_s"]


@pytest.mark.parametrize("workload", ["sim-engine", "paper-sweep", "serve"])
def test_host_normalize_rescales_cpu_times_only(workload):
    import run
    from harness import CALIB_NOMINAL_S, HOST

    saved = HOST.timings[:]
    # the run's fastest calibration sets the factor
    HOST.timings[:] = [5 * CALIB_NOMINAL_S, 3 * CALIB_NOMINAL_S,
                       4 * CALIB_NOMINAL_S]
    m = {"setup_s": 1.5, "sim_s": 6.0, "sim_throughput": 10.0,
         "op_p90_ms": 90.0}
    try:
        run.host_normalize(workload, m)
    finally:
        HOST.timings[:] = saved
    assert m["host.factor"] == pytest.approx(3.0)
    rescaled = {"sim-engine": (0.5, 2.0, 30.0, 30.0),
                "paper-sweep": (0.5, 2.0, 30.0, 90.0),
                "serve": (1.5, 6.0, 10.0, 90.0)}[workload]
    assert (m["setup_s"], m["sim_s"], m["sim_throughput"],
            m["op_p90_ms"]) == pytest.approx(rescaled)
    assert m.get("raw.sim_s") == (None if workload == "serve" else 6.0)


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "layers.json"),
              encoding="utf-8") as f:
        layers = json.load(f)
    spec = _spec()
    assert [m["name"] for m in spec["per_layer"]] == list(layers["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == set(layers["end_to_end"])


def test_refuses_without_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-engine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
