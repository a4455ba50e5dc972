"""Job queue + worker pool: lifecycle, dedup, retries, recovery, and the
counter <-> telemetry reconciliation contract."""

import json
import os
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import telemetry
from repro.experiments.cache import ResultCache
from repro.service.jobs import JobQueue
from repro.service.schemas import ValidationError, validate_submit
from repro.service.workers import WorkerPool

RUN = {"system": "1b", "workload": "vvadd", "scale": "tiny",
       "overrides": {}}
#: a spec that passes submit (``preset`` accepts it and a ``System``
#: builds from it) but fails in the pool on every attempt: with no load
#: queue entries the engine never issues a load, and the watchdog raises
POISON = {"system": "1b-4VL", "workload": "vvadd", "scale": "tiny",
          "overrides": {"vmu_loadq": 0}}


def make_queue(tmp_path, journal=False):
    cache = ResultCache(cache_dir=str(tmp_path / "cache"))
    path = str(tmp_path / "jobs.jsonl") if journal else None
    return JobQueue(cache, journal_path=path)


# -------------------------------------------------------------- lifecycle

def test_submit_claim_complete(tmp_path):
    q = make_queue(tmp_path)
    job, deduped = q.submit([dict(RUN)])
    assert not deduped
    assert job.state == "queued" and len(job.keys) == 1
    claimed = q.claim(timeout=0)
    assert claimed is job and job.state == "running"
    q.complete(job, levels={job.keys[0]: "fresh"})
    assert job.state == "done"
    assert q.counters["enqueued"] == q.counters["started"] == 1
    assert q.counters["done"] == 1 and q.pending() == 0


def test_inflight_dedup_coalesces_identical_submits(tmp_path):
    q = make_queue(tmp_path)
    a, dedup_a = q.submit([dict(RUN)])
    b, dedup_b = q.submit([dict(RUN)])
    assert a is b and not dedup_a and dedup_b
    assert a.deduped == 1 and q.counters["deduped"] == 1
    assert q.pending() == 1
    # a different artifact request is NOT the same job
    c, dedup_c = q.submit([dict(RUN)], artifacts=("timeline",))
    assert c is not a and not dedup_c
    # completion closes the dedup window
    job = q.claim(timeout=0)
    q.complete(job)
    d, dedup_d = q.submit([dict(RUN)])
    assert d is not a and not dedup_d


def test_claim_takes_jobs_in_fifo_order(tmp_path):
    q = make_queue(tmp_path)
    ids = []
    for lat in (100, 200, 300):
        job, _ = q.submit([dict(RUN, overrides={"mem": {"dram_latency": lat}})])
        ids.append(job.id)
    assert q.claim(timeout=0).id == ids[0]
    assert q.pending() == 2
    assert [q.claim(timeout=0).id for _ in ids[1:]] == ids[1:]
    assert q.claim(timeout=0) is None and q.pending() == 0


def test_requeue_and_fail(tmp_path):
    q = make_queue(tmp_path)
    job, _ = q.submit([dict(RUN)])
    q.claim(timeout=0)
    q.requeue(job, RuntimeError("boom"), backoff_s=0.1)
    assert job.state == "queued" and job.retries == 1
    assert q.counters["retried"] == 1
    assert q.claim(timeout=0) is job
    q.fail(job, RuntimeError("boom again"))
    assert job.state == "failed" and "boom again" in job.error
    assert q.counters["failed"] == 1
    # a failed job no longer blocks dedup
    again, deduped = q.submit([dict(RUN)])
    assert again is not job and not deduped


def test_closed_queue_rejects_submissions(tmp_path):
    q = make_queue(tmp_path)
    q.submit([dict(RUN)])
    q.close()
    with pytest.raises(RuntimeError, match="draining"):
        q.submit([dict(RUN)])
    # queued work stays claimable during the drain
    assert q.claim(timeout=0) is not None
    assert q.claim(timeout=0) is None  # then empty -> None, no block


def test_waiting_readers_wake_on_every_completion(tmp_path):
    """Readers blocked in ``wait`` race the threads that complete jobs.
    Each read must end on the completion's wake-up, not on its timeout,
    and return a whole record: ``done`` with its ``levels``."""
    q = make_queue(tmp_path)
    jobs = [q.submit([dict(RUN, overrides={"mem": {"dram_latency": 100 + i}})]
                     )[0] for i in range(40)]
    bad = []

    def complete_all():
        while (job := q.claim(timeout=0)) is not None:
            q.complete(job, levels={job.keys[0]: "fresh"})

    def read_all():
        for job in jobs:
            record = q.wait(job.id, timeout=10)
            if record["state"] != "done" or not record["levels"]:
                bad.append(record)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_all) for _ in range(6)]
        threads += [threading.Thread(target=complete_all) for _ in range(3)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        elapsed = time.perf_counter() - t0
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert elapsed < 5  # a missed wake-up costs its reader the 10 s timeout
    assert bad == []
    assert q.counters["done"] == len(jobs)


# ----------------------------------------------------------- reconciliation

def test_counters_reconcile_with_telemetry_events(tmp_path):
    tel = telemetry.enable()
    try:
        q = make_queue(tmp_path)
        q.submit([dict(RUN)])
        q.submit([dict(RUN)])                      # deduped
        job = q.claim(timeout=0)
        q.requeue(job, "x", backoff_s=0)
        job = q.claim(timeout=0)
        q.complete(job)
        other, _ = q.submit(
            [dict(RUN, overrides={"mem": {"dram_latency": 777}})])
        q.claim(timeout=0)
        q.fail(other, "y")
        c = q.counters
        assert (tel.counts.get("job_enqueued", 0)
                == c["enqueued"] + c["deduped"] == 3)
        assert tel.counts.get("job_start", 0) == c["started"] == 3
        assert tel.counts.get("job_done", 0) == c["done"] + c["failed"] == 2
        assert tel.counts.get("job_retry", 0) == c["retried"] == 1
    finally:
        telemetry.disable()


# ----------------------------------------------------------------- journal

def test_journal_replay_requeues_interrupted_jobs(tmp_path):
    q = make_queue(tmp_path, journal=True)
    done_job, _ = q.submit([dict(RUN)])
    q.claim(timeout=0)
    q.complete(done_job, levels={done_job.keys[0]: "fresh"})
    q.submit([dict(RUN, overrides={"mem": {"dram_latency": 200}})])
    running, _ = q.submit([dict(RUN, overrides={"mem": {"dram_latency": 300}})])
    # claim both, then "crash" without completing either
    q.claim(timeout=0)
    q.claim(timeout=0)
    q.close()

    q2 = JobQueue.load(q.cache, q.journal_path)
    assert q2.counters["recovered"] == 2
    assert q2.pending() == 2
    kept = q2.get(done_job.id)
    assert kept.state == "done" and kept.levels == done_job.levels
    assert q2.get(running.id).state == "queued"
    # new ids continue after the replayed sequence
    new, _ = q2.submit([dict(RUN, overrides={"mem": {"dram_latency": 400}})])
    assert int(new.id.split("-")[-1]) == 4


def test_journal_tolerates_torn_tail_line(tmp_path):
    q = make_queue(tmp_path, journal=True)
    q.submit([dict(RUN)])
    q.close()
    with open(q.journal_path, "a") as f:
        f.write('{"ts": 1, "ev": "job_enq')  # crash mid-write
    q2 = JobQueue.load(q.cache, q.journal_path)
    assert q2.pending() == 1 and q2.counters["recovered"] == 1


def test_journal_lines_carry_schema(tmp_path):
    q = make_queue(tmp_path, journal=True)
    q.submit([dict(RUN)])
    q.close()
    with open(q.journal_path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    assert recs and all(r["job"]["schema"] == "bigvlittle-service-v1"
                        for r in recs)


# -------------------------------------------------------------- validation

def test_validate_submit_shapes():
    runs, arts = validate_submit(
        {"system": "1b", "workload": "vvadd", "artifacts": ["phases"]})
    assert runs == [{"system": "1b", "workload": "vvadd", "scale": "small",
                     "overrides": {}}]
    assert arts == ("phases", "timeline")  # phases implies timeline
    runs, arts = validate_submit(
        {"runs": [{"system": "1b", "workload": "vvadd", "scale": "tiny"}]})
    assert len(runs) == 1 and arts == ()
    for bad in (
        [],                                           # not an object
        {"workload": "vvadd"},                        # missing system
        {"system": "1b", "workload": "vvadd", "scale": "huge"},
        {"system": "1b", "workload": "vvadd", "overrides": 3},
        {"system": "1b", "workload": "vvadd", "artifacts": ["stats"]},
        {"runs": []},
        {"runs": [{"system": "1b", "workload": "v"}], "extra": 1},
    ):
        with pytest.raises(ValidationError):
            validate_submit(bad)


# ------------------------------------------------------------- worker pool

def test_worker_pool_executes_and_records_levels(tmp_path, run_spy):
    q = make_queue(tmp_path)
    pool = WorkerPool(q, workers=1, backoff_s=0.001).start()
    job, _ = q.submit([dict(RUN)])
    warm, _ = q.submit([dict(RUN, overrides={})])  # same key, after dedup gap?
    pool.stop(drain=True)
    assert job.state == "done"
    assert job.levels == {job.keys[0]: "fresh"}
    # the in-flight dedup coalesced the second submit onto the first job
    assert warm is job and run_spy["n"] == 1


def test_worker_pool_warm_jobs_hit_cache(tmp_path, run_spy):
    q = make_queue(tmp_path)
    pool = WorkerPool(q, workers=1, backoff_s=0.001).start()
    first, _ = q.submit([dict(RUN)])
    pool.stop(drain=True)
    assert first.state == "done" and run_spy["n"] == 1

    pool2 = WorkerPool(q, workers=1, backoff_s=0.001)
    # fresh queue state, same cache: a repeat submit is a pure cache job
    q2 = JobQueue(q.cache)
    pool2.queue = q2
    pool2.start()
    again, _ = q2.submit([dict(RUN)])
    pool2.stop(drain=True)
    assert again.state == "done"
    assert again.levels[again.keys[0]] == "memory"
    assert run_spy["n"] == 1  # zero additional simulations


def test_worker_pool_retries_then_fails_poisoned_job(tmp_path):
    tel = telemetry.enable()
    try:
        q = make_queue(tmp_path)
        sleeps = []
        pool = WorkerPool(q, workers=1, max_retries=2, backoff_s=0.05,
                          backoff_cap_s=0.08, sleep=sleeps.append).start()
        job, _ = q.submit([dict(POISON)])
        pool.stop(drain=True)
        assert job.state == "failed" and job.retries == 2
        assert job.error.count("simulation deadlocked at cycle") == 1
        assert "no instruction progress" in job.error
        # capped exponential backoff: 0.05, then min(0.1, cap=0.08)
        assert sleeps == [pytest.approx(0.05), pytest.approx(0.08)]
        c = q.counters
        assert c["retried"] == 2 and c["failed"] == 1 and c["done"] == 0
        assert tel.counts.get("job_retry", 0) == 2
        assert tel.counts.get("job_start", 0) == c["started"] == 3
    finally:
        telemetry.disable()


def test_worker_pool_isolates_a_poisoned_neighbour(tmp_path):
    q = make_queue(tmp_path)
    good, _ = q.submit([dict(RUN)])
    bad, _ = q.submit([dict(POISON)])
    # start AFTER both are queued, so one worker claims them back to back
    pool = WorkerPool(q, workers=1, max_retries=0,
                      backoff_s=0.001).start()
    pool.stop(drain=True)
    assert good.state == "done"
    assert bad.state == "failed"
    assert (q.counters["done"], q.counters["failed"]) == (1, 1)


def test_worker_pool_drain_finishes_queued_work(tmp_path, run_spy):
    q = make_queue(tmp_path)
    jobs = [q.submit([dict(RUN, overrides={"mem": {"dram_latency": lat}})])[0]
            for lat in (100, 140, 180)]
    pool = WorkerPool(q, workers=2, backoff_s=0.001).start()
    pool.stop(drain=True)  # closes the queue, then joins
    assert all(j.state == "done" for j in jobs)
    assert pool.alive == 0
    with pytest.raises(RuntimeError):
        q.submit([dict(RUN)])


def test_a_job_that_ends_during_a_drain_reaches_the_journal(tmp_path):
    """``stop(drain=True)`` closes the queue before the workers finish.
    A job still running then must append its ``job_done`` line, or the
    next start re-queues it as recovered and runs it a second time."""
    q = make_queue(tmp_path, journal=True)
    running, closed = threading.Event(), threading.Event()
    close = q.close

    def close_and_tell():
        close()
        closed.set()

    q.close = close_and_tell
    pool = WorkerPool(q, workers=1, backoff_s=0.001)
    execute = pool._execute

    def execute_after_close(job):
        running.set()
        assert closed.wait(20)
        execute(job)

    pool._execute = execute_after_close
    pool.start()
    job, _ = q.submit([dict(RUN)])
    assert running.wait(20)
    pool.stop(drain=True)
    assert job.state == "done"
    replayed = JobQueue.load(q.cache, q.journal_path)
    assert replayed.counters["recovered"] == 0
    assert replayed.get(job.id).state == "done"
    assert replayed.get(job.id).levels == job.levels


def test_artifact_generation_rides_on_worker(tmp_path, run_spy):
    from repro.service.artifacts import ArtifactStore

    q = make_queue(tmp_path)
    store = ArtifactStore(str(tmp_path / "artifacts"))
    pool = WorkerPool(q, workers=1, artifact_store=store,
                      backoff_s=0.001).start()
    job, _ = q.submit([dict(RUN)], artifacts=("timeline", "phases"))
    pool.stop(drain=True)
    assert job.state == "done"
    key = job.keys[0]
    assert sorted(store.available(key)) == ["phases", "timeline"]
    # one plain simulation + one instrumented timeline run, no third run
    # for phases (they derive from the timeline dump)
    assert run_spy["n"] == 2
    assert os.path.getsize(store.path_for(key, "timeline")) > 0


def test_simulated_artifacts_are_written_whole(tmp_path, monkeypatch):
    """``timeline.json`` and ``phases.json`` land through ``put_bytes``
    (temp file + rename), never by writing into the final path, and hold
    exactly what the observability dumps' ``to_json`` writes."""
    from repro.obs.phases import detect_phases
    from repro.obs.sampler import load_timeline
    from repro.service.artifacts import ArtifactStore, simulate_timeline

    q = make_queue(tmp_path)
    store = ArtifactStore(str(tmp_path / "artifacts"))
    written = {}
    put_bytes = store.put_bytes

    def spy(key, name, data):
        written[name] = data
        return put_bytes(key, name, data)

    monkeypatch.setattr(store, "put_bytes", spy)
    pool = WorkerPool(q, workers=1, artifact_store=store,
                      backoff_s=0.001).start()
    job, _ = q.submit([dict(RUN)], artifacts=("timeline", "phases"))
    pool.stop(drain=True)
    assert job.state == "done"
    assert sorted(written) == ["phases", "timeline"]
    timeline, phases = tmp_path / "timeline.json", tmp_path / "phases.json"
    simulate_timeline(RUN).to_json(timeline)
    detect_phases(load_timeline(timeline)).to_json(phases)
    assert written["timeline"] == timeline.read_bytes()
    assert written["phases"] == phases.read_bytes()


def test_worker_pool_recovers_from_a_killed_simulation_process(tmp_path):
    """SIGKILL the pool's only process while a job is running: the job
    retries once on a fresh pool and completes, and later jobs run."""
    q = make_queue(tmp_path)
    pool = WorkerPool(q, workers=1, backoff_s=0.001).start()
    try:
        pid = pool.executor.submit(os.getpid).result(timeout=60)
        # keep the process busy, so the job waits in the pool until the kill
        blocker = pool.executor.submit(time.sleep, 60)
        job, _ = q.submit([dict(RUN)])
        deadline = time.monotonic() + 30
        while job.state != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            blocker.result(timeout=60)
        assert q.wait(job.id, 60)["state"] == "done"
        assert job.retries == 1
        later, _ = q.submit(
            [dict(RUN, overrides={"mem": {"dram_latency": 300}})])
        assert q.wait(later.id, 60)["state"] == "done"
        assert later.retries == 0
    finally:
        pool.stop(drain=True)
