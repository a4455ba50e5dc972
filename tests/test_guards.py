"""Verdicts of the benchmark guards (``benchmarks/guards.py``).

The guards themselves time real runs and are not part of the test suite;
their verdicts come from one pure function, checked here on synthetic
measurements.
"""

import json

from benchmarks.guards import BASELINE, verdicts

POOL_OK = {"warm_simulated": 0, "pool/serial": 0.6}


def _bound(quantity, value, tolerance, better="lower", **extra):
    return dict(guard="g", quantity=quantity, value=value,
                tolerance=tolerance, better=better, **extra)


def _ok(rows, quantity):
    (ok,) = [row[-1] for row in rows if row[1] == quantity]
    return ok


def test_ratio_at_its_limit_passes_and_past_it_fails():
    bound = _bound("off/obs", 0.67, 1.05)
    limit = 0.67 * 1.05
    at = verdicts([bound], dict(POOL_OK, **{"off/obs": limit}), cores=2)
    past = verdicts([bound], dict(POOL_OK, **{"off/obs": limit * 1.001}),
                    cores=2)
    assert _ok(at, "off/obs") is True
    assert _ok(past, "off/obs") is False


def test_sim_throughput_is_higher_is_better():
    bound = _bound("dense/event", 1.6743, 0.90, better="higher")
    limit = 1.6743 * 0.90
    for got, ok in ((limit, True), (2.0, True), (limit * 0.999, False)):
        rows = verdicts([bound], dict(POOL_OK, **{"dense/event": got}),
                        cores=2)
        assert _ok(rows, "dense/event") is ok


def test_hostprof_fails_when_its_recorded_value_exceeds_the_budget():
    measured = dict(POOL_OK, **{"hostprof/off": 1.0})
    within = verdicts([_bound("hostprof/off", 1.0333, 1.05, budget=1.05)],
                      measured, cores=2)
    over = verdicts([_bound("hostprof/off", 1.06, 1.05, budget=1.05)],
                    measured, cores=2)
    assert _ok(within, "recorded hostprof/off") is True
    assert _ok(over, "hostprof/off") is True  # the live ratio is fine
    assert _ok(over, "recorded hostprof/off") is False


def test_pool_guard_is_skipped_on_a_one_core_host():
    slow = {"warm_simulated": 0, "pool/serial": 1.3}
    assert _ok(verdicts([], slow, cores=1), "pool/serial") is None
    assert _ok(verdicts([], slow, cores=2), "pool/serial") is False
    assert _ok(verdicts([], POOL_OK, cores=2), "pool/serial") is True


def test_warm_rerun_must_simulate_nothing_on_any_host():
    resimulated = dict(POOL_OK, warm_simulated=3)
    for cores in (1, 2):
        assert _ok(verdicts([], resimulated, cores), "warm_simulated") is False


def test_committed_bounds_pass_their_own_recorded_values():
    with open(BASELINE, encoding="utf-8") as f:
        bounds = json.load(f)
    measured = dict(POOL_OK, **{b["quantity"]: b["value"] for b in bounds})
    rows = verdicts(bounds, measured, cores=2)
    assert len(rows) == len(bounds) + 1 + 2  # hostprof budget, pool guard
    assert all(row[-1] is True for row in rows)
