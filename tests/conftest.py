"""Shared test fixtures.

The experiment harness memoizes runs into a persistent on-disk cache
(``results/cache/`` by default).  Tests must never read results produced by
an earlier run of *different* code, so the whole session is pointed at a
fresh temporary cache directory; in-process memoization still works exactly
as before.
"""

import threading

import pytest

from repro.experiments.cache import ResultCache, set_cache


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    cache = set_cache(ResultCache(
        cache_dir=str(tmp_path_factory.mktemp("result-cache"))))
    yield cache


@pytest.fixture
def run_spy(monkeypatch):
    """Count simulations wherever they run: ``System.run`` calls in this
    process (any import site, key ``local``) plus every task submitted
    to a simulation process pool (key ``pool``), whose runs this process
    cannot see; ``n`` is their sum."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.soc.system import System

    calls = {"n": 0, "local": 0, "pool": 0}
    lock = threading.Lock()
    real_run = System.run
    real_submit = ProcessPoolExecutor.submit

    def count(where):
        with lock:
            calls[where] += 1
            calls["n"] += 1

    def counting_run(self, *a, **kw):
        count("local")
        return real_run(self, *a, **kw)

    def counting_submit(self, *a, **kw):
        count("pool")
        return real_submit(self, *a, **kw)

    monkeypatch.setattr(System, "run", counting_run)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    return calls
