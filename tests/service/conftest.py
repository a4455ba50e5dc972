"""Fixtures for sweep-service tests."""

import threading

import pytest


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


@pytest.fixture
def service_app(tmp_path):
    """A live ServiceApp (1 worker, ephemeral port) that always stops."""
    from repro.service import ServiceApp

    app = ServiceApp(cache_root=str(tmp_path / "svc"), port=0, workers=1,
                     backoff_s=0.01).start()
    yield app
    app.stop(drain=True)
