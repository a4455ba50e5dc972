"""Fixtures for sweep-service tests."""

import pytest


@pytest.fixture
def service_app(tmp_path):
    """A live ServiceApp (1 worker, ephemeral port) that always stops."""
    from repro.service import ServiceApp

    app = ServiceApp(cache_root=str(tmp_path / "svc"), port=0, workers=1,
                     backoff_s=0.01).start()
    yield app
    app.stop(drain=True)
