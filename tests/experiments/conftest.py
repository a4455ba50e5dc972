"""Fixtures for cache/parallel-runner tests."""

import pytest

from repro.experiments.cache import ResultCache, get_cache, set_cache


@pytest.fixture
def fresh_cache(tmp_path):
    """A brand-new global result cache on a private tmp directory."""
    old = get_cache()
    cache = set_cache(ResultCache(cache_dir=str(tmp_path / "cache")))
    yield cache
    set_cache(old)
