"""Shared configuration of the paper-claim tests.

Each ``test_*.py`` module regenerates one paper table/figure at reduced
scale (the CLI regenerates them at full size: ``bigvlittle fig4 --scale
small``) and asserts the paper's qualitative claims on it. They are plain
tests: ``PYTHONPATH=src python -m pytest benchmarks -q``.
"""

import pytest

from repro.experiments.cache import ResultCache, set_cache


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Regenerate every figure from cold simulations: keep them off the
    persistent on-disk cache, so a stale ``results/cache/`` entry can
    never stand in for the current model."""
    yield set_cache(ResultCache(
        cache_dir=str(tmp_path_factory.mktemp("bench-cache"))))
