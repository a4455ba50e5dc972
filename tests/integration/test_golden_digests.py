"""Golden stats: every benchmark reference pair reproduces its digest.

``perfbench/reference.json`` holds the digest of the non-META stats of
every (system, workload) pair the benchmark simulates at ``tiny``.
Recomputing all of them here, under the default run loop, makes any
change that moves a committed stat fail the test suite, not only a
benchmark run (which checks just the pairs its workloads happen to run).
The recomputed digests also fold into one grid digest, which must match
the ``SIM_GRIDS`` row of the current ``SIM_VERSION``: a model change
that re-records the reference without bumping the version fails too.
"""

import importlib.util
import os

from repro.experiments.cache import SIM_GRIDS, SIM_VERSION, grid_digest
from repro.experiments.runner import run_pair

HARNESS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "perfbench", "harness.py")


def _perfbench_harness():
    """The benchmark's own harness module, loaded read-only by path so
    that ``stats_digest`` keeps a single definition."""
    spec = importlib.util.spec_from_file_location("_perfbench_harness",
                                                  HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_pairs_reproduce_their_stats_digests():
    harness = _perfbench_harness()
    digests = harness.load_reference()["digests"]
    pairs = sorted(p for p in digests if "/" in p)  # not the sweep report
    assert len(pairs) == 89
    moved = []
    rows = []
    for pair in pairs:
        name, scale = pair.split("@")
        system, workload = name.split("/")
        result = run_pair(system, workload, scale, use_cache=False)
        digest = harness.stats_digest(result.stats)
        rows.append((pair, digest))
        if digest != digests[pair]:
            moved.append(pair)
    assert moved == []
    versions = [v for v, _ in SIM_GRIDS]
    assert len(set(versions)) == len(versions)
    assert SIM_GRIDS[-1] == (SIM_VERSION, grid_digest(rows))
