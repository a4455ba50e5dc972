"""The graph and region ablations run through ``ParallelRunner``: cached,
shared with the figures' runs, and equal to their hand-built
predecessors' numbers."""

from repro.experiments import ablations, figures, parallel

#: recorded from the hand-built ``System`` runs these ablations replaced
GRAPHS_TINY = {
    "rmat": {"bfs": 0.9354951796669588, "pagerank": 1.2540522287257991,
             "cc": 1.3282550171316692},
    "uniform": {"bfs": 0.9408969408969409, "pagerank": 1.0010841087722469,
                "cc": 1.2287060054952244},
}
REGIONS_TINY = {1: 1.0, 2: 1.4886845827439887, 4: 2.4667609618104667,
                8: 4.420792079207921}


def test_graph_topology_is_cached(fresh_cache, run_spy):
    assert ablations.graph_topology(scale="tiny") == GRAPHS_TINY
    assert run_spy["n"] == 12
    assert ablations.graph_topology(scale="tiny") == GRAPHS_TINY
    assert run_spy["n"] == 12  # the second call simulates nothing


def test_graph_topology_shares_fig4s_rmat_runs(fresh_cache, monkeypatch):
    """The rMAT half is Fig. 4's ``1b`` and ``1b-4L`` runs: after Fig. 4
    only the six uniform-graph runs simulate."""
    figures.fig4(scale="tiny", workloads=["bfs", "pagerank", "cc"])
    simulated = []
    real = parallel.simulate

    def recording(cfg, workload, scale, params=None):
        simulated.append(params)
        return real(cfg, workload, scale, params=params)

    monkeypatch.setattr(parallel, "simulate", recording)
    ablations.graph_topology(scale="tiny")
    assert simulated == [{"graph_kind": "uniform"}] * 6


def test_region_granularity_matches_its_recorded_values(fresh_cache):
    assert ablations.region_granularity(scale="tiny") == REGIONS_TINY
