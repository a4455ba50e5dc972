"""Smoke tests for the figure/table generators on reduced inputs."""

from types import SimpleNamespace

import pytest

from repro.experiments import figures, tables
from repro.power import BIG_LEVELS, LITTLE_LEVELS

WLS = ["vvadd", "saxpy"]


def test_fig4_structure():
    d = figures.fig4(scale="tiny", systems=["1L", "1b", "1b-4VL"], workloads=WLS)
    assert set(d["speedups"]) == set(WLS)
    assert all(v > 0 for row in d["speedups"].values() for v in row.values())
    assert "1b-4VL.data_parallel_geomean" not in d["summary"]  # kernels only


def test_fig5_fig6_normalized_to_dv():
    d5 = figures.fig5(scale="tiny", workloads=WLS)
    d6 = figures.fig6(scale="tiny", workloads=WLS)
    for d in (d5, d6):
        for w, row in d.items():
            assert set(row) == {"1bIV-4L", "1bDV", "1b-4VL"}
            assert abs(row["1bDV"] - 1.0) < 1e-9


def test_fig7_configs_present():
    d = figures.fig7(scale="tiny", workloads=["vvadd"])
    assert set(d["vvadd"]) == {"1c", "1c+sw", "2c+sw"}
    for bd in d["vvadd"].values():
        assert bd["cycles"] > 0
        assert "busy" in bd


def test_fig8_normalized():
    d = figures.fig8(scale="tiny", workloads=["vvadd"], depths=(4, 64))
    assert d["vvadd"][64] == 1.0


def test_fig9_grid_complete():
    d = figures.fig9(scale="tiny", workloads=["vvadd"], systems=("1b-4VL",))
    pts = d["vvadd"]["1b-4VL"]
    assert len(pts) == len(BIG_LEVELS) * len(LITTLE_LEVELS)
    assert all(v > 0 for v in pts.values())


def test_fig10_pareto_nonempty():
    d = figures.fig10(scale="tiny", workloads=["vvadd"])
    assert d["vvadd"]["pareto"]
    # pareto must be a subset of the points
    assert set(d["vvadd"]["pareto"]) <= set(d["vvadd"]["points"])


def test_fig11_systems_and_frontier():
    d = figures.fig11(scale="tiny", workloads=["vvadd"], systems=("1b-4L", "1b-4VL"))
    assert set(d["vvadd"]["points"]) == {"1b-4L", "1b-4VL"}
    assert d["vvadd"]["pareto"]


def test_tables_smoke():
    assert "L2" in tables.table2()
    t3 = tables.table3()
    assert t3["1b-4VL"]["vlen_bits"] == 512
    t4 = tables.table4()
    assert len(t4["ligra"]) == 8
    t5 = tables.table5()
    assert t5["sw"]["vop"] == 0.69
    t6 = tables.table6_data()
    assert t6["simple"]["overhead"] < 0.05
    t7 = tables.table7()
    assert len(t7["big"]) == 4 and len(t7["little"]) == 4


def test_cli_runs_tables(capsys):
    from repro.experiments.cli import main

    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "1b-4VL" in out


@pytest.mark.parametrize("verb,scales,header", [
    ("ablate-scaling", {"tiny"}, "== ablate-scaling (scale=tiny) =="),
    ("ablate-vxu", {"tiny"}, "== ablate-vxu (scale=tiny) =="),
    ("ablate-coalesce", {"tiny"}, "== ablate-coalesce (scale=tiny) =="),
    ("ablate-dram", {"tiny"}, "== ablate-dram (scale=tiny) =="),
    # sweeps two region sizes by design: its header claims no one scale
    ("ablate-switch", {"tiny", "small"}, "== ablate-switch =="),
])
def test_cli_ablations_run_at_the_scale_their_header_names(
        verb, scales, header, monkeypatch, capsys):
    """``--scale`` reaches every ablation that runs at one scale, and an
    ablation's header names a scale only when the sweep ran at it."""
    from repro.experiments import ablations
    from repro.experiments.cli import main

    seen = set()

    def stub_sweep(requests, jobs=None):
        seen.update(r.scale for r in requests.values())
        return {point: SimpleNamespace(stats={"time_ps": 1000})
                for point in requests}

    monkeypatch.setattr(ablations, "run_sweep", stub_sweep)
    assert main([verb, "--scale", "tiny"]) == 0
    assert seen == scales
    assert header + "\n" in capsys.readouterr().out


def test_cli_ablate_graphs_runs_at_the_requested_scale(monkeypatch, capsys):
    import repro.workloads
    from repro.experiments.cli import main

    seen = set()
    real = repro.workloads.get_workload

    def recording(name, scale="small", **kw):
        seen.add(scale)
        return real(name, scale, **kw)

    monkeypatch.setattr(repro.workloads, "get_workload", recording)
    assert main(["ablate-graphs", "--scale", "tiny"]) == 0
    assert seen == {"tiny"}
    assert "== ablate-graphs (scale=tiny) ==\n" in capsys.readouterr().out
