"""Tests for the EXPERIMENTS.md report generator."""

import json
import pathlib

from repro.experiments import report


def tiny_data():
    cats = {c: 10 for c in ("busy", "simd", "raw_mem", "raw_llfu", "struct",
                            "xelem", "misc")}
    bd = dict(cats, cycles=100)
    grid = {(b, l): 1.0 + i for i, (b, l) in enumerate(
        (b, l) for b in ("b0", "b1", "b2", "b3") for l in ("l0", "l1", "l2", "l3"))}
    pts = [(100.0, 0.8, ("1b-4VL", "b0", "l3")), (50.0, 2.0, ("1bDV", "b1", "l1"))]
    return {
        "fig4": {"speedups": {
            "bfs": {"1L": 1.0, "1bIV-4L": 3.0, "1bDV": 2.0, "1b-4VL": 3.0},
            "vvadd": {"1L": 1.0, "1bIV-4L": 9.0, "1bDV": 28.0, "1b-4VL": 14.0},
        }, "summary": {}},
        "fig5": {"vvadd": {"1bIV-4L": 30.0, "1b-4VL": 4.0, "1bDV": 1.0}},
        "fig6": {"vvadd": {"1bIV-4L": 9.0, "1b-4VL": 1.0, "1bDV": 1.0}},
        "fig7": {"blackscholes": {"1c": dict(bd, cycles=200),
                                  "1c+sw": bd, "2c+sw": dict(bd, cycles=70)}},
        "fig8": {"vvadd": {4: 0.7, 64: 1.0}},
        "fig9": {"sw": {"1b-4VL": grid}, "vvadd": {"1b-4VL": grid}},
        "fig10": {"vvadd": {"points": pts, "pareto": pts}},
        "fig11": {"vvadd": {"points": {"1b-4VL": pts}, "pareto": pts}},
        "table6": {
            "simple": {"4L_kum2": 426.8, "4VL_kum2": 437.2, "overhead": 0.024,
                       "components": {}},
            "ariane": {"4L_kum2": 600.0, "4VL_kum2": 612.0, "overhead": 0.021,
                       "components": {}},
            "1bDV_estimate": {"ara_engine_kge": 5904, "4xariane_cluster_kge": 6288},
        },
    }


def test_render_produces_markdown():
    md = report.render(tiny_data(), "tiny")
    assert md.startswith("# EXPERIMENTS")
    for heading in ("Figure 4", "Figure 5", "Figure 6", "Figure 7",
                    "Figure 8", "Figure 9", "Figures 10 & 11", "Table VI"):
        assert heading in md
    assert "1.6x" in md  # paper claims are cited
    assert "identical" in md


def test_unjson_recovers_tuple_keys():
    raw = {"('b0', 'l1')": 1.5, "4": 2.0, "plain": 3.0}
    out = report._unjson(raw)
    assert out[("b0", "l1")] == 1.5
    assert out[4] == 2.0
    assert out["plain"] == 3.0


def test_json_roundtrip_render(tmp_path):
    data = tiny_data()
    # simulate the CLI's JSON dump/load path
    def jsonable(o):
        if isinstance(o, dict):
            return {str(k): jsonable(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [jsonable(x) for x in o]
        return o

    p = tmp_path / "d.json"
    p.write_text(json.dumps(jsonable(data)))
    loaded = report._unjson(json.loads(p.read_text()))
    md = report.render(loaded, "tiny")
    assert "Figure 9" in md


def test_main_writes_file(tmp_path):
    data = tiny_data()
    import json as _json

    def jsonable(o):
        if isinstance(o, dict):
            return {str(k): jsonable(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [jsonable(x) for x in o]
        return o

    src = tmp_path / "in.json"
    src.write_text(_json.dumps(jsonable(data)))
    out = tmp_path / "EXP.md"
    assert report.main(["--from-json", str(src), "--out", str(out)]) == 0
    assert out.read_text().startswith("# EXPERIMENTS")


def test_committed_experiments_md_is_the_render_of_the_committed_run(tmp_path):
    """EXPERIMENTS.md is exactly what the report renders from
    ``results/fullrun-small.json``: regenerating it drops no hand edit."""
    root = pathlib.Path(__file__).resolve().parents[2]
    out = tmp_path / "EXPERIMENTS.md"
    assert report.main(["--from-json",
                        str(root / "results" / "fullrun-small.json"),
                        "--out", str(out)]) == 0
    assert out.read_bytes() == (root / "EXPERIMENTS.md").read_bytes()
