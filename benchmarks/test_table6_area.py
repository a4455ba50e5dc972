"""Table VI: post-synthesis area of a 4L cluster vs a 4VL engine.

Paper claims: ~2.4% overhead with the simple little core, ~2.1% with Ariane,
<5% either way; the Ara-referenced decoupled engine is about the size of a
four-Ariane cluster with its L1 caches.
"""

from repro.experiments import tables


def test_table6():
    data = tables.table6_data()
    assert 0.015 < data["simple"]["overhead"] < 0.035
    assert 0.015 < data["ariane"]["overhead"] < 0.03
    assert data["ariane"]["overhead"] < data["simple"]["overhead"]
    est = data["1bDV_estimate"]
    ratio = est["ara_engine_kge"] / est["4xariane_cluster_kge"]
    assert 0.8 < ratio < 1.25
    for core in ("simple", "ariane"):
        print(core, data[core]["4L_kum2"], "->", data[core]["4VL_kum2"],
              f"(+{data[core]['overhead'] * 100:.1f}%)")
