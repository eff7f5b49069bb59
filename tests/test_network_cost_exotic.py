"""Slim Fly, Dragonfly and the Table 3 cost model."""

import networkx as nx
import pytest

from repro.network import (
    CostModel,
    DragonflyParams,
    build_dragonfly,
    build_slimfly,
    dragonfly_spec,
    mpft_spec,
    slimfly_network_degree,
    slimfly_spec,
    table3_rows,
    table3_specs,
)

from .graph_oracle import to_networkx


def test_slimfly_spec_q28_matches_table3():
    spec = slimfly_spec(28)
    assert spec.switches == 1568
    assert spec.endpoints == 32928
    assert spec.links == 32928


def test_slimfly_network_degree():
    assert slimfly_network_degree(28) == 42
    assert slimfly_network_degree(5) == 7


def test_slimfly_graph_q5_structure():
    topo = build_slimfly(5, with_hosts=False)
    assert len(topo.switches) == 50
    # Every router has network degree (3q - delta)/2 = 7.
    for s in topo.switches:
        assert topo.degree_of(s) == 7
    # MMS graphs have diameter 2.
    assert nx.diameter(to_networkx(topo)) == 2


def test_slimfly_graph_host_attachment():
    topo = build_slimfly(5)
    spec = slimfly_spec(5)
    assert len(topo.hosts) == spec.endpoints
    assert topo.spec.links == spec.links


def test_slimfly_rejects_nonprime_graph():
    with pytest.raises(ValueError):
        build_slimfly(6)
    with pytest.raises(ValueError):
        slimfly_spec(1)


def test_dragonfly_balanced_params():
    p = DragonflyParams.balanced(64, g=511)
    assert (p.p, p.a, p.h, p.g) == (16, 32, 16, 511)
    assert p.router_radix == 63


def test_dragonfly_spec_matches_table3():
    spec = dragonfly_spec(DragonflyParams.balanced(64, g=511))
    assert spec.switches == 16352
    assert spec.endpoints == 261632
    assert spec.links == 384272


def test_dragonfly_param_validation():
    with pytest.raises(ValueError):
        DragonflyParams(p=1, a=2, h=1, g=10)  # g > a*h + 1
    with pytest.raises(ValueError):
        DragonflyParams(p=0, a=2, h=1, g=2)
    with pytest.raises(ValueError):
        DragonflyParams.balanced(30)


def test_dragonfly_graph_small():
    params = DragonflyParams(p=1, a=2, h=1, g=3)  # max g = 3
    topo = build_dragonfly(params)
    assert len(topo.switches) == 6
    assert len(topo.hosts) == 6
    assert topo.is_connected()
    # Intra-group: 3 groups x 1 link; global: 3 pairs.
    assert topo.spec.links == 6


def test_table3_reproduction():
    rows = {r.spec.name: r for r in table3_rows()}
    paper = {
        "FT2": (2048, 96, 2048, 9, 4.39),
        "MPFT": (16384, 768, 16384, 72, 4.39),
        "FT3": (65536, 5120, 131072, 491, 7.5),
        "SF": (32928, 1568, 32928, 146, 4.4),
        "DF": (261632, 16352, 384272, 1522, 5.8),
    }
    for name, (ep, sw, links, cost_m, per_ep_k) in paper.items():
        row = rows[name]
        assert row.spec.endpoints == ep
        assert row.spec.switches == sw
        assert row.spec.links == links
        assert row.cost_musd == pytest.approx(cost_m, rel=0.02), name
        assert row.cost_per_endpoint_kusd == pytest.approx(per_ep_k, rel=0.03), name


def test_cost_orderings_of_table3():
    rows = {r.spec.name: r for r in table3_rows()}
    # FT3 is the most expensive per endpoint; FT2/MPFT the cheapest.
    assert rows["FT3"].cost_per_endpoint_kusd > rows["DF"].cost_per_endpoint_kusd
    assert rows["DF"].cost_per_endpoint_kusd > rows["SF"].cost_per_endpoint_kusd
    assert rows["MPFT"].cost_per_endpoint_kusd == pytest.approx(
        rows["FT2"].cost_per_endpoint_kusd
    )


def test_mpft_spec_is_8x_ft2():
    from repro.network import ft2_spec

    ft2, mpft = ft2_spec(64), mpft_spec(64)
    assert mpft.endpoints == 8 * ft2.endpoints
    assert mpft.switches == 8 * ft2.switches
    assert mpft.links == 8 * ft2.links


def test_cost_model_guards():
    model = CostModel()
    from repro.network import TopologySpec

    with pytest.raises(ValueError):
        model.per_endpoint(TopologySpec("x", 0, 1, 1))


def test_table3_specs_order():
    names = [s.name for s in table3_specs()]
    assert names == ["FT2", "MPFT", "FT3", "SF", "DF"]
