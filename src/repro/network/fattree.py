"""Fat-tree topologies: two-layer (FT2) and three-layer (FT3).

With 64-port 400G switches, a non-blocking two-layer fat tree supports
2,048 endpoints (64 leaves x 32 hosts, 32 spines); a three-layer k=64
fat tree supports k^3/4 = 65,536 endpoints with 5k^2/4 = 5,120 switches
— the Table 3 columns.  Graph builders produce simulation-ready
topologies for small instances (hosts ``h0``, ``h1``, ... in leaf-major
order, one link per switch pair); :func:`ft2_spec` / :func:`ft3_spec`
compute the counting rows at any scale.
"""

from __future__ import annotations

from .topology import ENDPOINT_LINK, INTERSWITCH_LINK, Topology, TopologySpec


def two_layer_fat_tree(
    num_leaves: int,
    hosts_per_leaf: int,
    num_spines: int,
    link_bandwidth: float = 50e9,
    name: str = "FT2",
) -> Topology:
    """Build a two-layer (leaf-spine) fat tree.

    Every leaf connects to every spine with one link.

    Args:
        num_leaves: Leaf switch count.
        hosts_per_leaf: Endpoints per leaf.
        num_spines: Spine switch count.
        link_bandwidth: Per-direction bytes/s of each link.
        name: Topology name.

    Returns:
        The topology; hosts are ``h{i}`` in leaf-major order.
    """
    if min(num_leaves, hosts_per_leaf, num_spines) <= 0:
        raise ValueError("all counts must be positive")
    topo = Topology(name)
    for s in range(num_spines):
        topo.add_switch(f"{name}/spine{s}")
    for leaf in range(num_leaves):
        leaf_name = f"{name}/leaf{leaf}"
        topo.add_switch(leaf_name)
        for s in range(num_spines):
            topo.add_link(leaf_name, f"{name}/spine{s}", link_bandwidth, INTERSWITCH_LINK)
        for h in range(hosts_per_leaf):
            host = f"h{leaf * hosts_per_leaf + h}"
            topo.add_host(host, leaf=leaf_name)
            topo.add_link(host, leaf_name, link_bandwidth, ENDPOINT_LINK)
    return topo


def ft2_from_radix(
    radix: int = 64, link_bandwidth: float = 50e9, name: str = "FT2"
) -> Topology:
    """Non-blocking FT2 at full scale for a given switch radix."""
    half = radix // 2
    return two_layer_fat_tree(
        num_leaves=radix,
        hosts_per_leaf=half,
        num_spines=half,
        link_bandwidth=link_bandwidth,
        name=name,
    )


def ft2_spec(radix: int = 64, name: str = "FT2") -> TopologySpec:
    """Size of the full non-blocking FT2 (Table 3 column 1).

    ``radix`` leaves x radix/2 hosts = radix^2/2 endpoints, radix/2
    spines, and radix x radix/2 leaf-spine links.
    """
    if radix < 2 or radix % 2:
        raise ValueError("radix must be a positive even number")
    half = radix // 2
    return TopologySpec(
        name=name,
        endpoints=radix * half,
        switches=radix + half,
        links=radix * half,
    )


def three_layer_fat_tree(
    k: int, link_bandwidth: float = 50e9, name: str = "FT3"
) -> Topology:
    """Build a k-ary three-layer fat tree (k pods).

    Each pod has k/2 edge and k/2 aggregation switches; there are
    (k/2)^2 core switches; endpoints number k^3/4.  Intended for small
    even ``k`` (the k=64 instance is sized by :func:`ft3_spec`).
    """
    if k < 2 or k % 2:
        raise ValueError("k must be a positive even number")
    half = k // 2
    topo = Topology(name)
    for c in range(half * half):
        topo.add_switch(f"{name}/core{c}")
    host_id = 0
    for pod in range(k):
        for a in range(half):
            agg = f"{name}/pod{pod}/agg{a}"
            topo.add_switch(agg)
            # Aggregation switch a connects to cores [a*half, (a+1)*half).
            for c in range(a * half, (a + 1) * half):
                topo.add_link(agg, f"{name}/core{c}", link_bandwidth, INTERSWITCH_LINK)
        for e in range(half):
            edge = f"{name}/pod{pod}/edge{e}"
            topo.add_switch(edge)
            for a in range(half):
                topo.add_link(
                    edge, f"{name}/pod{pod}/agg{a}", link_bandwidth, INTERSWITCH_LINK
                )
            for _ in range(half):
                host = f"h{host_id}"
                topo.add_host(host, leaf=edge)
                topo.add_link(host, edge, link_bandwidth, ENDPOINT_LINK)
                host_id += 1
    return topo


def ft3_spec(radix: int = 64, name: str = "FT3") -> TopologySpec:
    """Size of the k-ary FT3 (Table 3 column 3): k^3/4 endpoints,
    5k^2/4 switches, k^3/2 inter-switch links."""
    if radix < 2 or radix % 2:
        raise ValueError("radix must be a positive even number")
    return TopologySpec(
        name=name,
        endpoints=radix**3 // 4,
        switches=5 * radix**2 // 4,
        links=radix**3 // 2,
    )
