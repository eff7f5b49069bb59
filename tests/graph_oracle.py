"""networkx as the reference oracle for the repo's own graph.

:func:`to_networkx` copies a :class:`~repro.network.topology.Topology`
into an independent ``nx.Graph`` (nodes in order, edges with their
attributes), so tests can check the network core's answers against
networkx's without the core importing it.
"""

import networkx as nx


def to_networkx(topology) -> nx.Graph:
    """An ``nx.Graph`` copy of ``topology.graph``: the same nodes and
    edges in the same order, with copies of their attribute dicts."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.graph.nodes.items())
    graph.add_edges_from(topology.graph.edges(data=True))
    return graph
