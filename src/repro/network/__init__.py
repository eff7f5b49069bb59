"""Network substrate: topologies, routing, flow simulation, cost/latency."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "collectives": (
        "CollectiveResult", "all_to_all_flows", "ring_collective_flows", "run_all_to_all",
        "run_concurrent_rings",
    ),
    "cost": ("CostModel", "TopologyCostRow", "mpft_spec", "table3_rows", "table3_specs"),
    "dragonfly": ("DragonflyParams", "build_dragonfly", "dragonfly_spec"),
    "fattree": (
        "ft2_from_radix", "ft2_spec", "ft3_spec", "three_layer_fat_tree",
        "two_layer_fat_tree",
    ),
    "flowsim": ("Flow", "FlowResult", "FlowSimulator", "max_min_rates"),
    "hierarchical": (
        "HierarchicalResult", "flat_ring_allreduce_time", "run_hierarchical_allreduce",
    ),
    "congestion": (
        "ISOLATION_SCHEMES", "IncastScenario", "victim_completion_time", "victim_slowdown",
    ),
    "multiport": (
        "BONDING_MODES", "MultiPortNic", "bonding_speedup", "max_two_layer_endpoints",
        "message_time",
    ),
    "latency": (
        "IB", "ROCE", "LatencyRow", "LinkLayerLatency", "end_to_end_latency",
        "nvlink_latency", "path_latency", "table5_rows", "uses_nvlink_forwarding",
    ),
    "multiplane": (
        "ClusterNetwork", "build_mpft_cluster", "build_mrft_cluster", "gpu_name",
        "planes_used", "pxn_path",
    ),
    "routing": (
        "NoPathError", "RoutingPolicy", "collision_free_static_table", "ecmp_index",
        "equal_cost_path_table", "equal_cost_paths", "first_shortest_path", "route_flows",
        "shifted_ring_flows", "spread_flows",
    ),
    "slimfly": ("build_slimfly", "slimfly_network_degree", "slimfly_spec"),
    "topology": (
        "ENDPOINT_LINK", "HOST", "INTERSWITCH_LINK", "NVLINK_LINK", "SWITCH", "Topology",
        "TopologySpec",
    ),
})
