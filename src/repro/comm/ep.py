"""Expert-parallel dispatch/combine communication (DeepEP model).

Implements the traffic model behind Figure 7 and Section 4.3:

* Experts are grouped one group per node (Section 4.3's deployment);
  within a node the group's experts are striped across the 8 GPUs.
* **Dispatch** sends each token over IB *once per destination node*
  (the NVLink-forwarding deduplication), then fans it out over NVLink
  to the experts' GPUs.  Dispatch payloads are FP8 (1 byte/element).
* **Combine** returns expert outputs in BF16 (2 bytes/element), again
  aggregated per node over IB after an NVLink-side reduction.

Token routing comes from real routing decisions
(:mod:`repro.model.routing`), so node-limited routing directly shapes
the traffic matrix.  The IB part runs as PXN transfers sprayed over
the destination plane (:func:`repro.network.collectives.transfer_flows`),
the NVLink part on each node's NVSwitch, and :func:`run_ep_stage`
drains both on the cluster graph (the flow simulator's fluid bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model.routing import RoutingDecision, node_limited_topk, topk_routing
from ..network.collectives import transfer_flows
from ..network.flowsim import Flow, FlowSimulator
from ..network.multiplane import ClusterNetwork, gpu_name

DISPATCH_BYTES_PER_ELEMENT = 1  # FP8
COMBINE_BYTES_PER_ELEMENT = 2  # BF16


@dataclass(frozen=True)
class EPConfig:
    """Expert-parallel deployment description.

    Attributes:
        num_routed_experts: Total routed experts.
        experts_per_token: Top-k routed experts per token.
        num_shared_experts: Shared experts (co-located with the token's
            own GPU; they add compute, not dispatch traffic).
        hidden_size: Token hidden dimension (the paper uses ~7K).
        max_nodes_per_token: Node-limited routing cap (0 = unlimited).
    """

    num_routed_experts: int
    experts_per_token: int
    num_shared_experts: int = 1
    hidden_size: int = 7168
    max_nodes_per_token: int = 4

    @property
    def destinations_per_token(self) -> int:
        """Expert copies each token is sent to (9 for DeepSeek-V3)."""
        return self.experts_per_token + self.num_shared_experts


DEEPSEEK_V3_EP = EPConfig(
    num_routed_experts=256,
    experts_per_token=8,
    num_shared_experts=1,
    hidden_size=7168,
    max_nodes_per_token=4,
)


class EPDeployment:
    """Experts placed on a cluster, one expert group per node."""

    def __init__(self, cluster: ClusterNetwork, config: EPConfig) -> None:
        if config.num_routed_experts % cluster.num_nodes != 0:
            raise ValueError(
                f"{config.num_routed_experts} experts do not stripe over "
                f"{cluster.num_nodes} nodes"
            )
        self.cluster = cluster
        self.config = config
        self.experts_per_node = config.num_routed_experts // cluster.num_nodes
        if self.experts_per_node % cluster.gpus_per_node != 0:
            raise ValueError(
                f"{self.experts_per_node} experts/node do not stripe over "
                f"{cluster.gpus_per_node} GPUs"
            )
        self.experts_per_gpu = self.experts_per_node // cluster.gpus_per_node

    def node_of_expert(self, expert: int) -> int:
        """Node hosting ``expert`` (group-major placement, §4.3)."""
        return expert // self.experts_per_node

    def gpu_of_expert(self, expert: int) -> str:
        """GPU hosting ``expert``."""
        node = self.node_of_expert(expert)
        local = expert % self.experts_per_node
        return gpu_name(node, local // self.experts_per_gpu)

    def route_tokens(
        self, tokens_per_gpu: int, rng: np.random.Generator
    ) -> dict[str, RoutingDecision]:
        """Draw routing decisions for every GPU's local batch.

        Affinities are random uniform — the balanced-load regime the
        paper's bandwidth analysis assumes.  Node-limited routing is
        applied when the config requests it and the cluster has more
        nodes than the cap.
        """
        cfg = self.config
        decisions = {}
        for src in self.cluster.gpus():
            scores = rng.uniform(size=(tokens_per_gpu, cfg.num_routed_experts))
            if 0 < cfg.max_nodes_per_token < self.cluster.num_nodes:
                decisions[src] = node_limited_topk(
                    scores,
                    cfg.experts_per_token,
                    num_groups=self.cluster.num_nodes,
                    max_groups=cfg.max_nodes_per_token,
                )
            else:
                decisions[src] = topk_routing(scores, cfg.experts_per_token)
        return decisions

    # -- traffic construction -------------------------------------------

    def dispatch_traffic(
        self, decisions: dict[str, RoutingDecision]
    ) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float]]:
        """(IB traffic, NVLink fan-out traffic) of the dispatch stage.

        IB traffic is node-deduplicated: a token crossing to node ``d``
        costs ``hidden x 1`` byte once, regardless of how many of its
        experts live there.  The NVLink map carries the within-node
        fan-out from the entry GPU to each expert GPU.
        """
        token_bytes = self.config.hidden_size * DISPATCH_BYTES_PER_ELEMENT
        num_nodes = self.cluster.num_nodes
        gpus_per_node = self.cluster.gpus_per_node
        ib: dict[tuple[str, str], float] = {}
        nvlink: dict[tuple[str, str], float] = {}
        for src, decision in decisions.items():
            src_plane = self.cluster.plane_of[src]
            src_node = self.cluster.node_of[src]
            tokens = decision.num_tokens
            expert_nodes = decision.expert_ids // self.experts_per_node
            expert_gpu_idx = (
                decision.expert_ids % self.experts_per_node
            ) // self.experts_per_gpu
            # hits[t, node, gpu] — does token t target an expert there?
            hits = np.zeros((tokens, num_nodes, gpus_per_node), dtype=bool)
            rows = np.repeat(np.arange(tokens), decision.expert_ids.shape[1])
            hits[rows, expert_nodes.ravel(), expert_gpu_idx.ravel()] = True
            node_hits = hits.any(axis=2)  # [t, node]
            node_counts = node_hits.sum(axis=0)  # tokens touching each node
            gpu_counts = hits.sum(axis=0)  # [node, gpu]
            for node in range(num_nodes):
                if node == src_node:
                    # Local node: NVLink only, straight to expert GPUs.
                    for gidx in range(gpus_per_node):
                        dst = gpu_name(node, gidx)
                        if dst != src and gpu_counts[node, gidx]:
                            _add(nvlink, (src, dst), gpu_counts[node, gidx] * token_bytes)
                    continue
                if node_counts[node]:
                    entry = gpu_name(node, src_plane)
                    _add(ib, (src, entry), node_counts[node] * token_bytes)
                    for gidx in range(gpus_per_node):
                        dst = gpu_name(node, gidx)
                        if dst != entry and gpu_counts[node, gidx]:
                            _add(
                                nvlink,
                                (entry, dst),
                                gpu_counts[node, gidx] * token_bytes,
                            )
        return ib, nvlink

    def combine_traffic(
        self, decisions: dict[str, RoutingDecision]
    ) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float]]:
        """Traffic of the combine stage (reverse of dispatch, BF16).

        Expert outputs for one token on one node are reduced over
        NVLink at the exit GPU, then a single BF16 message returns over
        IB — the mirror-image deduplication.
        """
        ib_d, nv_d = self.dispatch_traffic(decisions)
        ratio = COMBINE_BYTES_PER_ELEMENT / DISPATCH_BYTES_PER_ELEMENT
        ib = {(b, a): v * ratio for (a, b), v in ib_d.items()}
        nvlink = {(b, a): v * ratio for (a, b), v in nv_d.items()}
        return ib, nvlink

    def traffic_to_flows(
        self,
        ib: dict[tuple[str, str], float],
        nvlink: dict[tuple[str, str], float],
    ) -> list[Flow]:
        """Materialize aggregated traffic as simulator flows: IB traffic
        sprayed over its equal-cost paths, NVLink traffic on the node's
        NVSwitch."""
        transfers = [(src, dst, size) for (src, dst), size in ib.items()]
        flows = transfer_flows(self.cluster, transfers, tag="ib")
        for (src, dst), size in nvlink.items():
            flows.append(Flow(src, dst, size, self.cluster.nvlink_path(src, dst), tag="nvlink"))
        return flows


def _add(traffic: dict[tuple[str, str], float], key: tuple[str, str], size: float) -> None:
    traffic[key] = traffic.get(key, 0.0) + size


@dataclass(frozen=True)
class EPStageResult:
    """Measured outcome of one EP stage (dispatch or combine)."""

    stage: str
    time: float
    ib_bytes_per_gpu: float
    total_ib_bytes: float

    @property
    def per_gpu_bandwidth(self) -> float:
        """Achieved IB bandwidth per GPU (the Figure 7 y-axis)."""
        if self.time == 0:
            return float("inf")
        return self.ib_bytes_per_gpu / self.time


def run_ep_stage(
    deployment: EPDeployment,
    decisions: dict[str, RoutingDecision],
    stage: str = "dispatch",
) -> EPStageResult:
    """Simulate one EP all-to-all stage on the cluster fabric.

    The stage is drained: its time is the fluid bound (largest per-link
    drain time plus the largest flow latency), which matches the exact
    event simulation for these saturated symmetric stages at a fraction
    of the cost.
    """
    if stage == "dispatch":
        ib, nvlink = deployment.dispatch_traffic(decisions)
    elif stage == "combine":
        ib, nvlink = deployment.combine_traffic(decisions)
    else:
        raise ValueError(f"stage must be dispatch or combine, got {stage!r}")
    flows = deployment.traffic_to_flows(ib, nvlink)
    result = FlowSimulator(deployment.cluster.topology).simulate(flows, mode="drain")
    total_ib = sum(ib.values())
    num_gpus = deployment.cluster.num_gpus
    return EPStageResult(
        stage=stage,
        time=result.makespan,
        ib_bytes_per_gpu=total_ib / num_gpus,
        total_ib_bytes=total_ib,
    )


# --- Section 4.3 closed-form analysis ----------------------------------------


def ib_cost_factor(decision: RoutingDecision, experts_per_node: int) -> float:
    """Average per-token IB cost in units of t (one token-send time).

    Without NVLink forwarding the cost is the number of *remote
    experts* (up to 8t); with node-deduplication it is the number of
    distinct remote nodes M (Section 4.3's Mt).
    """
    nodes = decision.expert_ids // experts_per_node
    m = [len(np.unique(row)) for row in nodes]
    return float(np.mean(m))
