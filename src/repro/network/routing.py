"""Routing policies: ECMP hashing, adaptive routing, static tables.

Section 5.2.2 / Figure 8 compare three ways of mapping flows onto the
equal-cost paths of a fat tree:

* **ECMP** — the switch hashes each flow's identifiers onto one path.
  LLM traffic "lacks randomness" (few large flows, regular patterns),
  so hash collisions routinely converge several flows on one uplink.
* **Adaptive routing (AR)** — packets of one flow are sprayed across
  every equal-cost path; modeled as an even fractional split.
* **Static routing** — a manually configured table pins each (src,
  dst) pair to a path; collision-free for the pattern it was tuned
  for, but inflexible.

This module is the only one that chooses among equal-cost paths.  Every
flow builder in :mod:`repro.network` and :mod:`repro.comm` takes its
paths from :func:`equal_cost_path_table` (one BFS per distinct source)
and turns them into flows with :func:`spread_flows`: the Figure 8 rings
by the policy they are given, :func:`shifted_ring_flows` by ECMP, cluster
transfers (all-to-all, EP
dispatch/combine) by ADAPTIVE spraying, the all-reduce rings by STATIC
index 0, and :func:`~repro.network.multiplane.pxn_path` takes the first
table path after its NVLink relay.
"""

from __future__ import annotations

import enum
import zlib
from collections.abc import Callable, Iterator, Sequence

from .flowsim import Flow
from .topology import Topology


class RoutingPolicy(enum.Enum):
    """The routing schemes of Figure 8."""

    ECMP = "ecmp"
    ADAPTIVE = "adaptive"
    STATIC = "static"


class NoPathError(LookupError):
    """A routed pair has no path: its source or destination is not in the
    topology, or the destination cannot be reached from the source."""


def _predecessors(adj: dict[str, dict[str, dict]], src: str) -> dict[str, list[str]]:
    """One BFS from ``src``: each reached node's neighbours one level
    nearer ``src`` (``[]`` for ``src``), in discovery order."""
    pred: dict[str, list[str]] = {src: []}
    level = [src]
    while level:
        reached: dict[str, list[str]] = {}
        for node in level:
            for neighbor in adj[node]:
                if neighbor in reached:
                    reached[neighbor].append(node)
                elif neighbor not in pred:
                    reached[neighbor] = [node]
        pred.update(reached)
        level = list(reached)
    return pred


def equal_cost_path_table(
    topology: Topology, pairs: Sequence[tuple[str, str]]
) -> Iterator[tuple[int, list[list[str]]]]:
    """The equal-cost paths of every pair, from one BFS per distinct source.

    Yields ``(index, paths)`` for each ``pairs[index]``, grouped by
    source: sources in order of first appearance, each one's pairs in
    input order.  ``paths`` is every shortest path from ``src`` to
    ``dst``, sorted (what ``sorted(nx.all_shortest_paths(...))`` gives),
    backtracked from the source's BFS.  A source missing from the
    topology, or a destination that is missing or unreachable, raises
    :class:`NoPathError` naming the pair, once the walk gets to it.

    Only one source's BFS is held at a time, and no entry is kept after
    it is yielded.  Nothing is cached on ``topology``: its graph may be
    edited between calls (see :mod:`repro.reliability.failover`).
    """
    adj = topology.graph.adj
    by_source: dict[str, list[int]] = {}
    for index, (src, _) in enumerate(pairs):
        by_source.setdefault(src, []).append(index)
    for src, indices in by_source.items():
        if src not in adj:
            dst = pairs[indices[0]][1]
            raise NoPathError(f"no path {src} -> {dst}: {src} is not in {topology.name}")
        pred = _predecessors(adj, src)
        for index in indices:
            dst = pairs[index][1]
            if dst not in pred:
                raise NoPathError(f"no path {src} -> {dst} in {topology.name}")
            # Walk back one BFS level per step: every partial path sits on
            # the same level, so all of them reach ``src`` together.
            reversed_paths = [[dst]]
            while reversed_paths[0][-1] != src:
                reversed_paths = [
                    path + [hop] for path in reversed_paths for hop in pred[path[-1]]
                ]
            yield index, sorted(path[::-1] for path in reversed_paths)
        del pred


def equal_cost_paths(topology: Topology, src: str, dst: str) -> list[list[str]]:
    """All shortest paths, deterministically ordered."""
    [(_, paths)] = equal_cost_path_table(topology, [(src, dst)])
    return paths


def route_pairs(
    topology: Topology,
    pairs: Sequence[tuple[str, str]],
    emit: Callable[[int, list[list[str]]], list[Flow]],
) -> list[list[Flow]]:
    """The flows ``emit(index, paths)`` makes of each pair's table
    entry, listed in pair order (the table itself walks by source)."""
    routed: list[list[Flow]] = [[]] * len(pairs)
    for index, paths in equal_cost_path_table(topology, pairs):
        routed[index] = emit(index, paths)
    return routed


def ecmp_index(src: str, dst: str, num_paths: int) -> int:
    """Deterministic ECMP hash of a flow's endpoints onto a path: the
    CRC-32 of ``"{src}->{dst}#0"`` modulo ``num_paths``."""
    if num_paths <= 0:
        raise ValueError("num_paths must be positive")
    digest = zlib.crc32(f"{src}->{dst}#0".encode())
    return digest % num_paths


def spread_flows(
    src: str,
    dst: str,
    size: float,
    paths: list[list[str]],
    policy: RoutingPolicy,
    static_table: dict[tuple[str, str], int] | None = None,
    latency: float = 0.0,
    tag: str = "",
) -> list[Flow]:
    """Map one logical transfer onto its equal-cost ``paths``.

    The one place a path is chosen: ADAPTIVE splits ``size`` evenly over
    every path (the packet-spraying fluid limit), ECMP puts it on the
    path :func:`ecmp_index` hashes ``(src, dst)`` to, and STATIC on the
    path ``static_table`` pins ``(src, dst)`` to (index 0 when the pair
    is absent).  Every flow gets ``latency`` and ``tag``.
    """
    if policy is RoutingPolicy.ADAPTIVE:
        share = size / len(paths)
        return [Flow(src, dst, share, path, latency=latency, tag=tag) for path in paths]
    if policy is RoutingPolicy.ECMP:
        chosen = ecmp_index(src, dst, len(paths))
    else:
        chosen = (static_table or {}).get((src, dst), 0) % len(paths)
    return [Flow(src, dst, size, paths[chosen], latency=latency, tag=tag)]


def route_flows(
    topology: Topology,
    transfers: Sequence[tuple[str, str, float, str]],
    policy: RoutingPolicy | str,
    static_table: dict[tuple[str, str], int] | None = None,
) -> list[Flow]:
    """:func:`spread_flows` of every ``(src, dst, size, tag)`` in
    ``transfers`` over its equal-cost paths, concatenated in order, from
    one equal-cost path table (one BFS per distinct source).

    ``policy`` is a :class:`RoutingPolicy` or its value string
    (``"ecmp"``); anything else raises ``ValueError``.  The flows carry
    no startup latency: the fat-tree experiments that use this compare
    bandwidth, not latency.
    """
    policy = RoutingPolicy(policy)

    def emit(index: int, paths: list[list[str]]) -> list[Flow]:
        src, dst, size, tag = transfers[index]
        return spread_flows(src, dst, size, paths, policy, static_table, tag=tag)

    pairs = [(src, dst) for src, dst, _, _ in transfers]
    return [flow for flows in route_pairs(topology, pairs, emit) for flow in flows]


def shifted_ring_flows(
    topology: Topology,
    shifts: range | list[int],
    size: float,
) -> list[Flow]:
    """The shifted-ring all-to-all traffic pattern over every host,
    ECMP-routed.

    For each ``shift``, host ``i`` sends ``size`` bytes to host
    ``(i + shift) % N`` — the classic permutation decomposition of an
    all-to-all.  Shared by the ``repro trace --scenario network`` CLI
    and the sweep engine's ``flowsim`` target, so both exercise the
    same deterministic workload.  A shift that is a multiple of ``N``
    would send every host to itself and raises ``ValueError``.
    """
    hosts = topology.hosts
    n = len(hosts)
    transfers = []
    for shift in shifts:
        if n and shift % n == 0:
            raise ValueError(f"shift {shift} sends each of the {n} hosts to itself")
        tag = f"shift{shift}"
        transfers.extend((src, hosts[(i + shift) % n], size, tag) for i, src in enumerate(hosts))
    return route_flows(topology, transfers, RoutingPolicy.ECMP)


def collision_free_static_table(
    topology: Topology, pairs: list[tuple[str, str]]
) -> dict[tuple[str, str], int]:
    """Build a static table spreading ``pairs`` across paths greedily.

    Emulates a manually tuned routing configuration: each pair is
    assigned the equal-cost path whose links are least used by the
    pairs placed so far.  Collision-free whenever capacity permits;
    like real static routing, it only helps the traffic pattern it was
    built for.
    """
    # The greedy placement depends on pair order, so it needs every
    # pair's paths before it places the first one.
    paths_of: list[list[list[str]]] = [[]] * len(pairs)
    for index, paths in equal_cost_path_table(topology, pairs):
        paths_of[index] = paths
    link_use: dict[tuple[str, str], int] = {}
    table: dict[tuple[str, str], int] = {}
    for (src, dst), paths in zip(pairs, paths_of):
        best_index, best_cost = 0, float("inf")
        for i, path in enumerate(paths):
            edges = list(zip(path[:-1], path[1:]))
            cost = max((link_use.get(e, 0) for e in edges), default=0)
            if cost < best_cost:
                best_index, best_cost = i, cost
        table[(src, dst)] = best_index
        chosen = paths[best_index]
        for e in zip(chosen[:-1], chosen[1:]):
            link_use[e] = link_use.get(e, 0) + 1
    return table
