"""ECMP fluid throughput: equal splitting over shortest paths.

The paper (and Jellyfish before it) evaluates topologies under *optimal*
routing; real fabrics usually run ECMP, which hashes flows uniformly over
shortest paths only. This module computes the fluid-limit throughput of two
ECMP idealizations:

- ``per-hop`` (default): at every switch, traffic toward a destination
  splits equally across all shortest-path next hops — exactly the fixed
  point of per-packet ECMP hashing,
- ``per-path``: demand splits equally over the set of end-to-end shortest
  paths (an idealization closer to flowlet/WCMP-style balancing).

Both produce deterministic arc loads for a demand matrix; the reported
throughput is the largest ``t`` such that ``t x`` loads fit in capacity,
i.e. ``min over arcs of capacity / load``. Comparing against
:func:`repro.flow.edge_lp.max_concurrent_flow` quantifies how much of the
optimal throughput ECMP forfeits on a given topology (substantial on random
graphs — the Jellyfish finding that motivated MPTCP over k-shortest paths).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FlowError
from repro.flow.reachability import resolve_unreachable, unserved_result
from repro.flow.result import ThroughputResult
from repro.metrics.paths import _closer_neighbors, _walk_shortest_paths, hop_rows
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix
from repro.util.validation import check_positive_int

#: Default cap on enumerated paths per pair in per-path mode
#: (shortest-path counts can grow combinatorially). Pairs that hit the
#: cap split over the enumerated subset only — a bias the result reports
#: via :attr:`~repro.flow.result.ThroughputResult.truncated_pairs`.
MAX_PATHS_PER_PAIR = 256


def ecmp_throughput(
    topo: Topology,
    traffic: TrafficMatrix,
    mode: str = "per-hop",
    unreachable: str = "error",
    max_paths: int = MAX_PATHS_PER_PAIR,
) -> ThroughputResult:
    """Fluid ECMP throughput for a traffic matrix.

    Returns a :class:`ThroughputResult` whose arc flows are the ECMP loads
    scaled by the achieved ``t`` (so utilization/decomposition helpers work
    unchanged). ``exact=False``: ECMP is a restricted routing policy.

    ``unreachable`` chooses the degraded-fabric policy (``"error"`` raises
    on unroutable demands, ``"drop"`` serves what it can — see
    :mod:`repro.flow.reachability`). ``max_paths`` caps per-pair path
    enumeration in per-path mode; pairs that hit it are counted in
    ``result.truncated_pairs`` instead of being truncated silently.
    """
    if mode not in ("per-hop", "per-path"):
        raise FlowError(f"unknown ECMP mode {mode!r}")
    check_positive_int(max_paths, "max_paths")
    traffic, dropped, dropped_demand = resolve_unreachable(
        topo, traffic, unreachable
    )
    if dropped and not traffic.demands:
        return unserved_result(
            topo, f"ecmp-{mode}", dropped, dropped_demand, exact=False
        )
    traffic.validate_against(topo.switches)
    if not traffic.demands:
        raise FlowError("traffic matrix has no network demands")

    arcs = topo.arcs()
    loads = {(u, v): 0.0 for u, v, _ in arcs}
    caps = {(u, v): float(cap) for u, v, cap in arcs}

    truncated = 0
    if mode == "per-hop":
        _accumulate_per_hop(topo, traffic, loads)
    else:
        truncated = _accumulate_per_path(topo, traffic, loads, max_paths)

    throughput = float("inf")
    for arc, load in loads.items():
        if load > 0:
            throughput = min(throughput, caps[arc] / load)
    if throughput == float("inf"):
        raise FlowError("no demand produced any load")
    arc_flows = {arc: load * throughput for arc, load in loads.items()}
    return ThroughputResult(
        throughput=throughput,
        arc_flows=arc_flows,
        arc_capacities=caps,
        total_demand=traffic.total_demand,
        solver=f"ecmp-{mode}",
        exact=False,
        dropped_pairs=tuple(dropped),
        dropped_demand=dropped_demand,
        truncated_pairs=truncated,
    )


def _accumulate_per_hop(
    topo: Topology, traffic: TrafficMatrix, loads: dict
) -> None:
    """Per-destination equal next-hop splitting (true ECMP fixed point)."""
    nodes = topo.switches
    index = {node: i for i, node in enumerate(nodes)}
    by_destination: dict = {}
    for (u, v), units in traffic.demands.items():
        by_destination.setdefault(v, {})[u] = units
    for (destination, sources), row in zip(
        by_destination.items(), hop_rows(topo, list(by_destination))
    ):
        dist = row.tolist()
        arrived: dict = {}
        for source, units in sources.items():
            if dist[index[source]] == np.inf:
                raise FlowError(
                    f"demand {source!r}->{destination!r} has no path"
                )
            arrived[source] = arrived.get(source, 0.0) + float(units)
        # The shortest-path DAG toward `destination` only has arcs from
        # farther nodes to strictly closer ones, so one pass over nodes in
        # decreasing distance order (ties in `switches` order) sees all
        # of a node's incoming mass before splitting it across its next
        # hops. Unreachable nodes sort first and never hold mass.
        next_hops_of = _closer_neighbors(index, dist, topo.neighbors)
        for i in np.argsort(-row, kind="stable").tolist():
            node = nodes[i]
            amount = arrived.get(node, 0.0)
            if amount <= 0 or node == destination:
                continue
            next_hops = next_hops_of(node)
            share = amount / len(next_hops)
            for neighbor in next_hops:
                loads[(node, neighbor)] += share
                arrived[neighbor] = arrived.get(neighbor, 0.0) + share
            arrived[node] = 0.0


def _accumulate_per_path(
    topo: Topology, traffic: TrafficMatrix, loads: dict, max_paths: int
) -> int:
    """Equal split over the enumerated shortest-path set of each pair.

    Enumerates one path past the cap to detect truncation; returns the
    number of pairs whose shortest-path set exceeded ``max_paths`` (their
    demand splits over the first ``max_paths`` enumerated paths only).
    """
    index = {node: i for i, node in enumerate(topo.switches)}
    truncated = 0
    for ((u, v), units), dist in zip(
        traffic.demands.items(), hop_rows(topo, (u for u, _ in traffic.demands))
    ):
        paths = _walk_shortest_paths(topo, index, dist, u, v, max_paths + 1)
        if not paths:
            raise FlowError(f"demand {u!r}->{v!r} has no path")
        if len(paths) > max_paths:
            truncated += 1
            paths = paths[:max_paths]
        share = float(units) / len(paths)
        for path in paths:
            for a, b in zip(path[:-1], path[1:]):
                loads[(a, b)] += share
    return truncated
