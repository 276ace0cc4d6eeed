"""Decompose an arc-flow solution into explicit path flows.

LP solvers return per-arc totals; many analyses (per-flow stretch
histograms, route dumps for the packet simulator, audit trails) need
path-level flows instead. The classical flow-decomposition theorem says any
feasible flow splits into at most ``|E|`` path/cycle flows; this module
implements the greedy peel-off for the single-source commodities produced
by :func:`repro.flow.edge_lp.max_concurrent_flow`.

Because the public solvers only expose commodity-summed arc flows, the
decomposition here re-solves per-source subproblems when exact per-commodity
paths are required; for the common case — understanding where capacity goes
— the aggregate decomposition (source-agnostic) is what's offered.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import FlowError
from repro.flow.result import ThroughputResult

#: Flows below this are treated as numerical noise and dropped.
EPSILON = 1e-9


@dataclass(frozen=True)
class PathFlow:
    """One routed path and the amount of flow it carries."""

    nodes: tuple
    amount: float

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1


def decompose_commodity_flows(
    result: ThroughputResult,
    max_paths_per_commodity: int = 50_000,
) -> dict:
    """Exact per-commodity path decomposition of an LP result.

    Requires the result to carry per-commodity flows (solve with
    ``max_concurrent_flow(..., keep_commodity_flows=True)``). Each
    commodity is single-source, so its net supplies/demands identify real
    endpoints and the peel recovers genuine source-to-destination paths.

    Returns
    -------
    dict
        Mapping source switch -> list of :class:`PathFlow`. Cyclic
        residuals are discarded; they carry no delivered traffic. The
        flows ``max_concurrent_flow`` keeps are the least-volume optimum,
        which has none.
    """
    if result.commodity_flows is None:
        raise FlowError(
            "result has no per-commodity flows; re-solve with "
            "keep_commodity_flows=True"
        )
    decomposed: dict = {}
    for source, flows in result.commodity_flows.items():
        paths, _ = _decompose_flows(
            dict(flows), sources={source}, max_paths=max_paths_per_commodity
        )
        decomposed[source] = paths
    return decomposed


def decompose_arc_flows(
    result: ThroughputResult,
    sources: "set | None" = None,
    max_paths: int = 100_000,
) -> tuple[list[PathFlow], dict]:
    """Greedy path peel-off of a result's aggregate arc flows.

    Repeatedly walks from a node with positive net outflow along positive
    arcs to a node with positive net inflow, peeling the bottleneck amount;
    leftover circulation (cycles) is peeled separately and reported as
    residual.

    .. warning::
       Aggregate multi-commodity flows superpose many source-sink pairs;
       where supplies and demands cancel at a node, the aggregate flow is
       locally a circulation and no s-t path is recoverable from it. Use
       :func:`decompose_commodity_flows` for exact per-source paths; this
       function is for single-commodity flows (or deliberately coarse
       "where does capacity go" summaries).

    Parameters
    ----------
    sources:
        Optional restriction of walk starting points (e.g. the traffic
        matrix's source switches). Default: any node with net outflow.

    Returns
    -------
    (paths, residual)
        ``paths`` is the list of peeled path flows; ``residual`` maps arcs
        to any remaining (cyclic or cancelled) flow.
    """
    flows = {
        arc: value
        for arc, value in result.arc_flows.items()
        if value > EPSILON
    }
    return _decompose_flows(flows, sources=sources, max_paths=max_paths)


def _decompose_flows(
    flows: dict,
    sources: "set | None",
    max_paths: int,
) -> tuple[list[PathFlow], dict]:
    net: dict = {}
    adjacency: dict = {}
    for (u, v), value in flows.items():
        net[u] = net.get(u, 0.0) + value
        net[v] = net.get(v, 0.0) - value
        adjacency.setdefault(u, []).append(v)

    def is_source(node) -> bool:
        if net.get(node, 0.0) <= EPSILON:
            return False
        return sources is None or node in sources

    paths: list[PathFlow] = []
    while len(paths) < max_paths:
        start = next((node for node in net if is_source(node)), None)
        if start is None:
            break
        # Walk along positive arcs until reaching a net sink (or a repeat,
        # which indicates a cycle we skip here and peel later).
        path = [start]
        visited = {start}
        node = start
        while net.get(node, 0.0) >= -EPSILON or node == start:
            next_node = None
            for candidate in adjacency.get(node, []):
                if flows.get((node, candidate), 0.0) > EPSILON:
                    next_node = candidate
                    break
            if next_node is None:
                break
            if next_node in visited:
                # Cycle: peel it immediately so the walk can't loop forever.
                cycle_start = path.index(next_node)
                cycle = path[cycle_start:] + [next_node]
                _peel(flows, cycle, adjacency)
                path = path[: cycle_start + 1]
                visited = set(path)
                node = path[-1]
                continue
            path.append(next_node)
            visited.add(next_node)
            node = next_node
            if net.get(node, 0.0) < -EPSILON:
                break
        if len(path) < 2 or net.get(path[-1], 0.0) >= -EPSILON:
            # Could not reach a sink from this source: numerical leftovers.
            net[start] = 0.0
            continue
        amount = min(
            flows[(a, b)] for a, b in zip(path[:-1], path[1:])
        )
        amount = min(amount, net[path[0]], -net[path[-1]])
        if amount <= EPSILON:
            net[start] = 0.0
            continue
        _peel(flows, path, adjacency, amount)
        net[path[0]] -= amount
        net[path[-1]] += amount
        paths.append(PathFlow(nodes=tuple(path), amount=amount))
    residual = {arc: value for arc, value in flows.items() if value > EPSILON}
    return paths, residual


def _peel(flows: dict, path: list, adjacency: dict, amount: "float | None" = None) -> None:
    """Subtract ``amount`` (default: the bottleneck) along a node path."""
    arcs = list(zip(path[:-1], path[1:]))
    if amount is None:
        amount = min(flows[arc] for arc in arcs)
    for arc in arcs:
        flows[arc] -= amount
        if flows[arc] <= EPSILON:
            flows.pop(arc, None)


def path_length_distribution(paths: list[PathFlow]) -> dict[int, float]:
    """Flow volume carried at each hop count."""
    if not paths:
        raise FlowError("no paths to summarize")
    histogram: dict[int, float] = {}
    for path in paths:
        histogram[path.hops] = histogram.get(path.hops, 0.0) + path.amount
    return dict(sorted(histogram.items()))


def mean_path_length(paths: list[PathFlow]) -> float:
    """Flow-weighted mean hop count of a decomposition."""
    if not paths:
        raise FlowError("no paths to summarize")
    volume = sum(p.amount for p in paths)
    if volume <= 0:
        raise FlowError("decomposition carries no flow")
    return sum(p.amount * p.hops for p in paths) / volume
