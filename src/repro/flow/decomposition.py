"""Throughput decomposition (§6.1): T·f = C·U / (<D> · AS).

The paper explains throughput movements by splitting per-flow throughput
into total capacity ``C``, average utilization ``U``, demand-weighted
average shortest path length ``<D>``, and stretch ``AS`` (the flow-weighted
ratio of routed path length to shortest path length). With total demand
``f`` (in demand units), the identity

    t = C * U / (<D> * AS * f)

holds exactly for any feasible flow, because both sides equal delivered
volume over flow-hops. :func:`decompose_throughput` computes the factors
from a solved :class:`~repro.flow.result.ThroughputResult` and records the
numerical residual of the identity. ``U`` and ``AS`` are those of the
result's flow; an exact LP has many optimal flows, so decompose
:func:`~repro.flow.edge_lp.min_hop_flow`'s least-volume one, as Figure 9
and :func:`~repro.analysis.report.analyze_network` do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.exceptions import FlowError
from repro.flow.result import ThroughputResult
from repro.metrics.paths import demand_weighted_aspl
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix


@dataclass(frozen=True)
class ThroughputDecomposition:
    """The four factors of §6.1 plus bookkeeping.

    ``throughput`` is per demand unit; multiply by ``total_demand`` for the
    aggregate rate. ``identity_residual`` is the relative error of the
    decomposition identity — it should be at solver tolerance (~1e-6).
    """

    throughput: float
    capacity: float
    utilization: float
    aspl: float
    stretch: float
    total_demand: float
    identity_residual: float

    @property
    def inverse_aspl(self) -> float:
        """1 / <D> — the quantity plotted in Figure 9."""
        return 1.0 / self.aspl

    @property
    def inverse_stretch(self) -> float:
        """1 / AS — the quantity plotted in Figure 9."""
        return 1.0 / self.stretch


def decompose_throughput(
    topo: Topology,
    traffic: TrafficMatrix,
    result: ThroughputResult,
) -> ThroughputDecomposition:
    """Split a solved throughput into the §6.1 factors.

    Requires a result with positive delivered traffic (zero-throughput
    results have undefined stretch).
    """
    if result.throughput <= 0:
        raise FlowError(
            "cannot decompose a zero-throughput result (stretch undefined)"
        )
    capacity = result.total_capacity
    utilization = result.utilization
    aspl = demand_weighted_aspl(topo, traffic)
    routed = result.mean_routed_path_length
    stretch = routed / aspl
    total_demand = result.total_demand
    predicted = capacity * utilization / (aspl * stretch * total_demand)
    residual = abs(predicted - result.throughput) / max(result.throughput, 1e-12)
    return ThroughputDecomposition(
        throughput=result.throughput,
        capacity=capacity,
        utilization=utilization,
        aspl=aspl,
        stretch=stretch,
        total_demand=total_demand,
        identity_residual=residual,
    )


def group_utilization(
    topo: Topology,
    result: ThroughputResult,
    classifier: "Callable[[object, object], str] | None" = None,
) -> dict[str, float]:
    """Capacity-weighted utilization per link group.

    ``classifier(u, v)`` names the group of each directed arc; the default
    groups arcs by the cluster labels of their endpoints (sorted, so
    ``large-small`` and ``small-large`` merge), reproducing the paper's
    "links within the large cluster are <20% utilized while cross-cluster
    links are >90%" analysis.
    """
    if classifier is None:
        classifier = cluster_link_classifier(topo)
    flow_by_group: dict[str, float] = {}
    cap_by_group: dict[str, float] = {}
    for (u, v), cap in result.arc_capacities.items():
        group = classifier(u, v)
        cap_by_group[group] = cap_by_group.get(group, 0.0) + cap
        flow_by_group[group] = (
            flow_by_group.get(group, 0.0) + result.arc_flows.get((u, v), 0.0)
        )
    return {
        group: flow_by_group.get(group, 0.0) / cap
        for group, cap in cap_by_group.items()
    }


def cluster_link_classifier(topo: Topology) -> "Callable[[object, object], str]":
    """Classifier labelling arcs by endpoint cluster labels.

    Nodes without a cluster label are grouped under ``"unlabelled"``.
    """

    def classify(u, v) -> str:
        cu = topo.cluster_of(u) or "unlabelled"
        cv = topo.cluster_of(v) or "unlabelled"
        first, second = sorted((cu, cv))
        return f"{first}-{second}"

    return classify
