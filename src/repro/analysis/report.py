"""One-call network analysis: structure, bounds, throughput, bottlenecks.

§6 of the paper explains throughput through utilization, path lengths,
stretch, and cut bounds; :func:`analyze_network` packages that workflow:
solve the exact flow LP for a workload, decompose the result, localize the
bottleneck by link group, and compare against the applicable analytical
bounds. The report renders as plain text for operators and is consumable
as a dataclass for programmatic use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bounds import aspl_lower_bound, throughput_upper_bound
from repro.flow.decomposition import (
    ThroughputDecomposition,
    decompose_throughput,
    group_utilization,
)
from repro.flow.edge_lp import min_hop_flow
from repro.flow.result import ThroughputResult
from repro.metrics.paths import average_shortest_path_length, diameter
from repro.pipeline.engine import evaluate_throughput
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix
from repro.traffic.registry import make_traffic


@dataclass
class NetworkAnalysis:
    """Everything :func:`analyze_network` measured."""

    topology_name: str
    num_switches: int
    num_links: int
    num_servers: int
    total_capacity: float
    degree_histogram: dict
    aspl: float
    network_diameter: int
    is_regular: bool
    regular_degree: "int | None"
    aspl_bound: "float | None"
    traffic_name: "str | None" = None
    throughput: "float | None" = None
    throughput_bound: "float | None" = None
    bound_ratio: "float | None" = None
    decomposition: "ThroughputDecomposition | None" = None
    group_utilizations: dict = field(default_factory=dict)
    bottleneck_group: "str | None" = None
    saturated_arcs: int = 0

    def to_text(self) -> str:
        """Render the analysis as an aligned plain-text report."""
        lines = [f"=== network analysis: {self.topology_name} ==="]
        lines.append(
            f"structure : {self.num_switches} switches, {self.num_links} links, "
            f"{self.num_servers} servers, capacity {self.total_capacity:g}"
        )
        degree_text = ", ".join(
            f"{count}x deg{deg}" for deg, count in self.degree_histogram.items()
        )
        lines.append(f"degrees   : {degree_text}")
        lines.append(
            f"paths     : ASPL {self.aspl:.3f}, diameter {self.network_diameter}"
        )
        if self.aspl_bound is not None:
            lines.append(
                f"ASPL bound: {self.aspl_bound:.3f} "
                f"(observed/bound {self.aspl / self.aspl_bound:.3f})"
            )
        if self.throughput is not None:
            lines.append("")
            lines.append(f"workload  : {self.traffic_name}")
            lines.append(f"throughput: {self.throughput:.4f} per flow (exact LP)")
            if self.throughput_bound is not None:
                lines.append(
                    f"bound     : {self.throughput_bound:.4f} "
                    f"(achieved {self.bound_ratio:.1%})"
                )
            if self.decomposition is not None:
                d = self.decomposition
                lines.append(
                    f"decompose : U={d.utilization:.3f}  <D>={d.aspl:.3f}  "
                    f"AS={d.stretch:.3f}"
                )
            if self.group_utilizations:
                lines.append("link-group utilization:")
                for group, value in sorted(self.group_utilizations.items()):
                    marker = "  <-- bottleneck" if group == self.bottleneck_group else ""
                    lines.append(f"  {group:20s} {value:6.1%}{marker}")
            lines.append(f"saturated arcs (>99% util): {self.saturated_arcs}")
        return "\n".join(lines)


def _regularity(topo: Topology) -> tuple[bool, "int | None"]:
    degrees = {topo.degree(v) for v in topo.switches}
    if len(degrees) == 1:
        return True, degrees.pop()
    return False, None


def analyze_network(
    topo: Topology,
    traffic: "TrafficMatrix | str | None" = "permutation",
    seed=None,
    result: "ThroughputResult | None" = None,
) -> NetworkAnalysis:
    """Analyze a topology, optionally under a workload.

    Parameters
    ----------
    traffic:
        A :class:`TrafficMatrix`, the name of any registered traffic model
        (see :func:`repro.traffic.registry.available_traffic_models`;
        most require servers), or ``None`` for a structure-only report.
    result:
        Optionally reuse an already-solved flow result for the given
        traffic instead of re-solving.

    The flow-based figures (decomposition, link-group utilization and
    saturated arcs) of an exact result are read from its least-volume
    optimal flow, not from whichever optimal flow the solver returned:
    the solve asks for ``keep_commodity_flows=True``, and an exact
    ``result`` passed in goes through
    :func:`~repro.flow.edge_lp.min_hop_flow`.
    """
    is_regular, degree = _regularity(topo)
    aspl = average_shortest_path_length(topo)
    bound = aspl_lower_bound(topo.num_switches, degree) if is_regular else None

    analysis = NetworkAnalysis(
        topology_name=topo.name,
        num_switches=topo.num_switches,
        num_links=topo.num_links,
        num_servers=topo.num_servers,
        total_capacity=topo.total_capacity,
        degree_histogram=topo.degree_histogram(),
        aspl=aspl,
        network_diameter=diameter(topo),
        is_regular=is_regular,
        regular_degree=degree,
        aspl_bound=bound,
    )
    if traffic is None:
        return analysis

    if isinstance(traffic, str):
        traffic = make_traffic(traffic, topo, seed=seed)

    if result is None:
        result = evaluate_throughput(topo, traffic, keep_commodity_flows=True)
    elif result.exact and result.throughput > 0:
        result = min_hop_flow(topo, traffic, result)
    analysis.traffic_name = traffic.name
    analysis.throughput = result.throughput
    if is_regular and degree and traffic.num_network_flows > 0:
        analysis.throughput_bound = throughput_upper_bound(
            topo.num_switches, degree, traffic.num_network_flows
        )
        analysis.bound_ratio = result.throughput / analysis.throughput_bound
    if result.throughput > 0:
        analysis.decomposition = decompose_throughput(topo, traffic, result)
        groups = group_utilization(topo, result)
        analysis.group_utilizations = groups
        analysis.bottleneck_group = max(groups, key=groups.get)
    analysis.saturated_arcs = sum(
        1 for value in result.utilizations().values() if value > 0.99
    )
    return analysis
