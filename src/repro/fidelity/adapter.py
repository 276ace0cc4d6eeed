"""``sim_packet``: the seed packet simulator as a registry solver.

Wraps :class:`~repro.simulation.simulator.PacketLevelSimulator` in the
standard solver contract so packet-level fidelity slots into the same
sweeps, caches and differential tests as the fluid mechanisms and the
LPs. The adapter adds what the raw simulator lacks:

- the ``unreachable`` drop policy (server pairs whose switch pair is
  unroutable are dropped and reported, mirroring every other backend);
- :class:`~repro.flow.result.ThroughputResult` assembly — measured
  goodput as throughput, post-warmup link loads as ``arc_flows``;
- a content-derived default seed, so identical inputs reproduce
  identical runs without the caller managing RNG state.

Caching caveat: the pipeline's result fingerprint covers switch-level
demands but deliberately **not** ``server_pairs`` (see
:mod:`repro.pipeline.fingerprint`). Two traffic matrices with the same
demands but different server placements would share a cache key; for the
repo's generators placements are derived deterministically from the
demands, so this cannot arise there — but hand-built matrices that vary
``server_pairs`` independently should not be cached with ``sim_packet``.
``docs/fidelity.md`` spells this out.

The measured goodput is a *simulation outcome*, not a bound: TCP's
window dynamics generally leave it below the fluid optimum, but it is
not mathematically guaranteed to stay there, so the backend registers as
``estimate=True`` and the differential matrix checks it against a
calibrated band rather than a one-sided inequality.
"""

from __future__ import annotations

from repro.flow.reachability import resolve_unreachable, unserved_result
from repro.flow.result import ThroughputResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix
from repro.util.hashing import stable_seed

#: Throughput statistics the adapter can report.
PACKET_METRICS = ("min", "mean")


def sim_packet(
    topo: Topology,
    traffic: TrafficMatrix,
    unreachable: str = "error",
    metric: str = "min",
    duration: float = 400.0,
    warmup: float = 150.0,
    subflows: int = 8,
    routing_mode: str = "k-shortest",
    server_capacity: float = 1.0,
    packet_size: float = 1.0,
    max_events: int = 20_000_000,
    seed: "int | None" = None,
    error_band=None,
) -> ThroughputResult:
    """Packet-level throughput of ``traffic`` on ``topo``.

    ``traffic`` must carry explicit ``server_pairs``. ``metric="min"``
    reports the worst per-flow goodput (the paper's definition);
    ``"mean"`` the average. Remaining keywords mirror
    :class:`~repro.simulation.simulator.SimulationConfig`.
    """
    from repro.estimate.common import check_error_band
    from repro.exceptions import FlowError
    from repro.simulation.simulator import PacketLevelSimulator, SimulationConfig

    band = check_error_band(error_band)
    if metric not in PACKET_METRICS:
        known = ", ".join(PACKET_METRICS)
        raise FlowError(f"unknown packet metric {metric!r}; known: {known}")
    label = f"sim-packet-{metric}"
    if traffic.server_pairs is None:
        raise FlowError(
            f"traffic {traffic.name!r} has no server-level pairs; "
            "sim_packet needs explicit endpoints (build the matrix with "
            "from_server_pairs)"
        )
    served, dropped, dropped_demand = resolve_unreachable(
        topo, traffic, unreachable
    )
    if dropped:
        # Keep only flows whose switch pair survived the drop policy
        # (same-switch flows survive with their switch).
        kept = [
            (src, dst)
            for src, dst in traffic.server_pairs
            if (
                (src[0], dst[0]) in served.demands
                or (src[0] == dst[0] and topo.has_switch(src[0]))
            )
        ]
        if not kept:
            short = unserved_result(
                topo, label, dropped, dropped_demand, exact=False
            )
            short.is_estimate = True
            short.error_band = band
            return short
        served = TrafficMatrix(
            name=f"{served.name}|packet",
            demands=served.demands,
            num_flows=len(kept),
            num_local_flows=sum(1 for s, d in kept if s[0] == d[0]),
            server_pairs=kept,
        )
    if served.demands:
        served.validate_against(topo.switches)

    if seed is None:
        from repro.pipeline.fingerprint import topology_fingerprint

        seed = stable_seed(
            {
                "sim-packet": topology_fingerprint(topo),
                "pairs": [
                    [[repr(s[0]), s[1]], [repr(d[0]), d[1]]]
                    for s, d in served.server_pairs
                ],
                "subflows": subflows,
                "routing": routing_mode,
            }
        )
    config = SimulationConfig(
        duration=duration,
        warmup=warmup,
        subflows=subflows,
        server_capacity=server_capacity,
        packet_size=packet_size,
        routing_mode=routing_mode,
        max_events=max_events,
    )
    report = PacketLevelSimulator(topo, config).run(served, seed=seed)
    throughput = report.min_rate if metric == "min" else report.mean_rate

    # Post-warmup average loads on the switch fabric; host access links
    # are the simulator's own model detail and stay out of the arc view.
    arc_capacities = {(u, v): float(cap) for u, v, cap in topo.arcs()}
    arc_flows = {}
    for (u, v), cap in arc_capacities.items():
        utilization = report.link_utilization.get((u, v), 0.0)
        if utilization > 0:
            arc_flows[(u, v)] = float(utilization) * cap

    return ThroughputResult(
        throughput=float(throughput),
        arc_flows=arc_flows,
        arc_capacities=arc_capacities,
        total_demand=served.total_demand,
        solver=label,
        exact=False,
        is_estimate=True,
        dropped_pairs=tuple(dropped),
        dropped_demand=dropped_demand,
        error_band=band,
    )
