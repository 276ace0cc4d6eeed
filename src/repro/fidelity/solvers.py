"""Routing-mechanism solvers: ``sim_ecmp`` and ``sim_mptcp``.

Both follow the registry's solver contract —
``fn(topo, traffic, **options) -> ThroughputResult`` with the standard
``unreachable`` policy — so the pipeline sweeps *routing mechanism* as
just another solver axis next to the LP backends. They share the
precomputed :mod:`repro.fidelity.routes` sets (content-cached, so a grid
never enumerates a topology's paths twice) and the
:mod:`repro.fidelity.fluid` water-filling core.

``sim_ecmp`` models hash-based ECMP: every unit server flow is pinned to
*one* equal-cost path, sampled from the per-hop hash distribution the
route set records. Collisions — several flows hashed onto one link —
are exactly what the paper's §5 shows ECMP suffering from, and exactly
what the max-min fill then prices in. The sampling is content-seeded
(topology, traffic, options), so results are reproducible across
processes and cache-coherent across sweep workers.

``sim_mptcp`` models MPTCP with k uncoupled subflows over the k-shortest
path sets: one subflow per path, each water-filled independently, flow
rate = sum of subflows. With enough subflows this approaches the fabric's
fluid optimum — the §5 claim the fidelity experiment reproduces.

Results are honest mechanism measurements: ``exact=False``,
``is_estimate=False`` (they are lower bounds by construction, not
calibrated estimates), with an optional ``error_band`` attached when a
:mod:`repro.fidelity.calibrate` table supplies one.
"""

from __future__ import annotations

from repro.exceptions import FlowError
from repro.fidelity.fluid import FluidFlow, simulate_fluid
from repro.fidelity.routes import route_set_for
from repro.flow.reachability import resolve_unreachable, unserved_result
from repro.flow.result import ThroughputResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix
from repro.util.hashing import stable_seed
from repro.util.validation import check_positive_int


def _prepare(topo, traffic, unreachable, label, error_band):
    """Shared preamble (mirrors the estimator scaffolding): the band is
    validated first, and ``short`` is the result when nothing is served."""
    from repro.estimate.common import check_error_band

    band = check_error_band(error_band)
    served, dropped, dropped_demand = resolve_unreachable(
        topo, traffic, unreachable
    )
    if dropped and not served.demands:
        short = unserved_result(
            topo, label, dropped, dropped_demand, exact=False
        )
        short.error_band = band
        return served, dropped, dropped_demand, band, short
    if not served.demands:
        raise FlowError("traffic matrix has no network demands")
    served.validate_against(topo.switches)
    return served, dropped, dropped_demand, band, None


def _unit_flows(units: float) -> "tuple[int, float]":
    """Split a pair's demand units into whole flows of equal weight."""
    count = max(1, int(round(units)))
    return count, units / count


def _finish(
    outcome,
    served: TrafficMatrix,
    label: str,
    dropped: tuple,
    dropped_demand: float,
    band,
    truncated: int,
) -> ThroughputResult:
    return ThroughputResult(
        throughput=outcome.throughput,
        arc_flows=outcome.arc_flows,
        arc_capacities=outcome.arc_capacities,
        total_demand=served.total_demand,
        solver=label,
        exact=False,
        dropped_pairs=tuple(dropped),
        dropped_demand=dropped_demand,
        truncated_pairs=truncated,
        error_band=band,
    )


def sim_ecmp(
    topo: Topology,
    traffic: TrafficMatrix,
    paths: int = 8,
    unreachable: str = "error",
    server_capacity: "float | None" = 1.0,
    seed: "int | None" = None,
    error_band=None,
) -> ThroughputResult:
    """Fluid simulation of hash-split ECMP over ``paths`` equal-cost paths.

    Every unit flow is hashed onto one path (per-hop hash probabilities
    from the route set); the max-min fill then measures what the worst
    collision victim actually gets. ``seed`` perturbs the hash draw; by
    default it derives from content, so identical inputs reproduce
    identical results in any process.
    """
    import numpy as np

    check_positive_int(paths, "paths")
    label = f"sim-ecmp-{paths}"
    served, dropped, dropped_demand, band, short = _prepare(
        topo, traffic, unreachable, label, error_band
    )
    if short is not None:
        return short
    routes = route_set_for(topo, served.demands, mode="ecmp", k=paths)
    from repro.pipeline.fingerprint import traffic_fingerprint

    rng = np.random.default_rng(
        stable_seed(
            {
                "sim-ecmp": routes.key,
                "traffic": traffic_fingerprint(served),
                "seed": seed,
            }
        )
    )
    flows: "list[FluidFlow]" = []
    for pair, group, weights in zip(routes.pairs, routes.paths, routes.weights):
        units = served.demands[pair]
        count, weight = _unit_flows(units)
        choices = rng.choice(len(group), size=count, p=np.asarray(weights))
        for pick in choices:
            flows.append(FluidFlow(pair=pair, weight=weight, paths=(group[int(pick)],)))
    outcome = simulate_fluid(topo, flows, server_capacity=server_capacity)
    return _finish(
        outcome, served, label, dropped, dropped_demand, band,
        routes.truncated,
    )


def sim_mptcp(
    topo: Topology,
    traffic: TrafficMatrix,
    subflows: int = 8,
    method: "str | None" = None,
    coupling: str = "balanced",
    unreachable: str = "error",
    server_capacity: "float | None" = 1.0,
    error_band=None,
) -> ThroughputResult:
    """Fluid simulation of MPTCP with ``subflows`` subflows per flow.

    Each flow spreads one subflow over every path in its k-shortest set
    (``method="tree"`` scales to N=1000+; ``method="yen"`` is the exact
    small-N enumeration). ``coupling="balanced"`` (default) models
    MPTCP's linked congestion control — splits are rebalanced off
    congested paths before the fill, which is what brings k-subflow
    MPTCP within a few percent of the LP (§5); ``"uncoupled"`` keeps
    the naive equal split of independent subflows. Fully deterministic —
    no hashing involved.
    """
    from repro.fidelity.fluid import BALANCE_ROUNDS

    check_positive_int(subflows, "subflows")
    if coupling not in ("balanced", "uncoupled"):
        raise FlowError(
            f"unknown coupling {coupling!r}; known: balanced, uncoupled"
        )
    label = f"sim-mptcp-{subflows}"
    served, dropped, dropped_demand, band, short = _prepare(
        topo, traffic, unreachable, label, error_band
    )
    if short is not None:
        return short
    routes = route_set_for(
        topo, served.demands, mode="ksp", k=subflows, method=method
    )
    flows: "list[FluidFlow]" = []
    for pair, group in zip(routes.pairs, routes.paths):
        units = served.demands[pair]
        count, weight = _unit_flows(units)
        for _ in range(count):
            flows.append(FluidFlow(pair=pair, weight=weight, paths=group))
    outcome = simulate_fluid(
        topo,
        flows,
        server_capacity=server_capacity,
        balance_rounds=BALANCE_ROUNDS if coupling == "balanced" else 0,
    )
    return _finish(
        outcome, served, label, dropped, dropped_demand, band,
        routes.truncated,
    )
