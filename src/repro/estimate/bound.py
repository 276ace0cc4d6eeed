"""Capacity-charging throughput estimate (Theorem 1 at scale).

``estimate_bound`` reports the paper's path-length upper bound evaluated
against the *observed* network: total directed capacity divided by the
demand-weighted shortest-path hop sum,

    t_est = C / sum_pairs(units * dist(u, v)).

For random graphs this bound is the paper's headline comparison line —
§4 shows exact throughput tracks it within a few percent — which makes it
a remarkably good estimator exactly where exact LPs stop scaling.
Only the demand pairs' distances are computed, by balls grown from both
ends until they meet (:func:`repro.metrics.paths.demand_hop_sum`), so
the bound stays exact up to N = 100,000 (about 13 s there).
"""

from __future__ import annotations

from repro.core.bounds import demand_throughput_upper_bound
from repro.estimate.common import (
    check_error_band,
    finish_estimate,
    prepare_estimate,
)
from repro.flow.result import ThroughputResult
from repro.metrics.paths import demand_hop_sum
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix

SOLVER_LABEL = "estimate-bound"


def estimate_bound(
    topo: Topology,
    traffic: TrafficMatrix,
    unreachable: str = "error",
    error_band=None,
) -> ThroughputResult:
    """ASPL/capacity-charging throughput estimate (an upper bound).

    Parameters mirror the exact backends; ``error_band`` attaches a
    calibrated ``(lo, hi)`` ratio band (see
    :mod:`repro.estimate.calibrate`) to the result.

    The returned throughput never falls below the exact LP value for the
    same instance — it is a true upper bound, tight on expanders.
    """
    band = check_error_band(error_band)
    served, dropped, dropped_demand, short = prepare_estimate(
        topo, traffic, unreachable, SOLVER_LABEL
    )
    if short is not None:
        short.error_band = band
        return short
    hop_sum = demand_hop_sum(topo, served)
    throughput = demand_throughput_upper_bound(topo.total_capacity, hop_sum)
    return finish_estimate(
        throughput, served, SOLVER_LABEL, dropped, dropped_demand, band
    )
