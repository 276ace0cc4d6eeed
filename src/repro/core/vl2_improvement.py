"""VL2 improvement pipeline (§7, Figure 12).

"Supporting T ToRs at full throughput" means: across every one of ``runs``
independent workload samples, the max concurrent flow gives each server
flow at least the server line-speed (rate 1.0 in our capacity units). The
paper obtains the largest supported ToR count by binary search; the ratio
of the rewired topology's count to VL2's is the headline 43% gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ExperimentError, TopologyError
from repro.pipeline.engine import evaluate_throughput
from repro.topology.base import Topology
from repro.topology.vl2 import rewired_vl2_topology, vl2_topology
from repro.traffic.registry import make_traffic
from repro.util.rng import child_rngs
from repro.util.validation import check_positive, check_positive_int

#: Relative slack on the full-throughput test, absorbing LP solver
#: tolerance. 0.1% of line-speed.
FULL_THROUGHPUT_TOLERANCE = 1e-3


def supports_full_throughput(
    topo: Topology,
    traffic_kind: str = "permutation",
    runs: int = 3,
    seed=None,
    threshold: float = 1.0,
) -> tuple[bool, float]:
    """Whether every flow reaches ``threshold`` across all workload samples.

    Returns ``(supported, worst_throughput)``; ``worst_throughput`` is the
    minimum per-flow rate seen over the runs.
    """
    check_positive_int(runs, "runs")
    threshold = check_positive(threshold, "threshold")
    worst = float("inf")
    for rng in child_rngs(seed, runs):
        traffic = make_traffic(traffic_kind, topo, seed=rng)
        result = evaluate_throughput(topo, traffic)
        worst = min(worst, result.throughput)
        if worst < threshold * (1.0 - FULL_THROUGHPUT_TOLERANCE):
            return False, worst
    return True, worst


def max_tors_at_full_throughput(
    builder: Callable[..., Topology],
    max_feasible: int,
    traffic_kind: str = "permutation",
    runs: int = 3,
    seed=None,
    threshold: float = 1.0,
) -> int:
    """Binary-search the largest ToR count a builder supports.

    Parameters
    ----------
    builder:
        Callable ``builder(num_tors=..., seed=...) -> Topology``. For
        randomized builders a fresh topology sample is drawn per run.
    max_feasible:
        Structural upper limit on the ToR count (port exhaustion).

    Returns
    -------
    int
        The largest supported count, or 0 if even one ToR fails (possible
        only for degenerate builders).
    """
    check_positive_int(max_feasible, "max_feasible")
    rng_pool = child_rngs(seed, 2)
    topo_rng, traffic_rng = rng_pool

    def supported(num_tors: int) -> bool:
        if num_tors == 0:
            return True
        for run_rng in child_rngs(int(traffic_rng.integers(2**31)), runs):
            try:
                topo = builder(num_tors=num_tors, seed=topo_rng)
            except TopologyError:
                return False
            traffic = make_traffic(traffic_kind, topo, seed=run_rng)
            result = evaluate_throughput(topo, traffic)
            if result.throughput < threshold * (1.0 - FULL_THROUGHPUT_TOLERANCE):
                return False
        return True

    low, high = 0, max_feasible
    # Invariant: `low` supported, `high + 1` unknown-but-assumed-failed.
    if supported(max_feasible):
        return max_feasible
    high = max_feasible - 1
    while low < high:
        mid = (low + high + 1) // 2
        if supported(mid):
            low = mid
        else:
            high = mid - 1
    return low


@dataclass(frozen=True)
class Vl2Comparison:
    """One point of Figure 12(a)/(c)."""

    da: int
    di: int
    traffic_kind: str
    vl2_tors: int
    rewired_tors: int

    @property
    def ratio(self) -> float:
        """Servers (equivalently ToRs) supported, rewired over VL2."""
        if self.vl2_tors == 0:
            raise ExperimentError("VL2 supported zero ToRs; ratio undefined")
        return self.rewired_tors / self.vl2_tors


def vl2_improvement_ratio(
    da: int,
    di: int,
    traffic_kind: str = "permutation",
    runs: int = 3,
    seed=None,
    servers_per_tor: int = 20,
    fabric_capacity: float = 10.0,
) -> Vl2Comparison:
    """Compare ToRs supported at full throughput: VL2 vs rewired VL2.

    VL2's structural maximum is ``DA * DI / 4`` ToRs; the rewired network
    can keep adding ToRs until fabric ports run out
    (``3 DA DI / 2 / tor_uplinks``). Both sides are binary-searched under
    the same workload kind and run count.
    """
    rngs = child_rngs(seed, 2)

    def vl2_builder(num_tors: int, seed=None) -> Topology:
        return vl2_topology(
            da,
            di,
            servers_per_tor=servers_per_tor,
            fabric_capacity=fabric_capacity,
            num_tors=num_tors,
        )

    def rewired_builder(num_tors: int, seed=None) -> Topology:
        return rewired_vl2_topology(
            da,
            di,
            num_tors=num_tors,
            servers_per_tor=servers_per_tor,
            fabric_capacity=fabric_capacity,
            seed=seed,
        )

    vl2_max = (da * di) // 4
    fabric_ports = di * da + (da // 2) * di
    rewired_max = fabric_ports // 2 - 1  # keep >= 2 ports for the fabric
    vl2_tors = max_tors_at_full_throughput(
        vl2_builder, vl2_max, traffic_kind=traffic_kind, runs=runs, seed=rngs[0]
    )
    rewired_tors = max_tors_at_full_throughput(
        rewired_builder,
        rewired_max,
        traffic_kind=traffic_kind,
        runs=runs,
        seed=rngs[1],
    )
    return Vl2Comparison(
        da=da,
        di=di,
        traffic_kind=traffic_kind,
        vl2_tors=vl2_tors,
        rewired_tors=rewired_tors,
    )
