#!/usr/bin/env python3
"""Quickstart: how close is a random graph to the throughput upper bound?

Builds an RRG(N=40, k=15, r=10) — 40 switches, 10 switch-to-switch ports,
5 servers each — routes a random permutation optimally with the exact flow
LP, and compares against the paper's Theorem-1 + Cerf upper bound. Also
prints the §6.1 decomposition of the achieved throughput.

Run:  python examples/quickstart.py
"""

from repro import (
    aspl_lower_bound,
    average_shortest_path_length,
    decompose_throughput,
    max_concurrent_flow,
    random_permutation_traffic,
    random_regular_topology,
    throughput_upper_bound,
)


def main() -> None:
    num_switches = 40
    network_degree = 10
    servers_per_switch = 5

    topo = random_regular_topology(
        num_switches,
        network_degree,
        servers_per_switch=servers_per_switch,
        seed=2014,
    )
    traffic = random_permutation_traffic(topo, seed=7)
    print(f"topology : {topo}")
    print(f"traffic  : {traffic}")

    # Kept commodity flows are the least-volume optimal flow, which
    # fixes U and AS below (the LP has many optimal flows).
    result = max_concurrent_flow(topo, traffic, keep_commodity_flows=True)
    bound = throughput_upper_bound(
        num_switches, network_degree, traffic.num_network_flows
    )
    print(f"\nper-flow throughput (exact LP) : {result.throughput:.4f}")
    print(f"upper bound (Theorem 1 + Cerf) : {bound:.4f}")
    print(f"ratio to bound                 : {result.throughput / bound:.3f}")

    aspl = average_shortest_path_length(topo)
    aspl_bound = aspl_lower_bound(num_switches, network_degree)
    print(f"\nASPL observed / lower bound    : {aspl:.3f} / {aspl_bound:.3f}")

    decomposition = decompose_throughput(topo, traffic, result)
    print("\nthroughput decomposition (T*f = C*U / (<D>*AS)):")
    print(f"  capacity C      : {decomposition.capacity:.1f}")
    print(f"  utilization U   : {decomposition.utilization:.3f}")
    print(f"  <D> (demand-wtd): {decomposition.aspl:.3f}")
    print(f"  stretch AS      : {decomposition.stretch:.3f}")
    print(f"  identity residual: {decomposition.identity_residual:.2e}")


if __name__ == "__main__":
    main()
