#!/usr/bin/env python3
"""Rewiring VL2 for more servers at full throughput (§7, Figure 12a).

Takes a (scaled-down) VL2 equipment pool — DI aggregation switches with DA
ports, DA/2 core switches with DI ports — and compares how many ToRs the
standard VL2 wiring vs. the paper's rewired design can support at full
throughput under random permutation traffic. Also shows where link
utilization concentrates in each design.

Run:  python examples/vl2_rewiring.py
"""

from repro import (
    max_concurrent_flow,
    random_permutation_traffic,
    rewired_vl2_topology,
    vl2_improvement_ratio,
    vl2_topology,
)
from repro.flow.decomposition import group_utilization


def main() -> None:
    da, di = 6, 8
    servers_per_tor = 10

    comparison = vl2_improvement_ratio(
        da, di, runs=2, seed=11, servers_per_tor=servers_per_tor
    )
    print(f"equipment: DA={da}, DI={di} "
          f"({di} agg x {da} ports, {da // 2} core x {di} ports)")
    print(f"VL2 supports     : {comparison.vl2_tors} ToRs "
          f"({comparison.vl2_tors * servers_per_tor} servers)")
    print(f"rewired supports : {comparison.rewired_tors} ToRs "
          f"({comparison.rewired_tors * servers_per_tor} servers)")
    print(f"improvement      : {comparison.ratio:.2f}x\n")

    # Where do the bottlenecks sit? Compare utilization by link group at
    # VL2's design size.
    num_tors = comparison.vl2_tors
    for label, topo in (
        ("vl2", vl2_topology(da, di, servers_per_tor=servers_per_tor,
                             num_tors=num_tors)),
        ("rewired", rewired_vl2_topology(da, di, num_tors=num_tors,
                                         servers_per_tor=servers_per_tor,
                                         seed=3)),
    ):
        traffic = random_permutation_traffic(topo, seed=5)
        # Read utilization from the least-volume optimal flow: another
        # optimum may route the same throughput over longer paths.
        result = max_concurrent_flow(topo, traffic, keep_commodity_flows=True)
        groups = group_utilization(topo, result)
        print(f"{label}: per-flow throughput {result.throughput:.3f}")
        for group, utilization in sorted(groups.items()):
            print(f"  {group:18s} utilization {utilization:.2f}")
        print()


if __name__ == "__main__":
    main()
