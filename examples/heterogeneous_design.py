#!/usr/bin/env python3
"""Designing a heterogeneous network from a mixed equipment pool (§5).

You have 8 large switches (15 ports) and 16 small switches (8 ports) and
need to attach 96 servers. Where should the servers go, and how should the
switches interconnect? The paper's answer: servers proportional to port
counts, wired with vanilla randomness. This example verifies that with
Figure 7's joint placement x interconnect sweep
(:func:`~repro.experiments.fig07.run_fig7`, which measures every
candidate with :func:`~repro.experiments.heterogeneity.clustered_throughput`)
and prints the ranked design points.

Run:  python examples/heterogeneous_design.py
"""

from repro.core.placement import feasible_server_splits, proportional_split_for
from repro.experiments.fig07 import run_fig7
from repro.experiments.heterogeneity import TwoTypeConfig

#: Large switches, their ports, small switches, their ports, servers.
POOL = (8, 15, 16, 8, 96)


def main() -> None:
    proportional = proportional_split_for(*POOL)
    print(
        "proportional rule says: "
        f"{proportional.servers_per_large} servers on each large switch, "
        f"{proportional.servers_per_small} on each small one "
        f"(placement ratio {proportional.ratio:.2f})"
    )

    ratios = {
        f"{split.servers_per_large}H, {split.servers_per_small}L": split.ratio
        for split in feasible_server_splits(*POOL)
    }
    result = run_fig7(
        config=TwoTypeConfig(*POOL),
        num_splits=len(ratios),
        points=4,
        min_fraction=0.4,
        max_fraction=1.3,
        runs=3,
        seed=42,
    )
    ranked = sorted(
        (
            (series.name, point)
            for series in result.series
            for point in series.points
        ),
        key=lambda item: item[1].y,
        reverse=True,
    )
    print(f"\nevaluated {len(ranked)} design points; top 8 by throughput:")
    print(f"{'design':>18s}  {'ratio':>6s}  {'throughput':>10s}  {'std':>6s}")
    for name, point in ranked[:8]:
        label = f"{name} @ x{point.x:.2f}"
        print(
            f"{label:>18s}  {ratios[name]:6.2f}  "
            f"{point.y:10.4f}  {point.std:6.4f}"
        )

    name, point = ranked[0]
    print(
        f"\nbest design: {name} @ x{point.x:.2f} "
        f"(placement ratio {ratios[name]:.2f})"
    )
    print(
        "note how near-proportional splits with cross fractions around 1.0 "
        "crowd the top of the ranking, as §5.1 predicts."
    )


if __name__ == "__main__":
    main()
