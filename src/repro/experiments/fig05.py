"""Figure 5: power-law switch populations, servers proportional to k^β.

Switch port counts follow a truncated power law; servers attach to switch
``i`` in proportion to ``k_i ** beta``. β = 0 ignores switch size, β = 1
is the proportional rule. The paper finds a plateau of optimal β around
[1.0, 1.4], with throughput dropping and variance blowing up toward both
extremes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSeries,
    mean_throughput_over_seeds,
)
from repro.topology.heterogeneous import (
    beta_server_distribution,
    heterogeneous_random_topology,
    power_law_ports_with_mean,
)
from repro.traffic.permutation import random_permutation_traffic

DEFAULT_BETAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
DEFAULT_MEAN_PORTS = (6.0, 8.0)
PAPER_MEAN_PORTS = (6.0, 8.0, 10.0)


def run_fig5(
    num_switches: int = 24,
    mean_ports_options: "tuple[float, ...]" = DEFAULT_MEAN_PORTS,
    betas: "tuple[float, ...]" = DEFAULT_BETAS,
    server_fraction: float = 0.3,
    exponent: float = 2.0,
    runs: int = 3,
    seed: "int | None" = 0,
) -> ExperimentResult:
    """Throughput vs. β for power-law port populations (Figure 5).

    ``server_fraction`` sets the total server count as a share of total
    ports (held constant within a curve while β varies). Every β point of
    a curve runs on the same random draws (port counts, wiring seeds and
    workloads), so the curve compares server placements, not instances.
    """
    result = ExperimentResult(
        experiment_id="fig5",
        title="Power-law port counts: servers proportional to k^beta",
        x_label="beta",
        y_label="per-flow throughput",
        metadata={
            "num_switches": num_switches,
            "server_fraction": server_fraction,
            "exponent": exponent,
            "runs": runs,
            "seed": seed,
        },
    )
    for mean_index, mean_ports in enumerate(mean_ports_options):
        series = ExperimentSeries(f"Avg port-count {mean_ports:g}")
        root = (
            np.random.SeedSequence().entropy
            if seed is None
            else seed * 11_003 + mean_index * 503
        )
        for beta in betas:
            def build(child, beta=beta):
                ports_list = power_law_ports_with_mean(
                    num_switches,
                    target_mean=mean_ports,
                    exponent=exponent,
                    min_ports=3,
                    seed=child,
                )
                port_counts = {i: k for i, k in enumerate(ports_list)}
                total_servers = max(2, int(server_fraction * sum(ports_list)))
                try:
                    servers = beta_server_distribution(
                        port_counts, total_servers, beta
                    )
                    topo = heterogeneous_random_topology(
                        port_counts, servers, seed=child
                    )
                except TopologyError:
                    return None  # infeasible construction scores zero
                return topo, lambda: random_permutation_traffic(topo, seed=child)

            mean, std = mean_throughput_over_seeds(build, runs, root)
            series.add(beta, mean, std)
        result.add_series(series)
    return result
