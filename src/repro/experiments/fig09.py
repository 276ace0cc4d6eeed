"""Figure 9: decomposing throughput into utilization, path length, stretch.

Re-analyses three earlier sweeps through the identity
``T ∝ U * (1/<D>) * (1/AS)``: (a) the server-placement sweep, (b) the
cross-cluster sweep, (c) the mixed-speed high-port-count sweep. Each
metric is normalized by its value at the throughput-peak x so curves are
comparable; the paper's conclusion is that utilization (i.e. bottleneck
formation) tracks throughput far better than path-length effects, though
path length contributes at the placement extremes. Utilization and
stretch are read from the least-volume optimal flow, which
``keep_commodity_flows=True`` returns (see
:func:`~repro.flow.edge_lp.min_hop_flow`), since the exact LP has many
optimal flows and the solver's choice among them is arbitrary.
"""

from __future__ import annotations

from repro.core.interconnect import feasible_cross_fractions
from repro.core.placement import feasible_server_splits, proportional_split_for
from repro.exceptions import ExperimentError
from repro.experiments.common import ExperimentResult, ExperimentSeries, mean_and_std
# The PAPER_* tables are re-exported for the experiment registry, which
# reads them as fig09 attributes when building paper-scale overrides.
from repro.experiments.fig04 import (  # noqa: F401
    DEFAULT_FIG4C_CONFIGS,
    PAPER_FIG4C_CONFIGS,
)
from repro.experiments.fig08 import (  # noqa: F401
    DEFAULT_FIG8_CONFIG,
    PAPER_FIG8_CONFIG,
)
from repro.experiments.heterogeneity import TwoTypeConfig
from repro.flow.decomposition import decompose_throughput
from repro.pipeline.engine import evaluate_throughput
from repro.topology.heterogeneous import (
    heterogeneous_random_topology,
    mixed_linespeed_topology,
)
from repro.topology.two_cluster import two_cluster_random_topology
from repro.traffic.permutation import random_permutation_traffic
from repro.util.rng import spawn_seeds

_METRICS = ("Throughput", "Utilization", "Inverse SPL", "Inverse Stretch")


def _measure(topo_factory, runs: int, seed) -> "dict[str, float] | None":
    """Average (T, U, 1/<D>, 1/AS) over runs; None if all runs disconnected."""
    rows: list[tuple[float, float, float, float]] = []
    for child in spawn_seeds(seed, runs):
        topo = topo_factory(child)
        if not topo.is_connected():
            continue
        traffic = random_permutation_traffic(topo, seed=child)
        result = evaluate_throughput(topo, traffic, keep_commodity_flows=True)
        if result.throughput <= 0:
            continue
        dec = decompose_throughput(topo, traffic, result)
        rows.append(
            (dec.throughput, dec.utilization, dec.inverse_aspl, dec.inverse_stretch)
        )
    if not rows:
        return None
    out: dict[str, float] = {}
    for index, metric in enumerate(_METRICS):
        mean, _ = mean_and_std(row[index] for row in rows)
        out[metric] = mean
    return out


def _assemble(
    experiment_id: str,
    title: str,
    x_label: str,
    measured: "list[tuple[float, dict[str, float]]]",
    metadata: dict,
) -> ExperimentResult:
    """Normalize each metric by its value at the throughput-peak x."""
    if not measured:
        raise ExperimentError("no connected samples measured")
    peak_x, peak_row = max(measured, key=lambda item: item[1]["Throughput"])
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label=x_label,
        y_label="metric normalized at throughput peak",
        metadata={**metadata, "peak_x": peak_x},
    )
    for metric in _METRICS:
        series = ExperimentSeries(metric)
        base = peak_row[metric]
        for x, row in measured:
            series.add(x, row[metric] / base)
        result.add_series(series)
    return result


def run_fig9a(
    config: TwoTypeConfig = DEFAULT_FIG4C_CONFIGS[0],
    max_points: int = 7,
    runs: int = 3,
    seed: "int | None" = 0,
) -> ExperimentResult:
    """Figure 9(a): decomposition along the server-placement sweep."""
    splits = feasible_server_splits(
        config.num_large,
        config.large_ports,
        config.num_small,
        config.small_ports,
        config.total_servers,
    )
    if len(splits) > max_points:
        step = (len(splits) - 1) / (max_points - 1)
        splits = [splits[round(i * step)] for i in range(max_points)]
    measured = []
    for index, split in enumerate(splits):
        port_counts: dict = {}
        servers: dict = {}
        for i in range(config.num_large):
            port_counts[("L", i)] = config.large_ports
            servers[("L", i)] = split.servers_per_large
        for i in range(config.num_small):
            port_counts[("S", i)] = config.small_ports
            servers[("S", i)] = split.servers_per_small
        row = _measure(
            lambda child, pc=port_counts, sv=servers: heterogeneous_random_topology(
                pc, sv, seed=child
            ),
            runs,
            None if seed is None else seed * 29_021 + index,
        )
        if row is not None:
            measured.append((split.ratio, row))
    return _assemble(
        "fig9a",
        "Decomposition: server placement sweep",
        "servers at large switches (ratio to random expectation)",
        measured,
        {"config": config.describe(), "runs": runs, "seed": seed},
    )


def run_fig9b(
    config: TwoTypeConfig = DEFAULT_FIG4C_CONFIGS[1],
    points: int = 7,
    min_fraction: float = 0.1,
    max_fraction: float = 1.6,
    runs: int = 3,
    seed: "int | None" = 0,
) -> ExperimentResult:
    """Figure 9(b): decomposition along the cross-cluster sweep."""
    split = proportional_split_for(
        config.num_large,
        config.large_ports,
        config.num_small,
        config.small_ports,
        config.total_servers,
    )
    fractions = feasible_cross_fractions(
        config.num_large,
        config.large_ports - split.servers_per_large,
        config.num_small,
        config.small_ports - split.servers_per_small,
        points=points,
        min_fraction=min_fraction,
        max_fraction=max_fraction,
    )
    measured = []
    for index, fraction in enumerate(fractions):
        row = _measure(
            lambda child, f=fraction: two_cluster_random_topology(
                num_large=config.num_large,
                large_network_ports=config.large_ports - split.servers_per_large,
                num_small=config.num_small,
                small_network_ports=config.small_ports - split.servers_per_small,
                servers_per_large=split.servers_per_large,
                servers_per_small=split.servers_per_small,
                cross_fraction=f,
                clamp_cross=True,
                seed=child,
            ),
            runs,
            None if seed is None else seed * 31_013 + index,
        )
        if row is not None:
            measured.append((fraction, row))
    return _assemble(
        "fig9b",
        "Decomposition: cross-cluster sweep",
        "cross-cluster links (ratio to random expectation)",
        measured,
        {"config": config.describe(), "runs": runs, "seed": seed},
    )


def run_fig9c(
    config: TwoTypeConfig = DEFAULT_FIG8_CONFIG,
    high_ports_per_large: int = 1,
    high_speed: float = 4.0,
    points: int = 7,
    min_fraction: float = 0.2,
    max_fraction: float = 1.6,
    runs: int = 3,
    seed: "int | None" = 0,
) -> ExperimentResult:
    """Figure 9(c): decomposition along the mixed-speed cross sweep."""
    split = proportional_split_for(
        config.num_large,
        config.large_ports,
        config.num_small,
        config.small_ports,
        config.total_servers,
    )
    fractions = feasible_cross_fractions(
        config.num_large,
        config.large_ports - split.servers_per_large,
        config.num_small,
        config.small_ports - split.servers_per_small,
        points=points,
        min_fraction=min_fraction,
        max_fraction=max_fraction,
    )
    measured = []
    for index, fraction in enumerate(fractions):
        row = _measure(
            lambda child, f=fraction: mixed_linespeed_topology(
                num_large=config.num_large,
                large_low_ports=config.large_ports - split.servers_per_large,
                num_small=config.num_small,
                small_low_ports=config.small_ports - split.servers_per_small,
                servers_per_large=split.servers_per_large,
                servers_per_small=split.servers_per_small,
                high_ports_per_large=high_ports_per_large,
                high_speed=high_speed,
                cross_fraction=f,
                seed=child,
            ),
            runs,
            None if seed is None else seed * 37_019 + index,
        )
        if row is not None:
            measured.append((fraction, row))
    return _assemble(
        "fig9c",
        "Decomposition: mixed line-speed cross sweep",
        "cross-cluster links (ratio to random expectation)",
        measured,
        {
            "config": config.describe(),
            "high_ports_per_large": high_ports_per_large,
            "high_speed": high_speed,
            "runs": runs,
            "seed": seed,
        },
    )
