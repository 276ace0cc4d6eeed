"""Graph metrics: path lengths, cuts, and spectral/expansion measures."""

from repro.metrics.paths import (
    all_pairs_shortest_lengths,
    all_shortest_paths,
    average_shortest_path_length,
    demand_hop_sum,
    demand_weighted_aspl,
    diameter,
    hop_distances,
    k_shortest_paths,
    path_length_histogram,
)
from repro.metrics.cuts import (
    bisection_bandwidth,
    cut_capacity,
    nonuniform_sparsest_cut,
    uniform_sparsest_cut,
)
from repro.metrics.incremental import IncrementalASPL, SwapEvaluation
from repro.metrics.spectral import (
    adjacency_spectral_gap,
    algebraic_connectivity,
    cheeger_bounds,
    expander_mixing_deviation,
    sparse_algebraic_connectivity,
    sparse_fiedler_vector,
)

__all__ = [
    "all_pairs_shortest_lengths",
    "all_shortest_paths",
    "average_shortest_path_length",
    "demand_hop_sum",
    "demand_weighted_aspl",
    "diameter",
    "hop_distances",
    "k_shortest_paths",
    "path_length_histogram",
    "IncrementalASPL",
    "SwapEvaluation",
    "bisection_bandwidth",
    "cut_capacity",
    "nonuniform_sparsest_cut",
    "uniform_sparsest_cut",
    "adjacency_spectral_gap",
    "algebraic_connectivity",
    "cheeger_bounds",
    "expander_mixing_deviation",
    "sparse_algebraic_connectivity",
    "sparse_fiedler_vector",
]
