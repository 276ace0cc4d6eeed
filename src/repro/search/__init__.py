"""Topology search: annealed rewiring with incremental metrics.

The paper's headline claim — random regular graphs sit within a few
percent of the throughput upper bound — is demonstrated here by *search*:
optimize topologies over degree-preserving double edge swaps and measure
how little headroom is left above a random sample. The subsystem has
four layers:

- :mod:`repro.search.objectives` — pluggable scores (ASPL, spectral gap,
  bisection estimate, direct LP/approximation throughput),
- :mod:`repro.search.annealing` — simulated annealing with cooling
  schedules and O(affected pairs) incremental ASPL evaluation,
- :mod:`repro.search.parallel` — deterministic multi-seed /
  multi-temperature restarts, fanned out through the pipeline's
  executor (``workers`` processes, in-process at the default 1),
- :mod:`repro.search.engine` — ``optimize_topology`` /
  ``optimized_topology`` entry points (the registry's ``"optimized"``
  topology kind).

See ``docs/search.md`` for a guided tour.
"""

from repro.search.annealing import AnnealResult, CoolingSchedule, anneal
from repro.search.engine import optimize_topology, optimized_topology
from repro.search.objectives import (
    ASPLObjective,
    BisectionObjective,
    Objective,
    ObjectiveState,
    SpectralGapObjective,
    ThroughputObjective,
    available_objectives,
    make_objective,
)
from repro.search.parallel import ParallelSearchResult, parallel_anneal

__all__ = [
    "AnnealResult",
    "CoolingSchedule",
    "anneal",
    "optimize_topology",
    "optimized_topology",
    "ASPLObjective",
    "BisectionObjective",
    "Objective",
    "ObjectiveState",
    "SpectralGapObjective",
    "ThroughputObjective",
    "available_objectives",
    "make_objective",
    "ParallelSearchResult",
    "parallel_anneal",
]
