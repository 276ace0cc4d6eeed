"""High-level entry points: optimize a topology, or build one pre-optimized.

``optimize_topology`` is the front door used by experiments and the CLI;
``optimized_topology`` packages "sample an RRG, then anneal it" behind the
standard topology-factory signature so the registry can expose optimized
networks under the ``"optimized"`` kind next to ``"rrg"`` and friends.
"""

from __future__ import annotations

from repro.pipeline.executors import executor_for_workers
from repro.search.annealing import AnnealResult, anneal
from repro.search.objectives import Objective
from repro.search.parallel import parallel_anneal
from repro.topology.base import Topology
from repro.topology.random_regular import random_regular_topology
from repro.util.rng import spawn_seeds


def optimize_topology(
    topo: Topology,
    objective: "str | Objective" = "aspl",
    *,
    steps: int = 2000,
    seed=None,
    num_runs: int = 1,
    workers: int = 1,
    **kwargs,
) -> AnnealResult:
    """Anneal ``topo`` and return the best run's result.

    ``num_runs > 1`` runs independent restarts (see
    :func:`~repro.search.parallel.parallel_anneal`), on ``workers``
    processes when ``workers > 1``; the returned result is the
    deterministic winner. All extra keywords flow to
    :func:`~repro.search.annealing.anneal`.
    """
    if num_runs == 1:
        # One run anneals in-process; the worker count is still checked.
        executor_for_workers(workers)
        return anneal(topo, objective, steps=steps, seed=seed, **kwargs)
    return parallel_anneal(
        topo,
        objective,
        num_runs=num_runs,
        steps=steps,
        seed=seed,
        workers=workers,
        **kwargs,
    ).best


def optimized_topology(
    num_switches: int,
    network_degree: int,
    servers_per_switch: int = 0,
    capacity: float = 1.0,
    seed=None,
    objective: "str | Objective" = "aspl",
    steps: int = 1000,
    num_runs: int = 1,
    workers: int = 1,
    name: "str | None" = None,
    **kwargs,
) -> Topology:
    """An RRG(N, k, r) annealed toward ``objective`` — the ``"optimized"`` kind.

    Samples a random regular topology and runs the search on it; both the
    sampling and the search derive from ``seed``, so the whole
    construction is reproducible from one integer.
    """
    sample_seed, search_seed = spawn_seeds(seed, 2)
    base = random_regular_topology(
        num_switches,
        network_degree,
        servers_per_switch=servers_per_switch,
        capacity=capacity,
        seed=sample_seed,
    )
    result = optimize_topology(
        base,
        objective,
        steps=steps,
        seed=search_seed,
        num_runs=num_runs,
        workers=workers,
        **kwargs,
    )
    topo = result.topology
    topo.name = name or (
        f"optimized-rrg(N={num_switches},r={network_degree},"
        f"objective={result.objective})"
    )
    return topo
