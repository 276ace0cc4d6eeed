"""Multi-seed / multi-temperature annealing across worker processes.

Annealing is embarrassingly parallel across restarts: independent walks
from the same start topology explore different basins, and the best of
``num_runs`` runs is markedly better than any single run. This module
fans runs out through the pipeline's executor
(:func:`~repro.pipeline.executors.executor_for_workers`) while keeping
the whole ensemble *deterministic*: worker RNG streams are spawned from
one root :class:`numpy.random.SeedSequence` (never from worker entropy),
and the winner is selected by (score, submission index) so completion
order cannot change the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ExperimentError
from repro.pipeline.executors import executor_for_workers
from repro.search.annealing import AnnealResult, CoolingSchedule, anneal
from repro.search.objectives import Objective
from repro.topology.base import Topology
from repro.util.rng import spawn_seeds
from repro.util.validation import check_positive_int


@dataclass
class ParallelSearchResult:
    """All runs of a parallel search, in submission (seed-stream) order."""

    runs: list[AnnealResult] = field(default_factory=list)

    @property
    def best(self) -> AnnealResult:
        """The winning run: highest best score, earliest run on ties."""
        if not self.runs:
            raise ExperimentError("parallel search produced no runs")
        return max(enumerate(self.runs), key=lambda kv: (kv[1].best_score, -kv[0]))[1]

    @property
    def topology(self) -> Topology:
        """The winning run's best topology."""
        return self.best.topology

    def best_scores(self) -> list[float]:
        """Best score of each run, in run order."""
        return [run.best_score for run in self.runs]


@dataclass
class _RunSpec:
    """Everything one worker needs (picklable)."""

    topo: Topology
    objective: "str | Objective"
    steps: int
    seed: object
    schedule: "CoolingSchedule | None"
    anneal_kwargs: dict


def _run_one(spec: _RunSpec) -> AnnealResult:
    return anneal(
        spec.topo,
        spec.objective,
        steps=spec.steps,
        seed=spec.seed,
        schedule=spec.schedule,
        **spec.anneal_kwargs,
    )


def parallel_anneal(
    topo: Topology,
    objective: "str | Objective" = "aspl",
    *,
    num_runs: int = 4,
    steps: int = 2000,
    seed=None,
    temperatures: "list[float] | None" = None,
    temperature_ratio: float = 1e-3,
    workers: int = 1,
    **kwargs,
) -> ParallelSearchResult:
    """Run ``num_runs`` independent annealing walks and keep them all.

    Parameters
    ----------
    temperatures:
        Optional explicit initial temperature per run (a "parallel
        tempering lite": hot runs explore, cold runs polish). Length must
        equal ``num_runs``; omitted runs auto-calibrate.
    workers:
        Worker processes, as in :func:`~repro.pipeline.engine.run_grid`:
        1 (the default) runs every walk in-process, ``n > 1`` on ``n``
        processes.
    kwargs:
        Forwarded to :func:`~repro.search.annealing.anneal` / the
        objective factory (e.g. ``cooling="linear"``, ``traffic=...``).

    For a fixed ``seed`` the result — every run, and therefore the winner
    — is identical whatever ``workers`` is.
    """
    check_positive_int(num_runs, "num_runs")
    if temperatures is not None and len(temperatures) != num_runs:
        raise ExperimentError(
            f"temperatures has {len(temperatures)} entries for {num_runs} runs"
        )
    specs = []
    for index, child in enumerate(spawn_seeds(seed, num_runs)):
        schedule = None
        anneal_kwargs = dict(kwargs)
        if temperatures is not None:
            t0 = float(temperatures[index])
            schedule = CoolingSchedule(
                initial_temperature=t0,
                final_temperature=t0 * temperature_ratio,
            )
        else:
            # Auto-calibrated runs must honor the ratio too, not just the
            # explicit-temperatures branch.
            anneal_kwargs.setdefault("temperature_ratio", temperature_ratio)
        specs.append(
            _RunSpec(
                topo=topo,
                objective=objective,
                steps=steps,
                seed=child,
                schedule=schedule,
                anneal_kwargs=anneal_kwargs,
            )
        )

    executor = executor_for_workers(workers)
    try:
        runs = list(executor.map(_run_one, specs))
    finally:
        executor.shutdown()
    return ParallelSearchResult(runs=runs)
