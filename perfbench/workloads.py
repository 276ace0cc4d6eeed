"""The benchmark's workloads: inputs from a seed, one repetition, checks.

Each workload builds its inputs from the benchmark's ``--seed`` only, so
the program receives generated inputs and never the seed itself. The
inputs are a list of *sets*; one *repetition* is one public pipeline
call (``run_grid`` or ``run_replay``, ``workers=1``) over one set.
Untraced repetitions make whole passes over the sets, so a run averages
over many sampled instances (an exact LP's cost varies by ~25% between
instances of one size), the same ones on every commit; traced
repetitions all run set 0, so their counts repeat exactly. ``sets`` is
sized so that one pass takes about 15 s on a 2-vCPU Xeon VM.

``kernel_exponent`` is the power of the reference kernel's slowdown by
which a workload's rate is scaled, fitted over 20 runs of identical code
per workload (``README.md``, Metrics).

Why each workload exists, and which change it is meant to show or
bypass, is in ``README.md`` beside this file.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.estimate import estimate_bound
from repro.flow import SolverConfig, max_concurrent_flow
from repro.pipeline import (
    ReplayPlan,
    ScenarioGrid,
    TopologySpec,
    TrafficSpec,
    evaluate_cell,
    run_grid,
    run_replay,
)
from repro.traffic.vdc import vdc_timeline

#: The seed whose outputs ``reference.json`` stores.
DEFAULT_SEED = 0
#: Relative tolerance of every numeric output check.
RTOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")
#: Input sets per run whose sampled items get an independent re-solve;
#: the re-solves cost as much as the timed work they check.
SAMPLED_SETS = 3


@dataclass
class RepOutput:
    """Per-item outputs of one repetition, in item order."""

    values: "list[float]"
    hits: "list[bool]"
    #: Replay steps by how they were obtained (empty for grids).
    modes: dict = field(default_factory=dict)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def reference_failures(
    name: str, seed: int, index: int, values: "list[float]"
) -> "list[bool]":
    """Items of set ``index`` that disagree with the stored default-seed
    outputs at :data:`RTOL` (no stored outputs apply to other seeds)."""
    if seed != DEFAULT_SEED:
        return [False] * len(values)
    stored = [
        float.fromhex(text)
        for text in json.loads(REFERENCE_PATH.read_text())[name][index]
    ]
    if len(stored) != len(values):
        return [True] * len(values)
    return [not close(a, b) for a, b in zip(values, stored)]


def set_seed(seed: int, index: int) -> int:
    """Seed of input set ``index`` of a run with benchmark seed ``seed``."""
    return seed * 1_000 + index


def _grid_output(sweep) -> RepOutput:
    return RepOutput(
        [cell.throughput for cell in sweep.cells],
        [cell.cache_hit for cell in sweep.cells],
    )


class _ColdSweep:
    """A workload whose sets are grids, each run on an empty cache."""

    fresh_cache = True

    def inputs(self, seed: int, workdir: Path) -> "list[ScenarioGrid]":
        return [self._grid(set_seed(seed, i)) for i in range(self.sets)]

    def items(self, grid: ScenarioGrid) -> int:
        return len(grid)

    #: Items that count towards the rate: every cell.
    work = items

    def repeat(self, grid, cache_dir, progress) -> RepOutput:
        return _grid_output(
            run_grid(grid, workers=1, cache_dir=cache_dir, progress=progress)
        )


class SweepExact(_ColdSweep):
    """Cold exact ``edge_lp`` sweep: the path every figure takes."""

    name = "sweep_exact"
    sets = 18
    #: One solver column, so every batch is one cell.
    burst = 1
    kernel_units = 32
    kernel_exponent = 1.2

    def _grid(self, base_seed: int) -> ScenarioGrid:
        return ScenarioGrid(
            name=self.name,
            topologies=(
                TopologySpec.make("rrg", network_degree=8, servers_per_switch=4),
            ),
            traffics=(
                TrafficSpec.make("permutation"),
                TrafficSpec.make("all-to-all"),
            ),
            solvers=(SolverConfig("edge_lp"),),
            sizes=(16, 20),
            base_seed=base_seed,
        )

    def check(self, grid, output: RepOutput, seed: int, index: int) -> "list[bool]":
        """Each exact cell must not exceed the unsampled Theorem-1
        estimate of the same instance."""
        failed = reference_failures(self.name, seed, index, output.values)
        for cell, scenario in enumerate(grid.cells()):
            topo, traffic = scenario.build()
            bound = estimate_bound(topo, traffic).throughput
            if not output.values[cell] <= bound * (1 + RTOL):
                failed[cell] = True
        return failed


class ReplayVdc:
    """Warm-started replay of a VDC tenant-churn trace with ``edge_lp``."""

    name = "replay_vdc"
    #: Many short traces rather than a few long ones: a trace's cost
    #: varies by ~20% with its instance, and the mean of a pass should not.
    sets = 16
    #: Steps per window: the warm chain, and the kernel's burst.
    window = 4
    burst = window
    kernel_units = 130
    kernel_exponent = 1.2
    fresh_cache = True
    steps = window

    def inputs(self, seed: int, workdir: Path) -> "list[ReplayPlan]":
        return [self._plan(set_seed(seed, i)) for i in range(self.sets)]

    def _plan(self, seed: int) -> ReplayPlan:
        spec = TopologySpec.make(
            "rrg", num_switches=24, network_degree=6, servers_per_switch=4
        )
        # The tenant mix benchmarks/bench_replay.py replays on this
        # topology: a step changes a few percent of the demand pairs.
        timeline = vdc_timeline(
            spec.build(seed=seed),
            seed=seed,
            steps=self.steps,
            arrival_rate=2.0,
            mean_vms=5.0,
            mean_duration=12.0,
            name=f"vdc-{seed}",
        )
        return ReplayPlan(
            name=self.name,
            topology=spec,
            timeline=timeline,
            solver=SolverConfig.make("edge_lp"),
            seed=seed,
            window=self.window,
        )

    def items(self, plan: ReplayPlan) -> int:
        return plan.num_steps

    def work(self, plan: ReplayPlan) -> int:
        """Steps the replay solves: the first, and each whose delta
        changes demand. A no-op delta keeps its predecessor's cache key,
        so that step is a cache hit at ~1% of a solve; counting it would
        make the rate follow each seed's share of idle steps."""
        return 1 + sum(1 for delta in plan.timeline.deltas if delta.num_changes)

    def repeat(self, plan, cache_dir, progress) -> RepOutput:
        replay = run_replay(
            plan, workers=1, cache_dir=cache_dir, progress=progress
        )
        return RepOutput(
            replay.throughput_series(),
            [cell.cache_hit for cell in replay.cells],
            replay.mode_counts(),
        )

    def check(self, plan, output: RepOutput, seed: int, index: int) -> "list[bool]":
        """A sampled step must equal a cold solve of that step's matrix."""
        failed = reference_failures(self.name, seed, index, output.values)
        if index < SAMPLED_SETS:
            step = int(np.random.default_rng(plan.seed).integers(plan.num_steps))
            cold = max_concurrent_flow(
                plan.build_topology(), plan.timeline.matrix_at(step)
            )
            if not close(output.values[step], cold.throughput):
                failed[step] = True
        return failed


@dataclass
class Prefilled:
    grid: ScenarioGrid
    cache_dir: str
    values: "list[float]"


class RerunCached:
    """Re-running an already solved grid: the cache's read side."""

    name = "rerun_cached"
    #: Every repetition re-runs the one grid its set-up solved, reading
    #: the cache the set-up filled.
    sets = 1
    fresh_cache = False
    burst = 6
    kernel_units = 4
    kernel_exponent = 1.8

    def inputs(self, seed: int, workdir: Path) -> "list[Prefilled]":
        grid = ScenarioGrid(
            name=self.name,
            topologies=(
                TopologySpec.make("rrg", network_degree=6, servers_per_switch=4),
            ),
            traffics=(
                TrafficSpec.make("permutation"),
                TrafficSpec.make("all-to-all"),
                TrafficSpec.make("gravity"),
            ),
            solvers=(SolverConfig("edge_lp"),),
            sizes=(12, 16, 20, 24),
            # Two replicates: a topology's rebuild cost depends on its
            # seed, so one instance per coordinate left ~7% between seeds.
            seeds=2,
            base_seed=set_seed(seed, 0),
        )
        cache_dir = tempfile.mkdtemp(prefix="prefill-", dir=workdir)
        prefill = run_grid(grid, workers=1, cache_dir=cache_dir)
        return [Prefilled(grid, cache_dir, _grid_output(prefill).values)]

    def items(self, inputs: Prefilled) -> int:
        return len(inputs.grid)

    work = items

    def repeat(self, inputs, cache_dir, progress) -> RepOutput:
        return _grid_output(
            run_grid(
                inputs.grid, workers=1, cache_dir=cache_dir, progress=progress
            )
        )

    def check(self, inputs, output: RepOutput, seed: int, index: int) -> "list[bool]":
        """Every cell is a cache hit, bit-identical to its set-up solve."""
        failed = reference_failures(self.name, seed, index, output.values)
        for cell, (value, hit) in enumerate(zip(output.values, output.hits)):
            if not (hit and value == inputs.values[cell]):
                failed[cell] = True
        return failed


class SweepEstimate(_ColdSweep):
    """Batched estimator ladder at the paper's scale: no LP at all."""

    name = "sweep_estimate"
    sets = 7
    solvers = ("estimate_bound", "estimate_cut", "estimate_spectral")
    #: A set is one instance; its batch is the three estimator columns.
    burst = len(solvers)
    kernel_units = 250
    kernel_exponent = 1.5

    def _grid(self, base_seed: int) -> ScenarioGrid:
        return ScenarioGrid(
            name=self.name,
            topologies=(
                TopologySpec.make(
                    "rrg", network_degree=10, servers_per_switch=5
                ),
            ),
            traffics=(TrafficSpec.make("permutation"),),
            solvers=tuple(SolverConfig(name) for name in self.solvers),
            sizes=(1500,),
            base_seed=base_seed,
        )

    def check(self, grid, output: RepOutput, seed: int, index: int) -> "list[bool]":
        """A sampled cell must equal the one-cell-at-a-time reference path
        (``run_grid(batch=False)`` evaluates each cell this way)."""
        failed = reference_failures(self.name, seed, index, output.values)
        if index < SAMPLED_SETS:
            cell = index % len(grid)
            reference = evaluate_cell(grid.cells()[cell])
            if not close(output.values[cell], reference.throughput):
                failed[cell] = True
        return failed


WORKLOADS = {
    workload.name: workload
    for workload in (SweepExact(), ReplayVdc(), RerunCached(), SweepEstimate())
}
