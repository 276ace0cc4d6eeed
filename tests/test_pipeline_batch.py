"""Batched grid execution: grouping, differential equality, workers.

``run_grid`` builds each shared (topology, traffic) instance once per
group and runs its solver/failure columns over one shared-artifact
scope. The contract is strict: every :class:`CellResult` field except
the timing must be identical to the one-cell reference,
:func:`evaluate_cell`, cold and warm, serial and parallel.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import ExperimentError
from repro.flow.solvers import SolverConfig
from repro.pipeline.cache import ResultCache
from repro.pipeline.engine import (
    evaluate_batch,
    evaluate_cell,
    group_cells,
    run_grid,
)
from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec
from repro.resilience import FailureSpec


def estimator_grid(**overrides) -> ScenarioGrid:
    kwargs = dict(
        name="batch-test",
        topologies=(
            TopologySpec.make("rrg", network_degree=4, servers_per_switch=2),
        ),
        traffics=(TrafficSpec.make("permutation"),),
        solvers=(
            SolverConfig("edge_lp"),
            SolverConfig("estimate_bound"),
            SolverConfig("estimate_cut"),
            SolverConfig("estimate_spectral"),
        ),
        sizes=(10, 12),
        seeds=1,
        failures=(None, FailureSpec("random_links", 0.1)),
    )
    kwargs.update(overrides)
    return ScenarioGrid(**kwargs)


def _strip_timing(cell):
    return dataclasses.replace(cell, elapsed_s=0.0)


class TestGroupCells:
    def test_groups_share_instance_and_preserve_order(self):
        grid = estimator_grid()
        cells = list(grid.cells())
        groups = group_cells(cells)
        # 2 sizes x 1 seed -> 2 groups, each holding the full
        # failure x solver block.
        assert len(groups) == 2
        flat = [index for group in groups for index, _ in group]
        assert sorted(flat) == list(range(len(cells)))
        for group in groups:
            seeds = {scenario.seed for _, scenario in group}
            assert len(seeds) == 1
            sizes = {scenario.size for _, scenario in group}
            assert len(sizes) == 1

    def test_solver_and_failure_axes_do_not_split_groups(self):
        grid = estimator_grid()
        groups = group_cells(list(grid.cells()))
        assert {len(group) for group in groups} == {8}  # 4 solvers x 2 failures


class TestEvaluateBatch:
    def test_matches_evaluate_cell_exactly(self):
        grid = estimator_grid()
        cells = list(grid.cells())
        reference = [evaluate_cell(scenario) for scenario in cells]
        for group in group_cells(cells):
            batched = evaluate_batch([scenario for _, scenario in group])
            for (index, _), result in zip(group, batched):
                assert _strip_timing(result) == _strip_timing(
                    reference[index]
                ), cells[index].label()

    def test_mixed_instance_keys_rejected(self):
        grid = estimator_grid()
        groups = group_cells(list(grid.cells()))
        mixed = [groups[0][0][1], groups[1][0][1]]
        with pytest.raises(ExperimentError, match="one sampled instance"):
            evaluate_batch(mixed)

    def test_shared_time_is_distributed(self):
        grid = estimator_grid(sizes=(10,))
        group = group_cells(list(grid.cells()))[0]
        batched = evaluate_batch([scenario for _, scenario in group])
        assert all(result.elapsed_s > 0.0 for result in batched)


class TestRunGridBatched:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batched_matches_reference_path(self, workers):
        grid = estimator_grid()
        batched = run_grid(grid, workers=workers).cells
        reference = [evaluate_cell(scenario) for scenario in grid.cells()]
        assert len(batched) == len(reference)
        for fast, slow in zip(batched, reference):
            assert _strip_timing(fast) == _strip_timing(slow)

    def test_warm_cache_hits_every_cell(self, tmp_path):
        grid = estimator_grid()
        run_grid(grid, cache_dir=tmp_path)
        warm = run_grid(grid, cache_dir=tmp_path).cells
        assert all(cell.cache_hit for cell in warm)

    def test_batched_warms_the_per_cell_path(self, tmp_path):
        """Batch and reference paths share cache keys."""
        grid = estimator_grid(sizes=(10,))
        cold = run_grid(grid, cache_dir=tmp_path).cells
        cache = ResultCache(tmp_path)
        warm = [evaluate_cell(scenario, cache=cache) for scenario in grid.cells()]
        assert all(cell.cache_hit for cell in warm)
        for fast, slow in zip(cold, warm):
            assert fast.throughput == slow.throughput

    def test_progress_fires_once_per_cell(self):
        grid = estimator_grid(sizes=(10,))
        seen = []
        run_grid(
            grid,
            progress=lambda done, total, cell: seen.append(
                (done, total, cell.scenario)
            ),
        )
        assert [done for done, _, _ in seen] == list(
            range(1, len(seen) + 1)
        )
        assert len(seen) == len(list(grid.cells()))
