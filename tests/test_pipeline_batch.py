"""Batched grid execution: grouping, differential equality, workers.

``run_grid`` builds each shared (topology, traffic) instance once per
group and runs its solver/failure columns over one shared-artifact
scope. The contract is strict: every :class:`CellResult` field except
the timing must be identical to the one-cell reference,
:func:`evaluate_cell`, cold and warm, serial and parallel. A warm batch
is read from the cache's instance index without building anything, and
must meet the same contract.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.pipeline.engine as engine
import repro.pipeline.scenario as scenario_module
import repro.resilience as resilience
from repro.exceptions import ExperimentError
from repro.fidelity.routes import ROUTE_SET_KIND
from repro.flow.solvers import SolverConfig
from repro.pipeline.cache import ResultCache
from repro.pipeline.engine import (
    INSTANCE_KIND,
    InstanceRecord,
    evaluate_batch,
    evaluate_cell,
    group_cells,
    indexed_cells,
    run_grid,
)
from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec
from repro.resilience import FailureSpec
from repro.topology import registry as topology_registry
from repro.traffic import registry as traffic_registry


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


def _items(grid: ScenarioGrid) -> "list[list]":
    return [[scenario for _, scenario in group] for group in group_cells(grid.cells())]


def _refuse(*args, **kwargs):
    raise AssertionError("a warm run built or fingerprinted an instance")


def _count_builds(monkeypatch) -> list:
    builds = []
    build = scenario_module.make_topology

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "make_topology", counted)
    return builds


def _edit_source(monkeypatch):
    monkeypatch.setitem(engine._BUILD_TABLE, "source", "0" * 64)


def _upgrade_numpy(monkeypatch):
    monkeypatch.setitem(engine._BUILD_TABLE, "numpy", "0.0.0")


class TestInstanceIndex:
    def test_warm_run_builds_nothing(self, tmp_path, monkeypatch):
        grid = estimator_grid()
        run_grid(grid, cache_dir=tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(scenario_module, "make_topology", _refuse)
            patch.setattr(scenario_module, "make_traffic", _refuse)
            patch.setattr(resilience, "apply_failures", _refuse)
            patch.setattr(engine, "topology_fingerprint", _refuse)
            patch.setattr(engine, "traffic_fingerprint", _refuse)
            warm = run_grid(grid, cache_dir=tmp_path).cells
        reference = [
            evaluate_cell(scenario, cache=ResultCache(tmp_path))
            for scenario in grid.cells()
        ]
        assert [_strip_timing(c) for c in warm] == [
            _strip_timing(c) for c in reference
        ]

    def test_warm_run_matches_reference_with_two_workers(self, tmp_path):
        grid = estimator_grid()
        run_grid(grid, workers=2, cache_dir=tmp_path)
        warm = run_grid(grid, workers=2, cache_dir=tmp_path).cells
        reference = [
            evaluate_cell(scenario, cache=ResultCache(tmp_path))
            for scenario in grid.cells()
        ]
        assert all(cell.cache_hit for cell in warm)
        assert [_strip_timing(c) for c in warm] == [
            _strip_timing(c) for c in reference
        ]

    @pytest.mark.parametrize(
        "damage", ["garbage", "incomplete", "other_kind", "pruned"]
    )
    def test_bad_entry_rebuilds_only_its_item(self, tmp_path, monkeypatch, damage):
        grid = estimator_grid()
        cold = run_grid(grid, cache_dir=tmp_path).cells
        cache = ResultCache(tmp_path)
        first = cold[0]  # item 0's intact edge_lp cell
        index_key = engine._index_keys(_items(grid)[0])[None]
        index_path = cache._path(index_key)
        if damage == "garbage":
            index_path.write_bytes(b"\xff\x00 not json")
        elif damage == "incomplete":
            entry = json.loads(index_path.read_text())
            del entry["payload"]["num_servers"]
            index_path.write_text(json.dumps(entry))
        elif damage == "other_kind":
            entry = json.loads(index_path.read_text())
            entry["kind"] = ROUTE_SET_KIND
            index_path.write_text(json.dumps(entry))
        else:
            cache._path(first.key).unlink()
        builds = _count_builds(monkeypatch)
        warm = run_grid(grid, cache_dir=tmp_path).cells
        assert len(builds) == 1

        def numbers(cell):
            return dataclasses.replace(cell, elapsed_s=0.0, cache_hit=False)

        assert [numbers(c) for c in warm] == [numbers(c) for c in cold]
        fresh = ResultCache(tmp_path)
        assert InstanceRecord.from_payload(
            fresh.get_payload(index_key, INSTANCE_KIND)
        ) == InstanceRecord(
            first.topology_fp, first.traffic_fp, first.num_switches,
            first.num_servers,
        )
        assert first.key in fresh

    @pytest.mark.parametrize("change", [_edit_source, _upgrade_numpy])
    def test_code_change_misses_the_index(self, tmp_path, monkeypatch, change):
        grid = estimator_grid(sizes=(10,))
        cold = run_grid(grid, cache_dir=tmp_path).cells
        (item,) = _items(grid)
        assert indexed_cells(item, ResultCache(tmp_path)) is not None
        change(monkeypatch)
        assert indexed_cells(item, ResultCache(tmp_path)) is None
        # Results stay content-addressed: the rebuilt item hits them all,
        # and its rewritten entries serve the next run.
        builds = _count_builds(monkeypatch)
        warm = run_grid(grid, cache_dir=tmp_path).cells
        assert len(builds) == 1 and all(cell.cache_hit for cell in warm)
        assert [_strip_timing(c) for c in warm] == [
            dataclasses.replace(_strip_timing(c), cache_hit=True) for c in cold
        ]
        assert indexed_cells(item, ResultCache(tmp_path)) is not None

    def test_source_digest_follows_every_py_file(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "builder.py").write_text("DRAWS = 1\n")
        (tmp_path / "notes.txt").write_text("not code")
        before = engine._source_digest(tmp_path)
        (tmp_path / "notes.txt").write_text("still not code")
        assert engine._source_digest(tmp_path) == before
        (tmp_path / "sub" / "builder.py").write_text("DRAWS = 2\n")
        assert engine._source_digest(tmp_path) != before

    def test_every_builtin_builder_is_in_the_digest(self):
        assert all(
            engine._in_package(topology_registry.topology_factory(kind))
            for kind in topology_registry.available_topologies()
        )
        assert all(
            engine._in_package(traffic_registry.traffic_model_builder(model))
            for model in traffic_registry.available_traffic_models()
        )

    def test_kind_registered_outside_the_package_always_builds(
        self, tmp_path, monkeypatch
    ):
        """The source digest cannot see a custom kind's code, so its
        batches are never indexed: a warm run rebuilds and hits."""

        def outside_rrg(**params):
            return topology_registry.make_topology("rrg", **params)

        monkeypatch.setitem(
            topology_registry._REGISTRY, "index-test-rrg", outside_rrg
        )
        grid = estimator_grid(
            topologies=(
                TopologySpec.make(
                    "index-test-rrg", network_degree=4, servers_per_switch=2
                ),
            ),
            sizes=(10,),
        )
        (item,) = _items(grid)
        assert engine._index_keys(item) is None
        cold = run_grid(grid, cache_dir=tmp_path).cells
        assert indexed_cells(item, ResultCache(tmp_path)) is None
        builds = _count_builds(monkeypatch)
        warm = run_grid(grid, cache_dir=tmp_path).cells
        assert len(builds) == 1 and all(cell.cache_hit for cell in warm)
        assert [c.key for c in warm] == [c.key for c in cold]
