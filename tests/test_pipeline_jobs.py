"""Job model: decomposition, state machine, manifests, resume."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ExperimentError
from repro.flow.solvers import SolverConfig
from repro.pipeline.engine import group_cells, run_grid
from repro.pipeline.jobs import (
    MANIFEST_SCHEMA_VERSION,
    GridJob,
    ItemState,
    RetryPolicy,
)
from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec
from repro.resilience import FailureSpec


def small_grid(**overrides) -> ScenarioGrid:
    kwargs = dict(
        name="jobs-test",
        topologies=(
            TopologySpec.make("rrg", network_degree=4, servers_per_switch=2),
        ),
        traffics=(TrafficSpec.make("permutation"),),
        solvers=(SolverConfig("edge_lp"), SolverConfig("ecmp")),
        sizes=(8, 10),
        seeds=2,
    )
    kwargs.update(overrides)
    return ScenarioGrid(**kwargs)


class TestDecomposition:
    def test_batched_items_mirror_group_cells(self):
        grid = small_grid()
        job = GridJob(grid)
        groups = group_cells(grid.cells())
        assert len(job.items) == len(groups)
        assert [item.indices for item in job.items] == [
            tuple(i for i, _ in group) for group in groups
        ]
        assert all(item.state == ItemState.PENDING for item in job.items)

    def test_counts_histogram(self):
        job = GridJob(small_grid())
        counts = job.counts()
        assert counts["pending"] == len(job.items)
        assert counts["cells"] == len(small_grid())
        assert counts["done_cells"] == 0
        assert not job.is_complete


class TestRetryPolicy:
    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_max_attempts_validated(self):
        with pytest.raises(ExperimentError):
            RetryPolicy(max_attempts=0)


class TestStateMachine:
    def test_retry_until_exhausted(self):
        job = GridJob(small_grid())
        item = job.items[0]
        policy = RetryPolicy(max_attempts=2, backoff_s=0.0)
        job.mark_running(item)
        assert job.retry_item(item, "boom", policy)
        assert item.state == ItemState.PENDING
        job.mark_running(item)
        assert not job.retry_item(item, "boom again", policy)
        assert item.state == ItemState.FAILED
        assert item.error == "boom again"
        assert job.failed_items() == [item]

    def test_reschedule_refunds_attempt(self):
        job = GridJob(small_grid())
        item = job.items[0]
        job.mark_running(item)
        assert item.attempts == 1
        job.reschedule_item(item)
        assert item.state == ItemState.PENDING
        assert item.attempts == 0

    def test_double_dispatch_rejected(self):
        job = GridJob(small_grid())
        item = job.items[0]
        job.mark_running(item)
        with pytest.raises(ExperimentError):
            job.mark_running(item)

    def test_cancel_sweeps_non_terminal_items(self):
        job = GridJob(small_grid())
        running_item = job.items[0]
        job.mark_running(running_item)
        still_running = job.cancel()
        assert still_running == [running_item]
        assert job.cancelled
        assert all(
            item.state == ItemState.CANCELLED for item in job.items
        )
        assert job.is_complete

    def test_result_cells_raises_while_incomplete(self):
        job = GridJob(small_grid())
        with pytest.raises(ExperimentError, match="unsolved"):
            job.result_cells()


class TestManifest:
    def test_run_writes_manifest(self, tmp_path):
        manifest = tmp_path / "run.json"
        run_grid(
            small_grid(),
            cache_dir=str(tmp_path / "cache"),
            manifest=str(manifest),
        )
        payload = json.loads(manifest.read_text())
        assert payload["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert all(
            item["state"] == ItemState.DONE for item in payload["items"]
        )
        assert len(payload["cells"]) == len(small_grid())

    def test_resume_restores_done_cells(self, tmp_path):
        manifest = tmp_path / "run.json"
        sweep = run_grid(small_grid(), manifest=str(manifest))
        job = GridJob.resume(manifest)
        assert job.is_complete
        assert len(job.restored_indices) == len(sweep.cells)
        restored = job.result_cells()
        assert [c.throughput for c in restored] == [
            c.throughput for c in sweep.cells
        ]
        assert [c.key for c in restored] == [c.key for c in sweep.cells]
        assert job.solve_counts() == {
            "re_solved": 0,
            "cache_hit": 0,
            "skipped": len(sweep.cells),
        }

    def test_resume_requeues_interrupted_items(self, tmp_path):
        manifest = tmp_path / "run.json"
        run_grid(small_grid(), manifest=str(manifest))
        payload = json.loads(manifest.read_text())
        # Simulate a crash mid-item: one item was running, its cells
        # never recorded.
        victim = payload["items"][0]
        victim["state"] = ItemState.RUNNING
        for index in victim["indices"]:
            del payload["cells"][str(index)]
        manifest.write_text(json.dumps(payload))
        job = GridJob.resume(manifest)
        assert not job.is_complete
        assert [item.item_id for item in job.pending_items()] == [
            victim["item_id"]
        ]
        assert len(job.restored_indices) == len(small_grid()) - len(
            victim["indices"]
        )

    def test_resume_rejects_schema_mismatch(self, tmp_path):
        manifest = tmp_path / "run.json"
        run_grid(small_grid(sizes=(8,), seeds=1), manifest=str(manifest))
        payload = json.loads(manifest.read_text())
        payload["schema_version"] = 999
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ExperimentError, match="schema_version"):
            GridJob.resume(manifest)

    def test_resume_rejects_foreign_decomposition(self, tmp_path):
        manifest = tmp_path / "run.json"
        run_grid(small_grid(sizes=(8,), seeds=1), manifest=str(manifest))
        payload = json.loads(manifest.read_text())
        # The items an older one-cell-per-item run of the same grid wrote.
        payload["batch"] = False
        payload["items"] = [
            {
                "item_id": index,
                "indices": [index],
                "state": ItemState.DONE,
                "attempts": 1,
                "error": None,
            }
            for index in range(len(payload["cells"]))
        ]
        assert len(payload["items"]) == 2
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ExperimentError, match="decomposition"):
            GridJob.resume(manifest)

    def test_resume_restores_every_cell_field(self, tmp_path):
        """The manifest round trip is field-exact, timing included."""
        grid = small_grid(
            solvers=(
                SolverConfig("edge_lp"),
                SolverConfig.make("estimate_bound", error_band=(0.9, 1.0)),
            ),
            sizes=(10,),
            seeds=1,
            failures=(None, FailureSpec("random_switches", 0.3)),
        )
        manifest = tmp_path / "run.json"
        sweep = run_grid(grid, manifest=str(manifest))
        restored = GridJob.resume(manifest).result_cells()
        assert restored == sweep.cells
        # Not just defaults: the failure column drops pairs, and the
        # estimator carries an error band.
        assert any(cell.dropped_pairs > 0 for cell in restored)
        assert any(cell.dropped_demand > 0 for cell in restored)
        assert any(cell.is_estimate for cell in restored)
        assert any(cell.error_lo is not None for cell in restored)
        assert any(cell.error_hi is not None for cell in restored)
