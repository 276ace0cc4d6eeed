"""Replay pipeline: warm-started timeline evaluation through the job model.

The acceptance contract pinned here: replaying a 100+-step trace builds
far fewer cold LP models than there are steps (one per window, plus
fallback rebuilds), every warm solution matches a cold ``edge_lp`` solve
of the same step's matrix at 1e-9, a warm re-run against the same cache
performs zero cold builds, and interrupted runs resume through the same
manifest machinery grids use.
"""

from __future__ import annotations

import json

import pytest

from repro.estimate.bound import estimate_bound
from repro.exceptions import ExperimentError
from repro.flow import solve_throughput
from repro.flow.solvers import SolverConfig
from repro.pipeline.cache import ResultCache
from repro.pipeline.jobs import ItemState
from repro.pipeline.replay import (
    ReplayJob,
    ReplayPlan,
    evaluate_window,
    resume_replay,
    run_replay,
)
from repro.pipeline.scenario import TopologySpec
from repro.traffic.vdc import vdc_timeline

TOL = 1e-9

SPEC = TopologySpec.make(
    "rrg", num_switches=12, network_degree=4, servers_per_switch=3
)


def _plan(
    steps: int = 24,
    solver: str = "edge_lp",
    window: int = 8,
    seed: int = 13,
    **solver_options,
) -> ReplayPlan:
    topo = SPEC.build(seed=seed)
    timeline = vdc_timeline(
        topo,
        seed=seed,
        steps=steps,
        arrival_rate=1.5,
        mean_vms=4.0,
        mean_duration=6.0,
    )
    return ReplayPlan(
        name=f"test-replay-{solver}",
        topology=SPEC,
        timeline=timeline,
        solver=SolverConfig.make(solver, **solver_options),
        seed=seed,
        window=window,
    )


class TestWarmMatchesCold:
    def test_hundred_step_trace_few_cold_builds(self):
        """The acceptance gate: >= 100 steps, cold builds << steps, 1e-9."""
        plan = _plan(steps=100, window=25)
        result = run_replay(plan)
        assert len(result.cells) == 100
        # One cold build per window at most (no cache: nothing to hit).
        assert result.cold_builds <= 4
        assert result.cold_builds < plan.num_steps
        assert result.cold_builds + result.warm_steps + result.cache_hits == 100

        topo = plan.build_topology()
        series = result.throughput_series()
        for step, matrix in enumerate(plan.timeline.matrices()):
            cold = solve_throughput(topo, matrix, "edge_lp").throughput
            assert series[step] == pytest.approx(cold, abs=TOL)

    def test_bound_solver_warm_path(self):
        plan = _plan(steps=30, solver="estimate_bound", window=30)
        result = run_replay(plan)
        assert result.cold_builds == 1
        assert result.fallback_solves == 0
        topo = plan.build_topology()
        for cell, matrix in zip(result.cells, plan.timeline.matrices()):
            cold = estimate_bound(topo, matrix)
            assert cell.throughput == pytest.approx(cold.throughput, abs=TOL)
            assert cell.is_estimate and not cell.exact

    def test_other_solvers_fall_back_to_per_step_solves(self):
        plan = _plan(steps=6, solver="ecmp", window=6)
        result = run_replay(plan)
        assert result.fallback_solves == 6 and result.cold_builds == 0
        topo = plan.build_topology()
        for cell, matrix in zip(result.cells, plan.timeline.matrices()):
            cold = solve_throughput(topo, matrix, "ecmp").throughput
            assert cell.throughput == pytest.approx(cold, abs=TOL)


class TestCacheAddressing:
    def test_warm_rerun_has_zero_cold_builds(self, tmp_path):
        plan = _plan(steps=20)
        cache_dir = str(tmp_path / "cache")
        first = run_replay(plan, cache_dir=cache_dir)
        assert first.cold_builds >= 1
        second = run_replay(plan, cache_dir=cache_dir)
        assert second.cold_builds == 0
        assert second.warm_steps == 0
        assert second.fallback_solves == 0
        assert second.cache_hits == plan.num_steps
        assert "0 cold builds" in second.summary()
        assert second.throughput_series() == first.throughput_series()

    def test_steps_addressed_by_chained_content(self, tmp_path):
        plan = _plan(steps=12)
        cache = ResultCache(str(tmp_path / "cache"))
        cells = evaluate_window(plan.cells(), cache=cache)
        fps = plan.step_fingerprints()
        assert [cell.traffic_fp for cell in cells] == fps
        # No-op steps (fingerprint equal to predecessor) share the key.
        for prev, cell, fp_prev, fp in zip(cells, cells[1:], fps, fps[1:]):
            assert (cell.key == prev.key) == (fp == fp_prev)

    def test_workers_match_serial(self, tmp_path):
        plan = _plan(steps=16, window=4)
        serial = run_replay(plan)
        parallel = run_replay(plan, workers=2)
        assert parallel.throughput_series() == pytest.approx(
            serial.throughput_series(), abs=TOL
        )


class TestJobModel:
    def test_windows_shard_consecutive_steps(self):
        plan = _plan(steps=10, window=4)
        job = ReplayJob(plan)
        assert [item.indices for item in job.items] == [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9),
        ]

    def test_window_validation(self):
        with pytest.raises(ExperimentError, match="window"):
            _plan(window=0)

    def test_workers_validated(self, tmp_path):
        plan = _plan(steps=3)
        with pytest.raises(ExperimentError, match="workers must be >= 1"):
            run_replay(plan, workers=0)
        manifest = tmp_path / "run.json"
        run_replay(plan, manifest=str(manifest))
        with pytest.raises(ExperimentError, match="workers must be >= 1"):
            resume_replay(str(manifest), workers=0)

    def test_mixed_plans_rejected(self):
        one, two = _plan(steps=3), _plan(steps=3, seed=14)
        with pytest.raises(ExperimentError, match="one replay plan"):
            evaluate_window([one.cells()[0], two.cells()[1]])

    def test_plan_round_trip(self):
        plan = _plan(steps=8)
        clone = ReplayPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan
        assert clone.step_fingerprints() == plan.step_fingerprints()
        with pytest.raises(ExperimentError, match="replay plan"):
            ReplayPlan.from_dict({"name": "x"})

    def test_resume_completed_run_restores_everything(self, tmp_path):
        plan = _plan(steps=12, window=4)
        manifest = tmp_path / "run.json"
        first = run_replay(plan, manifest=str(manifest))
        resumed = resume_replay(str(manifest))
        assert resumed.restored == plan.num_steps
        assert resumed.throughput_series() == first.throughput_series()
        assert resumed.mode_counts()["restored"] == plan.num_steps

    def test_resume_after_interruption_reruns_missing_window(self, tmp_path):
        plan = _plan(steps=12, window=4)
        manifest = tmp_path / "run.json"
        cache_dir = str(tmp_path / "cache")
        first = run_replay(plan, cache_dir=cache_dir, manifest=str(manifest))
        payload = json.loads(manifest.read_text())
        victim = payload["items"][1]
        victim["state"] = ItemState.RUNNING
        for index in victim["indices"]:
            del payload["cells"][str(index)]
        manifest.write_text(json.dumps(payload))

        resumed = resume_replay(str(manifest))
        assert resumed.restored == plan.num_steps - len(victim["indices"])
        # The re-run window answers from the content-addressed cache.
        assert all(
            resumed.cells[index].cache_hit for index in victim["indices"]
        )
        assert resumed.throughput_series() == first.throughput_series()

    def test_replay_mode_survives_the_manifest(self, tmp_path):
        plan = _plan(steps=6, window=6)
        manifest = tmp_path / "run.json"
        first = run_replay(plan, manifest=str(manifest))
        payload = json.loads(manifest.read_text())
        modes = [payload["cells"][str(i)]["replay_mode"] for i in range(6)]
        assert modes == [cell.replay_mode for cell in first.cells]
        restored = resume_replay(str(manifest))
        assert [cell.replay_mode for cell in restored.cells] == modes


class TestResultSurface:
    def test_rows_and_artifacts(self, tmp_path):
        plan = _plan(steps=5, window=5)
        result = run_replay(plan)
        row = result.cells[0].row()
        assert row["traffic"].endswith("@t0")
        assert row["topology"] == SPEC.label()
        # replay_mode is deliberately NOT a sweep CSV column...
        assert "replay_mode" not in row
        result.write_json(str(tmp_path / "replay.json"))
        payload = json.loads((tmp_path / "replay.json").read_text())
        assert payload["cold_builds"] == result.cold_builds
        assert len(payload["throughput"]) == 5
        # ...but the replay CSV carries it per step.
        result.write_csv(str(tmp_path / "replay.csv"))
        header = (tmp_path / "replay.csv").read_text().splitlines()[0]
        assert header.startswith("step,replay_mode,")

    def test_retained_series_normalizes_to_step_zero(self):
        plan = _plan(steps=5, window=5)
        result = run_replay(plan)
        retained = result.retained_series()
        assert retained[0] == pytest.approx(1.0)
        assert len(retained) == 5

    @pytest.mark.parametrize("solver", ["edge_lp", "ecmp"])
    def test_cells_report_dropped_pairs(self, solver, tmp_path):
        """On a partitioned fabric under ``unreachable="drop"``, each step's
        cell carries the pairs and demand its solve dropped, solved or
        read back from the cache."""
        spec = TopologySpec.make(
            "two-cluster",
            num_large=4,
            large_network_ports=3,
            num_small=4,
            small_network_ports=3,
            servers_per_large=2,
            servers_per_small=2,
            cross_fraction=0.0,
        )
        topo = spec.build(seed=1)
        timeline = vdc_timeline(
            topo,
            seed=1,
            steps=3,
            arrival_rate=2.0,
            mean_vms=5.0,
            mean_duration=12.0,
        )
        config = SolverConfig.make(solver, unreachable="drop")
        plan = ReplayPlan(
            name="test-replay-drop",
            topology=spec,
            timeline=timeline,
            solver=config,
            seed=1,
        )
        direct = [config.solve(topo, matrix) for matrix in timeline.matrices()]
        solved = evaluate_window(plan.cells())
        evaluate_window(plan.cells(), cache=ResultCache(tmp_path))
        cached = evaluate_window(plan.cells(), cache=ResultCache(tmp_path))
        assert {cell.replay_mode for cell in solved} == {"fallback"}
        assert {cell.replay_mode for cell in cached} == {"cache"}
        for cells in (solved, cached):
            assert len(cells) == len(direct) == 3
            for cell, result in zip(cells, direct):
                assert cell.dropped_pairs == result.num_dropped_pairs > 0
                assert cell.dropped_demand == result.dropped_demand > 0


class TestCli:
    def test_replay_command_cold_then_warm(self, tmp_path, capsys):
        from repro.experiments.runner import main

        args = [
            "replay",
            "--topology", "rrg",
            "--topo-param", "num_switches=10",
            "--topo-param", "network_degree=4",
            "--topo-param", "servers_per_switch=2",
            "--steps", "8",
            "--timeline-param", "arrival_rate=1.5",
            "--seed", "3",
            "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "8 steps" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 cold builds" in second

    def test_replay_command_reads_traces(self, tmp_path, capsys):
        from repro.experiments.runner import main
        from repro.traffic.timeline import write_trace

        # JSON traces are lossless (CSV cannot carry trailing idle steps).
        plan = _plan(steps=6)
        trace = tmp_path / "trace.json"
        write_trace(plan.timeline, trace)
        assert (
            main(
                [
                    "replay",
                    "--topology", "rrg",
                    "--topo-param", "num_switches=12",
                    "--topo-param", "network_degree=4",
                    "--topo-param", "servers_per_switch=3",
                    "--trace", str(trace),
                    "--seed", "13",
                    "--quiet",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "6 steps" in out
