"""Replay acceptance benchmarks: warm-started re-solve vs per-step cold.

Two claims, measured on one VDC trace over a mid-size random graph:

- Replaying the trace with warm starts (one ``EdgeLPModel`` per window,
  advanced by ``apply_demand_delta``, each step restarting dual simplex
  from the previous step's basis) performs far fewer cold LP builds than
  timeline steps, and its mean per-step latency is at least 3x
  (:data:`MIN_WARM_SPEEDUP`) below solving every step cold from scratch.
  Like ``bench_solvers.py``'s anneal assert, the ratio is
  machine-independent.
- A second replay of the same trace against the same cache answers every
  step from content-addressed entries — zero cold builds, zero solves.

CI runs this file before ``check_perf_gate.py``, which gates the
``replay_warm_vs_cold`` record's ``warm_ms_per_step`` (see
.github/workflows/ci.yml).
"""

from __future__ import annotations

import time

from conftest import append_record, run_once

from repro.flow import solve_throughput
from repro.flow.solvers import SolverConfig
from repro.pipeline.replay import ReplayPlan, run_replay
from repro.pipeline.scenario import TopologySpec
from repro.traffic.vdc import vdc_timeline

#: One window spanning the whole trace maximizes the warm chain; the
#: trace is long enough that model-build amortization dominates.
STEPS = 60
SPEC = TopologySpec.make(
    "rrg", num_switches=24, network_degree=6, servers_per_switch=4
)
#: Warm per-step latency must beat per-step cold solves by this factor.
MIN_WARM_SPEEDUP = 3.0


def _plan(window: int = STEPS) -> ReplayPlan:
    topo = SPEC.build(seed=5)
    timeline = vdc_timeline(
        topo,
        seed=5,
        steps=STEPS,
        arrival_rate=2.0,
        mean_vms=5.0,
        mean_duration=12.0,
    )
    return ReplayPlan(
        name="bench-replay",
        topology=SPEC,
        timeline=timeline,
        solver=SolverConfig.make("edge_lp"),
        seed=5,
        window=window,
    )


def test_warm_replay_beats_cold_steps(benchmark):
    plan = _plan()
    warm = run_once(benchmark, run_replay, plan)
    assert warm.cold_builds < plan.num_steps, (
        f"{warm.cold_builds} cold builds for {plan.num_steps} steps — "
        "warm starts are not engaging"
    )
    warm_step_s = warm.elapsed_s / plan.num_steps

    # Cold reference: solve every step's matrix independently.
    topo = plan.build_topology()
    start = time.perf_counter()
    cold_series = [
        solve_throughput(topo, matrix, "edge_lp").throughput
        for matrix in plan.timeline.matrices()
    ]
    cold_s = time.perf_counter() - start
    cold_step_s = cold_s / plan.num_steps

    worst = max(
        abs(a - b) for a, b in zip(warm.throughput_series(), cold_series)
    )
    assert worst < 1e-9, f"warm replay diverged from cold solves by {worst}"
    speedup = cold_step_s / warm_step_s
    print(
        f"\ncold {cold_step_s * 1e3:.1f}ms/step -> warm "
        f"{warm_step_s * 1e3:.1f}ms/step ({speedup:.1f}x), "
        f"{warm.cold_builds} cold builds / {plan.num_steps} steps"
    )
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm replay ({warm_step_s * 1e3:.1f}ms/step) is only "
        f"{speedup:.2f}x faster than per-step cold solves "
        f"({cold_step_s * 1e3:.1f}ms/step); need {MIN_WARM_SPEEDUP:.0f}x"
    )
    append_record(
        "BENCH_pipeline.json",
        "replay_warm_vs_cold",
        steps=plan.num_steps,
        cold_builds=warm.cold_builds,
        warm_steps=warm.warm_steps,
        cold_ms_per_step=round(cold_step_s * 1e3, 3),
        warm_ms_per_step=round(warm_step_s * 1e3, 3),
        speedup=round(speedup, 2),
    )


def test_cached_replay_rerun_is_free(benchmark, tmp_path):
    plan = _plan(window=16)
    cache_dir = str(tmp_path / "cache")
    cold = run_replay(plan, cache_dir=cache_dir)
    warm = run_once(benchmark, run_replay, plan, cache_dir=cache_dir)
    assert warm.cold_builds == 0 and warm.fallback_solves == 0
    assert warm.cache_hits == plan.num_steps
    assert warm.throughput_series() == cold.throughput_series()
    speedup = cold.elapsed_s / warm.elapsed_s
    print(
        f"\nfirst run {cold.elapsed_s:.2f}s -> cached rerun "
        f"{warm.elapsed_s:.3f}s ({speedup:.0f}x)"
    )
    append_record(
        "BENCH_pipeline.json",
        "replay_cached_rerun",
        steps=plan.num_steps,
        first_seconds=round(cold.elapsed_s, 4),
        rerun_seconds=round(warm.elapsed_s, 4),
        speedup=round(speedup, 1),
    )
