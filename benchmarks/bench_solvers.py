"""Solver hot path: incremental LP reuse and the N = 100,000 estimator ladder.

Publishes the two raw-speed claims of the solver pass into
``BENCH_solvers.json`` (append-only; the CI perf gate compares the newest
record against the committed trajectory — see ``docs/performance.md``):

- annealing against the exact edge LP with the reusable
  :class:`~repro.flow.incremental.EdgeLPModel` is >= 3x faster end-to-end
  than cold per-swap solves at N = 64, with identical optima (the warm
  winner re-solved cold agrees to 1e-9), and
- the estimator ladder (``bound`` / ``cut`` / ``spectral``) completes an
  N = 100,000 RRG cell end-to-end, with per-rung timings and an exact
  Theorem-1 bound.
"""

from __future__ import annotations

import time

from conftest import append_record, run_once

from repro.estimate.batch import LADDER_SOLVERS, SharedArtifacts, run_ladder
from repro.flow.edge_lp import max_concurrent_flow
from repro.search.annealing import CoolingSchedule, anneal
from repro.search.objectives import LPThroughputObjective
from repro.topology.random_regular import random_regular_topology
from repro.traffic.permutation import random_permutation_traffic

# Anneal design point: paper regime, big enough that the LP dominates.
ANNEAL_SWITCHES = 64
ANNEAL_DEGREE = 8
ANNEAL_STEPS = 8
ANNEAL_SEED = 7
#: Fixed schedule so both runs skip temperature calibration (which would
#: add solver calls outside the timed swap loop) and sample identical
#: swap/acceptance streams.
ANNEAL_SCHEDULE = CoolingSchedule(
    initial_temperature=0.05, final_temperature=0.001
)

LADDER_SWITCHES = 100_000
LADDER_DEGREE = 8


def _anneal_pair():
    topo = random_regular_topology(
        ANNEAL_SWITCHES, ANNEAL_DEGREE, servers_per_switch=1, seed=0
    )
    traffic = random_permutation_traffic(topo, seed=1)
    timings = {}
    results = {}
    for label, incremental in (("warm", True), ("cold", False)):
        objective = LPThroughputObjective(traffic, incremental=incremental)
        start = time.perf_counter()
        results[label] = anneal(
            topo,
            objective,
            steps=ANNEAL_STEPS,
            seed=ANNEAL_SEED,
            schedule=ANNEAL_SCHEDULE,
        )
        timings[label] = time.perf_counter() - start
    return topo, traffic, results, timings


def test_incremental_anneal_speedup(benchmark):
    topo, traffic, results, timings = run_once(benchmark, _anneal_pair)
    warm, cold = results["warm"], results["cold"]
    speedup = timings["cold"] / timings["warm"]
    # Same swap stream, same schedule: the reused model must land on the
    # same optimum the cold per-swap solves land on...
    assert abs(warm.best_score - cold.best_score) <= 1e-9, (
        f"warm optimum {warm.best_score!r} != cold {cold.best_score!r}"
    )
    # ...and the mutated model's score must match a from-scratch solve of
    # the winning topology (the incremental state never drifts).
    resolve = max_concurrent_flow(warm.topology, traffic).throughput
    assert abs(resolve - warm.best_score) <= 1e-9, (
        f"cold re-solve {resolve!r} != warm best {warm.best_score!r}"
    )
    assert speedup >= 3.0, f"incremental anneal only {speedup:.2f}x faster"
    print()
    print(
        f"anneal N={ANNEAL_SWITCHES} d={ANNEAL_DEGREE} "
        f"steps={ANNEAL_STEPS}: warm {timings['warm']:.1f}s "
        f"cold {timings['cold']:.1f}s ({speedup:.1f}x), "
        f"optimum {warm.best_score:.6f}"
    )
    append_record(
        "BENCH_solvers.json",
        "incremental_anneal_n64",
        num_switches=ANNEAL_SWITCHES,
        network_degree=ANNEAL_DEGREE,
        steps=ANNEAL_STEPS,
        warm_seconds=round(timings["warm"], 4),
        cold_seconds=round(timings["cold"], 4),
        speedup=round(speedup, 2),
        best_score=warm.best_score,
    )


def _ladder_100k():
    timings = {}
    start = time.perf_counter()
    topo = random_regular_topology(
        LADDER_SWITCHES, LADDER_DEGREE, servers_per_switch=1, seed=0
    )
    timings["build"] = time.perf_counter() - start
    start = time.perf_counter()
    traffic = random_permutation_traffic(topo, seed=1)
    timings["traffic"] = time.perf_counter() - start
    store = SharedArtifacts()
    results = {}
    for name in LADDER_SOLVERS:
        start = time.perf_counter()
        results.update(
            run_ladder(topo, traffic, solvers=(name,), store=store)
        )
        timings[name] = time.perf_counter() - start
    return results, timings, store.stats


def test_estimator_ladder_100k(benchmark):
    results, timings, stats = run_once(benchmark, _ladder_100k)
    total = sum(timings.values())
    for name in LADDER_SOLVERS:
        assert results[name].is_estimate
        assert results[name].throughput > 0.0
    # One eigensolve feeds both cut and spectral; one CSR feeds bound.
    assert stats["fiedler_solves"] == 1
    assert stats["fiedler_hits"] >= 1
    print()
    print(
        f"ladder N={LADDER_SWITCHES}: "
        + " ".join(f"{k}={v:.1f}s" for k, v in timings.items())
        + f" total={total:.1f}s"
    )
    append_record(
        "BENCH_solvers.json",
        "estimator_ladder_100k",
        num_switches=LADDER_SWITCHES,
        network_degree=LADDER_DEGREE,
        build_seconds=round(timings["build"], 4),
        bound_seconds=round(timings["bound"], 4),
        cut_seconds=round(timings["cut"], 4),
        spectral_seconds=round(timings["spectral"], 4),
        total_seconds=round(total, 4),
        throughput_bound=results["bound"].throughput,
        throughput_cut=results["cut"].throughput,
        throughput_spectral=results["spectral"].throughput,
    )
