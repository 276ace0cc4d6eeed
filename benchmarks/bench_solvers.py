"""Solver hot path: cold exact solves and the N = 100,000 estimator
ladder.

Publishes the raw-speed claims of the solver pass into
``BENCH_solvers.json`` (append-only; the CI perf gate compares the newest
record against the committed trajectory — see ``docs/performance.md``):

- a cold exact ``edge_lp`` solve by the default method (interior point
  with crossover) is faster than by simplex on the sweep-scale RRGs,
  with optima agreeing to 1e-12, and
- the estimator ladder (``bound`` / ``cut`` / ``spectral``) completes an
  N = 100,000 RRG cell end-to-end, with per-rung timings and an exact
  Theorem-1 bound.
"""

from __future__ import annotations

import time

from conftest import append_record, run_once

from repro.estimate.batch import LADDER_SOLVERS, SharedArtifacts, run_ladder
from repro.flow.edge_lp import DEFAULT_METHOD, max_concurrent_flow
from repro.topology.random_regular import random_regular_topology
from repro.traffic.alltoall import all_to_all_traffic
from repro.traffic.permutation import random_permutation_traffic

#: Cold exact solves: (switches, traffic) RRGs of degree 8 with 4 servers
#: per switch. N = 64 all-to-all is left out: simplex alone takes ~41 s.
COLD_INSTANCES = ((20, "all-to-all"), (40, "permutation"))
COLD_DEGREE = 8
COLD_SERVERS = 4

LADDER_SWITCHES = 100_000
LADDER_DEGREE = 8


def _cold_solves():
    timings = {DEFAULT_METHOD: {}, "highs": {}}
    throughputs = {DEFAULT_METHOD: {}, "highs": {}}
    for num_switches, pattern in COLD_INSTANCES:
        topo = random_regular_topology(
            num_switches, COLD_DEGREE, servers_per_switch=COLD_SERVERS, seed=0
        )
        if pattern == "all-to-all":
            traffic = all_to_all_traffic(topo)
        else:
            traffic = random_permutation_traffic(topo, seed=1)
        label = f"n{num_switches}_{pattern}"
        for method in timings:
            start = time.perf_counter()
            result = max_concurrent_flow(topo, traffic, method=method)
            timings[method][label] = time.perf_counter() - start
            throughputs[method][label] = result.throughput
    return timings, throughputs


def test_edge_lp_cold_default_beats_simplex(benchmark):
    timings, throughputs = run_once(benchmark, _cold_solves)
    for label, simplex in throughputs["highs"].items():
        default = throughputs[DEFAULT_METHOD][label]
        assert abs(default - simplex) <= 1e-12 * simplex, (label, default, simplex)
    ipm_seconds = sum(timings[DEFAULT_METHOD].values())
    simplex_seconds = sum(timings["highs"].values())
    speedup = simplex_seconds / ipm_seconds
    assert speedup > 1.0, f"default method only {speedup:.2f}x simplex's speed"
    print()
    for label in timings["highs"]:
        print(
            f"cold edge_lp {label}: {DEFAULT_METHOD} "
            f"{timings[DEFAULT_METHOD][label] * 1e3:.0f} ms, simplex "
            f"{timings['highs'][label] * 1e3:.0f} ms"
        )
    append_record(
        "BENCH_solvers.json",
        "edge_lp_cold",
        network_degree=COLD_DEGREE,
        servers_per_switch=COLD_SERVERS,
        method=DEFAULT_METHOD,
        ipm_seconds=round(ipm_seconds, 4),
        simplex_seconds=round(simplex_seconds, 4),
        speedup=round(speedup, 2),
        **{
            f"{label}_{kind}_seconds": round(timings[method][label], 4)
            for kind, method in (("ipm", DEFAULT_METHOD), ("simplex", "highs"))
            for label in timings[method]
        },
        **{
            f"{label}_throughput": value
            for label, value in throughputs[DEFAULT_METHOD].items()
        },
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
    # One eigensolve feeds both cut and spectral; bound and that
    # eigensolve read the one CSR of Topology.adjacency().
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
