"""Tests for search objectives and the flow objective adapters."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError, FlowError
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.objective import (
    available_throughput_solvers,
    throughput_evaluator,
)
from repro.flow.path_lp import max_concurrent_flow_paths
from repro.metrics.paths import average_shortest_path_length
from repro.metrics.spectral import algebraic_connectivity
from repro.search.objectives import (
    ASPLObjective,
    BisectionObjective,
    SpectralGapObjective,
    ThroughputObjective,
    make_objective,
)
from repro.topology.mutation import (
    apply_double_edge_swap,
    sample_double_edge_swap,
)
from repro.topology.random_regular import random_regular_topology
from repro.traffic.permutation import random_permutation_traffic
from repro.util.rng import as_rng


@pytest.fixture
def rrg():
    return random_regular_topology(16, 4, servers_per_switch=1, seed=0)


class TestThroughputEvaluator:
    def test_matches_direct_edge_lp(self, rrg):
        traffic = random_permutation_traffic(rrg, seed=1)
        evaluate = throughput_evaluator("edge-lp")
        assert evaluate(rrg, traffic) == pytest.approx(
            max_concurrent_flow(rrg, traffic).throughput
        )

    def test_forwards_solver_kwargs(self, rrg):
        traffic = random_permutation_traffic(rrg, seed=1)
        evaluate = throughput_evaluator("path-lp", k=2)
        assert evaluate(rrg, traffic) == pytest.approx(
            max_concurrent_flow_paths(rrg, traffic, k=2).throughput
        )

    def test_unknown_solver_rejected(self):
        with pytest.raises(FlowError, match="unknown solver"):
            throughput_evaluator("simplex-of-doom")

    def test_solver_listing(self):
        assert "edge-lp" in available_throughput_solvers()
        assert "garg-koenemann" in available_throughput_solvers()


class TestASPLObjective:
    def test_score_is_negated_aspl(self, rrg):
        assert ASPLObjective().evaluate(rrg) == pytest.approx(
            -average_shortest_path_length(rrg)
        )

    def test_incremental_state_tracks_swaps(self, rrg):
        objective = ASPLObjective()
        state = objective.attach(rrg)
        assert state.score() == pytest.approx(objective.evaluate(rrg))
        rng = as_rng(2)
        committed = 0
        while committed < 5:
            swap = sample_double_edge_swap(rrg, rng=rng)
            result = state.evaluate(swap)
            if result is None:
                continue
            score, token = result
            state.commit(token)
            apply_double_edge_swap(rrg, swap)
            committed += 1
            assert score == pytest.approx(objective.evaluate(rrg), abs=1e-12)


class TestProxyObjectives:
    def test_spectral_gap(self, rrg):
        assert SpectralGapObjective().evaluate(rrg) == pytest.approx(
            algebraic_connectivity(rrg, weighted=True)
        )
        assert SpectralGapObjective().attach(rrg) is None

    def test_bisection_deterministic(self):
        topo = random_regular_topology(24, 4, seed=5)
        objective = BisectionObjective(attempts=20, seed=3)
        assert objective.evaluate(topo) == objective.evaluate(topo)


class TestThroughputObjective:
    def test_fixed_traffic(self, rrg):
        traffic = random_permutation_traffic(rrg, seed=1)
        objective = ThroughputObjective(traffic, solver="edge-lp")
        assert objective.name == "throughput-edge-lp"
        assert objective.evaluate(rrg) == pytest.approx(
            max_concurrent_flow(rrg, traffic).throughput
        )

    def test_traffic_factory(self, rrg):
        from repro.traffic.alltoall import all_to_all_traffic

        objective = ThroughputObjective(all_to_all_traffic, solver="edge-lp")
        expected = max_concurrent_flow(rrg, all_to_all_traffic(rrg)).throughput
        assert objective.evaluate(rrg) == pytest.approx(expected)


class TestFactory:
    def test_builds_proxies_by_name(self):
        assert isinstance(make_objective("aspl"), ASPLObjective)
        assert isinstance(make_objective("spectral"), SpectralGapObjective)
        assert isinstance(make_objective("bisection"), BisectionObjective)

    def test_passes_instances_through(self):
        objective = ASPLObjective()
        assert make_objective(objective) is objective

    def test_throughput_requires_traffic(self, rrg):
        with pytest.raises(ExperimentError, match="traffic"):
            make_objective("throughput-edge-lp")
        traffic = random_permutation_traffic(rrg, seed=1)
        objective = make_objective("throughput-edge-lp", traffic=traffic)
        assert isinstance(objective, ThroughputObjective)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ExperimentError, match="unknown objective"):
            make_objective("world-peace")
