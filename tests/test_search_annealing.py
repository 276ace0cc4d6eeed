"""Tests for the simulated-annealing optimizer."""

from __future__ import annotations

import pytest

import repro.search.annealing as annealing
from repro.exceptions import ExperimentError
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.incremental import model_stats
from repro.metrics.paths import average_shortest_path_length
from repro.search.annealing import AnnealResult, CoolingSchedule, anneal
from repro.search.objectives import ASPLObjective, ThroughputObjective
from repro.topology.base import Topology
from repro.topology.mutation import DoubleEdgeSwap
from repro.topology.random_regular import random_regular_topology
from repro.topology.smallworld import small_world_topology
from repro.traffic.base import TrafficMatrix
from repro.traffic.permutation import random_permutation_traffic


@pytest.fixture
def ring():
    """A 20-switch ring lattice: high ASPL, lots of room to improve."""
    return small_world_topology(20, 4, rewire_probability=0.0, seed=0)


class TestCoolingSchedule:
    def test_geometric_endpoints(self):
        schedule = CoolingSchedule(2.0, 0.002)
        assert schedule.temperature(0, 100) == pytest.approx(2.0)
        assert schedule.temperature(99, 100) == pytest.approx(0.002)
        mid = schedule.temperature(50, 100)
        assert 0.002 < mid < 2.0

    def test_linear_endpoints(self):
        schedule = CoolingSchedule(1.0, 0.5, kind="linear")
        assert schedule.temperature(0, 11) == pytest.approx(1.0)
        assert schedule.temperature(5, 11) == pytest.approx(0.75)
        assert schedule.temperature(10, 11) == pytest.approx(0.5)

    def test_single_step_uses_initial(self):
        schedule = CoolingSchedule(1.0, 0.1)
        assert schedule.temperature(0, 1) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ExperimentError, match="final_temperature"):
            CoolingSchedule(1.0, 2.0)
        with pytest.raises(ExperimentError, match="unknown cooling"):
            CoolingSchedule(1.0, 0.1, kind="volcanic")
        with pytest.raises(ValueError):
            CoolingSchedule(-1.0, 0.1)


class TestAnneal:
    def test_improves_ring_aspl(self, ring):
        before = average_shortest_path_length(ring)
        result = anneal(ring, "aspl", steps=600, seed=1)
        after = average_shortest_path_length(result.topology)
        assert after < before
        assert result.best_score == pytest.approx(-after, abs=1e-12)
        assert result.best_score >= result.initial_score

    def test_preserves_degrees_connectivity_and_servers(self):
        topo = random_regular_topology(18, 4, servers_per_switch=3, seed=2)
        result = anneal(topo, "aspl", steps=300, seed=3)
        optimized = result.topology
        assert optimized.degree_histogram() == topo.degree_histogram()
        assert optimized.is_connected()
        assert optimized.server_map() == topo.server_map()

    def test_input_topology_unchanged(self, ring):
        edges = {frozenset((link.u, link.v)) for link in ring.links}
        anneal(ring, "aspl", steps=200, seed=4)
        assert {frozenset((link.u, link.v)) for link in ring.links} == edges

    def test_deterministic_for_seed(self, ring):
        a = anneal(ring, "aspl", steps=300, seed=7, trace_every=50)
        b = anneal(ring, "aspl", steps=300, seed=7, trace_every=50)
        assert a.best_score == b.best_score
        assert a.accepted == b.accepted
        assert a.trace == b.trace
        assert {frozenset((link.u, link.v)) for link in a.topology.links} == {
            frozenset((link.u, link.v)) for link in b.topology.links
        }

    def test_best_trace_is_monotone(self, ring):
        result = anneal(ring, "aspl", steps=400, seed=5, trace_every=20)
        bests = [entry[3] for entry in result.trace]
        assert bests == sorted(bests)
        temperatures = [entry[1] for entry in result.trace]
        assert temperatures == sorted(temperatures, reverse=True)

    def test_accounting_adds_up(self, ring):
        result = anneal(ring, "aspl", steps=250, seed=6)
        assert result.accepted + result.rejected + result.invalid == 250
        assert result.steps == 250

    def test_objective_instance_and_generic_path(self, ring):
        # Spectral objective has no incremental state: exercises the
        # apply/evaluate/revert fallback.
        result = anneal(ring, ASPLObjective(), steps=60, seed=8)
        assert isinstance(result, AnnealResult)
        spectral = anneal(ring, "spectral", steps=40, seed=9)
        assert spectral.best_score >= spectral.initial_score
        assert spectral.topology.is_connected()

    def test_explicit_schedule(self, ring):
        schedule = CoolingSchedule(0.5, 0.005, kind="linear")
        result = anneal(ring, "aspl", steps=100, seed=10, schedule=schedule)
        assert result.best_score >= result.initial_score

    def test_named_topology(self, ring):
        result = anneal(ring, "aspl", steps=50, seed=11)
        assert result.topology.name.endswith("+aspl")
        assert result.improvement == pytest.approx(
            result.best_score - result.initial_score
        )


class TestExactLPAnneal:
    """Annealing against the exact edge LP scores every candidate by a
    cold solve on the annealer's stateless path."""

    SCHEDULE = CoolingSchedule(initial_temperature=0.05, final_temperature=0.001)

    def test_best_score_is_a_cold_solve_and_no_model_is_built(self):
        topo = random_regular_topology(14, 4, servers_per_switch=2, seed=3)
        traffic = random_permutation_traffic(topo, seed=4)
        built = model_stats()["built"]
        result = anneal(
            topo,
            ThroughputObjective(traffic, solver="edge_lp"),
            steps=6,
            seed=2,
            schedule=self.SCHEDULE,
        )
        optimized = result.topology
        assert optimized.degree_histogram() == topo.degree_histogram()
        assert optimized.server_map() == topo.server_map()
        assert optimized.is_connected()
        assert result.accepted + result.rejected >= 1
        cold = max_concurrent_flow(optimized, traffic).throughput
        assert abs(result.best_score - cold) <= 1e-9
        assert model_stats()["built"] == built

    def test_disconnecting_swap_counted_invalid(self, monkeypatch):
        # Two squares joined by two bridges: swapping both bridges into
        # same-side diagonals disconnects the graph.
        topo = Topology(name="barbell")
        for node in range(8):
            topo.add_switch(node)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0),
                     (4, 5), (5, 6), (6, 7), (7, 4)]:
            topo.add_link(u, v)
        topo.add_link(0, 4)
        topo.add_link(2, 6)
        traffic = TrafficMatrix(name="pair", demands={(1, 5): 1.0})
        monkeypatch.setattr(
            annealing,
            "sample_double_edge_swap",
            lambda topo, rng=None, max_tries=64: DoubleEdgeSwap(0, 4, 6, 2),
        )
        result = anneal(
            topo,
            ThroughputObjective(traffic, solver="edge_lp"),
            steps=3,
            seed=0,
            schedule=self.SCHEDULE,
        )
        assert result.invalid == 3
        assert result.topology.is_connected()
        assert result.best_score == result.initial_score > 0.0
