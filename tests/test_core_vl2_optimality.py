"""Tests for the VL2 improvement pipeline and optimality-gap measurement."""

from __future__ import annotations

import pytest

from repro.core.optimality import OptimalityGap, bound_ratio, measure_optimality_gap
from repro.core.vl2_improvement import (
    max_tors_at_full_throughput,
    supports_full_throughput,
    vl2_improvement_ratio,
)
from repro.exceptions import ExperimentError, TrafficError
from repro.topology.vl2 import rewired_vl2_topology, vl2_topology
from repro.traffic.registry import make_traffic


class TestOptimalityGap:
    def test_ratio_below_one_for_permutation(self):
        gap = measure_optimality_gap(12, 4, 3, runs=2, seed=1)
        assert 0.3 < gap.ratio <= 1.0 + 1e-9
        assert gap.aspl_ratio >= 1.0 - 1e-9

    def test_all_to_all_respects_bound(self):
        gap = measure_optimality_gap(
            10, 4, 2, workload="all-to-all", runs=2, seed=2
        )
        assert gap.ratio <= 1.0 + 1e-6

    def test_denser_graphs_closer_to_bound(self):
        sparse = measure_optimality_gap(14, 3, 3, runs=2, seed=3)
        dense = measure_optimality_gap(14, 9, 3, runs=2, seed=3)
        assert dense.ratio > sparse.ratio

    def test_unknown_workload_rejected(self):
        with pytest.raises(ExperimentError, match="workload"):
            measure_optimality_gap(10, 4, 2, workload="bogus")

    def test_bound_ratio_helper(self):
        assert bound_ratio(0.5, 40, 10, 200) == pytest.approx(
            0.5 / (40 * 10 / (200 * (68 / 39)))
        )

    def test_dataclass_fields(self):
        gap = measure_optimality_gap(10, 4, 2, runs=1, seed=5)
        assert isinstance(gap, OptimalityGap)
        assert gap.num_switches == 10
        assert gap.bound > 0


class TestMakeTraffic:
    """The VL2 study's workload names, served by the traffic registry."""

    def test_kinds(self, small_rrg):
        assert make_traffic("permutation", small_rrg, seed=1).num_flows > 0
        assert make_traffic("all-to-all", small_rrg).num_flows > 0
        chunky = make_traffic("chunky-100", small_rrg, seed=2)
        assert chunky.num_flows > 0

    def test_unknown_kind_rejected(self, small_rrg):
        with pytest.raises(TrafficError, match="unknown traffic"):
            make_traffic("bogus", small_rrg)


class TestFullThroughputSupport:
    def test_vl2_supports_design_size(self):
        topo = vl2_topology(4, 4, servers_per_tor=20)
        supported, worst = supports_full_throughput(
            topo, runs=2, seed=1
        )
        assert supported
        assert worst >= 1.0 - 1e-3

    def test_overloaded_vl2_fails(self):
        # 30 servers per ToR oversubscribes the 2x10G uplinks (30 > 20).
        topo = vl2_topology(4, 4, servers_per_tor=30)
        supported, worst = supports_full_throughput(topo, runs=1, seed=2)
        assert not supported
        assert worst < 1.0


class TestBinarySearch:
    def test_finds_structural_limit_when_capacity_rich(self):
        # With tiny per-ToR load, the only limit is port exhaustion.
        def builder(num_tors: int, seed=None):
            return rewired_vl2_topology(
                4, 4, num_tors=num_tors, servers_per_tor=1, seed=seed
            )

        best = max_tors_at_full_throughput(
            builder, 10, runs=1, seed=3
        )
        assert best == 10

    def test_monotone_in_load(self):
        def make_builder(servers: int):
            def builder(num_tors: int, seed=None):
                return rewired_vl2_topology(
                    4, 4, num_tors=num_tors, servers_per_tor=servers, seed=seed
                )

            return builder

        light = max_tors_at_full_throughput(
            make_builder(5), 11, runs=1, seed=4
        )
        heavy = max_tors_at_full_throughput(
            make_builder(20), 11, runs=1, seed=4
        )
        assert heavy <= light


class TestImprovementRatio:
    def test_rewired_beats_vl2_at_paper_load(self):
        comparison = vl2_improvement_ratio(
            4, 4, runs=2, seed=5, servers_per_tor=20
        )
        assert comparison.vl2_tors == 4  # the structural design point
        assert comparison.rewired_tors >= comparison.vl2_tors
        assert comparison.ratio >= 1.0

    def test_ratio_requires_nonzero_vl2(self):
        from repro.core.vl2_improvement import Vl2Comparison

        broken = Vl2Comparison(4, 4, "permutation", 0, 5)
        with pytest.raises(ExperimentError, match="zero"):
            _ = broken.ratio
