"""Tests for flow decomposition into path flows."""

from __future__ import annotations

import pytest

from repro.exceptions import FlowError
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.path_decomposition import (
    PathFlow,
    decompose_arc_flows,
    decompose_commodity_flows,
    mean_path_length,
    path_length_distribution,
)
from repro.flow.result import ThroughputResult
from repro.traffic.base import TrafficMatrix
from repro.traffic.permutation import random_permutation_traffic


class TestDecomposeArcFlows:
    def test_single_path(self):
        result = ThroughputResult(
            throughput=1.0,
            arc_flows={("a", "b"): 1.0, ("b", "c"): 1.0},
            arc_capacities={("a", "b"): 1.0, ("b", "c"): 1.0},
            total_demand=1.0,
        )
        paths, residual = decompose_arc_flows(result)
        assert not residual
        assert len(paths) == 1
        assert paths[0].nodes == ("a", "b", "c")
        assert paths[0].amount == pytest.approx(1.0)
        assert paths[0].hops == 2

    def test_split_flow(self):
        # 2 units a->d split over two parallel routes.
        result = ThroughputResult(
            throughput=2.0,
            arc_flows={
                ("a", "b"): 1.0,
                ("b", "d"): 1.0,
                ("a", "c"): 1.0,
                ("c", "d"): 1.0,
            },
            arc_capacities={
                ("a", "b"): 1.0,
                ("b", "d"): 1.0,
                ("a", "c"): 1.0,
                ("c", "d"): 1.0,
            },
            total_demand=1.0,
        )
        paths, residual = decompose_arc_flows(result)
        assert not residual
        assert len(paths) == 2
        assert sum(p.amount for p in paths) == pytest.approx(2.0)

    def test_cycle_peeled_to_residual_free(self):
        # A pure circulation decomposes into no s-t paths.
        result = ThroughputResult(
            throughput=0.0,
            arc_flows={("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.0},
            arc_capacities={("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.0},
            total_demand=1.0,
        )
        paths, residual = decompose_arc_flows(result)
        assert paths == []
        # The circulation shows up as residual (it delivers nothing).
        assert sum(residual.values()) > 0 or not residual

    def test_source_restriction(self, triangle):
        tm = TrafficMatrix(name="x", demands={(0, 1): 1.0}, num_flows=1)
        result = max_concurrent_flow(triangle, tm)
        paths, _ = decompose_arc_flows(result, sources={0})
        assert all(p.nodes[0] == 0 for p in paths)


class TestCommodityDecomposition:
    def test_requires_commodity_flows(self, small_rrg, small_rrg_traffic):
        result = max_concurrent_flow(small_rrg, small_rrg_traffic)
        with pytest.raises(FlowError, match="keep_commodity_flows"):
            decompose_commodity_flows(result)

    def test_delivered_amount_matches_lp(self, small_rrg, small_rrg_traffic):
        result = max_concurrent_flow(
            small_rrg, small_rrg_traffic, keep_commodity_flows=True
        )
        decomposed = decompose_commodity_flows(result)
        delivered = sum(
            p.amount for paths in decomposed.values() for p in paths
        )
        assert delivered == pytest.approx(result.delivered_rate, rel=1e-5)

    def test_per_source_demand_satisfied(self, small_rrg, small_rrg_traffic):
        result = max_concurrent_flow(
            small_rrg, small_rrg_traffic, keep_commodity_flows=True
        )
        decomposed = decompose_commodity_flows(result)
        by_source: dict = {}
        for (u, _), units in small_rrg_traffic.demands.items():
            by_source[u] = by_source.get(u, 0.0) + units
        for source, paths in decomposed.items():
            assert all(p.nodes[0] == source for p in paths)
            delivered = sum(p.amount for p in paths)
            assert delivered == pytest.approx(
                result.throughput * by_source[source], rel=1e-5
            )

    def test_paths_follow_real_links(self, small_rrg, small_rrg_traffic):
        result = max_concurrent_flow(
            small_rrg, small_rrg_traffic, keep_commodity_flows=True
        )
        decomposed = decompose_commodity_flows(result)
        for paths in decomposed.values():
            for path in paths:
                for a, b in zip(path.nodes[:-1], path.nodes[1:]):
                    assert small_rrg.has_link(a, b)

    def test_per_pair_commodities_merge(self, triangle):
        tm = TrafficMatrix(
            name="x", demands={(0, 1): 1.0, (0, 2): 1.0}, num_flows=2
        )
        result = max_concurrent_flow(
            triangle, tm, aggregate_by_source=False, keep_commodity_flows=True
        )
        decomposed = decompose_commodity_flows(result)
        assert set(decomposed) == {0}


class TestPathSummaries:
    def test_distribution_and_mean(self):
        paths = [
            PathFlow(nodes=("a", "b"), amount=2.0),
            PathFlow(nodes=("a", "b", "c"), amount=1.0),
        ]
        distribution = path_length_distribution(paths)
        assert distribution == {1: 2.0, 2: 1.0}
        assert mean_path_length(paths) == pytest.approx((2 * 1 + 1 * 2) / 3)

    def test_empty_rejected(self):
        with pytest.raises(FlowError, match="no paths"):
            path_length_distribution([])
        with pytest.raises(FlowError, match="no paths"):
            mean_path_length([])

    def test_mean_matches_result_accounting(self, small_rrg):
        traffic = random_permutation_traffic(small_rrg, seed=99)
        result = max_concurrent_flow(
            small_rrg, traffic, keep_commodity_flows=True
        )
        decomposed = decompose_commodity_flows(result)
        paths = [p for group in decomposed.values() for p in group]
        # Kept commodity flows are the least-volume optimum, which has no
        # cycles: every flow-hop lies on a peeled path.
        volume = sum(
            sum(flows.values()) for flows in result.commodity_flows.values()
        )
        assert sum(p.amount * p.hops for p in paths) == pytest.approx(
            volume, rel=1e-9
        )
        assert mean_path_length(paths) == pytest.approx(
            result.mean_routed_path_length, rel=1e-9
        )
