"""Route-set precomputation: enumeration correctness and caching."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.exceptions import FlowError, TopologyError
from repro.fidelity.routes import (
    RouteSet,
    canonical_pairs,
    compute_route_set,
    reset_route_stats,
    route_set_for,
    route_set_key,
    route_stats,
)
from repro.pipeline.cache import ResultCache, cache_context
from repro.topology.fattree import fat_tree_topology
from repro.topology.random_regular import random_regular_topology
from repro.traffic.permutation import random_permutation_traffic


@pytest.fixture()
def instance():
    topo = random_regular_topology(12, 4, servers_per_switch=2, seed=3)
    traffic = random_permutation_traffic(topo, seed=4)
    return topo, tuple(traffic.demands)


def _distances(topo):
    return dict(nx.all_pairs_shortest_path_length(topo.to_networkx()))


def _is_simple(path) -> bool:
    return len(set(path)) == len(path)


def _is_valid(topo, path) -> bool:
    graph = topo.to_networkx()
    return all(graph.has_edge(a, b) for a, b in zip(path[:-1], path[1:]))


class TestEcmpDag:
    def test_paths_are_shortest_and_weighted(self, instance):
        topo, pairs = instance
        routes = route_set_for(topo, pairs, mode="ecmp", k=8)
        dist = _distances(topo)
        for (u, v), group, weights in zip(
            routes.pairs, routes.paths, routes.weights
        ):
            assert group, (u, v)
            assert len(group) == len(weights)
            assert abs(sum(weights) - 1.0) < 1e-9
            for path, weight in zip(group, weights):
                assert path[0] == u and path[-1] == v
                assert _is_simple(path) and _is_valid(topo, path)
                assert len(path) - 1 == dist[u][v]
                assert weight > 0

    def test_next_hops_lie_on_shortest_paths(self, instance):
        topo, pairs = instance
        routes = route_set_for(topo, pairs, mode="ecmp", k=8)
        dist = _distances(topo)
        for (u, v), group in zip(routes.pairs, routes.paths):
            for path in group:
                for node, nxt in zip(path[:-1], path[1:]):
                    assert dist[nxt][v] == dist[node][v] - 1

    def test_enum_method_agrees_on_shortest_lengths(self, instance):
        topo, pairs = instance
        dag = route_set_for(topo, pairs, mode="ecmp", k=4, method="dag")
        enum = route_set_for(topo, pairs, mode="ecmp", k=4, method="enum")
        for pair in dag.pairs:
            lengths_dag = {len(p) for p in dag.paths_for(*pair)}
            lengths_enum = {len(p) for p in enum.paths_for(*pair)}
            assert lengths_dag == lengths_enum  # all shortest, same metric


class TestKsp:
    def test_yen_lengths_non_decreasing(self, instance):
        topo, pairs = instance
        routes = route_set_for(topo, pairs, mode="ksp", k=4, method="yen")
        for (u, v), group in zip(routes.pairs, routes.paths):
            lengths = [len(p) for p in group]
            assert lengths == sorted(lengths)
            assert 1 <= len(group) <= 4
            for path in group:
                assert path[0] == u and path[-1] == v
                assert _is_simple(path) and _is_valid(topo, path)

    def test_yen_prefix_stable_in_k(self, instance):
        topo, pairs = instance
        small = route_set_for(topo, pairs, mode="ksp", k=2, method="yen")
        large = route_set_for(topo, pairs, mode="ksp", k=4, method="yen")
        for pair in small.pairs:
            assert small.paths_for(*pair) == large.paths_for(*pair)[:2]

    def test_tree_paths_simple_and_valid(self, instance):
        topo, pairs = instance
        routes = route_set_for(topo, pairs, mode="ksp", k=6, method="tree")
        dist = _distances(topo)
        for (u, v), group in zip(routes.pairs, routes.paths):
            assert 1 <= len(group) <= 6
            # The first path is a true shortest path; later ones detours.
            assert len(group[0]) - 1 == dist[u][v]
            lengths = [len(p) for p in group]
            assert lengths == sorted(lengths)
            for path in group:
                assert path[0] == u and path[-1] == v
                assert _is_simple(path) and _is_valid(topo, path)


class TestTruncationAndValidation:
    def test_k_one_truncates_multipath_pairs(self):
        topo = fat_tree_topology(4)
        # Edge switches in different pods have many equal-cost paths.
        pairs = [("p0e0", "p1e0")]
        routes = route_set_for(topo, pairs, mode="ecmp", k=1, method="enum")
        assert len(routes.paths[0]) == 1
        assert routes.truncated == 1

    def test_rejects_bad_inputs(self, instance):
        topo, pairs = instance
        with pytest.raises(FlowError):
            compute_route_set(topo, pairs, mode="waypoint")
        with pytest.raises(FlowError):
            compute_route_set(topo, pairs, mode="ksp", method="dag")
        with pytest.raises((FlowError, ValueError)):
            compute_route_set(topo, pairs, k=0)
        u = pairs[0][0]
        with pytest.raises(FlowError):
            compute_route_set(topo, [(u, u)])
        with pytest.raises(TopologyError):
            compute_route_set(topo, [(u, "no-such-switch")])
        with pytest.raises(FlowError):
            compute_route_set(topo, [])


class TestCachingLayers:
    def test_memo_hit_returns_same_object(self, instance):
        topo, pairs = instance
        reset_route_stats()
        first = route_set_for(topo, pairs, mode="ecmp", k=4)
        second = route_set_for(topo, pairs, mode="ecmp", k=4)
        assert first is second
        stats = route_stats()
        assert stats["computed"] == 1
        assert stats["memo_hits"] == 1
        assert stats["disk_hits"] == 0

    def test_disk_hit_after_memo_reset(self, instance, tmp_path):
        topo, pairs = instance
        cache = ResultCache(tmp_path)
        with cache_context(cache):
            reset_route_stats()
            first = route_set_for(topo, pairs, mode="ksp", k=3, method="yen")
            reset_route_stats()  # drops the memo, keeps the disk entry
            second = route_set_for(topo, pairs, mode="ksp", k=3, method="yen")
        assert route_stats() == {
            "computed": 0, "memo_hits": 0, "disk_hits": 1,
        }
        assert second == first

    def test_distinct_k_and_mode_get_distinct_keys(self, instance):
        topo, pairs = instance
        keys = {
            route_set_for(topo, pairs, mode=mode, k=k, method=method).key
            for mode, k, method in (
                ("ecmp", 4, "dag"),
                ("ecmp", 8, "dag"),
                ("ecmp", 4, "enum"),
                ("ksp", 4, "yen"),
                ("ksp", 4, "tree"),
            )
        }
        assert len(keys) == 5


class TestPayload:
    def test_round_trip(self, instance):
        topo, pairs = instance
        routes = route_set_for(topo, pairs, mode="ecmp", k=4)
        rebuilt = RouteSet.from_payload(routes.to_payload())
        assert rebuilt == routes
        assert rebuilt.paths_for(*routes.pairs[0]) == routes.paths[0]

    def test_schema_mismatch_raises(self, instance):
        topo, pairs = instance
        payload = route_set_for(topo, pairs, mode="ecmp", k=4).to_payload()
        payload["schema_version"] = -1
        with pytest.raises(FlowError):
            RouteSet.from_payload(payload)


class TestDeterminism:
    def test_recompute_is_identical(self, instance):
        topo, pairs = instance
        for mode, method in (
            ("ecmp", "dag"), ("ecmp", "enum"), ("ksp", "yen"), ("ksp", "tree")
        ):
            a = compute_route_set(topo, pairs, mode=mode, k=4, method=method)
            b = compute_route_set(topo, pairs, mode=mode, k=4, method=method)
            assert a == b

    def test_canonical_pairs_order_independent(self, instance):
        _, pairs = instance
        shuffled = tuple(reversed(pairs)) + pairs[:2]
        assert canonical_pairs(shuffled) == canonical_pairs(pairs)

    def test_key_depends_on_all_coordinates(self):
        base = route_set_key("t", "p", "ecmp", 4, "dag")
        assert base != route_set_key("t2", "p", "ecmp", 4, "dag")
        assert base != route_set_key("t", "p2", "ecmp", 4, "dag")
        assert base != route_set_key("t", "p", "ksp", 4, "dag")
        assert base != route_set_key("t", "p", "ecmp", 5, "dag")
        assert base != route_set_key("t", "p", "ecmp", 4, "enum")
