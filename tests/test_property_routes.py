"""Hypothesis properties of the route-set enumeration engines.

For every sampled instance: paths are simple and valid, ECMP paths are
exactly shortest with hash weights summing to one, and Yen's lengths are
non-decreasing both within a set and as ``k`` grows.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fidelity.routes import compute_route_set
from repro.topology.random_regular import random_regular_topology
from repro.traffic.permutation import random_permutation_traffic

_instances = st.tuples(
    st.integers(min_value=6, max_value=14),      # switches
    st.integers(min_value=3, max_value=5),       # degree
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=1, max_value=6),       # k
)


def _build(params):
    n, r, seed, k = params
    if r >= n:
        r = n - 1
    topo = random_regular_topology(n, r, servers_per_switch=2, seed=seed)
    traffic = random_permutation_traffic(topo, seed=seed + 1)
    return topo, tuple(traffic.demands), k


class TestRouteSetProperties:
    @given(_instances)
    @settings(max_examples=15, deadline=None)
    def test_paths_simple_valid_and_bounded(self, params):
        topo, pairs, k = _build(params)
        graph = topo.to_networkx()
        for mode, method in (
            ("ecmp", "dag"), ("ecmp", "enum"), ("ksp", "yen"), ("ksp", "tree")
        ):
            routes = compute_route_set(
                topo, pairs, mode=mode, k=k, method=method
            )
            for (u, v), group in zip(routes.pairs, routes.paths):
                assert 1 <= len(group) <= k
                for path in group:
                    assert path[0] == u and path[-1] == v
                    assert len(set(path)) == len(path)
                    assert all(
                        graph.has_edge(a, b)
                        for a, b in zip(path[:-1], path[1:])
                    )

    @given(_instances)
    @settings(max_examples=10, deadline=None)
    def test_ecmp_paths_are_shortest_with_unit_weights(self, params):
        topo, pairs, k = _build(params)
        routes = compute_route_set(topo, pairs, mode="ecmp", k=k)
        lengths = dict(nx.all_pairs_shortest_path_length(topo.to_networkx()))
        for (u, v), group, weights in zip(
            routes.pairs, routes.paths, routes.weights
        ):
            assert abs(sum(weights) - 1.0) < 1e-9
            assert all(w > 0 for w in weights)
            for path in group:
                assert len(path) - 1 == lengths[u][v]

    @given(_instances)
    @settings(max_examples=10, deadline=None)
    def test_yen_lengths_non_decreasing_in_k(self, params):
        topo, pairs, k = _build(params)
        small = compute_route_set(topo, pairs, mode="ksp", k=k, method="yen")
        large = compute_route_set(
            topo, pairs, mode="ksp", k=k + 2, method="yen"
        )
        for pair in small.pairs:
            a = small.paths_for(*pair)
            b = large.paths_for(*pair)
            assert b[: len(a)] == a  # growing k only appends
            blens = [len(p) for p in b]
            assert blens == sorted(blens)
