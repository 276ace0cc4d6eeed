"""Tests for path metrics and Yen's k-shortest paths."""

from __future__ import annotations

from itertools import islice
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csgraph

import repro.metrics.paths as paths_mod
from repro.exceptions import TopologyError
from repro.metrics.paths import (
    DemandHopTracker,
    all_pairs_shortest_lengths,
    all_shortest_paths,
    average_shortest_path_length,
    demand_hop_sum,
    demand_weighted_aspl,
    diameter,
    hop_distances,
    hop_rows,
    k_shortest_paths,
    path_length_histogram,
)
from repro.topology import make_topology
from repro.topology.base import Topology
from repro.topology.hypercube import hypercube_topology
from repro.topology.random_regular import random_regular_topology
from repro.traffic import make_traffic
from repro.traffic.base import TrafficMatrix


class TestShortestLengths:
    def test_bfs_from_source(self, triangle):
        rows = hop_distances(triangle, [0])
        assert rows.dtype == np.float64
        np.testing.assert_array_equal(rows, [[0.0, 1.0, 1.0]])

    def test_unknown_source_rejected(self, triangle):
        with pytest.raises(TopologyError, match="'missing' does not exist"):
            hop_distances(triangle, [0, "missing"])

    def test_unreachable_switches_are_inf(self):
        topo = Topology.from_edges([(0, 1), (2, 3)])
        np.testing.assert_array_equal(
            hop_distances(topo, [1, 3]),
            [[1.0, 0.0, np.inf, np.inf], [np.inf, np.inf, 1.0, 0.0]],
        )

    @pytest.mark.parametrize("batch", [paths_mod.ROW_BATCH, 2])
    def test_rows_match_csgraph_in_any_batch(self, batch):
        topo = random_regular_topology(30, 3, seed=2)
        sources = topo.switches[::-1] + topo.switches[:3]
        reference = csgraph.shortest_path(
            _csgraph_adjacency(topo), unweighted=True
        )
        order = [topo.switches.index(s) for s in sources]
        with mock.patch.object(paths_mod, "ROW_BATCH", batch):
            rows = hop_distances(topo, sources)
            walked = list(hop_rows(topo, sources))
        np.testing.assert_array_equal(rows, reference[order])
        np.testing.assert_array_equal(np.array(walked), reference[order])

    def test_matches_networkx(self):
        topo = random_regular_topology(16, 4, seed=5)
        graph = topo.to_networkx()
        ours = all_pairs_shortest_lengths(topo)
        theirs = dict(nx.all_pairs_shortest_path_length(graph))
        for u in topo.switches:
            assert ours[u] == dict(theirs[u])

    def test_aspl_matches_networkx(self):
        topo = random_regular_topology(14, 4, seed=6)
        assert average_shortest_path_length(topo) == pytest.approx(
            nx.average_shortest_path_length(topo.to_networkx())
        )

    def test_aspl_requires_connected(self):
        topo = Topology("disc")
        topo.add_switch(0)
        topo.add_switch(1)
        with pytest.raises(TopologyError, match="disconnected|undefined"):
            average_shortest_path_length(topo)

    def test_diameter_matches_networkx(self):
        topo = random_regular_topology(14, 3, seed=7)
        assert diameter(topo) == nx.diameter(topo.to_networkx())

    def test_histogram_totals(self, triangle):
        hist = path_length_histogram(triangle)
        assert hist == {1: 6}
        cube = hypercube_topology(3)
        hist = path_length_histogram(cube)
        assert sum(hist.values()) == 8 * 7


class TestDemandWeightedAspl:
    def test_weighting(self):
        topo = Topology("path3")
        for v in range(3):
            topo.add_switch(v, servers=1)
        topo.add_link(0, 1)
        topo.add_link(1, 2)
        tm = TrafficMatrix(
            name="w",
            demands={(0, 1): 1.0, (0, 2): 3.0},
            num_flows=4,
        )
        # (1*1 + 3*2) / 4 = 1.75
        assert demand_weighted_aspl(topo, tm) == pytest.approx(1.75)

    def test_unroutable_demand_rejected(self):
        topo = Topology("disc")
        topo.add_switch(0)
        topo.add_switch(1)
        tm = TrafficMatrix(name="x", demands={(0, 1): 1.0}, num_flows=1)
        with pytest.raises(TopologyError, match="no path"):
            demand_weighted_aspl(topo, tm)


@st.composite
def _graph_and_pairs(draw):
    """A graph of up to 40 switches split into up to four components
    (isolated switches included), plus pairs with ``u == v`` and a repeat."""
    n = draw(st.integers(1, 40))
    component = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    topo = Topology("drawn")
    for v in range(n):
        topo.add_switch(v)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        if u != v and component[u] == component[v] and not topo.has_link(u, v):
            topo.add_link(u, v)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=60))
    u, v = pairs[0]
    return topo, pairs + [(u, u), (u, v)]


def _csgraph_adjacency(topo):
    return nx.to_scipy_sparse_array(
        topo.graph, nodelist=topo.switches, weight=None, format="csr"
    )


def _csgraph_hop_sum(topo, traffic) -> float:
    """``demand_hop_sum``'s accumulation order over csgraph BFS rows."""
    index = {node: i for i, node in enumerate(topo.switches)}
    adjacency = _csgraph_adjacency(topo)
    by_source: dict = {}
    for (u, v), units in traffic.demands.items():
        by_source.setdefault(u, []).append((v, units))
    total = 0.0
    for u in sorted(by_source, key=repr):
        row = csgraph.shortest_path(
            adjacency, unweighted=True, indices=index[u]
        )
        for v, units in by_source[u]:
            total += units * float(row[index[v]])
    return total


class TestPairDistanceKernel:
    """The meet-in-the-middle kernel equals all-pairs BFS on every pair."""

    @pytest.mark.parametrize("batch", [paths_mod.PAIR_BATCH, 3])
    @given(case=_graph_and_pairs())
    def test_matches_csgraph(self, batch, case):
        topo, pairs = case
        heads = np.array([u for u, _ in pairs])
        tails = np.array([v for _, v in pairs])
        with mock.patch.object(paths_mod, "PAIR_BATCH", batch):
            ours = paths_mod._pair_distances(
                paths_mod._reach_matrix(topo), heads, tails
            )
        reference = csgraph.shortest_path(
            _csgraph_adjacency(topo), unweighted=True
        )[heads, tails]
        np.testing.assert_array_equal(ours, reference)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("fat-tree", {"k": 4}),
            ("vl2", {"da": 8, "di": 8}),
            ("rrg", {"num_switches": 30, "network_degree": 4,
                     "servers_per_switch": 2, "seed": 3}),
        ],
    )
    @pytest.mark.parametrize("model", ["permutation", "gravity"])
    def test_hop_sum_bit_identical_to_csgraph(self, kind, params, model):
        topo = make_topology(kind, **params)
        traffic = make_traffic(model, topo, seed=4)
        assert demand_hop_sum(topo, traffic) == _csgraph_hop_sum(topo, traffic)

    def test_unroutable_names_first_pair_in_source_order(self):
        topo = Topology("split")
        for v in range(6):
            topo.add_switch(v, servers=1)
        topo.add_link(0, 1)
        topo.add_link(1, 2)
        topo.add_link(3, 4)
        traffic = TrafficMatrix(
            name="x",
            demands={(4, 0): 1.0, (3, 5): 1.0, (1, 5): 2.0, (0, 1): 1.0},
            num_flows=5,
        )
        with pytest.raises(TopologyError, match=r"demand 1->5 has no path"):
            demand_hop_sum(topo, traffic)
        with pytest.raises(TopologyError, match=r"demand 1->5 has no path"):
            DemandHopTracker(topo, traffic)


class TestDemandHopTracker:
    """Incremental hop-sum == full recompute, re-pricing touched sources."""

    def _timeline_instance(self, seed: int = 5, steps: int = 10):
        from repro.traffic.vdc import vdc_timeline

        topo = random_regular_topology(
            12, 4, servers_per_switch=3, seed=seed
        )
        timeline = vdc_timeline(
            topo,
            seed=seed,
            steps=steps,
            arrival_rate=1.5,
            mean_vms=4.0,
            mean_duration=6.0,
        )
        return topo, timeline

    def test_initial_total_matches_full_sum(self):
        topo, timeline = self._timeline_instance()
        tracker = DemandHopTracker(topo, timeline.base)
        assert tracker.total == pytest.approx(
            demand_hop_sum(topo, timeline.base), abs=1e-9
        )

    def test_delta_stream_matches_full_recompute(self):
        topo, timeline = self._timeline_instance(seed=9)
        tracker = DemandHopTracker(topo, timeline.base)
        for step in range(1, timeline.num_steps):
            total = tracker.apply_delta(timeline.deltas[step - 1])
            assert total == pytest.approx(
                demand_hop_sum(topo, timeline.matrix_at(step)), abs=1e-9
            ), f"step {step}"

    def test_reprices_only_touched_sources(self):
        from repro.traffic.timeline import DemandDelta

        topo, timeline = self._timeline_instance(seed=2)
        tracker = DemandHopTracker(topo, timeline.base)
        priced = tracker.num_repriced
        assert priced == len({u for u, _ in timeline.base.demands})
        a = next(iter({u for u, _ in timeline.base.demands}))
        dest = next(v for v in topo.switches if v != a)
        tracker.apply_delta(DemandDelta.adding({(a, dest): 1.0}))
        assert tracker.num_repriced == priced + 1

    def test_invalid_deltas_leave_tracker_untouched(self):
        from repro.traffic.timeline import DemandDelta

        topo, timeline = self._timeline_instance(seed=3)
        tracker = DemandHopTracker(topo, timeline.base)
        total = tracker.total
        pair = next(iter(timeline.base.demands))
        units = timeline.base.demands[pair]
        with pytest.raises(TopologyError, match="negative"):
            tracker.apply_delta(
                DemandDelta.adding({pair: -(units + 5.0)})
            )
        with pytest.raises(TopologyError, match="not a switch"):
            tracker.apply_delta(
                DemandDelta.adding({("ghost", topo.switches[0]): 1.0})
            )
        assert tracker.total == pytest.approx(total)

    def test_empty_traffic_rejected(self):
        topo, _ = self._timeline_instance()
        with pytest.raises(TopologyError, match="no network demands"):
            DemandHopTracker(topo, TrafficMatrix(name="empty", demands={}))


class TestKShortestPaths:
    def test_lengths_non_decreasing_and_simple(self):
        topo = random_regular_topology(12, 3, seed=8)
        nodes = topo.switches
        paths = k_shortest_paths(topo, nodes[0], nodes[-1], 6)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)
        for path in paths:
            assert len(set(path)) == len(path)  # simple
            for a, b in zip(path[:-1], path[1:]):
                assert topo.has_link(a, b)
        assert len({tuple(p) for p in paths}) == len(paths)

    def test_matches_networkx_shortest_simple_paths(self):
        topo = random_regular_topology(10, 3, seed=9)
        graph = topo.to_networkx()
        src, dst = topo.switches[0], topo.switches[5]
        ours = k_shortest_paths(topo, src, dst, 5)
        theirs = list(islice(nx.shortest_simple_paths(graph, src, dst), 5))
        assert [len(p) for p in ours] == [len(p) for p in theirs]

    def test_fewer_paths_than_k(self, path_two):
        paths = k_shortest_paths(path_two, "a", "b", 10)
        assert paths == [["a", "b"]]

    def test_disconnected_returns_empty(self):
        topo = Topology("disc")
        topo.add_switch(0)
        topo.add_switch(1)
        assert k_shortest_paths(topo, 0, 1, 3) == []

    def test_same_endpoints_rejected(self, triangle):
        with pytest.raises(TopologyError, match="differ"):
            k_shortest_paths(triangle, 0, 0, 2)

    def test_triangle_enumeration(self, triangle):
        paths = k_shortest_paths(triangle, 0, 1, 5)
        assert paths == [[0, 1], [0, 2, 1]]


class TestAllShortestPaths:
    def test_hypercube_counts(self):
        cube = hypercube_topology(3)
        # Antipodal nodes at distance 3 have 3! = 6 shortest paths.
        paths = list(all_shortest_paths(cube, 0, 7))
        assert len(paths) == 6
        assert all(len(p) == 4 for p in paths)

    def test_limit(self):
        cube = hypercube_topology(3)
        paths = list(all_shortest_paths(cube, 0, 7, limit=2))
        assert len(paths) == 2

    def test_unreachable_yields_nothing(self):
        topo = Topology("disc")
        topo.add_switch(0)
        topo.add_switch(1)
        assert list(all_shortest_paths(topo, 0, 1)) == []
