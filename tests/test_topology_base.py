"""Tests for the Topology model."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.exceptions import TopologyError
from repro.topology.base import Link, Topology


class TestConstruction:
    def test_add_switch_and_link(self):
        topo = Topology("t")
        topo.add_switch("a", servers=2)
        topo.add_switch("b")
        topo.add_link("a", "b", capacity=3.0)
        assert topo.num_switches == 2
        assert topo.num_links == 1
        assert topo.capacity("a", "b") == 3.0

    def test_duplicate_switch_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        with pytest.raises(TopologyError, match="already exists"):
            topo.add_switch(1)

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        with pytest.raises(TopologyError, match="self-loop"):
            topo.add_link(1, 1)

    def test_link_to_missing_switch_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        with pytest.raises(TopologyError, match="does not exist"):
            topo.add_link(1, 2)

    def test_parallel_links_aggregate_capacity(self):
        topo = Topology()
        topo.add_switch(1)
        topo.add_switch(2)
        topo.add_link(1, 2, capacity=1.0)
        topo.add_link(1, 2, capacity=2.5)
        assert topo.num_links == 1
        assert topo.capacity(1, 2) == pytest.approx(3.5)

    def test_non_positive_capacity_rejected(self):
        topo = Topology()
        topo.add_switch(1)
        topo.add_switch(2)
        with pytest.raises(ValueError, match="capacity"):
            topo.add_link(1, 2, capacity=0.0)

    def test_negative_servers_rejected(self):
        topo = Topology()
        with pytest.raises(ValueError, match="servers"):
            topo.add_switch(1, servers=-1)

    def test_remove_link(self):
        topo = Topology()
        topo.add_switch(1)
        topo.add_switch(2)
        topo.add_link(1, 2)
        topo.remove_link(1, 2)
        assert topo.num_links == 0
        with pytest.raises(TopologyError, match="no link"):
            topo.remove_link(1, 2)


class TestInspection:
    def test_counts_and_capacity(self, triangle):
        assert triangle.num_switches == 3
        assert triangle.num_links == 3
        assert triangle.num_servers == 3
        assert triangle.total_capacity == pytest.approx(6.0)

    def test_arcs_double_links(self, triangle):
        arcs = triangle.arcs()
        assert len(arcs) == 6
        assert sum(cap for *_, cap in arcs) == pytest.approx(6.0)
        pairs = {(u, v) for u, v, _ in arcs}
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_degree_and_neighbors(self, triangle):
        assert triangle.degree(0) == 2
        assert set(triangle.neighbors(0)) == {1, 2}

    def test_unknown_switch_queries_raise(self, triangle):
        for fn in (triangle.degree, triangle.neighbors, triangle.servers_at):
            with pytest.raises(TopologyError, match="does not exist"):
                fn("missing")

    def test_server_map_and_set_servers(self, triangle):
        triangle.set_servers(0, 5)
        assert triangle.server_map()[0] == 5
        assert triangle.num_servers == 7

    def test_degree_histogram(self, triangle):
        assert triangle.degree_histogram() == {2: 3}

    def test_is_connected(self, triangle):
        assert triangle.is_connected()
        topo = Topology()
        topo.add_switch(1)
        topo.add_switch(2)
        assert not topo.is_connected()
        assert Topology().is_connected()  # vacuously

    def test_dunder_protocols(self, triangle):
        assert len(triangle) == 3
        assert 0 in triangle
        assert sorted(triangle) == [0, 1, 2]
        assert "triangle" in repr(triangle)


class TestClusters:
    def test_cluster_labels(self):
        topo = Topology()
        topo.add_switch(1, cluster="left")
        topo.add_switch(2, cluster="right")
        topo.add_switch(3)
        assert topo.cluster_of(1) == "left"
        assert topo.cluster_of(3) is None
        assert topo.nodes_in_cluster("left") == [1]
        assert topo.clusters() == ["left", "right"]
        topo.set_cluster(3, "left")
        assert sorted(topo.nodes_in_cluster("left")) == [1, 3]

    def test_switch_types(self):
        topo = Topology()
        topo.add_switch(1, switch_type="tor")
        topo.add_switch(2, switch_type="agg")
        assert topo.switch_type_of(1) == "tor"
        assert topo.nodes_of_type("agg") == [2]

    def test_cut_capacity(self, triangle):
        assert triangle.cut_capacity({0}, {1, 2}) == pytest.approx(4.0)
        with pytest.raises(TopologyError, match="overlap"):
            triangle.cut_capacity({0, 1}, {1, 2})


class TestCopyAndConversion:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy("clone")
        clone.add_switch(99)
        assert 99 not in triangle
        assert clone.name == "clone"

    def test_to_networkx_is_copy(self, triangle):
        graph = triangle.to_networkx()
        graph.add_node("x")
        assert "x" not in triangle

    def test_only_to_networkx_imports_networkx(self):
        script = textwrap.dedent(
            """
            import sys

            import repro
            import repro.experiments.runner
            import repro.pipeline
            from repro.flow.solvers import SolverConfig
            from repro.pipeline import ScenarioGrid, TopologySpec, TrafficSpec
            from repro.pipeline import run_grid
            from repro.resilience import degraded_view
            from repro.topology import make_topology

            grid = ScenarioGrid(
                topologies=(
                    TopologySpec.make(
                        "rrg", num_switches=8, network_degree=3, servers_per_switch=1
                    ),
                ),
                traffics=(TrafficSpec.make("permutation"),),
                solvers=(SolverConfig("estimate_bound"),),
            )
            assert len(run_grid(grid).cells) == 1
            topo = make_topology("rrg", num_switches=8, network_degree=3, seed=1)
            view = degraded_view(topo, failed_switches=(topo.switches[0],))
            assert view.num_switches == 7 and view.adjacency().shape == (7, 7)
            assert "networkx" not in sys.modules, "imported before to_networkx"
            view.to_networkx()
            assert "networkx" in sys.modules
            """
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_from_edges_uniform_servers(self):
        topo = Topology.from_edges([(1, 2), (2, 3)], servers=2)
        assert topo.num_servers == 6
        assert topo.num_links == 2

    def test_from_edges_server_mapping_adds_isolated(self):
        topo = Topology.from_edges([(1, 2)], servers={1: 3, 9: 1})
        assert topo.servers_at(9) == 1
        assert topo.servers_at(2) == 0

    def test_validate_passes_on_good_topology(self, triangle):
        triangle.validate()


class TestLink:
    def test_endpoints_and_reversed(self):
        link = Link("a", "b", 2.0)
        assert link.endpoints() == ("a", "b")
        assert link.reversed() == Link("b", "a", 2.0)
