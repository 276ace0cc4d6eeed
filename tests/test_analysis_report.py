"""Tests for the network analysis report."""

from __future__ import annotations

import pytest

from repro.analysis.report import analyze_network
from repro.topology.random_regular import random_regular_topology
from repro.topology.two_cluster import two_cluster_random_topology
from repro.traffic.permutation import random_permutation_traffic


class TestStructureOnly:
    def test_regular_graph_gets_bounds(self, small_rrg):
        analysis = analyze_network(small_rrg, traffic=None)
        assert analysis.is_regular
        assert analysis.regular_degree == 4
        assert analysis.aspl_bound is not None
        assert analysis.aspl >= analysis.aspl_bound - 1e-9
        assert analysis.throughput is None

    def test_irregular_graph_skips_bounds(self, small_two_cluster):
        analysis = analyze_network(small_two_cluster, traffic=None)
        assert not analysis.is_regular
        assert analysis.aspl_bound is None

    def test_text_render(self, small_rrg):
        text = analyze_network(small_rrg, traffic=None).to_text()
        assert "structure" in text
        assert "ASPL bound" in text


class TestWithWorkload:
    def test_permutation_shorthand(self, small_rrg):
        analysis = analyze_network(small_rrg, traffic="permutation", seed=1)
        assert analysis.throughput is not None and analysis.throughput > 0
        assert analysis.bound_ratio is not None
        assert 0 < analysis.bound_ratio <= 1.0 + 1e-9
        assert analysis.decomposition is not None
        assert analysis.saturated_arcs >= 1  # something binds at optimum

    def test_explicit_traffic_matrix(self, small_rrg):
        traffic = random_permutation_traffic(small_rrg, seed=2)
        analysis = analyze_network(small_rrg, traffic=traffic)
        assert analysis.traffic_name == traffic.name

    def test_reuses_given_result(self, small_rrg):
        from repro.flow.edge_lp import max_concurrent_flow

        traffic = random_permutation_traffic(small_rrg, seed=3)
        result = max_concurrent_flow(small_rrg, traffic)
        analysis = analyze_network(small_rrg, traffic=traffic, result=result)
        assert analysis.throughput == result.throughput

    def test_decomposition_does_not_depend_on_the_method(self, small_rrg):
        """An exact result is decomposed through its least-volume optimal
        flow, whose volume every optimal first stage shares."""
        from repro.flow.edge_lp import max_concurrent_flow, min_hop_flow

        traffic = random_permutation_traffic(small_rrg, seed=3)
        results = [
            max_concurrent_flow(small_rrg, traffic, method=method)
            for method in ("highs", "highs-ipm")
        ]
        canonical = min_hop_flow(small_rrg, traffic, results[1])
        analyses = [
            analyze_network(small_rrg, traffic=traffic, result=result)
            for result in results
        ]
        assert analyses[1].decomposition.utilization == canonical.utilization
        assert analyses[0].decomposition.utilization == pytest.approx(
            canonical.utilization, rel=1e-9
        )

    def test_rerun_against_a_warm_cache_solves_nothing(
        self, small_rrg, tmp_path, monkeypatch
    ):
        """The least-volume flow is solved with the throughput and cached
        with it, so a re-run reads both from disk."""
        import repro.flow.edge_lp as edge_lp

        solves = []
        linprog = edge_lp.linprog

        def counting(*args, **kwargs):
            solves.append(kwargs["method"])
            return linprog(*args, **kwargs)

        traffic = random_permutation_traffic(small_rrg, seed=3)
        canonical = edge_lp.min_hop_flow(
            small_rrg, traffic, edge_lp.max_concurrent_flow(small_rrg, traffic)
        )
        monkeypatch.setattr(edge_lp, "linprog", counting)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = analyze_network(small_rrg, traffic=traffic)
        assert len(solves) == 2
        warm = analyze_network(small_rrg, traffic=traffic)
        assert len(solves) == 2
        for analysis in (cold, warm):
            assert analysis.throughput == canonical.throughput
            assert analysis.decomposition.utilization == canonical.utilization
            assert analysis.decomposition.stretch == cold.decomposition.stretch
            assert analysis.group_utilizations == cold.group_utilizations

    def test_bottleneck_localization_in_starved_cluster(self):
        topo = two_cluster_random_topology(
            4, 6, 8, 3,
            servers_per_large=4,
            servers_per_small=2,
            cross_links=3,
            seed=4,
        )
        analysis = analyze_network(topo, traffic="permutation", seed=5)
        assert analysis.bottleneck_group == "large-small"
        text = analysis.to_text()
        assert "<-- bottleneck" in text

    def test_unknown_shorthand_rejected(self, small_rrg):
        from repro.exceptions import TrafficError

        with pytest.raises(TrafficError, match="unknown traffic model"):
            analyze_network(small_rrg, traffic="all-the-things")

    def test_registry_shorthands(self, small_rrg):
        analysis = analyze_network(small_rrg, traffic="gravity")
        assert analysis.traffic_name == "gravity"
        assert analysis.throughput is not None


class TestCliIntegration:
    def test_analyze_command(self, tmp_path, capsys):
        from repro.experiments.runner import main
        from repro.topology.serialization import save_topology

        topo = random_regular_topology(10, 4, servers_per_switch=2, seed=6)
        path = str(tmp_path / "t.json")
        save_topology(topo, path)
        assert main(["analyze", path, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "network analysis" in out
        assert "throughput" in out

    def test_analyze_structure_only(self, tmp_path, capsys):
        from repro.experiments.runner import main
        from repro.topology.serialization import save_topology

        topo = random_regular_topology(10, 4, seed=7)
        path = str(tmp_path / "t.json")
        save_topology(topo, path)
        assert main(["analyze", path, "--traffic", "none"]) == 0
        out = capsys.readouterr().out
        assert "throughput" not in out
