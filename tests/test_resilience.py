"""Failure specs, deterministic sampling, and degraded topology views."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.exceptions import ExperimentError, TopologyError
from repro.pipeline.fingerprint import topology_fingerprint
from repro.resilience import (
    DegradedTopology,
    FailureSpec,
    apply_failures,
    degraded_view,
    failure_seed,
)
from repro.topology.random_regular import random_regular_topology
from repro.topology.two_cluster import two_cluster_random_topology


@pytest.fixture
def rrg():
    return random_regular_topology(16, 4, servers_per_switch=3, seed=7)


class TestFailureSpec:
    def test_roundtrip(self):
        spec = FailureSpec.make("random_links", rate=0.05)
        assert FailureSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_hyphen_normalized(self):
        assert FailureSpec.make("random-links", rate=0.1).model == "random_links"

    def test_param_order_irrelevant(self):
        a = FailureSpec("correlated", 0.1, params=(("a", 1), ("b", 2)))
        b = FailureSpec("correlated", 0.1, params=(("b", 2), ("a", 1)))
        assert a == b
        assert hash(a) == hash(b)

    def test_unknown_model_rejected(self):
        with pytest.raises(ExperimentError, match="unknown failure model"):
            FailureSpec.make("meteor_strike", rate=0.5)

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ExperimentError, match="rate"):
            FailureSpec.make("random_links", rate=1.5)
        with pytest.raises(ExperimentError, match="rate"):
            FailureSpec.make("random_links", rate=-0.1)

    def test_null_specs(self):
        assert FailureSpec.none().is_null()
        assert FailureSpec.make("random_links", rate=0.0).is_null()
        assert not FailureSpec.make("random_links", rate=0.01).is_null()

    def test_labels(self):
        assert FailureSpec.none().label() == "none"
        assert FailureSpec.make("random_links", rate=0.05).label() == (
            "random_links@0.05"
        )

    def test_picklable(self):
        spec = FailureSpec.make("correlated", rate=0.1, cluster="small")
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSampling:
    def test_deterministic_from_seed(self, rrg):
        spec = FailureSpec.make("random_links", rate=0.2)
        a = apply_failures(rrg, spec, seed=11)
        b = apply_failures(rrg, spec, seed=11)
        assert a.failed_links == b.failed_links

    def test_different_seeds_differ(self, rrg):
        spec = FailureSpec.make("random_links", rate=0.2)
        draws = {
            apply_failures(rrg, spec, seed=s).failed_links for s in range(6)
        }
        assert len(draws) > 1

    def test_nested_across_rates(self, rrg):
        low = apply_failures(
            rrg, FailureSpec.make("random_links", rate=0.05), seed=3
        )
        high = apply_failures(
            rrg, FailureSpec.make("random_links", rate=0.25), seed=3
        )
        assert set(low.failed_links) <= set(high.failed_links)

    def test_switch_failures_nested(self, rrg):
        low = apply_failures(
            rrg, FailureSpec.make("random_switches", rate=0.125), seed=3
        )
        high = apply_failures(
            rrg, FailureSpec.make("random_switches", rate=0.5), seed=3
        )
        assert set(low.failed_switches) <= set(high.failed_switches)

    def test_count_rounds(self, rrg):
        # 16 switches at rate 0.25 -> exactly 4 fail.
        degraded = apply_failures(
            rrg, FailureSpec.make("random_switches", rate=0.25), seed=0
        )
        assert degraded.num_failed_switches == 4
        assert degraded.num_switches == 12

    def test_failure_seed_ignores_rate(self):
        a = failure_seed(5, FailureSpec.make("random_links", rate=0.05))
        b = failure_seed(5, FailureSpec.make("random_links", rate=0.5))
        c = failure_seed(5, FailureSpec.make("random_switches", rate=0.05))
        assert a == b
        assert a != c

    def test_null_spec_returns_same_object(self, rrg):
        assert apply_failures(rrg, FailureSpec.none(), seed=1) is rrg
        assert (
            apply_failures(
                rrg, FailureSpec.make("random_links", rate=0.0), seed=1
            )
            is rrg
        )

    def test_correlated_failures_are_local(self, rrg):
        degraded = apply_failures(
            rrg, FailureSpec.make("correlated", rate=0.2), seed=5
        )
        # BFS-ball failures touch few distinct switches relative to a
        # uniform draw of the same size.
        touched = {v for link in degraded.failed_links for v in link}
        assert len(touched) <= 2 * len(degraded.failed_links)
        assert len(degraded.failed_links) == round(0.2 * rrg.num_links)

    def test_correlated_cluster_param(self):
        topo = two_cluster_random_topology(
            num_large=4,
            large_network_ports=6,
            num_small=8,
            small_network_ports=3,
            servers_per_large=4,
            servers_per_small=2,
            cross_fraction=1.0,
            seed=23,
        )
        cluster = topo.clusters()[0]
        spec = FailureSpec.make("correlated", rate=0.1, cluster=cluster)
        degraded = apply_failures(topo, spec, seed=2)
        # The epicenter sits in the requested cluster: the first failed
        # link is incident to it.
        first = degraded.failed_links[0]
        assert any(topo.cluster_of(v) == cluster for v in first)

    def test_correlated_unknown_cluster_rejected(self, rrg):
        spec = FailureSpec.make("correlated", rate=0.1, cluster="nope")
        with pytest.raises(ExperimentError, match="no switches in cluster"):
            apply_failures(rrg, spec, seed=1)


class TestDegradedView:
    def test_links_removed_both_orientations(self, rrg):
        degraded = apply_failures(
            rrg, FailureSpec.make("random_links", rate=0.2), seed=9
        )
        for u, v in degraded.failed_links:
            assert not degraded.has_link(u, v)
            assert not degraded.has_link(v, u)
            assert rrg.has_link(u, v)  # base untouched

    def test_switch_failure_removes_servers_and_links(self, rrg):
        degraded = apply_failures(
            rrg, FailureSpec.make("random_switches", rate=0.25), seed=9
        )
        for node in degraded.failed_switches:
            assert not degraded.has_switch(node)
        assert degraded.num_servers == rrg.num_servers - 3 * 4
        assert rrg.num_switches == 16  # base untouched

    def test_fingerprint_changes(self, rrg):
        degraded = apply_failures(
            rrg, FailureSpec.make("random_links", rate=0.1), seed=9
        )
        assert topology_fingerprint(degraded) != topology_fingerprint(rrg)

    def test_arcs_match_links(self, rrg):
        degraded = apply_failures(
            rrg, FailureSpec.make("random_links", rate=0.2), seed=9
        )
        assert len(degraded.arcs()) == 2 * degraded.num_links

    def test_view_is_read_only(self, rrg):
        degraded = apply_failures(
            rrg, FailureSpec.make("random_links", rate=0.1), seed=9
        )
        u, v = degraded.links[0].endpoints()
        before = (topology_fingerprint(rrg), rrg.servers_at(u), rrg.cluster_of(u))
        for mutate in (
            lambda: degraded.add_switch("new"),
            lambda: degraded.add_link(u, v),
            lambda: degraded.remove_link(u, v),
            lambda: degraded.set_servers(u, 9),
            lambda: degraded.set_cluster(u, "left"),
        ):
            with pytest.raises(TopologyError, match="read-only view"):
                mutate()
        after = (topology_fingerprint(rrg), rrg.servers_at(u), rrg.cluster_of(u))
        assert after == before

    def test_view_reads_base_labels_live(self, rrg):
        view = degraded_view(rrg, failed_switches=(rrg.switches[-1],))
        node = rrg.switches[0]
        assert view.servers_at(node) == 3  # the view has filtered its base
        rrg.set_servers(node, 9)
        rrg.set_cluster(node, "left")
        assert view.servers_at(node) == 9
        assert view.nodes_in_cluster("left") == [node]

    def test_copy_is_mutable(self, rrg):
        degraded = apply_failures(
            rrg, FailureSpec.make("random_links", rate=0.1), seed=9
        )
        clone = degraded.copy()
        clone.add_switch("new")
        assert clone.num_switches == degraded.num_switches + 1

    def test_hand_built_view(self, rrg):
        link = rrg.links[0]
        view = degraded_view(rrg, failed_links=((link.u, link.v),))
        assert isinstance(view, DegradedTopology)
        assert view.num_links == rrg.num_links - 1

    def test_unknown_equipment_rejected(self, rrg):
        with pytest.raises(TopologyError, match="missing link"):
            degraded_view(rrg, failed_links=(("zz", "yy"),))
        with pytest.raises(TopologyError, match="missing switch"):
            degraded_view(rrg, failed_switches=("zz",))

    def test_non_spec_rejected(self, rrg):
        with pytest.raises(ExperimentError, match="FailureSpec"):
            apply_failures(rrg, "random_links", seed=1)
