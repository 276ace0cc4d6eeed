"""Direct coverage of the traffic model zoo and its registry.

Checks the invariants the pipeline relies on: demand conservation,
determinism under a fixed seed, and correct switch-level aggregation of
server-level patterns — for gravity, hotspot, stride, and the adversarial
longest-matching generator, plus registry-driven construction.
"""

from __future__ import annotations

import pytest

from repro.exceptions import TrafficError
from repro.metrics.paths import all_pairs_shortest_lengths
from repro.topology.base import Topology
from repro.topology.random_regular import random_regular_topology
from repro.traffic.adversarial import longest_matching_traffic
from repro.traffic.gravity import gravity_traffic
from repro.traffic.hotspot import hotspot_traffic
from repro.traffic.registry import (
    available_traffic_models,
    make_traffic,
    register_traffic_model,
)
from repro.traffic.stride import stride_traffic


@pytest.fixture
def rrg():
    return random_regular_topology(10, 4, servers_per_switch=3, seed=5)


@pytest.fixture
def uneven():
    """A path of 4 switches with unequal server populations."""
    topo = Topology("uneven")
    for v, servers in enumerate((1, 3, 0, 2)):
        topo.add_switch(v, servers=servers)
    for u in range(3):
        topo.add_link(u, u + 1)
    return topo


class TestGravity:
    def test_per_source_conservation(self, uneven):
        tm = gravity_traffic(uneven)
        # Every switch originates exactly servers(u) units in total.
        for u in uneven.switches:
            sent = sum(
                units for (src, _), units in tm.demands.items() if src == u
            )
            assert sent == pytest.approx(uneven.servers_at(u))

    def test_serverless_switches_excluded(self, uneven):
        tm = gravity_traffic(uneven)
        for u, v in tm.demands:
            assert uneven.servers_at(u) > 0
            assert uneven.servers_at(v) > 0

    def test_deterministic(self, rrg):
        assert gravity_traffic(rrg).demands == gravity_traffic(rrg).demands

    def test_total_demand(self, rrg):
        tm = gravity_traffic(rrg)
        assert tm.total_demand == pytest.approx(rrg.num_servers)

    def test_needs_two_populated_switches(self):
        topo = Topology("lonely")
        topo.add_switch(0, servers=5)
        topo.add_switch(1, servers=0)
        topo.add_link(0, 1)
        with pytest.raises(TrafficError):
            gravity_traffic(topo)


class TestHotspot:
    def test_deterministic_under_seed(self, rrg):
        a = hotspot_traffic(rrg, num_hotspots=2, seed=11)
        b = hotspot_traffic(rrg, num_hotspots=2, seed=11)
        assert a.demands == b.demands
        assert a.server_pairs == b.server_pairs

    def test_seed_changes_pattern(self, rrg):
        a = hotspot_traffic(rrg, num_hotspots=2, seed=11)
        b = hotspot_traffic(rrg, num_hotspots=2, seed=12)
        assert a.demands != b.demands

    def test_sender_fraction_counts(self, rrg):
        tm = hotspot_traffic(rrg, num_hotspots=1, sender_fraction=0.5, seed=3)
        total = rrg.num_servers
        expected = max(1, round(0.5 * (total - 1)))
        assert tm.num_flows == expected

    def test_all_flows_target_hotspots(self, rrg):
        tm = hotspot_traffic(rrg, num_hotspots=2, seed=7)
        destinations = {dst for _, dst in tm.server_pairs}
        assert len(destinations) <= 2

    def test_aggregation_matches_pairs(self, rrg):
        tm = hotspot_traffic(rrg, num_hotspots=3, seed=9)
        recomputed: dict = {}
        local = 0
        for (su, _), (sv, _) in tm.server_pairs:
            if su == sv:
                local += 1
                continue
            recomputed[(su, sv)] = recomputed.get((su, sv), 0.0) + 1.0
        assert recomputed == tm.demands
        assert local == tm.num_local_flows


class TestStride:
    def test_mapping(self, rrg):
        tm = stride_traffic(rrg, stride=1)
        total = rrg.num_servers
        assert tm.num_flows == total
        # A stride permutation: every server sends once and receives once.
        sources = [src for src, _ in tm.server_pairs]
        destinations = [dst for _, dst in tm.server_pairs]
        assert len(set(sources)) == total
        assert len(set(destinations)) == total

    def test_demand_conservation(self, rrg):
        tm = stride_traffic(rrg, stride=7)
        assert tm.total_demand + tm.num_local_flows == tm.num_flows

    def test_deterministic(self, rrg):
        assert (
            stride_traffic(rrg, stride=4).demands
            == stride_traffic(rrg, stride=4).demands
        )

    def test_degenerate_stride_rejected(self, rrg):
        with pytest.raises(TrafficError, match="multiple"):
            stride_traffic(rrg, stride=rrg.num_servers)


class TestLongestMatching:
    def test_is_permutation(self, rrg):
        tm = longest_matching_traffic(rrg, seed=2)
        sources = [src for src, _ in tm.server_pairs]
        destinations = [dst for _, dst in tm.server_pairs]
        assert len(set(sources)) == rrg.num_servers
        assert len(set(destinations)) == rrg.num_servers
        for src, dst in tm.server_pairs:
            assert src != dst

    def test_deterministic_under_seed(self, rrg):
        a = longest_matching_traffic(rrg, seed=2)
        b = longest_matching_traffic(rrg, seed=2)
        assert a.demands == b.demands

    def test_longer_than_random_on_average(self, rrg):
        distances = all_pairs_shortest_lengths(rrg)

        def mean_hop(tm):
            total = 0.0
            for (su, _), (sv, _) in tm.server_pairs:
                total += distances[su].get(sv, 0)
            return total / len(tm.server_pairs)

        from repro.traffic.permutation import random_permutation_traffic

        adversarial = mean_hop(longest_matching_traffic(rrg, seed=2))
        random_mean = sum(
            mean_hop(random_permutation_traffic(rrg, seed=s)) for s in range(5)
        ) / 5
        assert adversarial >= random_mean


class TestRegistry:
    def test_expected_models_registered(self):
        models = available_traffic_models()
        for name in (
            "permutation",
            "switch-permutation",
            "all-to-all",
            "stride",
            "hotspot",
            "gravity",
            "chunky",
            "longest-matching",
        ):
            assert name in models

    def test_every_model_builds(self, rrg):
        for name in available_traffic_models():
            tm = make_traffic(name, rrg, seed=3)
            assert tm.total_demand > 0

    def test_deterministic_under_seed(self, rrg):
        for name in available_traffic_models():
            a = make_traffic(name, rrg, seed=17)
            b = make_traffic(name, rrg, seed=17)
            assert a.demands == b.demands, name

    def test_deterministic_flag_is_machine_checked(self, rrg):
        """Exactly the seedless models ignore their seed.

        All-to-all, gravity and stride must build one matrix for any
        seed; every other model must vary across seeds for at least
        some draw.
        """
        seedless = {"all-to-all", "gravity", "stride"}
        assert seedless <= set(available_traffic_models())
        for name in available_traffic_models():
            draws = [make_traffic(name, rrg, seed=seed) for seed in range(4)]
            if name in seedless:
                for other in draws[1:]:
                    assert other.demands == draws[0].demands, (
                        f"{name} is seedless but varies with seed"
                    )
            else:
                assert any(
                    other.demands != draws[0].demands for other in draws[1:]
                ), f"{name} is seeded but never varies with seed"

    def test_params_forwarded(self, rrg):
        tm = make_traffic("stride", rrg, stride=3)
        assert tm.name == "stride-3"
        tm = make_traffic("chunky", rrg, chunky_fraction=1.0, seed=1)
        assert tm.total_demand > 0

    def test_underscore_names_accepted(self, rrg):
        tm = make_traffic("all_to_all", rrg)
        assert tm.name == "all-to-all"

    def test_unknown_model_rejected(self, rrg):
        with pytest.raises(TrafficError, match="unknown traffic model"):
            make_traffic("carrier-pigeon", rrg)

    def test_custom_registration(self, rrg):
        def fixed(topo, seed=None, **params):
            from repro.traffic.base import TrafficMatrix

            switches = [v for v in topo.switches][:2]
            return TrafficMatrix(
                name="fixed",
                demands={(switches[0], switches[1]): 1.0},
                num_flows=1,
            )

        register_traffic_model("fixed-test-model", fixed)
        try:
            tm = make_traffic("fixed-test-model", rrg)
            assert tm.total_demand == 1.0
            with pytest.raises(TrafficError, match="already registered"):
                register_traffic_model("fixed-test-model", fixed)
        finally:
            from repro.traffic import registry

            registry._REGISTRY.pop("fixed-test-model", None)
