"""Degraded-fabric demand policy across every solver backend.

The unified ``unreachable`` keyword is the contract that lets the
pipeline solve partitioned fabrics: ``"error"`` raises everywhere
(including ``edge_lp``, which historically returned a silent 0),
``"drop"`` solves over the served demand set and reports the drops.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import FlowError
from repro.flow.reachability import split_unreachable_demands
from repro.flow.result import ThroughputResult
from repro.flow.solvers import available_solvers, solve_throughput
from repro.resilience import FailureSpec, apply_failures
from repro.topology.base import Topology
from repro.topology.random_regular import random_regular_topology
from repro.traffic.base import TrafficMatrix
from repro.traffic.permutation import random_permutation_traffic

BACKENDS = ("edge_lp", "path_lp", "approx", "ecmp")


@pytest.fixture
def split_topo():
    """Two disjoint components: {a, b} and {c, d}, one server each."""
    topo = Topology("split")
    for v in "abcd":
        topo.add_switch(v, servers=1)
    topo.add_link("a", "b")
    topo.add_link("c", "d")
    return topo


@pytest.fixture
def mixed_traffic():
    """Two routable demands plus one cross-partition demand."""
    return TrafficMatrix(
        "mixed",
        demands={("a", "b"): 1.0, ("a", "c"): 1.0, ("c", "d"): 2.0},
        num_flows=4,
    )


def test_backends_cover_registry():
    # Estimator backends get the same unreachable-policy coverage in
    # tests/test_estimate_unreachable.py (including exact-parity checks),
    # and the fidelity simulation backends in tests/test_fidelity_solvers.py
    # and tests/test_fidelity_adapter.py; together the matrices must span
    # the whole registry.
    from repro.estimate import ESTIMATOR_BACKENDS
    from repro.flow.solvers import get_solver

    simulation = {
        name for name in available_solvers() if get_solver(name).simulation
    }
    covered = set(BACKENDS) | set(ESTIMATOR_BACKENDS) | simulation
    assert covered == set(available_solvers())


class TestErrorPolicy:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partition_raises(self, split_topo, mixed_traffic, backend):
        with pytest.raises(FlowError, match="no path"):
            solve_throughput(split_topo, mixed_traffic, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_missing_endpoint_raises(self, split_topo, backend):
        tm = TrafficMatrix("bad", demands={("a", "zz"): 1.0}, num_flows=1)
        with pytest.raises(FlowError, match="not a switch"):
            solve_throughput(split_topo, tm, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_policy_rejected(self, split_topo, mixed_traffic, backend):
        with pytest.raises(FlowError, match="unknown unreachable policy"):
            solve_throughput(
                split_topo, mixed_traffic, backend, unreachable="ignore"
            )


class TestDropPolicy:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serves_routable_subset(self, split_topo, mixed_traffic, backend):
        result = solve_throughput(
            split_topo, mixed_traffic, backend, unreachable="drop"
        )
        # Served demands: a->b (1 unit) and c->d (2 units), each component
        # one unit link: t = min(1/1, 1/2) = 0.5 for every backend here.
        assert result.throughput == pytest.approx(0.5, rel=1e-6)
        assert result.dropped_pairs == (("a", "c"),)
        assert result.dropped_demand == pytest.approx(1.0)
        assert result.num_dropped_pairs == 1
        assert result.total_demand == pytest.approx(3.0)
        assert result.offered_demand == pytest.approx(4.0)
        assert result.served_fraction == pytest.approx(0.75)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nothing_served(self, split_topo, backend):
        tm = TrafficMatrix(
            "cross", demands={("a", "c"): 1.0, ("b", "d"): 1.0}, num_flows=2
        )
        result = solve_throughput(split_topo, tm, backend, unreachable="drop")
        assert result.throughput == 0.0
        assert result.total_demand == 0.0
        assert len(result.dropped_pairs) == 2
        assert result.dropped_demand == pytest.approx(2.0)
        assert result.served_fraction == 0.0
        # Capacities still describe the (degraded) fabric.
        assert result.total_capacity == pytest.approx(4.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_intact_fabric_unaffected(
        self, small_rrg, small_rrg_traffic, backend
    ):
        plain = solve_throughput(small_rrg, small_rrg_traffic, backend)
        dropped = solve_throughput(
            small_rrg, small_rrg_traffic, backend, unreachable="drop"
        )
        assert dropped.throughput == plain.throughput
        assert dropped.dropped_pairs == ()
        assert dropped.dropped_demand == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failed_switch_endpoints_dropped(self, backend):
        topo = random_regular_topology(12, 4, servers_per_switch=1, seed=3)
        traffic = random_permutation_traffic(topo, seed=5)
        degraded = apply_failures(
            topo, FailureSpec.make("random_switches", rate=0.25), seed=8
        )
        result = solve_throughput(
            degraded, traffic, backend, unreachable="drop"
        )
        failed = set(degraded.failed_switches)
        assert result.dropped_pairs  # permutations touch every switch
        for u, v in result.dropped_pairs:
            assert u in failed or v in failed or not degraded.is_connected()
        served = result.total_demand
        assert served + result.dropped_demand == pytest.approx(
            traffic.total_demand
        )

    def test_dropped_pairs_survive_serialization(self, split_topo, mixed_traffic):
        result = solve_throughput(
            split_topo, mixed_traffic, "edge_lp", unreachable="drop"
        )
        restored = ThroughputResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored.dropped_pairs == result.dropped_pairs
        assert restored.dropped_demand == result.dropped_demand
        assert restored.throughput == result.throughput

    def test_intact_payload_unchanged(self, small_rrg, small_rrg_traffic):
        """Intact solves emit no new keys — PR 2 cache entries round trip."""
        result = solve_throughput(small_rrg, small_rrg_traffic, "edge_lp")
        payload = result.to_dict()
        assert "dropped_pairs" not in payload
        assert "dropped_demand" not in payload
        assert "truncated_pairs" not in payload


class TestSplitHelper:
    def test_no_drop_returns_same_matrix(self, small_rrg, small_rrg_traffic):
        served, dropped = split_unreachable_demands(
            small_rrg, small_rrg_traffic
        )
        assert served is small_rrg_traffic
        assert dropped == ()

    def test_partition_split(self, split_topo, mixed_traffic):
        served, dropped = split_unreachable_demands(split_topo, mixed_traffic)
        assert dropped == (("a", "c"),)
        assert set(served.demands) == {("a", "b"), ("c", "d")}
        # Offered-workload bookkeeping is preserved.
        assert served.num_flows == mixed_traffic.num_flows


def _band_backends() -> list:
    import inspect

    from repro.flow.solvers import get_solver

    return [
        name
        for name in available_solvers()
        if "error_band" in inspect.signature(get_solver(name).fn).parameters
    ]


def test_band_backends_include_every_estimator_and_simulation():
    from repro.flow.solvers import get_solver

    flagged = {
        name
        for name in available_solvers()
        if get_solver(name).estimate or get_solver(name).simulation
    }
    assert flagged <= set(_band_backends())


@pytest.mark.parametrize("backend", _band_backends())
class TestUnservedErrorBand:
    """A fully unserved result keeps the backend's band and estimate flag,
    and a bad band is rejected before the drop policy runs."""

    @pytest.fixture
    def crossing(self):
        return TrafficMatrix.from_server_pairs(
            [
                (("a", 0), ("c", 0)),
                (("c", 0), ("a", 0)),
                (("b", 0), ("d", 0)),
                (("d", 0), ("b", 0)),
            ],
            name="crossing",
        )

    def test_band_and_estimate_flag_kept(self, split_topo, crossing, backend):
        from repro.flow.solvers import get_solver

        result = solve_throughput(
            split_topo, crossing, backend, unreachable="drop",
            error_band=(0.5, 2.0),
        )
        assert result.throughput == 0.0
        assert result.served_fraction == 0.0
        assert result.is_estimate == get_solver(backend).estimate
        assert result.error_band == (0.5, 2.0)

    def test_bad_band_rejected(self, split_topo, crossing, backend):
        with pytest.raises(FlowError, match="error_band"):
            solve_throughput(
                split_topo, crossing, backend, unreachable="drop",
                error_band=(2.0, 1.0),
            )
