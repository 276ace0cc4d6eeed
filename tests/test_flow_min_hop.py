"""The exact LP's cold-solve method and its least-volume second stage.

Cold solves run interior point with crossover, which reaches the simplex
optimum but may return a different optimal flow; :func:`min_hop_flow`
makes the flow canonical for the callers that read it.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import textwrap

import pytest
from scipy.optimize import OptimizeResult

import repro.flow.edge_lp as edge_lp
from repro.exceptions import SolverError
from repro.flow.edge_lp import DEFAULT_METHOD, max_concurrent_flow, min_hop_flow
from repro.flow.incremental import EdgeLPModel
from repro.metrics.paths import demand_hop_sum
from repro.resilience import FailureSpec, apply_failures
from repro.topology.fattree import fat_tree_topology
from repro.topology.heterogeneous import mixed_linespeed_topology
from repro.topology.random_regular import random_regular_topology
from repro.topology.two_cluster import two_cluster_random_topology
from repro.topology.vl2 import vl2_topology
from repro.traffic.alltoall import all_to_all_traffic
from repro.traffic.permutation import random_permutation_traffic


def _rrg(seed: int = 3):
    topo = random_regular_topology(16, 4, servers_per_switch=2, seed=seed)
    return topo, random_permutation_traffic(topo, seed=seed + 10)


def _rrg_all_to_all():
    topo = random_regular_topology(12, 4, servers_per_switch=2, seed=5)
    return topo, all_to_all_traffic(topo)


def _two_cluster():
    topo = two_cluster_random_topology(
        num_large=4,
        large_network_ports=6,
        num_small=8,
        small_network_ports=3,
        servers_per_large=4,
        servers_per_small=2,
        cross_fraction=0.3,
        clamp_cross=True,
        seed=23,
    )
    return topo, random_permutation_traffic(topo, seed=4)


def _mixed_linespeed():
    topo = mixed_linespeed_topology(
        num_large=6,
        large_low_ports=5,
        num_small=6,
        small_low_ports=3,
        servers_per_large=3,
        servers_per_small=1,
        high_ports_per_large=2,
        high_speed=4.0,
        seed=4,
    )
    return topo, random_permutation_traffic(topo, seed=9)


#: The families the second stage is checked on.
FAMILIES = {
    "rrg": _rrg,
    "rrg-all-to-all": _rrg_all_to_all,
    "two-cluster": _two_cluster,
    "mixed-linespeed": _mixed_linespeed,
}


class TestMinHopFlow:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_keeps_throughput_and_least_volume(self, family):
        topo, traffic = FAMILIES[family]()
        first = max_concurrent_flow(topo, traffic)
        flow = min_hop_flow(topo, traffic, first)
        assert flow.throughput == first.throughput
        flow.validate_feasibility()
        assert flow.total_flow_volume <= first.total_flow_volume * (1 + 1e-9)
        # Every delivered unit crosses at least its hop distance.
        floor = first.throughput * demand_hop_sum(topo, traffic)
        assert flow.total_flow_volume >= floor * (1 - 1e-9)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_volume_does_not_depend_on_first_stage_method(self, family):
        topo, traffic = FAMILIES[family]()
        volumes = [
            min_hop_flow(
                topo, traffic, max_concurrent_flow(topo, traffic, method=method)
            ).total_flow_volume
            for method in ("highs", "highs-ipm")
        ]
        assert volumes[0] == pytest.approx(volumes[1], rel=1e-9)

    def test_commodity_flows_are_the_second_stage(self):
        topo, traffic = _rrg()
        kept = max_concurrent_flow(topo, traffic, keep_commodity_flows=True)
        flow = min_hop_flow(topo, traffic, max_concurrent_flow(topo, traffic))
        assert kept.throughput == flow.throughput
        assert kept.arc_flows == flow.arc_flows
        assert kept.commodity_flows == flow.commodity_flows

    def test_keeps_dropped_pairs(self):
        topo = random_regular_topology(12, 4, servers_per_switch=1, seed=3)
        traffic = random_permutation_traffic(topo, seed=5)
        degraded = apply_failures(
            topo, FailureSpec.make("random_switches", rate=0.25), seed=8
        )
        first = max_concurrent_flow(degraded, traffic, unreachable="drop")
        assert first.dropped_pairs
        flow = min_hop_flow(degraded, traffic, first)
        assert flow.throughput == first.throughput
        assert flow.dropped_pairs == first.dropped_pairs
        assert flow.dropped_demand == first.dropped_demand
        assert flow.total_demand == first.total_demand
        flow.validate_feasibility()

    def test_failed_solve_raises(self, monkeypatch):
        topo, traffic = _rrg()
        first = max_concurrent_flow(topo, traffic)
        monkeypatch.setattr(
            edge_lp,
            "linprog",
            lambda **_: OptimizeResult(success=False, message="stub failure"),
        )
        with pytest.raises(SolverError, match="stub failure"):
            min_hop_flow(topo, traffic, first)


def _perpair():
    topo, traffic = _rrg(seed=6)
    return topo, traffic, {"aggregate_by_source": False}


def _fat_tree():
    topo = fat_tree_topology(4)
    return topo, random_permutation_traffic(topo, seed=7), {}


def _vl2():
    topo = vl2_topology(4, 4, servers_per_tor=4)
    return topo, random_permutation_traffic(topo, seed=2), {}


def _degraded():
    topo = random_regular_topology(16, 4, servers_per_switch=2, seed=2)
    degraded = apply_failures(
        topo, FailureSpec.make("random_switches", rate=0.25), seed=1
    )
    return degraded, random_permutation_traffic(topo, seed=3), {
        "unreachable": "drop"
    }


#: Instances whose default-method optimum must match simplex's.
SWAP_INSTANCES = {
    **{name: (lambda f=f: (*f(), {})) for name, f in FAMILIES.items()},
    "fat-tree": _fat_tree,
    "vl2": _vl2,
    "degraded-drop": _degraded,
    "per-pair": _perpair,
}


class TestSolverSwap:
    def test_one_default_method(self):
        assert DEFAULT_METHOD == "highs-ipm"
        for fn in (max_concurrent_flow, EdgeLPModel):
            default = inspect.signature(fn).parameters["method"].default
            assert default is DEFAULT_METHOD

    @pytest.mark.parametrize("name", sorted(SWAP_INSTANCES))
    def test_default_matches_simplex_optimum(self, name):
        topo, traffic, kwargs = SWAP_INSTANCES[name]()
        default = max_concurrent_flow(topo, traffic, **kwargs)
        simplex = max_concurrent_flow(topo, traffic, method="highs", **kwargs)
        assert default.throughput == pytest.approx(simplex.throughput, rel=1e-12)
        assert default.dropped_pairs == simplex.dropped_pairs
        if name == "degraded-drop":
            assert default.dropped_pairs

    def test_default_is_cross_process_deterministic(self):
        """Content-addressed cache entries rely on every process solving
        an instance to the same bits, whatever its hash seed."""
        script = textwrap.dedent(
            """
            from repro.flow.edge_lp import max_concurrent_flow
            from repro.topology.random_regular import random_regular_topology
            from repro.traffic.permutation import random_permutation_traffic

            topo = random_regular_topology(16, 4, servers_per_switch=2, seed=3)
            traffic = random_permutation_traffic(topo, seed=13)
            result = max_concurrent_flow(topo, traffic)
            print(result.throughput.hex())
            for (u, v), flow in sorted(result.arc_flows.items()):
                print(u, v, flow.hex())
            """
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = set()
        for hash_seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, outputs
