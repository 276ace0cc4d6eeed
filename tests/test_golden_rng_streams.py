"""Bit-exact goldens for the builder RNG stream and edge-LP solutions.

The vectorized builder fill (``_AliveIndex`` Fenwick sampling) and the
COO-assembled edge LP were required to be **byte-identical** refactors:
same RNG draws, same edge lists, same optimizer input, same floats out.
These goldens were captured from the pre-refactor code; any future
change that shifts the builder's RNG stream or the LP's assembled
system (even reordering constraint rows can move HiGHS to a different
vertex of a degenerate optimum) shows up here as a deliberate,
reviewed golden update instead of a silent behavior change.
"""

from __future__ import annotations

import hashlib
import json
from ast import literal_eval
from pathlib import Path

import pytest

from repro.flow.edge_lp import max_concurrent_flow
from repro.topology.builders import random_graph_from_degrees
from repro.topology.random_regular import random_regular_topology
from repro.traffic.alltoall import all_to_all_traffic
from repro.traffic.permutation import random_permutation_traffic

GOLDEN = Path(__file__).parent / "golden"


def _builder_cases():
    payload = json.loads((GOLDEN / "builder_edges.json").read_text())
    return payload["cases"]


def _lp_cases():
    payload = json.loads((GOLDEN / "edge_lp_solutions.json").read_text())
    return payload["cases"]


@pytest.mark.parametrize(
    "case", _builder_cases(), ids=lambda case: case["name"]
)
def test_builder_edge_stream_is_frozen(case):
    if case["degree_pairs"] is None:
        # The RRG case ties the builder to the topology layer.
        topo = random_regular_topology(40, 6, servers_per_switch=2, seed=9)
        links = sorted((repr(link.u), repr(link.v)) for link in topo.links)
        digest = hashlib.sha256(repr(links).encode()).hexdigest()
        assert len(links) == case["num_edges"]
    else:
        degrees = {
            literal_eval(node): degree
            for node, degree in case["degree_pairs"]
        }
        edges = random_graph_from_degrees(degrees, rng=case["seed"])
        assert len(edges) == case["num_edges"], case["name"]
        digest = hashlib.sha256(repr(edges).encode()).hexdigest()
    assert digest == case["digest"], case["name"]


def _lp_instances():
    topo12 = random_regular_topology(12, 4, servers_per_switch=3, seed=7)
    topo16 = random_regular_topology(16, 5, servers_per_switch=2, seed=21)
    return {
        "rrg12-perm": (topo12, random_permutation_traffic(topo12, seed=13)),
        "rrg12-a2a": (topo12, all_to_all_traffic(topo12)),
        "rrg16-perm": (topo16, random_permutation_traffic(topo16, seed=22)),
    }


@pytest.mark.parametrize("case", _lp_cases(), ids=lambda case: case["name"])
def test_edge_lp_solution_is_frozen(case):
    instances = _lp_instances()
    base = case["name"]
    for suffix in ("-ipm", "-perpair", "-commodity"):
        base = base.removesuffix(suffix)
    topo, traffic = instances[base]
    result = max_concurrent_flow(topo, traffic, **case["kwargs"])
    assert result.throughput.hex() == case["throughput"]
    assert result.total_demand.hex() == case["total_demand"]
    flows = {
        f"{u!r}->{v!r}": value.hex()
        for (u, v), value in result.arc_flows.items()
    }
    assert flows == case["arc_flows"]
    if "commodity_flows" in case:
        assert result.commodity_flows is not None
        observed = {
            repr(source): {
                f"{u!r}->{v!r}": value.hex()
                for (u, v), value in flows_by_arc.items()
            }
            for source, flows_by_arc in result.commodity_flows.items()
        }
        assert observed == case["commodity_flows"]
    else:
        assert result.commodity_flows is None
