"""Pinned instances behind ``tests/golden/instance_fingerprints.json``.

The result cache's instance index maps a cell's specs to the
fingerprints its build produced (see
``repro.pipeline.engine.indexed_cells``). This module pins one small
instance per registered topology kind (aliases included), per traffic
model (on one small RRG, and again on a small VL2, whose switch ids are
strings) and per failure model, and records each case's fingerprints.
``tests/test_golden_instances.py`` fails, naming the kind, when one
moves, and when a case builds differently under another
``PYTHONHASHSEED``.

Content fingerprints sort links, so they cannot see the order in which
a topology lists them, which every LP column, cut sum and anneal pick
follows. Each case therefore also records an ``order_fp``: a digest of
``arcs()`` and of each switch's ``neighbors()``, on the built topology
and on its ``copy()``.

Usage, from the repository root::

    PYTHONPATH=src python tests/instance_golden.py            # print JSON
    PYTHONPATH=src python tests/instance_golden.py --record   # re-record

Re-record only after a deliberate change to what a kind builds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.flow.solvers import SolverConfig
from repro.pipeline.fingerprint import topology_fingerprint, traffic_fingerprint
from repro.pipeline.scenario import Scenario, TopologySpec, TrafficSpec
from repro.resilience import FAILURE_MODELS, FailureSpec
from repro.topology.registry import available_topologies
from repro.topology.serialization import encode_node
from repro.traffic.registry import available_traffic_models
from repro.util.hashing import stable_digest

GOLDEN_PATH = Path(__file__).parent / "golden" / "instance_fingerprints.json"

#: Every case's cell seed (the grid derives one per cell; any fixed one
#: pins the seeded builders).
SEED = 7

_RRG = {"num_switches": 8, "network_degree": 3, "servers_per_switch": 2}

#: One small, fast instance per registered topology kind.
TOPOLOGY_PARAMS = {
    "rrg": _RRG,
    "random-regular": _RRG,
    "jellyfish": _RRG,
    # A handful of anneal steps keeps the case cheap.
    "optimized": {**_RRG, "steps": 20},
    "grown": {
        "num_switches": 10,
        "network_degree": 3,
        "servers_per_switch": 2,
        "start_switches": 8,
        "num_stages": 2,
    },
    "two-cluster": {
        "num_large": 4,
        "large_network_ports": 4,
        "num_small": 4,
        "small_network_ports": 3,
        "servers_per_large": 2,
        "servers_per_small": 1,
    },
    "heterogeneous": {
        "port_counts": {"a": 3, "b": 3, "c": 3, "d": 3, "e": 4, "f": 4},
        "servers": {"a": 1, "b": 1, "c": 1, "d": 1, "e": 2, "f": 2},
    },
    "power-law": {
        "num_switches": 10,
        "min_ports": 3,
        "max_ports": 6,
        "total_servers": 12,
    },
    "matched-random": {"k": 4},
    "mixed-linespeed": {
        "num_large": 4,
        "large_low_ports": 4,
        "num_small": 4,
        "small_low_ports": 3,
        "servers_per_large": 2,
        "servers_per_small": 1,
        "high_ports_per_large": 1,
        "high_speed": 4.0,
    },
    "vl2": {"da": 4, "di": 4, "servers_per_tor": 2},
    "rewired-vl2": {"da": 4, "di": 4, "num_tors": 4, "servers_per_tor": 2},
    "fat-tree": {"k": 4},
    "leaf-spine": {"num_leaves": 4, "num_spines": 2, "servers_per_leaf": 2},
    "folded-clos": {"num_leaves": 4, "num_spines": 2, "servers_per_leaf": 4},
    "hypercube": {"dimension": 3, "servers_per_switch": 1},
    "torus": {"dims": [3, 4], "servers_per_switch": 1},
    "complete": {"num_switches": 5, "servers_per_switch": 1},
    "complete-bipartite": {
        "num_left": 3,
        "num_right": 3,
        "servers_per_left": 1,
    },
    "small-world": {
        "num_switches": 10,
        "nearest_neighbors": 4,
        "servers_per_switch": 1,
    },
    "bcube": {"n": 3, "k": 1},
    "flattened-butterfly": {"k": 3, "servers_per_switch": 1},
    "dragonfly": {"routers_per_group": 3},
}

#: Traffic models that need params beyond the registry's defaults.
TRAFFIC_PARAMS = {"stride": {"stride": 3}}

#: A fabric with string switch ids: a builder that iterates a set of
#: them draws in an order that follows PYTHONHASHSEED.
_VL2 = {"da": 4, "di": 4, "servers_per_tor": 2}

#: The failure cases' fabric, and the rate of every non-null model.
_FAILURE_RRG = {"num_switches": 10, "network_degree": 4, "servers_per_switch": 2}
FAILURE_RATE = 0.25


def _scenario(topology: str, params: dict, traffic: str, failure=None) -> Scenario:
    return Scenario(
        topology=TopologySpec(topology, tuple(params.items())),
        traffic=TrafficSpec.make(traffic, **TRAFFIC_PARAMS.get(traffic, {})),
        solver=SolverConfig("edge_lp"),
        size=None,
        replicate=0,
        seed=SEED,
        failure=failure,
    )


def cases() -> "list[tuple[str, str, Scenario]]":
    """``(name, subject, scenario)`` for every pinned case."""
    out = []
    for kind, params in TOPOLOGY_PARAMS.items():
        out.append(
            (
                f"topology:{kind}",
                f"topology kind {kind!r}",
                _scenario(kind, params, "permutation"),
            )
        )
    for model in available_traffic_models():
        out.append(
            (
                f"traffic:{model}",
                f"traffic model {model!r}",
                _scenario("rrg", _RRG, model),
            )
        )
    for model in available_traffic_models():
        out.append(
            (
                f"traffic-vl2:{model}",
                f"traffic model {model!r} on vl2",
                _scenario("vl2", _VL2, model),
            )
        )
    for model in FAILURE_MODELS:
        rate = 0.0 if model == "none" else FAILURE_RATE
        out.append(
            (
                f"failure:{model}",
                f"failure model {model!r}",
                _scenario(
                    "rrg", _FAILURE_RRG, "permutation", FailureSpec(model, rate)
                ),
            )
        )
    return out


def order_fingerprint(topo) -> str:
    """Digest of the orders a content fingerprint cannot see: the
    ``arcs()`` list and each switch's ``neighbors()``, on ``topo`` and
    on ``topo.copy()``."""

    def orders(t) -> dict:
        return {
            "arcs": [[encode_node(u), encode_node(v), cap] for u, v, cap in t.arcs()],
            "neighbors": [
                [encode_node(node), [encode_node(n) for n in t.neighbors(node)]]
                for node in t.switches
            ],
        }

    return stable_digest([orders(topo), orders(topo.copy())])


def compute() -> dict:
    """Build every case the way a grid cell builds, and fingerprint it.

    Also lists the registry's names, so a check run in a fresh process
    can tell whether every registered kind and model has a case.
    """
    records = []
    for name, subject, scenario in cases():
        topo, traffic = scenario.build()
        records.append(
            {
                "name": name,
                "subject": subject,
                "topology_fp": topology_fingerprint(topo),
                "traffic_fp": traffic_fingerprint(traffic),
                "order_fp": order_fingerprint(topo),
            }
        )
    return {
        "topology_kinds": available_topologies(),
        "traffic_models": available_traffic_models(),
        "failure_models": list(FAILURE_MODELS),
        "cases": records,
    }


def main(argv: "list[str]") -> None:
    payload = compute()
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if "--record" in argv:
        GOLDEN_PATH.write_text(text)
        print(f"recorded {len(payload['cases'])} cases to {GOLDEN_PATH}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
