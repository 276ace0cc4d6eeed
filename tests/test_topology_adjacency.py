"""``Topology.adjacency()``: the one CSR every array consumer reads.

Pins it, array for array, against networkx's conversion of
:meth:`Topology.to_networkx`, which each consumer used to make on its
own: on one instance of every registered topology
kind (the kinds of ``tests/golden/instance_fingerprints.json``) and on a
degraded view of every failure model. Also pins the memo: built once,
dropped by each mutation method and, for a view, by a mutation of its
base.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
import pytest

from instance_golden import GOLDEN_PATH, cases
from repro.exceptions import TopologyError
from repro.metrics.spectral import _adjacency
from repro.resilience import FAILURE_MODELS, FailureSpec
from repro.resilience.inject import DegradedTopology, apply_failures, degraded_view
from repro.topology import make_topology

TOPOLOGY_CASES = [
    (name.split(":", 1)[1], scenario)
    for name, _, scenario in cases()
    if name.startswith("topology:")
]


def _conversion(topo, weight):
    return nx.to_scipy_sparse_array(
        topo.to_networkx(),
        nodelist=topo.switches,
        weight=weight,
        dtype=float,
        format="csr",
    )


def _assert_same_csr(ours, theirs) -> None:
    assert ours.shape == theirs.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(ours, field), getattr(theirs, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)


def _assert_matches_networkx(topo) -> None:
    _assert_same_csr(topo.adjacency(), _conversion(topo, "capacity"))
    # The unweighted structure `_sparse_fiedler_pair(weighted=False)`
    # and the dense spectral measures read.
    _assert_same_csr(_adjacency(topo, weighted=False), _conversion(topo, None))


def test_cases_cover_every_registered_kind():
    golden = json.loads(GOLDEN_PATH.read_text())
    kinds = sorted(kind for kind, _ in TOPOLOGY_CASES)
    assert kinds == sorted(golden["topology_kinds"])
    assert len(kinds) == 23


@pytest.mark.parametrize(
    "scenario", [s for _, s in TOPOLOGY_CASES], ids=[k for k, _ in TOPOLOGY_CASES]
)
def test_every_kind_matches_networkx(scenario):
    topo, _ = scenario.build()
    _assert_matches_networkx(topo)


@pytest.fixture
def rrg():
    return make_topology(
        "rrg", num_switches=10, network_degree=4, servers_per_switch=2, seed=7
    )


@pytest.mark.parametrize("model", FAILURE_MODELS)
def test_degraded_view_matches_networkx(rrg, model):
    if model == "none":
        view = degraded_view(rrg)
    else:
        view = apply_failures(rrg, FailureSpec(model, 0.25), seed=7)
    assert isinstance(view, DegradedTopology)
    _assert_matches_networkx(view)


class TestMemo:
    def test_built_once(self, triangle):
        assert triangle.adjacency() is triangle.adjacency()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda topo: topo.add_switch("new"),
            lambda topo: topo.add_link(0, 1, capacity=2.0),
            lambda topo: topo.remove_link(0, 1),
        ],
        ids=["add_switch", "add_link", "remove_link"],
    )
    def test_each_mutation_drops_it(self, triangle, mutate):
        first = triangle.adjacency()
        mutate(triangle)
        again = triangle.adjacency()
        assert again is not first
        _assert_same_csr(again, _conversion(triangle, "capacity"))

    def test_labels_keep_it(self, triangle):
        first = triangle.adjacency()
        triangle.set_servers(0, 4)
        triangle.set_cluster(0, "left")
        assert triangle.adjacency() is first

    def test_component_labels_live_in_it(self, triangle):
        labels = triangle.component_labels()
        assert triangle.component_labels() is labels
        assert triangle.is_connected()
        triangle.remove_link(0, 1)
        triangle.remove_link(0, 2)
        assert triangle.component_labels().tolist() == [0, 1, 1]
        assert not triangle.is_connected()

    def test_copy_builds_its_own(self, triangle):
        first = triangle.adjacency()
        clone = triangle.copy()
        clone.add_link(0, 1)
        assert triangle.adjacency() is first
        assert clone.adjacency()[0, 1] == 2.0

    def test_base_mutation_drops_a_views_copy(self, rrg):
        u, v = rrg.links[0].endpoints()
        view = degraded_view(rrg, failed_links=[(u, v)])
        nested = degraded_view(view, failed_switches=[rrg.switches[-1]])
        first, nested_first = view.adjacency(), nested.adjacency()
        assert view.adjacency() is first
        assert nested.adjacency() is nested_first
        a, b = next(
            (a, b)
            for a in rrg.switches
            for b in rrg.switches
            if a != b and not rrg.has_link(a, b) and {a, b}.isdisjoint({u, v})
        )
        rrg.add_link(a, b)
        assert view.adjacency() is not first
        assert nested.adjacency() is not nested_first
        _assert_matches_networkx(view)
        _assert_matches_networkx(nested)

    def test_view_refuses_add_link_and_base_memo_holds(self, rrg):
        u, v = rrg.links[0].endpoints()
        view = degraded_view(rrg)
        first = rrg.adjacency()
        with pytest.raises(TopologyError, match="read-only view"):
            view.add_link(u, v)
        assert rrg.capacity(u, v) == 1.0
        assert rrg.adjacency() is first
