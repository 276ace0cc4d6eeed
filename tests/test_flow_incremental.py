"""Differential and property tests for the reusable :class:`EdgeLPModel`.

Trace replay advances one model by demand deltas instead of solving
every step cold; the model's correctness contract is "after any
sequence of ``apply_demand_delta`` calls, its optimum equals a cold
:func:`~repro.flow.edge_lp.max_concurrent_flow` solve of the edited
instance". The tests here pin that at 1e-9 over VDC traces and drawn
delta streams, warm restarts included. An unedited model solves the
very LP ``max_concurrent_flow`` does, so the two agree bit for bit. The
property tests pin that a delta followed by its inverse restores the LP
and that a solve after a delta restarts from the kept basis.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.flow.incremental as incremental
from repro.exceptions import FlowError
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.highs import linprog
from repro.flow.incremental import (
    EdgeLPModel,
    model_stats,
    reset_model_stats,
)
from repro.topology.fattree import fat_tree_topology
from repro.topology.random_regular import random_regular_topology
from repro.traffic.alltoall import all_to_all_traffic
from repro.traffic.permutation import random_permutation_traffic

TOL = 1e-9


def _instance(num_switches: int, degree: int = 4, seed: int = 0):
    topo = random_regular_topology(
        num_switches, degree, servers_per_switch=2, seed=seed
    )
    traffic = random_permutation_traffic(topo, seed=seed + 100)
    return topo, traffic


class TestSameLPAsColdSolver:
    """An unmutated model solves exactly ``max_concurrent_flow``'s LP."""

    @staticmethod
    def _assert_bit_identical(topo, traffic, method):
        warm = EdgeLPModel(topo, traffic, method=method).solve_result()
        cold = max_concurrent_flow(topo, traffic, method=method)
        assert warm.throughput == cold.throughput
        assert warm.arc_flows == cold.arc_flows

    @pytest.mark.parametrize("method", ["highs", "highs-ipm"])
    @pytest.mark.parametrize("pattern", ["permutation", "all_to_all"])
    @pytest.mark.parametrize("num_switches", [12, 16, 20])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_regular(self, num_switches, seed, pattern, method):
        topo = random_regular_topology(
            num_switches, 4, servers_per_switch=2, seed=seed
        )
        if pattern == "permutation":
            traffic = random_permutation_traffic(topo, seed=seed + 100)
        else:
            traffic = all_to_all_traffic(topo)
        self._assert_bit_identical(topo, traffic, method)

    @pytest.mark.parametrize("method", ["highs", "highs-ipm"])
    def test_fat_tree(self, method):
        topo = fat_tree_topology(4)
        traffic = random_permutation_traffic(topo, seed=7)
        self._assert_bit_identical(topo, traffic, method)


class TestDemandDeltas:
    """Warm demand-delta application == cold rebuilds, plus slot rules."""

    def _timeline_instance(self, seed: int = 11, steps: int = 12):
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

    def test_delta_stream_matches_cold_solves(self):
        """Warm-advance a VDC trace; every step equals a cold solve."""
        topo, timeline = self._timeline_instance()
        model = EdgeLPModel(topo, timeline.base, sources="all")
        for step in range(1, timeline.num_steps):
            model.apply_demand_delta(timeline.deltas[step - 1])
            cold = max_concurrent_flow(topo, timeline.matrix_at(step))
            assert abs(model.solve() - cold.throughput) <= TOL, f"step {step}"
            assert model.total_demand == pytest.approx(
                sum(timeline.matrix_at(step).demands.values())
            )
        assert model.num_demand_deltas == timeline.num_steps - 1

    def test_apply_then_inverse_restores_lp(self, recorder):
        from repro.traffic.timeline import DemandDelta

        topo, timeline = self._timeline_instance(seed=3)
        model = EdgeLPModel(topo, timeline.base, sources="all")
        total = model.total_demand
        switches = topo.switches
        delta = DemandDelta.adding(
            {(switches[0], switches[5]): 2.0, (switches[1], switches[2]): 1.0}
        )
        model.solve()
        model.apply_demand_delta(delta)
        assert model.total_demand == pytest.approx(total + 3.0)
        model.apply_demand_delta(delta.inverse())
        model.solve()
        before, after = recorder.calls
        for key in ("c", "b_ub", "b_eq"):
            assert np.array_equal(before[key], after[key]), key
        for key in ("A_ub", "A_eq"):
            assert np.array_equal(
                before[key].toarray(), after[key].toarray()
            ), key
        assert model.total_demand == pytest.approx(total)

    def test_new_source_needs_sources_all(self):
        from repro.traffic.base import TrafficMatrix
        from repro.traffic.timeline import DemandDelta

        topo = random_regular_topology(10, 4, servers_per_switch=2, seed=2)
        a, b, c = topo.switches[:3]
        traffic = TrafficMatrix(name="one", demands={(a, b): 2.0}, num_flows=2)
        delta = DemandDelta.adding({(c, a): 1.0})

        narrow = EdgeLPModel(topo, traffic)
        with pytest.raises(FlowError, match="new source"):
            narrow.apply_demand_delta(delta)

        wide = EdgeLPModel(topo, traffic, sources="all")
        wide.apply_demand_delta(delta)
        grown = delta.apply(traffic)
        cold = max_concurrent_flow(topo, grown)
        assert abs(wide.solve() - cold.throughput) <= TOL

    def test_invalid_deltas_leave_model_untouched(self):
        from repro.traffic.base import TrafficMatrix
        from repro.traffic.timeline import DemandDelta

        topo = random_regular_topology(10, 4, servers_per_switch=2, seed=4)
        a, b = topo.switches[:2]
        traffic = TrafficMatrix(name="one", demands={(a, b): 2.0}, num_flows=2)
        model = EdgeLPModel(topo, traffic, sources="all")
        base = model.solve()

        with pytest.raises(FlowError, match="negative"):
            model.apply_demand_delta(DemandDelta.adding({(a, b): -5.0}))
        with pytest.raises(FlowError, match="no network demand"):
            model.apply_demand_delta(DemandDelta.adding({(a, b): -2.0}))
        with pytest.raises(FlowError, match="not a switch"):
            model.apply_demand_delta(DemandDelta.adding({("nope", b): 1.0}))
        assert model.num_demand_deltas == 0
        assert abs(model.solve() - base) <= TOL

    def test_delta_counter_in_model_stats(self):
        from repro.traffic.timeline import DemandDelta

        reset_model_stats()
        topo, timeline = self._timeline_instance(seed=7, steps=4)
        model = EdgeLPModel(topo, timeline.base, sources="all")
        switches = topo.switches
        model.apply_demand_delta(
            DemandDelta.adding({(switches[0], switches[1]): 1.0})
        )
        assert model_stats()["demand_deltas"] == 1
        reset_model_stats()


class TestModelBuild:
    def test_empty_traffic_rejected(self):
        topo, _ = _instance(8, seed=6)
        from repro.traffic.base import TrafficMatrix

        with pytest.raises(FlowError, match="no network demands"):
            EdgeLPModel(topo, TrafficMatrix(name="empty", demands={}))


class _BasisRecorder:
    """Stands in for ``repro.flow.incremental.linprog``; notes each call."""

    def __init__(self) -> None:
        self.calls: list = []
        self.results: list = []

    def __call__(self, c, **kwargs):
        self.calls.append(dict(kwargs, c=c))
        self.results.append(linprog(c, **kwargs))
        return self.results[-1]

    def warm(self) -> list:
        """Per call so far: whether it started from a basis."""
        return [call["basis"] is not None for call in self.calls]


@pytest.fixture
def recorder(monkeypatch):
    record = _BasisRecorder()
    monkeypatch.setattr(incremental, "linprog", record)
    return record


class TestHighsDropIn:
    """The basis-aware ``linprog`` against SciPy's own."""

    @pytest.mark.parametrize("method", ["highs", "highs-ds", "highs-ipm"])
    def test_no_basis_solve_is_bit_identical_to_scipy(self, method, recorder):
        from scipy.optimize import linprog as scipy_linprog

        EdgeLPModel(*_instance(12, seed=8)).solve()
        call = dict(recorder.calls[0], method=method)
        del call["basis"]
        ours = linprog(**call)
        theirs = scipy_linprog(**call)
        assert ours.success and theirs.success
        assert np.array_equal(ours.x, theirs.x)
        assert ours.nit == theirs.nit
        assert ours.crossover_nit == theirs.crossover_nit
        assert ours.basis is not None

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown HiGHS method"):
            linprog([1.0], bounds=(0, None), method="simplex")

    def test_basis_of_another_shape_rejected(self):
        from scipy import sparse

        two = linprog(
            [-1.0, -1.0],
            A_ub=sparse.csr_matrix([[1.0, 1.0]]),
            b_ub=[1.0],
            method="highs-ds",
        )
        assert two.basis is not None
        with pytest.raises(ValueError, match="basis does not fit"):
            linprog(
                [-1.0],
                A_ub=sparse.csr_matrix([[1.0]]),
                b_ub=[1.0],
                method="highs-ds",
                basis=two.basis,
            )


def _delta_stream(data, topo):
    """A base matrix plus one drawn delta of every kind, in drawn order.

    Kinds: add to an existing source, remove a pair, scale some pairs,
    add a new source, and empty one source's commodity entirely.
    """
    from repro.traffic.base import TrafficMatrix
    from repro.traffic.timeline import DemandDelta, TrafficTimeline

    switches = topo.switches
    units = st.floats(0.5, 4.0)
    demands = {
        (switches[i], switches[(i + hop) % 4]): data.draw(units)
        for i in range(4)
        for hop in (1, 2)
    }
    # Flow counts only label the matrix; keep them clear of zero.
    base = TrafficMatrix(name="base", demands=demands, num_flows=1000)
    current = base
    kinds = ["add", "remove", "scale", "new_source", "empty"]
    deltas = []
    for kind in data.draw(st.permutations(kinds)):
        pairs = sorted(current.demands, key=repr)
        sources = sorted({u for u, _ in pairs}, key=repr)
        if kind == "add":
            u = data.draw(st.sampled_from(sources))
            v = data.draw(st.sampled_from([s for s in switches if s != u]))
            delta = DemandDelta.adding({(u, v): data.draw(units)})
        elif kind == "remove":
            delta = DemandDelta.removing(current, [data.draw(st.sampled_from(pairs))])
        elif kind == "scale":
            chosen = data.draw(
                st.lists(st.sampled_from(pairs), min_size=1, unique=True)
            )
            delta = DemandDelta.scaling(
                current, data.draw(st.floats(0.25, 3.0)), chosen
            )
        elif kind == "new_source":
            idle = [s for s in switches if s not in sources]
            u = data.draw(st.sampled_from(idle))
            v = data.draw(st.sampled_from([s for s in switches if s != u]))
            delta = DemandDelta.adding({(u, v): data.draw(units)})
        else:
            source = data.draw(st.sampled_from(sources))
            delta = DemandDelta.removing(
                current, [pair for pair in pairs if pair[0] == source]
            )
        deltas.append(delta)
        current = delta.apply(current)
    return TrafficTimeline(name="stream", base=base, deltas=deltas)


class TestWarmBasis:
    """Solves after a delta restart from the kept basis."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_delta_stream_warm_solves_match_cold(self, data):
        topo = random_regular_topology(10, 4, servers_per_switch=2, seed=9)
        timeline = _delta_stream(data, topo)
        model = EdgeLPModel(topo, timeline.base, sources="all")
        model.solve()
        for step in range(1, timeline.num_steps):
            model.apply_demand_delta(timeline.deltas[step - 1])
            assert model._basis is not None
            cold = max_concurrent_flow(topo, timeline.matrix_at(step))
            assert abs(model.solve() - cold.throughput) <= TOL, f"step {step}"

    def test_delta_keeps_basis(self, recorder):
        from repro.traffic.timeline import DemandDelta

        topo, traffic = _instance(10, seed=12)
        model = EdgeLPModel(topo, traffic, sources="all")
        a, b = topo.switches[:2]
        first = DemandDelta.adding({(a, b): 1.0})
        second = DemandDelta.adding({(b, a): 2.0})
        model.solve()
        model.solve()
        model.apply_demand_delta(first)
        model.solve()
        model.apply_demand_delta(second)
        value = model.solve()
        assert recorder.warm() == [False, True, True, True]
        # Re-solving an unchanged LP from its own optimal basis pivots
        # nothing, so the restart really starts from the basis.
        assert recorder.results[1].nit == 0
        cold = max_concurrent_flow(topo, second.apply(first.apply(traffic)))
        assert abs(value - cold.throughput) <= TOL
