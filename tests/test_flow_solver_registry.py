"""Solver registry: protocol conformance, aliasing, SolverConfig."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import FlowError
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.solvers import (
    SolverConfig,
    ThroughputSolver,
    available_solvers,
    get_solver,
    normalize_solver_name,
    register_solver,
    solve_throughput,
)


class TestRegistry:
    def test_canonical_backends_present(self):
        names = available_solvers()
        for key in ("edge_lp", "path_lp", "approx", "ecmp"):
            assert key in names

    def test_alias_listing(self):
        names = available_solvers(include_aliases=True)
        assert "edge-lp" in names
        assert "garg-koenemann" in names

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("edge-lp", "edge_lp"),
            ("EDGE_LP", "edge_lp"),
            ("path-lp", "path_lp"),
            ("garg-koenemann", "approx"),
            ("gk", "approx"),
            ("ecmp", "ecmp"),
        ],
    )
    def test_normalization(self, alias, canonical):
        assert normalize_solver_name(alias) == canonical

    def test_unknown_name_raises(self):
        with pytest.raises(FlowError, match="unknown solver"):
            normalize_solver_name("simplex-of-doom")

    def test_non_string_name_raises(self):
        with pytest.raises(FlowError, match="must be a string"):
            normalize_solver_name(42)

    def test_backends_satisfy_protocol(self):
        for name in available_solvers():
            assert isinstance(get_solver(name).fn, ThroughputSolver)

    def test_double_registration_rejected(self):
        with pytest.raises(FlowError, match="already registered"):
            register_solver("edge_lp", max_concurrent_flow)

    @pytest.mark.parametrize("revision", [-1, 1.5, "1"])
    def test_bad_revision_rejected(self, revision):
        with pytest.raises(FlowError, match="revision"):
            register_solver("revised_twin", max_concurrent_flow, revision=revision)
        assert "revised_twin" not in available_solvers()

    def test_exact_flags(self):
        assert get_solver("edge_lp").exact
        assert not get_solver("path_lp").exact
        assert not get_solver("approx").exact


class TestSolveThroughput:
    def test_matches_direct_call(self, small_rrg, small_rrg_traffic):
        direct = max_concurrent_flow(small_rrg, small_rrg_traffic)
        via_registry = solve_throughput(small_rrg, small_rrg_traffic, "edge_lp")
        assert via_registry.throughput == pytest.approx(direct.throughput)
        assert via_registry.solver == direct.solver

    def test_options_forwarded(self, small_rrg, small_rrg_traffic):
        exact = solve_throughput(small_rrg, small_rrg_traffic).throughput
        restricted = solve_throughput(
            small_rrg, small_rrg_traffic, "path_lp", k=1
        )
        assert restricted.throughput <= exact * (1 + 1e-9)

    def test_all_backends_solve(self, small_rrg, small_rrg_traffic):
        exact = solve_throughput(small_rrg, small_rrg_traffic).throughput
        for name in available_solvers():
            result = solve_throughput(small_rrg, small_rrg_traffic, name)
            assert result.throughput > 0
            if not get_solver(name).estimate:
                # Optimizing backends are the optimum or a lower bound;
                # estimators may legitimately sit above it (the bound and
                # cut estimates are upper bounds by construction).
                assert result.throughput <= exact * (1 + 1e-6)


class TestSolverConfig:
    def test_canonicalizes_name_and_options(self):
        a = SolverConfig.make("path-lp", k=8)
        b = SolverConfig("path_lp", options=(("k", 8),))
        assert a == b
        assert a.name == "path_lp"
        assert hash(a) == hash(b)

    def test_option_order_irrelevant(self):
        a = SolverConfig(name="approx", options=(("epsilon", 0.1), ("a", 1)))
        b = SolverConfig(name="approx", options=(("a", 1), ("epsilon", 0.1)))
        assert a == b

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(FlowError):
            SolverConfig.make("nope")

    def test_dict_round_trip(self):
        config = SolverConfig.make("path_lp", k=4)
        assert SolverConfig.from_dict(config.to_dict()) == config

    def test_label(self):
        assert SolverConfig.make("edge_lp").label() == "edge_lp"
        assert SolverConfig.make("path_lp", k=8).label() == "path_lp(k=8)"

    def test_solve(self, small_rrg, small_rrg_traffic):
        config = SolverConfig.make("ecmp")
        result = config.solve(small_rrg, small_rrg_traffic)
        assert result.throughput > 0
        assert not result.exact

    def test_picklable(self):
        config = SolverConfig.make("path_lp", k=8)
        assert pickle.loads(pickle.dumps(config)) == config
