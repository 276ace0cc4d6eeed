"""Tests for parallel search determinism and the engine entry points."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exceptions import ExperimentError
from repro.metrics.paths import average_shortest_path_length
from repro.pipeline.scenario import TopologySpec
from repro.search.engine import optimize_topology, optimized_topology
from repro.search.parallel import ParallelSearchResult, parallel_anneal
from repro.topology.random_regular import random_regular_topology
from repro.topology.registry import make_topology


def _edges(topo):
    return {frozenset((link.u, link.v)) for link in topo.links}


@pytest.fixture(scope="module")
def base():
    return random_regular_topology(16, 4, servers_per_switch=1, seed=0)


class TestParallelAnneal:
    def test_pool_matches_serial_for_fixed_seed(self, base):
        serial = parallel_anneal(
            base, "aspl", num_runs=3, steps=150, seed=42, workers=1
        )
        pooled = parallel_anneal(
            base, "aspl", num_runs=3, steps=150, seed=42, workers=2
        )
        assert serial.best_scores() == pooled.best_scores()
        assert _edges(serial.best.topology) == _edges(pooled.best.topology)

    def test_workers_below_one_rejected(self, base):
        with pytest.raises(ExperimentError, match="workers must be >= 1"):
            parallel_anneal(base, "aspl", num_runs=2, steps=10, workers=0)
        with pytest.raises(ExperimentError, match="workers must be >= 1"):
            optimize_topology(base, "aspl", steps=10, workers=0)

    def test_runs_are_independent_walks(self, base):
        result = parallel_anneal(
            base, "aspl", num_runs=3, steps=150, seed=1
        )
        assert len(result.runs) == 3
        # Different seed streams should explore differently (scores rarely
        # all identical; accept ties on score but demand some divergence).
        traces = [run.accepted for run in result.runs]
        assert len(set(traces)) > 1 or len(set(result.best_scores())) > 1

    def test_best_is_max_score(self, base):
        result = parallel_anneal(
            base, "aspl", num_runs=3, steps=100, seed=2
        )
        assert result.best.best_score == max(result.best_scores())
        assert result.topology is result.best.topology

    def test_explicit_temperatures(self, base):
        result = parallel_anneal(
            base,
            "aspl",
            num_runs=2,
            steps=80,
            seed=3,
            temperatures=[0.5, 0.01],
        )
        assert len(result.runs) == 2

    def test_temperature_length_validated(self, base):
        with pytest.raises(ExperimentError, match="temperatures"):
            parallel_anneal(
                base, "aspl", num_runs=3, steps=10, temperatures=[1.0]
            )

    def test_empty_result_has_no_best(self):
        with pytest.raises(ExperimentError, match="no runs"):
            ParallelSearchResult(runs=[]).best


class TestEngine:
    def test_single_run_equals_anneal(self, base):
        from repro.search.annealing import anneal

        direct = anneal(base, "aspl", steps=120, seed=5)
        via_engine = optimize_topology(base, "aspl", steps=120, seed=5)
        assert via_engine.best_score == direct.best_score

    def test_multi_run_picks_winner(self, base):
        result = optimize_topology(
            base, "aspl", steps=100, seed=6, num_runs=2
        )
        solo = optimize_topology(base, "aspl", steps=100, seed=6)
        assert result.best_score >= min(result.best_score, solo.best_score)
        assert result.topology.degree_histogram() == base.degree_histogram()

    def test_optimized_topology_is_reproducible(self):
        a = optimized_topology(14, 3, servers_per_switch=2, seed=9, steps=120)
        b = optimized_topology(14, 3, servers_per_switch=2, seed=9, steps=120)
        assert _edges(a) == _edges(b)
        assert a.server_map() == b.server_map()
        assert a.name.startswith("optimized-rrg")

    def test_optimized_beats_its_random_base_on_aspl(self):
        base = random_regular_topology(20, 4, seed=11)
        optimized = optimized_topology(20, 4, seed=11, steps=400)
        # Same family, so the bound is shared; the optimized graph should
        # be at least as short-pathed as a typical random sample.
        assert average_shortest_path_length(
            optimized
        ) <= average_shortest_path_length(base) + 1e-9

    def test_optimized_kind_builds_no_process_pool(self, monkeypatch):
        # Restarts run in-process unless a caller asks for workers, so a
        # grid cell's topology build starts no pool of its own.
        pools = []
        init = ProcessPoolExecutor.__init__

        def counting_init(pool, *args, **kwargs):
            pools.append((args, kwargs))
            init(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        spec = TopologySpec.make(
            "optimized", num_switches=12, network_degree=3, steps=40, num_runs=2
        )
        assert spec.build(seed=1).num_switches == 12
        assert pools == []

    def test_registry_kind(self):
        topo = make_topology(
            "optimized", num_switches=12, network_degree=3, steps=80, seed=1
        )
        assert topo.num_switches == 12
        assert topo.is_connected()
        assert "optimized" in __import__(
            "repro.topology.registry", fromlist=["available_topologies"]
        ).available_topologies()
