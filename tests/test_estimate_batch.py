"""Shared-artifact batching, the estimator ladder, and the sparse Fiedler path.

Pins the core batching contract: results computed inside a
:func:`shared_artifacts` scope are **identical** to solo runs (a memo
hit returns the same arrays the direct computation produces), while the
expensive per-instance artifacts (Fiedler eigensolve, CSR adjacency)
are paid once. Also covers the factorization-free Fiedler path above
:data:`SPARSE_SPECTRAL_THRESHOLD`, pinned against the dense eigensolver,
closed-form spectra, and ARPACK's arbitrary sign.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from unittest import mock

import networkx
import numpy as np
import pytest

import repro.metrics.spectral as spectral_mod
from repro.exceptions import FlowError
from repro.estimate.batch import (
    LADDER_SOLVERS,
    SharedArtifacts,
    active_artifacts,
    run_ladder,
    shared_artifacts,
)
from repro.estimate.bound import estimate_bound
from repro.estimate.cut import estimate_cut
from repro.estimate.spectral import estimate_spectral
from repro.metrics.spectral import (
    SPARSE_SPECTRAL_THRESHOLD,
    algebraic_connectivity,
    fiedler_vector,
    sparse_algebraic_connectivity,
)
from repro.topology import (
    hypercube_topology,
    mixed_linespeed_topology,
    torus_topology,
)
from repro.topology.random_regular import random_regular_topology
from repro.traffic.permutation import random_permutation_traffic

#: Big enough for the sparse (ARPACK) Fiedler path, small enough for CI.
SPARSE_N = 400


@pytest.fixture(scope="module")
def instance():
    topo = random_regular_topology(
        SPARSE_N, 6, servers_per_switch=1, seed=0
    )
    return topo, random_permutation_traffic(topo, seed=1)


class TestSharedArtifacts:
    def test_fiedler_memoized_once(self, instance):
        topo, _ = instance
        store = SharedArtifacts()
        first = store.fiedler_pair(topo)
        again = store.fiedler_pair(topo)
        assert again is first
        assert store.stats["fiedler_solves"] == 1
        assert store.stats["fiedler_hits"] == 1

    def test_weighted_flag_is_part_of_the_key(self, instance):
        topo, _ = instance
        store = SharedArtifacts()
        store.fiedler_pair(topo, weighted=True)
        store.fiedler_pair(topo, weighted=False)
        assert store.stats["fiedler_solves"] == 2

    def test_ladder_converts_the_topology_once(self, instance):
        """``bound``'s pair kernel and the Fiedler solve read one
        :meth:`Topology.adjacency`: one networkx conversion per instance."""
        topo, traffic = instance
        fresh = topo.copy()
        convert = networkx.to_scipy_sparse_array
        with mock.patch.object(
            networkx, "to_scipy_sparse_array", side_effect=convert
        ) as spy:
            store = SharedArtifacts()
            run_ladder(fresh, traffic, store=store)
            run_ladder(fresh, traffic, store=store)
        assert spy.call_count == 1
        assert store.stats == {"fiedler_solves": 1, "fiedler_hits": 3}

    def test_scope_activates_and_restores(self):
        assert active_artifacts() is None
        with shared_artifacts() as store:
            assert active_artifacts() is store
        assert active_artifacts() is None

    def test_distinct_topologies_get_distinct_entries(self, instance):
        topo, _ = instance
        other = topo.copy()
        store = SharedArtifacts()
        store.fiedler_pair(topo)
        store.fiedler_pair(other)
        assert store.stats["fiedler_solves"] == 2


class TestBatchedEqualsSolo:
    def test_ladder_matches_solo_backends(self, instance):
        topo, traffic = instance
        solo = {
            "bound": estimate_bound(topo, traffic),
            "cut": estimate_cut(topo, traffic),
            "spectral": estimate_spectral(topo, traffic),
        }
        batched = run_ladder(topo, traffic)
        for name in LADDER_SOLVERS:
            assert batched[name].throughput == solo[name].throughput, name
            assert batched[name].to_dict() == solo[name].to_dict(), name

    def test_ladder_shares_one_eigensolve(self, instance):
        topo, traffic = instance
        store = SharedArtifacts()
        run_ladder(topo, traffic, store=store)
        assert store.stats["fiedler_solves"] == 1
        assert store.stats["fiedler_hits"] >= 1

    def test_store_carries_across_calls(self, instance):
        topo, traffic = instance
        store = SharedArtifacts()
        for name in LADDER_SOLVERS:
            run_ladder(topo, traffic, solvers=(name,), store=store)
        assert store.stats["fiedler_solves"] == 1

    def test_unknown_solver_rejected(self, instance):
        topo, traffic = instance
        with pytest.raises(FlowError, match="unknown ladder solver"):
            run_ladder(topo, traffic, solvers=("bound", "exact_lp"))

    def test_options_reach_the_backend(self, instance):
        topo, traffic = instance
        banded = run_ladder(
            topo,
            traffic,
            solvers=("bound",),
            options={"bound": {"error_band": (0.9, 1.0)}},
        )["bound"]
        assert banded.error_band == (0.9, 1.0)
        assert banded.throughput == estimate_bound(topo, traffic).throughput

    def test_shared_connectivity_matches_direct(self, instance):
        topo, _ = instance
        direct = sparse_algebraic_connectivity(topo)
        with shared_artifacts():
            shared = sparse_algebraic_connectivity(topo)
        assert shared == direct


def _dense_pair(topo):
    """``(lambda_2, Fiedler vector)`` from the dense eigensolver."""
    entries = fiedler_vector(topo)
    vector = np.array([entries[node] for node in topo.switches])
    return algebraic_connectivity(topo), vector


class TestReflectedLanczosGate:
    """Above the dense threshold, Lanczos on ``c I - L`` is the one solver."""

    def test_matches_dense_eigensolve(self, instance):
        topo, _ = instance
        assert topo.num_switches > SPARSE_SPECTRAL_THRESHOLD
        value, vector, nodes = spectral_mod._sparse_fiedler_pair(topo)
        dense_value, dense_vector = _dense_pair(topo)
        assert nodes == topo.switches
        assert value == pytest.approx(dense_value, abs=1e-9)
        assert abs(float(vector @ dense_vector)) >= 1.0 - 1e-9

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda: torus_topology((20, 20)), 2.0 - 2.0 * np.cos(np.pi / 10)),
            (lambda: torus_topology((40, 40)), 2.0 - 2.0 * np.cos(np.pi / 20)),
            (lambda: hypercube_topology(9), 2.0),
        ],
        ids=["torus20", "torus40", "9-cube"],
    )
    def test_closed_form_lambda2(self, build, expected):
        topo = build()
        assert topo.num_switches > SPARSE_SPECTRAL_THRESHOLD
        value, _, _ = spectral_mod._sparse_fiedler_pair(topo)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_weighted_instance_matches_dense(self):
        topo = mixed_linespeed_topology(
            num_large=150,
            large_low_ports=6,
            num_small=300,
            small_low_ports=4,
            servers_per_large=2,
            servers_per_small=1,
            high_ports_per_large=2,
            high_speed=4.0,
            seed=0,
        )
        assert len({link.capacity for link in topo.links}) > 1
        value, vector, _ = spectral_mod._sparse_fiedler_pair(topo)
        dense_value, dense_vector = _dense_pair(topo)
        assert value == pytest.approx(dense_value, rel=1e-9)
        assert abs(float(vector @ dense_vector)) >= 1.0 - 1e-9

    def test_vector_oriented_to_start_vector(self, instance, monkeypatch):
        import scipy.sparse.linalg

        topo, _ = instance
        original = scipy.sparse.linalg.eigsh
        starts = []

        def recording(*args, **kwargs):
            starts.append(kwargs["v0"])
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
        _, vector, _ = spectral_mod._sparse_fiedler_pair(topo)
        (v0,) = starts
        assert float(vector @ v0) > 0.0

    def test_solver_sign_does_not_move_outputs(self, instance, monkeypatch):
        """A sign-flipped ``eigsh`` yields the same vector and cut."""
        import scipy.sparse.linalg

        topo, traffic = instance
        value, vector, _ = spectral_mod._sparse_fiedler_pair(topo)
        cut = estimate_cut(topo, traffic)
        original = scipy.sparse.linalg.eigsh

        def negated(*args, **kwargs):
            eigenvalues, eigenvectors = original(*args, **kwargs)
            return eigenvalues, -eigenvectors

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", negated)
        flipped_value, flipped_vector, _ = spectral_mod._sparse_fiedler_pair(topo)
        assert flipped_value == value
        assert np.array_equal(flipped_vector, vector)
        assert estimate_cut(topo, traffic).to_dict() == cut.to_dict()

    def test_degenerate_spectrum_is_cross_process_deterministic(self):
        """A 9-cube's lambda_2 has multiplicity 9, so any vector of that
        eigenspace is a Fiedler vector; the solve must still pick the same
        one in every process, or cut estimates would not match their
        content-addressed cache entries."""
        script = textwrap.dedent(
            """
            import hashlib

            from repro.estimate.cut import estimate_cut
            from repro.metrics.spectral import _sparse_fiedler_pair
            from repro.topology import hypercube_topology
            from repro.traffic.permutation import random_permutation_traffic

            topo = hypercube_topology(9, servers_per_switch=1)
            _, vector, _ = _sparse_fiedler_pair(topo)
            traffic = random_permutation_traffic(topo, seed=1)
            print(hashlib.sha256(vector.tobytes()).hexdigest())
            print(estimate_cut(topo, traffic).throughput.hex())
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

    def test_fiedler_vector_orthogonal_to_kernel(self, instance):
        topo, _ = instance
        _, vector, _ = spectral_mod._sparse_fiedler_pair(topo)
        assert abs(float(np.sum(vector))) < 1e-6
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-9)
