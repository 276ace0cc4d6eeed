"""Spectral graph measures: expansion, mixing, and Cheeger bounds.

The paper's Theorem 2 rests on expander properties of random regular graphs
(the expander mixing lemma, Lemma 2). These helpers expose the spectral
quantities those arguments use so tests and benchmarks can check them
directly on sampled graphs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology


def _adjacency(topo: Topology, weighted: bool):
    """:meth:`Topology.adjacency`, or its structure with every entry 1.0."""
    from scipy import sparse

    adjacency = topo.adjacency()
    if weighted:
        return adjacency
    return sparse.csr_array(
        (np.ones(adjacency.nnz), adjacency.indices, adjacency.indptr),
        shape=adjacency.shape,
    )


def _dense_laplacian(topo: Topology, weighted: bool) -> np.ndarray:
    matrix = _adjacency(topo, weighted).toarray()
    return np.diag(matrix.sum(axis=1)) - matrix


def _dense_fiedler_pair(topo: Topology, weighted: bool) -> "tuple[float, np.ndarray]":
    """(lambda_2, Fiedler vector) by LAPACK on the dense Laplacian."""
    eigenvalues, eigenvectors = np.linalg.eigh(_dense_laplacian(topo, weighted))
    order = np.argsort(eigenvalues)
    return float(eigenvalues[order[1]]), eigenvectors[:, order[1]]


def adjacency_spectral_gap(topo: Topology, weighted: bool = False) -> float:
    """Gap between the two largest adjacency eigenvalues, ``λ1 - λ2``.

    For a d-regular graph ``λ1 = d`` and a large gap certifies expansion.
    """
    if topo.num_switches < 2:
        raise TopologyError("spectral gap needs at least 2 switches")
    matrix = _adjacency(topo, weighted).toarray()
    eigenvalues = np.sort(np.linalg.eigvalsh(matrix))[::-1]
    return float(eigenvalues[0] - eigenvalues[1])


def second_largest_adjacency_eigenvalue_magnitude(topo: Topology) -> float:
    """λ = max(|λ2|, |λn|) — the mixing-lemma eigenvalue."""
    if topo.num_switches < 2:
        raise TopologyError("needs at least 2 switches")
    matrix = _adjacency(topo, weighted=False).toarray()
    eigenvalues = np.sort(np.linalg.eigvalsh(matrix))[::-1]
    return float(max(abs(eigenvalues[1]), abs(eigenvalues[-1])))


def algebraic_connectivity(topo: Topology, weighted: bool = True) -> float:
    """Second-smallest Laplacian eigenvalue (Fiedler value)."""
    if topo.num_switches < 2:
        raise TopologyError("algebraic connectivity needs at least 2 switches")
    eigenvalues = np.sort(np.linalg.eigvalsh(_dense_laplacian(topo, weighted)))
    return float(eigenvalues[1])


def fiedler_vector(topo: Topology, weighted: bool = True) -> dict:
    """Eigenvector of the second-smallest Laplacian eigenvalue, per node.

    Sorting nodes by their Fiedler-vector entry gives the classic spectral
    sweep used for cut heuristics.
    """
    if topo.num_switches < 2:
        raise TopologyError("Fiedler vector needs at least 2 switches")
    _, vector = _dense_fiedler_pair(topo, weighted)
    return {node: float(vector[i]) for i, node in enumerate(topo.switches)}


def expander_mixing_deviation(topo: Topology, side_s: set, side_t: set) -> dict:
    """Expander mixing lemma accounting for node sets S, T.

    For a d-regular graph, ``|e(S,T) - d|S||T|/n| <= λ sqrt(|S||T|)``. Returns
    the observed edge count, the expected count, the lemma's bound on the
    deviation, and whether it holds. Requires a regular topology.
    """
    degrees = {topo.degree(v) for v in topo.switches}
    if len(degrees) != 1:
        raise TopologyError("expander mixing lemma requires a regular graph")
    d = degrees.pop()
    n = topo.num_switches
    side_s = set(side_s)
    side_t = set(side_t)
    edges = 0
    for link in topo.links:
        if link.u in side_s and link.v in side_t:
            edges += 1
        if link.v in side_s and link.u in side_t:
            edges += 1
    expected = d * len(side_s) * len(side_t) / n
    lam = second_largest_adjacency_eigenvalue_magnitude(topo)
    bound = lam * float(np.sqrt(len(side_s) * len(side_t)))
    deviation = abs(edges - expected)
    return {
        "observed": float(edges),
        "expected": expected,
        "deviation": deviation,
        "bound": bound,
        "holds": deviation <= bound + 1e-9,
    }


#: Up to this switch count the sparse helpers fall back to the dense
#: eigensolvers: LAPACK on a tiny matrix beats ARPACK setup cost.
SPARSE_SPECTRAL_THRESHOLD = 256


def _sparse_fiedler_pair(
    topo: Topology, weighted: bool = True
) -> "tuple[float, np.ndarray, list]":
    """(lambda_2, Fiedler vector, node order) via Lanczos on ``c I - L``.

    Gershgorin puts every Laplacian eigenvalue in ``[0, c]`` with
    ``c = 2 max weighted degree``, so the reflected operator ``c I - L``
    is PSD and its two largest eigenpairs are the kernel (value ``c``)
    and the Fiedler pair (value ``c - lambda_2``): plain ARPACK Lanczos
    finds both from matvecs alone, factorizing nothing. The vector is
    oriented to a positive inner product with the fixed start vector, so
    the sweep order of :func:`repro.estimate.cut.estimate_cut` does not
    depend on ARPACK's arbitrary sign. Dense fallback at or below
    :data:`SPARSE_SPECTRAL_THRESHOLD` switches.
    """
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    if topo.num_switches < 2:
        raise TopologyError("Fiedler pair needs at least 2 switches")
    nodes = topo.switches
    if topo.num_switches <= SPARSE_SPECTRAL_THRESHOLD:
        return (*_dense_fiedler_pair(topo, weighted), nodes)
    adjacency = _adjacency(topo, weighted)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    laplacian = sparse.diags(degrees) - adjacency
    # A fixed start vector keeps ARPACK deterministic: without v0 it
    # seeds the Krylov iteration from the *global* numpy RandomState,
    # which would make cut estimates (and their cache entries) vary
    # between otherwise identical runs. A seeded Gaussian draw avoids
    # pathological starts (e.g. exactly the all-ones kernel vector).
    v0 = np.random.default_rng(0xF1ED1E2).standard_normal(len(nodes))
    c = 2.0 * max(float(degrees.max()), 1.0)
    reflected = (
        sparse.identity(len(nodes), format="csr", dtype=float) * c - laplacian
    )
    eigenvalues, eigenvectors = eigsh(reflected, k=2, which="LA", v0=v0)
    order = np.argsort(eigenvalues)[::-1]
    vector = eigenvectors[:, order[1]]
    if float(vector @ v0) < 0.0:
        vector = -vector
    return c - float(eigenvalues[order[1]]), vector, nodes


def _fiedler_pair_shared(topo: Topology, weighted: bool):
    """One Fiedler eigensolve, via the batch artifact memo when active.

    Inside a :func:`repro.estimate.batch.shared_artifacts` scope the
    eigenpair is computed once per topology and reused by every backend
    (``cut`` wants the vector, ``spectral`` the value); outside a scope
    this is a plain call.
    """
    from repro.estimate.batch import active_artifacts

    store = active_artifacts()
    if store is not None:
        return store.fiedler_pair(topo, weighted=weighted)
    return _sparse_fiedler_pair(topo, weighted=weighted)


def sparse_algebraic_connectivity(topo: Topology, weighted: bool = True) -> float:
    """Fiedler value at scale: sparse ARPACK above the dense threshold.

    Agrees with :func:`algebraic_connectivity` (to solver tolerance) but
    stays tractable for N = 10,000 networks where the dense O(N^3)
    eigensolve does not.
    """
    value, _, _ = _fiedler_pair_shared(topo, weighted=weighted)
    return max(value, 0.0)


def sparse_fiedler_vector(topo: Topology, weighted: bool = True) -> dict:
    """Per-node Fiedler-vector entries at scale (cf. :func:`fiedler_vector`)."""
    _, vector, nodes = _fiedler_pair_shared(topo, weighted=weighted)
    return {node: float(vector[i]) for i, node in enumerate(nodes)}


def cheeger_bounds(topo: Topology) -> tuple[float, float]:
    """Cheeger inequality bounds on edge expansion for a d-regular graph.

    Returns ``(lower, upper)`` with ``lower = (d - λ2) / 2`` and
    ``upper = sqrt(2 d (d - λ2))``, bracketing the conductance-style edge
    expansion ``h``.
    """
    degrees = {topo.degree(v) for v in topo.switches}
    if len(degrees) != 1:
        raise TopologyError("Cheeger bounds require a regular graph")
    d = degrees.pop()
    matrix = _adjacency(topo, weighted=False).toarray()
    eigenvalues = np.sort(np.linalg.eigvalsh(matrix))[::-1]
    lambda2 = float(eigenvalues[1])
    gap = d - lambda2
    return gap / 2.0, float(np.sqrt(2.0 * d * gap))
