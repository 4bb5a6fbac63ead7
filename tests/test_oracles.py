"""Differential tests against external oracles (networkx / scipy).

These validate our substrate implementations against independent, widely
trusted code — the strongest correctness evidence available for graph
algorithms with many edge cases.  They are skipped when the optional test
dependencies are unavailable.  A metamorphic relation (edge-weight
scaling) closes the file: there the oracle is the pipeline's own output
on the unscaled graph.
"""

import numpy as np
import pytest

nx = pytest.importorskip("networkx")
scipy = pytest.importorskip("scipy")

from repro.core.multilevel import bisect
from repro.core.options import DEFAULT_OPTIONS
from repro.graph import CSRGraph, edge_cut, from_edge_list, to_networkx
from repro.graph.components import connected_components, num_components
from repro.matrices import load
from repro.spectral import algebraic_connectivity, dense_laplacian, fiedler_vector
from tests.conftest import random_graph


def graphs_for_diff(count=6):
    out = []
    for seed in range(count):
        p = 0.04 + 0.03 * seed
        out.append(random_graph(40 + 10 * seed, p, seed=seed))
    return out


class TestComponentsVsNetworkx:
    @pytest.mark.parametrize("seed", range(6))
    def test_component_count(self, seed):
        g = graphs_for_diff()[seed]
        assert num_components(g) == nx.number_connected_components(to_networkx(g))

    @pytest.mark.parametrize("seed", range(3))
    def test_component_membership(self, seed):
        g = graphs_for_diff()[seed]
        ours = connected_components(g)
        theirs = list(nx.connected_components(to_networkx(g)))
        for comp_set in theirs:
            labels = {int(ours[v]) for v in comp_set}
            assert len(labels) == 1  # our labelling never splits an nx component


class TestCutVsNetworkx:
    @pytest.mark.parametrize("seed", range(5))
    def test_cut_size(self, seed):
        g = random_graph(50, 0.15, seed=seed)
        rng = np.random.default_rng(seed)
        where = rng.integers(0, 2, g.nvtxs)
        s = {v for v in range(g.nvtxs) if where[v] == 0}
        t = set(range(g.nvtxs)) - s
        expected = nx.cut_size(to_networkx(g), s, t, weight="weight")
        assert edge_cut(g, where) == expected

    def test_weighted_cut(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)], [5, 7, 11])
        where = np.array([0, 1, 1, 0])
        s, t = {0, 3}, {1, 2}
        assert edge_cut(g, where) == nx.cut_size(to_networkx(g), s, t, weight="weight")


class TestSpectralVsScipy:
    @pytest.mark.parametrize("seed", range(4))
    def test_laplacian_matches_scipy(self, seed):
        g = random_graph(30, 0.2, seed=seed)
        ours = dense_laplacian(g)
        m = scipy.sparse.csgraph.laplacian(
            scipy.sparse.csr_matrix(nx.to_numpy_array(to_networkx(g)))
        )
        assert np.allclose(ours, m.toarray())

    @pytest.mark.parametrize("seed", range(3))
    def test_fiedler_value_matches_scipy(self, seed):
        g = random_graph(60, 0.12, seed=seed, connected=True)
        lam_ours = algebraic_connectivity(g, np.random.default_rng(0))
        lap = dense_laplacian(g)
        vals = scipy.linalg.eigvalsh(lap)
        assert lam_ours == pytest.approx(vals[1], rel=1e-5, abs=1e-8)

    def test_fiedler_vector_is_scipy_eigvec(self):
        g = random_graph(80, 0.1, seed=7, connected=True)
        vec = fiedler_vector(g, np.random.default_rng(0), force_lanczos=True)
        lap = dense_laplacian(g)
        vals, vecs = scipy.linalg.eigh(lap)
        ref = vecs[:, 1]
        corr = abs(float(np.dot(vec, ref)) / (np.linalg.norm(vec) * np.linalg.norm(ref)))
        assert corr == pytest.approx(1.0, abs=1e-4)


class TestEtreeVsScipyFactor:
    @pytest.mark.parametrize("seed", range(3))
    def test_symbolic_counts_against_dense_cholesky(self, seed):
        """Column counts of our symbolic factorization must equal the
        nonzero counts of a *numeric* dense Cholesky of an SPD matrix
        with the same pattern (no cancellation for generic values)."""
        from repro.linalg import laplacian_system
        from repro.ordering import symbolic_factor

        g = random_graph(25, 0.2, seed=seed, connected=True)
        A, _, _ = laplacian_system(g, rng=np.random.default_rng(seed))
        perm = np.random.default_rng(seed).permutation(g.nvtxs)
        counts, _ = symbolic_factor(g, perm)
        dense = A.dense()[np.ix_(perm, perm)]
        L = np.linalg.cholesky(dense)
        numeric_counts = (np.abs(L) > 1e-12).sum(axis=0) - 1  # below diagonal
        assert np.array_equal(counts, numeric_counts)


class TestMatchingVsNetworkx:
    @pytest.mark.parametrize("seed", range(3))
    def test_hem_weight_within_half_of_max_weight_matching(self, seed):
        """Greedy matching is a 1/2-approximation of the maximum-weight
        matching — verify against networkx's exact algorithm."""
        from repro.core.matching import hem_matching
        from repro.graph import matching_weight

        g = random_graph(30, 0.2, seed=seed)
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 100, g.nedges)
        wg = from_edge_list(g.nvtxs, g.edge_array()[:, :2], weights)
        match = hem_matching(wg, np.random.default_rng(0))
        ours = matching_weight(wg, match)
        exact = nx.max_weight_matching(to_networkx(wg), weight="weight")
        exact_weight = sum(wg.edge_weight(u, v) for u, v in exact)
        assert ours >= 0.5 * exact_weight


class TestEdgeWeightScaling:
    """Scaling every edge weight by ``c`` leaves the default bisection's
    ``where`` unchanged and scales its cut by ``c``.

    Every decision of the default pipeline — HEM's heaviest neighbour,
    GGGP's and FM's gain comparisons, the tie-breaks among equal gains —
    depends only on the order of edge-weight sums, which a positive scale
    factor preserves, while balance reads vertex weights only.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["4ELT", "BCSSTK31", "MEMPLUS", "LSHP3466"])
    def test_where_unchanged_cut_scales(self, name, seed):
        g = load(name, scale=0.25, seed=0)
        base = bisect(g, DEFAULT_OPTIONS, np.random.default_rng(seed))
        for c in (2, 3, 7):
            scaled = CSRGraph(g.xadj, g.adjncy, g.adjwgt * c, g.vwgt)
            r = bisect(scaled, DEFAULT_OPTIONS, np.random.default_rng(seed))
            assert np.array_equal(r.bisection.where, base.bisection.where), c
            assert r.bisection.cut == c * base.bisection.cut, c
