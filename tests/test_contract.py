"""Tests for the graph contraction kernel and its paper invariants."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coarsen import coarsen
from repro.core.matching import hem_matching, rm_matching
from repro.core.options import DEFAULT_OPTIONS
from repro.graph import (
    CSRGraph,
    coarse_map_from_matching,
    contract,
    from_edge_list,
    matching_weight,
    validate_graph,
)
from repro.graph.contract import collapsed_edge_weight
from repro.graph.partition import exact_weight_bincount
from repro.matrices import load
from tests.conftest import (
    INT64_MAX,
    complete_graph,
    kernel_graphs,
    path_graph,
    random_graph,
)


def _reference_coarse_map(match):
    """The multinode numbering as it was before the one-cumsum kernel."""
    match = np.asarray(match, dtype=np.int64)
    n = len(match)
    leader = np.minimum(np.arange(n, dtype=np.int64), match)
    is_leader = leader == np.arange(n)
    cmap = np.empty(n, dtype=np.int64)
    cmap[is_leader] = np.arange(int(is_leader.sum()), dtype=np.int64)
    cmap[~is_leader] = cmap[leader[~is_leader]]
    return cmap, int(is_leader.sum())


def _reference_contract(graph, cmap, ncoarse):
    """Contraction as it was before the packed sort: an ``argsort`` of the
    fused key, two permutes and ``np.add.reduceat`` over the runs."""
    cmap = np.asarray(cmap, dtype=np.int64)
    cu = cmap[graph.edge_sources()]
    cv = cmap[graph.adjncy]
    keep = cu != cv
    key = cu[keep] * np.int64(ncoarse) + cv[keep]
    order = np.argsort(key)
    key, w = key[order], graph.adjwgt[keep][order]
    new_run = np.ones(len(key), dtype=bool)
    new_run[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new_run)
    mu, mv = np.divmod(key[starts], ncoarse)
    xadj = np.zeros(ncoarse + 1, dtype=np.int64)
    np.cumsum(np.bincount(mu, minlength=ncoarse), out=xadj[1:])
    cvwgt = exact_weight_bincount(
        cmap, graph.vwgt, minlength=ncoarse, total=graph.total_vwgt()
    )
    return CSRGraph(
        xadj, mv, np.add.reduceat(w, starts), cvwgt, validate=False
    )


def _packs_contract_key(graph, ncoarse) -> bool:
    """Whether ``contract`` sorts ``graph``'s edges by the packed key."""
    shift = int(graph.adjwgt.max(initial=0)).bit_length()
    return ncoarse**2 << shift <= 2**63


def assert_same_arrays(got, ref):
    """Equal CSR arrays, dtype for dtype."""
    for name in ("xadj", "adjncy", "adjwgt", "vwgt"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@st.composite
def _grouped(draw):
    """A graph and an arbitrary grouping of its vertices: dense ids
    ``0..ncoarse-1``, each used, in any arrangement (not only pairs)."""
    graph = draw(kernel_graphs())
    n = graph.nvtxs
    ncoarse = draw(st.integers(1, n))
    order = draw(st.permutations(range(n)))
    rest = draw(st.lists(st.integers(0, ncoarse - 1), min_size=n - ncoarse,
                         max_size=n - ncoarse))
    cmap = np.empty(n, dtype=np.int64)
    cmap[order[:ncoarse]] = np.arange(ncoarse)
    cmap[order[ncoarse:]] = rest
    return graph, cmap, ncoarse


@st.composite
def _involutions(draw):
    """Any involution on ``0..n-1``: disjoint pairs, the rest fixed."""
    n = draw(st.integers(0, 40))
    order = draw(st.permutations(range(n)))
    npairs = draw(st.integers(0, n // 2))
    match = np.arange(n, dtype=np.int64)
    a, b = order[:npairs], order[npairs:2 * npairs]
    match[a], match[b] = b, a
    return match


class TestCoarseMap:
    def test_identity_matching(self):
        match = np.arange(4)
        cmap, ncoarse = coarse_map_from_matching(match)
        assert ncoarse == 4
        assert cmap.tolist() == [0, 1, 2, 3]

    def test_one_pair(self):
        match = np.array([1, 0, 2, 3])
        cmap, ncoarse = coarse_map_from_matching(match)
        assert ncoarse == 3
        assert cmap[0] == cmap[1]
        assert cmap[2] != cmap[0] and cmap[3] != cmap[2]

    def test_dense_numbering(self):
        match = np.array([3, 2, 1, 0])
        cmap, ncoarse = coarse_map_from_matching(match)
        assert ncoarse == 2
        assert set(cmap.tolist()) == {0, 1}


class TestContract:
    def test_collapse_path_pair(self):
        g = path_graph(3)  # 0-1-2
        cmap = np.array([0, 0, 1])  # merge 0,1
        coarse = contract(g, cmap, 2)
        assert coarse.nvtxs == 2
        assert coarse.nedges == 1
        assert coarse.vwgt.tolist() == [2, 1]
        assert coarse.edge_weight(0, 1) == 1
        validate_graph(coarse)

    def test_parallel_edges_merge(self):
        # Square 0-1-2-3-0; merging (0,1) and (2,3) creates two parallel
        # edges between the multinodes, which must merge to weight 2.
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        cmap = np.array([0, 0, 1, 1])
        coarse = contract(g, cmap, 2)
        assert coarse.nvtxs == 2
        assert coarse.nedges == 1
        assert coarse.edge_weight(0, 1) == 2

    def test_vertex_weight_conserved(self):
        g = random_graph(40, 0.2, seed=1)
        match = rm_matching(g, np.random.default_rng(0))
        cmap, nc = coarse_map_from_matching(match)
        coarse = contract(g, cmap, nc)
        assert coarse.total_vwgt() == g.total_vwgt()

    def test_edge_weight_identity(self):
        """W(E_{i+1}) = W(E_i) − W(M_i), the §3.1 identity."""
        g = random_graph(40, 0.2, seed=2)
        match = hem_matching(g, np.random.default_rng(0))
        cmap, nc = coarse_map_from_matching(match)
        coarse = contract(g, cmap, nc)
        assert coarse.total_adjwgt() == g.total_adjwgt() - matching_weight(g, match)

    def test_contract_to_single_vertex(self):
        g = complete_graph(4)
        coarse = contract(g, np.zeros(4, dtype=np.int64), 1)
        assert coarse.nvtxs == 1
        assert coarse.nedges == 0
        assert coarse.vwgt.tolist() == [4]

    def test_groups_larger_than_pairs(self):
        g = path_graph(6)
        cmap = np.array([0, 0, 0, 1, 1, 1])
        coarse = contract(g, cmap, 2)
        assert coarse.nvtxs == 2
        assert coarse.edge_weight(0, 1) == 1

    def test_edgeless_result(self):
        g = from_edge_list(2, [(0, 1)])
        coarse = contract(g, np.array([0, 0]), 1)
        assert coarse.nedges == 0

    def test_contracted_mesh_has_no_coords(self):
        g = load("4ELT", scale=0.05, seed=0)
        assert g.coords is not None
        cmap, ncoarse = coarse_map_from_matching(
            hem_matching(g, np.random.default_rng(0))
        )
        assert contract(g, cmap, ncoarse).coords is None

    def test_partition_cut_preserved_by_projection(self):
        """§3.1: a coarse partition's cut equals the projected fine cut."""
        from repro.graph import edge_cut

        g = random_graph(30, 0.25, seed=3)
        match = rm_matching(g, np.random.default_rng(1))
        cmap, nc = coarse_map_from_matching(match)
        coarse = contract(g, cmap, nc)
        rng = np.random.default_rng(2)
        coarse_where = rng.integers(0, 2, nc)
        fine_where = coarse_where[cmap]
        assert edge_cut(coarse, coarse_where) == edge_cut(g, fine_where)


class TestReferenceOracle:
    """The packed-sort contraction and the one-cumsum numbering are bit
    for bit the kernels they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(match=_involutions())
    def test_coarse_map_of_any_involution(self, match):
        got, ref = coarse_map_from_matching(match), _reference_coarse_map(match)
        assert got[0].dtype == ref[0].dtype
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    @settings(max_examples=80, deadline=None)
    @given(case=_grouped())
    def test_arbitrary_groupings(self, case):
        graph, cmap, ncoarse = case
        assert_same_arrays(
            contract(graph, cmap, ncoarse),
            _reference_contract(graph, cmap, ncoarse),
        )

    @settings(max_examples=40, deadline=None)
    @given(graph=kernel_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_matchings(self, graph, seed):
        for matching in (hem_matching, rm_matching):
            match = matching(graph, np.random.default_rng(seed))
            cmap, ncoarse = coarse_map_from_matching(match)
            ref_cmap, ref_ncoarse = _reference_coarse_map(match)
            assert np.array_equal(cmap, ref_cmap) and ncoarse == ref_ncoarse
            assert_same_arrays(
                contract(graph, cmap, ncoarse),
                _reference_contract(graph, cmap, ncoarse),
            )

    def test_a_single_vertex(self):
        single = from_edge_list(1, [])
        cmap = np.zeros(1, dtype=np.int64)
        assert_same_arrays(
            contract(single, cmap, 1), _reference_contract(single, cmap, 1)
        )

    def test_full_collapse(self):
        g = random_graph(30, 0.2, seed=4)
        cmap = np.zeros(g.nvtxs, dtype=np.int64)
        coarse = contract(g, cmap, 1)
        assert coarse.nvtxs == 1 and coarse.nedges == 0
        assert_same_arrays(coarse, _reference_contract(g, cmap, 1))

    @pytest.mark.parametrize("ncoarse,packed", [(2, True), (3, False)])
    def test_weights_at_the_bound_take_the_argsort_fallback(
        self, ncoarse, packed
    ):
        # K4 at validation's bound: 2^59 ≤ w < 2^60, so the packed key
        # fits for two coarse vertices (4·2^60 ≤ 2^63) and not for three.
        edges = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
        bound = INT64_MAX // (2 * len(edges))
        g = from_edge_list(4, edges, [bound - i % 3 for i in range(6)])
        cmap = np.array([0, 1, 1, ncoarse - 1])
        assert _packs_contract_key(g, ncoarse) is packed
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            got = contract(g, cmap, ncoarse)
        assert spy.called is not packed
        assert_same_arrays(got, _reference_contract(g, cmap, ncoarse))

    def test_coarsening_hierarchy_levels(self):
        for name, scale in (("4ELT", 0.3), ("BCSSTK31", 0.5)):
            graph = load(name, scale=scale, seed=0)
            hierarchy = coarsen(graph, DEFAULT_OPTIONS, np.random.default_rng(5))
            for level, cmap in enumerate(hierarchy.cmaps):
                fine, coarse = hierarchy.graphs[level : level + 2]
                assert_same_arrays(
                    coarse, _reference_contract(fine, cmap, coarse.nvtxs)
                )


class TestCollapsedEdgeWeight:
    def test_pair_merge_counts_inner_edge(self):
        g = path_graph(3)
        cmap = np.array([0, 0, 1])
        cew = collapsed_edge_weight(g, cmap, 2)
        assert cew.tolist() == [1, 0]

    def test_accumulates_across_levels(self):
        g = complete_graph(4)  # 6 edges
        cew1 = collapsed_edge_weight(g, np.array([0, 0, 1, 1]), 2)
        assert cew1.tolist() == [1, 1]
        coarse = contract(g, np.array([0, 0, 1, 1]), 2)
        cew2 = collapsed_edge_weight(coarse, np.array([0, 0]), 1, cew1)
        # All 6 original edges end up inside the single multinode.
        assert cew2.tolist() == [6]


class TestMatchingWeight:
    def test_weighted_pairs(self):
        g = from_edge_list(4, [(0, 1), (2, 3), (1, 2)], [5, 7, 1])
        match = np.array([1, 0, 3, 2])
        assert matching_weight(g, match) == 12

    def test_empty_matching(self):
        g = path_graph(4)
        assert matching_weight(g, np.arange(4)) == 0
