"""Tests for the four matching schemes (§3.1)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coarsen import coarsen
from repro.core.matching import (
    _ranked_adjncy,
    compute_matching,
    hcm_matching,
    hem_matching,
    is_maximal_matching,
    is_valid_matching,
    lem_matching,
    rm_matching,
)
from repro.core.options import DEFAULT_OPTIONS, MatchingScheme
from repro.graph import from_edge_list, matching_weight
from repro.graph.contract import collapsed_edge_weight
from repro.matrices import load
from repro.utils.rng import as_generator
from tests.conftest import (
    INT64_MAX,
    complete_graph,
    cycle_graph,
    kernel_graphs,
    path_graph,
    random_graph,
    star_graph,
)

ALL_SCHEMES = [rm_matching, hem_matching, lem_matching, hcm_matching]


def _reference_matching(graph, scheme, rng=None, cewgt=None):
    """The per-vertex NumPy formulation of the four §3.1 schemes.

    The straightforward version the scalar-scan kernels in
    :mod:`repro.core.matching` must reproduce bit for bit: same visiting
    order (one ``rng.permutation``), same single ``rng.integers`` draw per
    RM vertex, and ``argmax``/``argmin``'s first-index tie-break over a
    masked copy of the neighbour slice.
    """
    scheme = MatchingScheme(scheme)
    rng = as_generator(rng)
    xadj, adjncy = graph.xadj, graph.adjncy
    adjwgt, vwgt = graph.adjwgt, graph.vwgt
    if cewgt is None:
        cewgt = np.zeros(graph.nvtxs, dtype=np.int64)

    def pick(u, nbrs, free, s, e):
        if scheme is MatchingScheme.RM:
            candidates = np.flatnonzero(free)
            return int(candidates[rng.integers(len(candidates))])
        if scheme is MatchingScheme.HEM:
            w = adjwgt[s:e].copy()
            w[~free] = -1
            return int(np.argmax(w))
        if scheme is MatchingScheme.LEM:
            w = adjwgt[s:e].copy()
            w[~free] = np.iinfo(np.int64).max
            return int(np.argmin(w))
        sizes = vwgt[nbrs] + vwgt[u]
        internal = cewgt[nbrs] + cewgt[u] + adjwgt[s:e]
        denom = sizes * (sizes - 1)
        density = np.where(
            denom > 0, 2.0 * internal / np.maximum(denom, 1), 0.0
        )
        density = np.where(free, density, -1.0)
        return int(np.argmax(density))

    match = np.full(graph.nvtxs, -1, dtype=np.int64)
    for u in rng.permutation(graph.nvtxs):
        if match[u] != -1:
            continue
        s, e = xadj[u], xadj[u + 1]
        nbrs = adjncy[s:e]
        free = match[nbrs] == -1
        if not free.any():
            match[u] = u
            continue
        v = int(nbrs[pick(u, nbrs, free, s, e)])
        match[u] = v
        match[v] = u
    return match


GRAPHS = {
    "path10": path_graph(10),
    "cycle9": cycle_graph(9),
    "star8": star_graph(8),
    "k6": complete_graph(6),
    "random": random_graph(60, 0.1, seed=4),
}


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", GRAPHS, ids=GRAPHS.keys())
class TestValidityAndMaximality:
    def test_valid(self, scheme, name):
        g = GRAPHS[name]
        match = scheme(g, np.random.default_rng(0))
        assert is_valid_matching(g, match)

    def test_maximal(self, scheme, name):
        g = GRAPHS[name]
        match = scheme(g, np.random.default_rng(1))
        assert is_maximal_matching(g, match)


class TestSchemeCharacteristics:
    def test_star_leaves_all_but_one_unmatched(self):
        g = star_graph(8)
        match = rm_matching(g, np.random.default_rng(0))
        matched = (match != np.arange(8)).sum()
        assert matched == 2  # exactly the centre and one leaf

    def test_hem_prefers_heavy_edges(self):
        # K4 whose heavy edges form a perfect matching: whichever vertex is
        # visited first picks its heavy partner, and the remaining pair is
        # forced onto the other heavy edge — so HEM's result is the heavy
        # perfect matching for every visiting order.
        g = from_edge_list(
            4,
            [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)],
            [100, 100, 1, 1, 1, 1],
        )
        for seed in range(8):
            match = hem_matching(g, np.random.default_rng(seed))
            assert matching_weight(g, match) == 200

    def test_lem_prefers_light_edges(self):
        g = from_edge_list(3, [(0, 1), (1, 2)], [100, 1])
        # Whenever vertex 1 is visited first, LEM must pick the light edge.
        hits = 0
        for seed in range(20):
            match = lem_matching(g, np.random.default_rng(seed))
            if match[1] == 2:
                hits += 1
        assert hits > 0  # happens for some visit orders
        # And in no case may vertex 1 remain unmatched.
        for seed in range(20):
            match = lem_matching(g, np.random.default_rng(seed))
            assert match[1] != 1

    def test_hem_weight_at_least_lem_weight_statistically(self):
        g = random_graph(80, 0.15, seed=7)
        rng_state = np.random.default_rng(3)
        g = from_edge_list(
            g.nvtxs,
            g.edge_array()[:, :2],
            rng_state.integers(1, 50, g.nedges),
        )
        hem_w = np.mean([
            matching_weight(g, hem_matching(g, np.random.default_rng(s)))
            for s in range(5)
        ])
        lem_w = np.mean([
            matching_weight(g, lem_matching(g, np.random.default_rng(s)))
            for s in range(5)
        ])
        assert hem_w > lem_w

    def test_hcm_on_flat_graph_equals_heavy_edge_choice(self):
        # On an uncoarsened unit-weight graph every matched pair is a
        # 2-clique, so density reduces to edge weight: HCM must also find
        # the heavy perfect matching of the K4 from the HEM test.
        g = from_edge_list(
            4,
            [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)],
            [100, 100, 1, 1, 1, 1],
        )
        for seed in range(8):
            match = hcm_matching(g, np.random.default_rng(seed))
            assert matching_weight(g, match) == 200

    def test_hcm_uses_contracted_edge_weight(self):
        # Coarse-level scenario: multinodes 0 and 1 are 2-vertex cliques
        # (vwgt=2, cewgt=1) joined by a contracted weight-4 edge, so
        # merging them forms a perfect 4-clique (density 1.0).  Vertices 2
        # and 3 are plain (density of (2,3) is also 1.0, of (0,2) only
        # 0.67).  The density-optimal matching {(0,1),(2,3)} is forced for
        # every visiting order.
        g = from_edge_list(
            4, [(0, 1), (0, 2), (2, 3)], [4, 1, 1], vwgt=[2, 2, 1, 1]
        )
        cewgt = np.array([1, 1, 0, 0], dtype=np.int64)
        for seed in range(8):
            match = hcm_matching(g, np.random.default_rng(seed), cewgt)
            assert match.tolist() == [1, 0, 3, 2]

    def test_empty_graph(self):
        g = from_edge_list(0, [])
        for scheme in ALL_SCHEMES:
            match = scheme(g, np.random.default_rng(0))
            assert len(match) == 0

    def test_edgeless_graph_all_unmatched(self):
        g = from_edge_list(5, [])
        for scheme in ALL_SCHEMES:
            match = scheme(g, np.random.default_rng(0))
            assert np.array_equal(match, np.arange(5))

    def test_single_edge(self):
        g = from_edge_list(2, [(0, 1)])
        for scheme in ALL_SCHEMES:
            match = scheme(g, np.random.default_rng(0))
            assert match.tolist() == [1, 0]


class TestDispatch:
    def test_compute_matching_by_enum_and_string(self):
        g = path_graph(6)
        for scheme in MatchingScheme:
            match = compute_matching(g, scheme, np.random.default_rng(0))
            assert is_valid_matching(g, match)
        match = compute_matching(g, "hem", np.random.default_rng(0))
        assert is_valid_matching(g, match)

    def test_unknown_scheme_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            compute_matching(g, "nope", np.random.default_rng(0))

    def test_determinism_with_fixed_seed(self):
        g = random_graph(50, 0.15, seed=9)
        a = hem_matching(g, np.random.default_rng(42))
        b = hem_matching(g, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        g = random_graph(50, 0.15, seed=9)
        a = rm_matching(g, np.random.default_rng(1))
        b = rm_matching(g, np.random.default_rng(2))
        assert not np.array_equal(a, b)


class TestMatchingValidators:
    def test_invalid_length(self):
        g = path_graph(4)
        assert not is_valid_matching(g, np.arange(3))

    def test_non_involution(self):
        g = path_graph(4)
        assert not is_valid_matching(g, np.array([1, 2, 1, 3]))

    def test_non_edge_pair(self):
        g = path_graph(4)  # 0-1-2-3; (0,3) is not an edge
        assert not is_valid_matching(g, np.array([3, 1, 2, 0]))

    def test_non_maximal_detected(self):
        g = path_graph(4)
        # Nothing matched although edges exist.
        assert not is_maximal_matching(g, np.arange(4))


@st.composite
def _weighted_graphs(draw):
    """A small graph with isolated vertices, tie-prone edge weights in 1..3,
    random vertex weights and a random ``cewgt`` for HCM."""
    n = draw(st.integers(1, 30))
    isolated = draw(st.integers(1, 3))
    total = n + isolated
    label = draw(st.permutations(range(total)))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=80)
    ) if possible else []
    edges = [(label[i], label[j]) for i, j in pairs]
    weights = draw(
        st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges))
    )
    vwgt = draw(st.lists(st.integers(1, 4), min_size=total, max_size=total))
    cewgt = draw(st.lists(st.integers(0, 6), min_size=total, max_size=total))
    graph = from_edge_list(total, edges, weights, vwgt=vwgt)
    return graph, np.array(cewgt, dtype=np.int64)


@st.composite
def _heavy_graphs(draw):
    """A small graph whose edge weights sit just under validation's bound
    ``max(w)·len(w) ≤ INT64_MAX``, with some isolated vertices.

    The packed ranking key ``(src·(wmax+1) + r) << s | slot`` never fits
    int64 then, so these graphs rank by the ``lexsort`` fallback
    (:func:`_uses_fused_key`).
    """
    n = draw(st.integers(2, 12))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=1,
                 max_size=30)
    )
    total = n + draw(st.integers(0, 3 * len(pairs)))
    label = draw(st.permutations(range(total)))
    bound = INT64_MAX // (2 * len(pairs))
    weights = draw(
        st.lists(st.integers(bound - 2, bound), min_size=len(pairs),
                 max_size=len(pairs))
    )
    edges = [(label[i], label[j]) for i, j in pairs]
    return from_edge_list(total, edges, weights)


def _uses_fused_key(graph) -> bool:
    """Whether ``_ranked_adjncy`` sorts ``graph`` by the packed fused key
    rather than by ``np.lexsort``."""
    shift = (len(graph.adjncy) - 1).bit_length()
    return graph.nvtxs * (int(graph.adjwgt.max()) + 1) << shift <= 2**63


def _reference_ranked_adjncy(graph, heaviest):
    """The ranking as it was before the packed sort: a stable ``argsort``
    of the fused key, or ``np.lexsort`` where that key overflows."""
    adjncy, adjwgt = graph.adjncy, graph.adjwgt
    if len(adjwgt) == 0 or adjwgt.min() == adjwgt.max():
        return adjncy
    wmax = int(adjwgt.max())
    rank = wmax - adjwgt if heaviest else adjwgt
    src = graph.edge_sources()
    if graph.nvtxs * (wmax + 1) <= INT64_MAX:
        order = np.argsort(src * (wmax + 1) + rank, kind="stable")
    else:
        order = np.lexsort((rank, src))
    return adjncy[order]


def _row_ranked(graph, heaviest):
    """Each row sorted one by one by Python's stable ``sorted``."""
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    sign = -1 if heaviest else 1
    rows = []
    for u in range(graph.nvtxs):
        row = range(int(xadj[u]), int(xadj[u + 1]))
        rows += [int(adjncy[j]) for j in sorted(
            row, key=lambda j: sign * int(adjwgt[j]))]
    return rows


# K4 with weights just below 2^57: its packed key nvtxs·(wmax+1)·2^4 (12
# slots) reaches exactly 2^63 and fits int64; with 20 isolated vertices
# more it does not.
_K4_EDGES = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
_K4_WEIGHTS = [2**57 - 1 - i % 3 for i in range(len(_K4_EDGES))]
NEAR_BOUND = {
    "fused": from_edge_list(4, _K4_EDGES, _K4_WEIGHTS),
    "lexsort": from_edge_list(24, _K4_EDGES, _K4_WEIGHTS),
}


def assert_matches_reference(graph, scheme, seeds, cewgt=None):
    """The kernel and the reference agree for every seed in ``seeds``."""
    for s in seeds:
        got = compute_matching(graph, scheme, np.random.default_rng(s), cewgt)
        ref = _reference_matching(
            graph, scheme, np.random.default_rng(s), cewgt
        )
        assert np.array_equal(got, ref), s


@pytest.mark.parametrize("scheme", list(MatchingScheme), ids=lambda s: s.name)
class TestReferenceOracle:
    """The scalar-scan kernels are bit-identical to the NumPy reference."""

    @settings(max_examples=60, deadline=None)
    @given(case=_weighted_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_random_graphs(self, scheme, case, seed):
        graph, cewgt = case
        if scheme is not MatchingScheme.HCM:
            cewgt = None
        assert_matches_reference(graph, scheme, (seed, seed + 1, seed + 2), cewgt)

    @settings(max_examples=40, deadline=None)
    @given(graph=_heavy_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_weights_near_the_validation_bound(self, scheme, graph, seed):
        assert_matches_reference(graph, scheme, (seed,))

    @pytest.mark.parametrize("path", NEAR_BOUND)
    def test_both_ranking_paths(self, scheme, path):
        graph = NEAR_BOUND[path]
        assert _uses_fused_key(graph) == (path == "fused")
        assert_matches_reference(graph, scheme, range(24))

    def test_single_weight_graph(self, scheme):
        # Every edge weight equal: HEM and LEM scan the rows unsorted.
        base = random_graph(80, 0.1, seed=11)
        graph = from_edge_list(
            base.nvtxs, base.edge_array()[:, :2], [7] * base.nedges
        )
        assert _ranked_adjncy(graph, True) is graph.adjncy
        assert_matches_reference(graph, scheme, range(10))

    def test_coarsening_hierarchy_levels(self, scheme):
        # Every level of two real hierarchies, a 2D mesh and a 3D stiffness
        # analogue: coarse vertex and edge weights above 1 and, for HCM,
        # the cewgt that coarsening threads through.
        for name, scale in (("4ELT", 0.3), ("BCSSTK31", 0.5)):
            graph = load(name, scale=scale, seed=0)
            hierarchy = coarsen(
                graph, DEFAULT_OPTIONS.with_(matching=scheme),
                np.random.default_rng(5),
            )
            cewgt = np.zeros(graph.nvtxs, dtype=np.int64)
            for level, g in enumerate(hierarchy.graphs):
                hcm = cewgt if scheme is MatchingScheme.HCM else None
                assert_matches_reference(g, scheme, (level,), hcm)
                if level < len(hierarchy.cmaps):
                    ncoarse = hierarchy.graphs[level + 1].nvtxs
                    cewgt = collapsed_edge_weight(
                        g, hierarchy.cmaps[level], ncoarse, cewgt
                    )


class TestRankedAdjacency:
    """Each ranked row is its adjacency row stably sorted by weight."""

    @settings(max_examples=60, deadline=None)
    @given(graph=st.one_of(_heavy_graphs(), _weighted_graphs().map(
        lambda case: case[0])))
    def test_rows_match_a_stable_sort(self, graph):
        for heaviest in (True, False):
            got = _ranked_adjncy(graph, heaviest)
            assert got.dtype == graph.adjncy.dtype
            assert got.tolist() == _row_ranked(graph, heaviest)

    @pytest.mark.parametrize("path", NEAR_BOUND)
    def test_both_sort_paths(self, path):
        graph = NEAR_BOUND[path]
        assert _uses_fused_key(graph) == (path == "fused")
        for heaviest in (True, False):
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
                got = _ranked_adjncy(graph, heaviest)
            assert spy.called == (path == "lexsort")
            assert got.tolist() == _row_ranked(graph, heaviest)

    @settings(max_examples=80, deadline=None)
    @given(graph=st.one_of(kernel_graphs(), _heavy_graphs(),
                           _weighted_graphs().map(lambda case: case[0])))
    def test_matches_the_reference(self, graph):
        for heaviest in (True, False):
            got = _ranked_adjncy(graph, heaviest)
            ref = _reference_ranked_adjncy(graph, heaviest)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
