"""Tests for minimum-vertex-cover separators (Hopcroft–Karp + König).

:func:`repro.ordering.boundary_bipartite` builds its adjacency from Python
ints; ``_reference_boundary_bipartite`` below keeps the formulation that
iterated NumPy scalars, and a hypothesis sweep asserts the same vertex
arrays and adjacency lists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multilevel import bisect
from repro.ordering import (
    boundary_bipartite,
    hopcroft_karp,
    minimum_vertex_cover,
    vertex_separator_from_bisection,
)
from repro.graph import from_edge_list
from repro.matrices import load
from tests.conftest import assert_separator, path_graph, random_graph
from tests.test_properties import graphs


def _reference_boundary_bipartite(graph, where):
    """Cut edges as a bipartite adjacency, iterating NumPy scalars."""
    where = np.asarray(where)
    src = graph.edge_sources()
    dst = graph.adjncy
    cross = (where[src] == 0) & (where[dst] == 1)
    a_raw = src[cross]
    b_raw = dst[cross]
    a_vertices, a_idx = np.unique(a_raw, return_inverse=True)
    b_vertices, b_idx = np.unique(b_raw, return_inverse=True)
    adj = [[] for _ in range(len(a_vertices))]
    for ai, bi in zip(a_idx, b_idx):
        adj[ai].append(int(bi))
    return a_vertices, b_vertices, adj


def assert_same_bipartite(graph, where):
    got = boundary_bipartite(graph, where)
    ref = _reference_boundary_bipartite(graph, where)
    for arr, ref_arr in zip(got[:2], ref[:2]):
        assert arr.dtype == ref_arr.dtype
        assert np.array_equal(arr, ref_arr)
    assert got[2] == ref[2]
    assert all(type(b) is int for row in got[2] for b in row)


class TestHopcroftKarp:
    def test_perfect_matching(self):
        adj = [[0], [1], [2]]
        ml, mr = hopcroft_karp(3, 3, adj)
        assert sorted(ml) == [0, 1, 2]

    def test_star_matches_one(self):
        # Left {0,1,2} all adjacent only to right {0}.
        adj = [[0], [0], [0]]
        ml, mr = hopcroft_karp(3, 1, adj)
        assert sum(1 for x in ml if x != -1) == 1
        assert mr[0] != -1

    def test_augmenting_path_needed(self):
        # L0-{R0,R1}, L1-{R0}: greedy L0→R0 would block L1; HK must find
        # the size-2 matching via the augmenting path.
        adj = [[0, 1], [0]]
        ml, mr = hopcroft_karp(2, 2, adj)
        assert ml[1] == 0 and ml[0] == 1

    def test_empty(self):
        ml, mr = hopcroft_karp(0, 0, [])
        assert ml == [] and mr == []

    def test_matching_size_equals_cover_size(self):
        """König: |max matching| == |min vertex cover| on bipartite graphs."""
        rng = np.random.default_rng(3)
        for trial in range(10):
            nl, nr = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            adj = [
                sorted(set(rng.integers(0, nr, rng.integers(0, 5)).tolist()))
                for _ in range(nl)
            ]
            ml, mr = hopcroft_karp(nl, nr, adj)
            msize = sum(1 for x in ml if x != -1)
            cl, cr = minimum_vertex_cover(nl, nr, adj, ml, mr)
            assert int(cl.sum() + cr.sum()) == msize
            # Cover property: every edge touched.
            for u in range(nl):
                for v in adj[u]:
                    assert cl[u] or cr[v]


class TestBoundaryBipartite:
    def test_extracts_cut_edges(self):
        g = path_graph(4)
        a, b, adj = boundary_bipartite(g, np.array([0, 0, 1, 1]))
        assert a.tolist() == [1]
        assert b.tolist() == [2]
        assert adj == [[0]]

    def test_no_cut(self):
        g = path_graph(4)
        a, b, adj = boundary_bipartite(g, np.zeros(4, dtype=int))
        assert len(a) == 0 and len(b) == 0


class TestVertexSeparator:
    def test_path_separator_single_vertex(self):
        g = path_graph(5)
        where = np.array([0, 0, 0, 1, 1])
        sep = vertex_separator_from_bisection(g, where)
        assert len(sep) == 1
        assert sep[0] in (2, 3)
        assert_separator(g, sep, where)

    def test_separator_never_larger_than_boundary_side(self):
        g = random_graph(60, 0.1, seed=5, connected=True)
        rng = np.random.default_rng(1)
        where = rng.integers(0, 2, g.nvtxs)
        sep = vertex_separator_from_bisection(g, where)
        a, b, _ = boundary_bipartite(g, where)
        assert len(sep) <= min(len(a), len(b)) or len(sep) <= max(len(a), len(b))
        assert_separator(g, sep, where)

    def test_grid_middle_split(self, grid8):
        where = np.zeros(64, dtype=int)
        where[32:] = 1  # split between rows 3 and 4
        sep = vertex_separator_from_bisection(grid8, where)
        assert len(sep) == 8  # one full grid row
        assert_separator(grid8, sep, where)

    def test_bipartite_structure_exploited(self):
        # K2,3: cut between sides; the cover picks the 2-side.
        g = from_edge_list(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        where = np.array([0, 0, 1, 1, 1])
        sep = vertex_separator_from_bisection(g, where)
        assert sorted(sep.tolist()) == [0, 1]

    def test_empty_cut_gives_empty_separator(self):
        from tests.conftest import two_triangles

        g = two_triangles()
        where = np.array([0, 0, 0, 1, 1, 1])
        sep = vertex_separator_from_bisection(g, where)
        assert len(sep) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_always_separate(self, seed):
        g = random_graph(50, 0.12, seed=seed, connected=True)
        rng = np.random.default_rng(seed)
        where = rng.integers(0, 2, g.nvtxs)
        sep = vertex_separator_from_bisection(g, where)
        assert_separator(g, sep, where)


class TestBoundaryBipartiteReference:
    """``boundary_bipartite`` is bit-identical to its reference."""

    @settings(max_examples=80, deadline=None)
    @given(graph=graphs(weighted=True, min_n=0, max_n=40), data=st.data())
    def test_random_sides(self, graph, data):
        where = data.draw(st.lists(
            st.integers(0, 1), min_size=graph.nvtxs, max_size=graph.nvtxs))
        assert_same_bipartite(graph, np.array(where, dtype=np.int64))

    @pytest.mark.parametrize("name", ["4ELT", "BCSSTK31"])
    def test_analogue_bisections(self, name):
        graph = load(name, scale=0.25, seed=0)
        for seed in range(3):
            where = bisect(graph, rng=np.random.default_rng(seed)).bisection.where
            assert_same_bipartite(graph, where)
