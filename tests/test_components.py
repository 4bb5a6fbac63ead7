"""Tests for connected components and subgraph extraction.

:func:`repro.graph.connected_components` is a scalar DFS over memoryviews
and :func:`repro.graph.extract_subgraph` one gather over the kept vertices'
adjacency runs.  ``_reference_connected_components`` and
``_reference_extract_subgraph`` below keep the per-vertex NumPy
formulations they replaced; a hypothesis sweep asserts equal arrays and
dtypes, and a ``perf``-marked class that each rewrite is the faster one.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    connected_components,
    extract_subgraph,
    from_edge_list,
    is_connected,
    largest_component,
    num_components,
)
from repro.graph.csr import INDEX_DTYPE
from repro.matrices import grid2d
from tests.conftest import path_graph, two_triangles
from tests.test_properties import graphs


def _reference_connected_components(graph):
    """Per-vertex NumPy DFS: labels in order of the lowest root vertex."""
    n = graph.nvtxs
    comp = np.full(n, -1, dtype=np.int32)
    xadj, adjncy = graph.xadj, graph.adjncy
    current = 0
    stack = np.empty(n, dtype=np.int64)
    for root in range(n):
        if comp[root] != -1:
            continue
        comp[root] = current
        stack[0] = root
        top = 1
        while top:
            top -= 1
            v = stack[top]
            for u in adjncy[xadj[v] : xadj[v + 1]]:
                if comp[u] == -1:
                    comp[u] = current
                    stack[top] = u
                    top += 1
        current += 1
    return comp


def _reference_extract_subgraph(graph, vertices):
    """Per-kept-vertex slice, mask and ``keep.sum()``."""
    vertices = np.asarray(vertices, dtype=np.int64)
    n = graph.nvtxs
    local = np.full(n, -1, dtype=np.int64)
    local[vertices] = np.arange(len(vertices), dtype=np.int64)

    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    sub_xadj = np.zeros(len(vertices) + 1, dtype=np.int64)
    chunks_n = []
    chunks_w = []
    for i, v in enumerate(vertices):
        s, e = xadj[v], xadj[v + 1]
        nbrs = local[adjncy[s:e]]
        keep = nbrs >= 0
        chunks_n.append(nbrs[keep])
        chunks_w.append(adjwgt[s:e][keep])
        sub_xadj[i + 1] = sub_xadj[i] + int(keep.sum())
    sub_adjncy = (
        np.concatenate(chunks_n).astype(INDEX_DTYPE)
        if chunks_n
        else np.empty(0, dtype=INDEX_DTYPE)
    )
    sub_adjwgt = (
        np.concatenate(chunks_w) if chunks_w else np.empty(0, dtype=np.int64)
    )
    sub = CSRGraph(
        sub_xadj,
        sub_adjncy,
        sub_adjwgt,
        graph.vwgt[vertices].copy(),
        validate=False,
    )
    if graph.coords is not None:
        sub.coords = graph.coords[vertices].copy()
    return sub, vertices


def _assert_same_array(got, ref):
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


def _assert_same_subgraph(got, ref):
    (sub, vmap), (ref_sub, ref_vmap) = got, ref
    _assert_same_array(sub.xadj, ref_sub.xadj)
    _assert_same_array(sub.adjncy, ref_sub.adjncy)
    _assert_same_array(sub.adjwgt, ref_sub.adjwgt)
    _assert_same_array(sub.vwgt, ref_sub.vwgt)
    _assert_same_array(vmap, ref_vmap)
    assert (sub.coords is None) == (ref_sub.coords is None)
    if sub.coords is not None:
        _assert_same_array(sub.coords, ref_sub.coords)
    assert sub.xadj.dtype == np.int64 and sub.adjncy.dtype == INDEX_DTYPE
    assert sub.adjwgt.dtype == np.int64 and sub.vwgt.dtype == np.int64


@st.composite
def _selections(draw):
    """A weighted graph with ``vwgt`` above 1 and coordinates, plus a vertex
    selection that is unsorted, partial or empty."""
    graph = draw(graphs(weighted=True, min_n=1))
    n = graph.nvtxs
    vwgt = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    graph = CSRGraph(graph.xadj, graph.adjncy, graph.adjwgt, vwgt)
    if draw(st.booleans()):
        graph.coords = np.arange(2 * n, dtype=np.float64).reshape(n, 2)
    vertices = draw(st.permutations(range(n)))
    vertices = vertices[: draw(st.integers(0, n))]
    return graph, np.array(vertices, dtype=np.int64)


class TestComponents:
    def test_connected_path(self):
        g = path_graph(6)
        assert num_components(g) == 1
        assert is_connected(g)
        assert np.all(connected_components(g) == 0)

    def test_two_triangles(self):
        g = two_triangles()
        comp = connected_components(g)
        assert num_components(g) == 2
        assert comp[0] == comp[1] == comp[2] == 0
        assert comp[3] == comp[4] == comp[5] == 1

    def test_isolated_vertices(self):
        g = from_edge_list(4, [(0, 1)])
        assert num_components(g) == 3

    def test_empty_graph(self):
        g = from_edge_list(0, [])
        assert num_components(g) == 0
        assert is_connected(g)  # vacuously

    def test_component_ids_in_discovery_order(self):
        g = from_edge_list(4, [(2, 3)])
        comp = connected_components(g)
        assert comp[0] == 0 and comp[1] == 1 and comp[2] == comp[3] == 2

    def test_deep_path_no_recursion_error(self):
        g = path_graph(20000)
        assert is_connected(g)


class TestExtractSubgraph:
    def test_induced_edges_only(self):
        g = path_graph(5)
        sub, vmap = extract_subgraph(g, np.array([0, 1, 3]))
        assert sub.nvtxs == 3
        assert sub.nedges == 1  # only (0,1); 3 is isolated in the subgraph
        assert vmap.tolist() == [0, 1, 3]

    def test_weights_inherited(self):
        g = from_edge_list(3, [(0, 1), (1, 2)], [7, 8], vwgt=[1, 2, 3])
        sub, _ = extract_subgraph(g, np.array([1, 2]))
        assert sub.vwgt.tolist() == [2, 3]
        assert sub.edge_weight(0, 1) == 8

    def test_order_of_vertices_defines_renumbering(self):
        g = path_graph(3)
        sub, vmap = extract_subgraph(g, np.array([2, 1]))
        assert vmap.tolist() == [2, 1]
        assert sub.has_edge(0, 1)  # old (1,2) renumbered

    def test_coords_sliced(self):
        g = path_graph(3)
        g.coords = np.array([[0.0, 0], [1, 0], [2, 0]])
        sub, _ = extract_subgraph(g, np.array([2, 0]))
        assert np.array_equal(sub.coords, np.array([[2.0, 0], [0, 0]]))

    def test_empty_selection(self):
        g = path_graph(3)
        sub, vmap = extract_subgraph(g, np.array([], dtype=np.int64))
        assert sub.nvtxs == 0
        assert len(vmap) == 0

    def test_full_selection_is_identity(self):
        g = path_graph(4)
        sub, _ = extract_subgraph(g, np.arange(4))
        assert sub.sorted_adjacency() == g.sorted_adjacency()


class TestLargestComponent:
    def test_picks_largest(self):
        # Triangle + single edge.
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        sub, vmap = largest_component(g)
        assert sub.nvtxs == 3
        assert sorted(vmap.tolist()) == [0, 1, 2]

    def test_already_connected(self):
        g = path_graph(4)
        sub, vmap = largest_component(g)
        assert sub.nvtxs == 4
        assert sub.sorted_adjacency() == g.sorted_adjacency()


class TestReferenceOracle:
    """The rewrites return the reference's arrays, dtypes included."""

    @settings(max_examples=200, deadline=None)
    @given(graph=graphs(weighted=True, min_n=0))
    def test_components_match_reference(self, graph):
        got = connected_components(graph)
        _assert_same_array(got, _reference_connected_components(graph))
        assert got.dtype == np.int32

    @settings(max_examples=200, deadline=None)
    @given(case=_selections())
    def test_extraction_matches_reference(self, case):
        graph, vertices = case
        _assert_same_subgraph(
            extract_subgraph(graph, vertices),
            _reference_extract_subgraph(graph, vertices),
        )

    def test_components_of_each_half(self):
        # The recursion's use: label the halves it extracted.
        graph = grid2d(30, 17)
        graph.coords = np.arange(2 * graph.nvtxs, dtype=np.float64).reshape(-1, 2)
        rng = np.random.default_rng(4)
        side = rng.integers(0, 2, graph.nvtxs)
        for part in (0, 1):
            vertices = rng.permutation(np.flatnonzero(side == part))
            got = extract_subgraph(graph, vertices)
            ref = _reference_extract_subgraph(graph, vertices)
            _assert_same_subgraph(got, ref)
            _assert_same_array(
                connected_components(got[0]),
                _reference_connected_components(ref[0]),
            )


def _best_time(fn, *args, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.perf
class TestSpeed:
    def test_extraction_10x_over_reference(self):
        graph = grid2d(320, 320)
        half = np.flatnonzero(np.arange(graph.nvtxs) < graph.nvtxs // 2)
        t_ref, ref = _best_time(_reference_extract_subgraph, graph, half)
        t_new, got = _best_time(extract_subgraph, graph, half)
        _assert_same_subgraph(got, ref)
        assert t_ref / t_new >= 10, (
            f"extract_subgraph only {t_ref / t_new:.1f}x faster than the "
            f"reference (reference {t_ref:.4f}s, new {t_new:.4f}s)"
        )

    def test_labelling_2x_over_reference(self):
        graph = grid2d(320, 320)
        t_ref, ref = _best_time(_reference_connected_components, graph)
        t_new, got = _best_time(connected_components, graph)
        _assert_same_array(got, ref)
        assert t_ref / t_new >= 2, (
            f"connected_components only {t_ref / t_new:.1f}x faster than "
            f"the reference (reference {t_ref:.4f}s, new {t_new:.4f}s)"
        )
