"""Tests for the synthetic workload generators (Table 1 analogues)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import is_connected, validate_graph
from repro.graph.generators_util import simple_edges
from repro.matrices import (
    airfoil,
    fe_tet3d,
    financial_lp,
    graded_lshape,
    grid2d,
    grid3d,
    highway_network,
    memory_circuit,
    power_network,
    process_matrix,
    sequential_circuit,
    stiffness3d,
)


ALL_GENERATORS = {
    "grid2d": lambda: grid2d(12, 9),
    "grid2d_9pt": lambda: grid2d(10, 10, nine_point=True),
    "lshape": lambda: graded_lshape(400),
    "airfoil": lambda: airfoil(600, seed=1),
    "grid3d": lambda: grid3d(5, 4, 3),
    "tet3d": lambda: fe_tet3d(500, seed=1),
    "stiffness": lambda: stiffness3d(150, dofs=3, seed=1),
    "power": lambda: power_network(800, seed=1),
    "highway": lambda: highway_network(900, seed=1),
    "circuit": lambda: sequential_circuit(700, seed=1),
    "memory": lambda: memory_circuit(600, seed=1),
    "finlp": lambda: financial_lp(800, seed=1),
    "process": lambda: process_matrix(800, seed=1),
}


@pytest.mark.parametrize("name", ALL_GENERATORS, ids=ALL_GENERATORS.keys())
class TestAllGenerators:
    def test_structurally_valid(self, name):
        g = ALL_GENERATORS[name]()
        validate_graph(g)

    def test_connected(self, name):
        assert is_connected(ALL_GENERATORS[name]())

    def test_simple_unweighted(self, name):
        """All Table 1 analogues are matrix patterns: unit weights."""
        g = ALL_GENERATORS[name]()
        assert np.all(g.adjwgt == 1)
        assert np.all(g.vwgt == 1)

    def test_deterministic(self, name):
        a = ALL_GENERATORS[name]()
        b = ALL_GENERATORS[name]()
        assert a.sorted_adjacency() == b.sorted_adjacency()


class TestGrid2d:
    def test_exact_structure(self):
        g = grid2d(3, 2)
        assert g.nvtxs == 6
        assert g.nedges == 7  # 4 horizontal + 3 vertical
        assert g.has_edge(0, 1) and g.has_edge(0, 3)

    def test_nine_point_more_edges(self):
        five = grid2d(6, 6)
        nine = grid2d(6, 6, nine_point=True)
        assert nine.nedges == five.nedges + 2 * 25  # two diagonals per cell

    def test_coords_attached(self):
        g = grid2d(4, 3)
        assert g.coords.shape == (12, 2)
        assert np.allclose(g.coords[5], [1.0, 1.0])

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            grid2d(0, 5)


class TestLShape:
    def test_quadrant_removed(self):
        g = graded_lshape(300)
        full = g.coords
        # No vertex strictly inside the (+,+) open quadrant.
        inside = (full[:, 0] > 1e-9) & (full[:, 1] > 1e-9)
        assert not inside.any()

    def test_size_close_to_target(self):
        g = graded_lshape(3466)
        assert abs(g.nvtxs - 3466) < 0.1 * 3466

    def test_grading_shrinks_spacing_near_corner(self):
        g = graded_lshape(400, grading=0.5)
        xs = np.unique(g.coords[:, 0])
        gaps = np.diff(xs)
        mid = len(gaps) // 2
        # Spacing near the corner (centre of the sorted axis) is smaller
        # than at the domain edge.
        assert gaps[mid] < gaps[0]


class TestClassCharacteristics:
    def test_power_degree_low(self):
        g = power_network(2000, seed=2)
        assert 1.2 <= g.average_degree() <= 3.5

    def test_highway_degree_roadlike(self):
        g = highway_network(2000, seed=2)
        assert 2.0 <= g.average_degree() <= 4.5

    def test_stiffness_degree_high(self):
        g = stiffness3d(300, dofs=3, seed=2)
        assert g.average_degree() > 20

    def test_stiffness_dof_cliques(self):
        g = stiffness3d(100, dofs=3, seed=3)
        # DOFs of node 0 are vertices 0,1,2 and must form a clique.
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 2)

    def test_memory_has_hubs(self):
        # Word/bit-line drivers have degree ≈ √n while cells sit at ~7;
        # hub-to-average contrast grows with n, so use a modest multiple.
        g = memory_circuit(1500, seed=2)
        assert g.degrees().max() > 4 * g.average_degree()

    def test_circuit_skewed_degrees(self):
        g = sequential_circuit(1500, seed=2)
        assert g.degrees().max() > 4 * g.average_degree()

    def test_circuits_have_no_coords(self):
        assert sequential_circuit(400, seed=1).coords is None
        assert memory_circuit(400, seed=1).coords is None

    def test_meshes_have_coords(self):
        assert airfoil(400, seed=1).coords is not None
        assert fe_tet3d(300, seed=1).coords is not None

    def test_airfoil_density_gradient(self):
        g = airfoil(1200, seed=4)
        r = np.linalg.norm(g.coords, axis=1)
        near = (r < 0.4).sum()
        far = (r > 0.9).sum()
        assert near > far  # points concentrate at the airfoil

    def test_expand_dofs_validation(self):
        from repro.matrices.mesh3d import expand_dofs

        with pytest.raises(ValueError):
            expand_dofs(grid3d(2, 2, 2), 0)

    def test_tet3d_elongation(self):
        g = fe_tet3d(400, seed=5, elongation=(4.0, 1.0, 1.0))
        extents = g.coords.max(axis=0) - g.coords.min(axis=0)
        assert extents[0] > 2.5 * extents[1]


def _reference_simple_edges(edges):
    """Unique canonical rows by ``np.unique(axis=0)``, which sorts the
    rows lexicographically as a structured dtype."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return edges.reshape(0, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(np.column_stack([lo, hi]), axis=0)


class TestSimpleEdges:
    """One ``np.unique`` of a fused key gives the rows, and the order,
    of ``np.unique(axis=0)``."""

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=120
        ),
        data=st.data(),
    )
    def test_matches_unique_rows(self, pairs, data):
        # Repeat some pairs, some of them reversed, so duplicates come in
        # both orientations; i == j pairs are self-loops.
        repeats = data.draw(st.lists(
            st.tuples(st.sampled_from(pairs), st.booleans()), max_size=40
        )) if pairs else []
        pairs = pairs + [(j, i) if flip else (i, j) for (i, j), flip in repeats]
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        got, ref = simple_edges(edges), _reference_simple_edges(edges)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("edges", [
        [], np.empty((0, 2), dtype=np.int64), [(3, 3)], [(0, 0), (5, 5)],
        [(2, 1), (1, 2), (2, 1), (4, 4)], [(0, 7), (7, 0)],
    ], ids=["empty-list", "empty-array", "self-loop", "self-loops",
            "both-orientations", "ids-at-the-span"])
    def test_edge_cases(self, edges):
        got, ref = simple_edges(edges), _reference_simple_edges(edges)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
