"""Tests for graph file I/O (Chaco/METIS .graph format, MatrixMarket)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import from_edge_list, read_graph, read_matrix_market, write_graph
from repro.utils.errors import GraphValidationError
from tests.conftest import complete_graph, path_graph


def roundtrip(g, tmp_path):
    path = tmp_path / "g.graph"
    write_graph(g, path)
    return read_graph(path)


class TestRoundtrip:
    def test_unweighted(self, tmp_path):
        g = path_graph(6)
        assert roundtrip(g, tmp_path).sorted_adjacency() == g.sorted_adjacency()

    def test_edge_weighted(self, tmp_path):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)], [5, 1, 9])
        assert roundtrip(g, tmp_path).sorted_adjacency() == g.sorted_adjacency()

    def test_vertex_weighted(self, tmp_path):
        g = from_edge_list(3, [(0, 1), (1, 2)], vwgt=[4, 5, 6])
        assert roundtrip(g, tmp_path).sorted_adjacency() == g.sorted_adjacency()

    def test_both_weighted(self, tmp_path):
        g = from_edge_list(3, [(0, 1), (1, 2)], [2, 3], vwgt=[4, 5, 6])
        assert roundtrip(g, tmp_path).sorted_adjacency() == g.sorted_adjacency()

    def test_isolated_vertices(self, tmp_path):
        g = from_edge_list(5, [(0, 1)])
        back = roundtrip(g, tmp_path)
        assert back.nvtxs == 5
        assert back.nedges == 1

    def test_complete_graph(self, tmp_path):
        g = complete_graph(7)
        assert roundtrip(g, tmp_path).sorted_adjacency() == g.sorted_adjacency()

    def test_empty_edge_graph(self, tmp_path):
        g = from_edge_list(3, [])
        back = roundtrip(g, tmp_path)
        assert back.nvtxs == 3 and back.nedges == 0


class TestHeaderFormats:
    def test_fmt_defaults_and_comments(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("% a comment\n3 2\n2\n1 3\n2\n")
        g = read_graph(path)
        assert g.nvtxs == 3 and g.nedges == 2

    def test_fmt_single_digit_1_means_edge_weights(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1 1\n2 7\n1 7\n")
        g = read_graph(path)
        assert g.edge_weight(0, 1) == 7

    def test_fmt_10_vertex_weights(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1 10\n5 2\n6 1\n")
        g = read_graph(path)
        assert g.vwgt.tolist() == [5, 6]

    def test_fmt_11_both(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1 11\n5 2 9\n6 1 9\n")
        g = read_graph(path)
        assert g.vwgt.tolist() == [5, 6]
        assert g.edge_weight(0, 1) == 9


class TestMalformed:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("")
        with pytest.raises(GraphValidationError, match="empty"):
            read_graph(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("5\n")
        with pytest.raises(GraphValidationError, match="header"):
            read_graph(path)

    def test_wrong_vertex_count(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 1\n2\n1\n")
        with pytest.raises(GraphValidationError, match="vertices"):
            read_graph(path)

    def test_wrong_edge_count(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(GraphValidationError, match="edges"):
            read_graph(path)

    def test_out_of_range_neighbor(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1\n3\n1\n")
        with pytest.raises(GraphValidationError, match="out of range"):
            read_graph(path)

    def test_asymmetric_adjacency(self, tmp_path):
        # Vertex 1 lists 2, but vertex 2's line is empty: the old reader
        # silently dropped the edge (and happened to fail only via the
        # edge-count check, if at all).
        path = tmp_path / "g.graph"
        path.write_text("3 1\n2\n\n\n")
        with pytest.raises(GraphValidationError, match="asymmetric"):
            read_graph(path)

    def test_asymmetric_reverse_only_side(self, tmp_path):
        # Only the u > v copy exists; the old v < u recording never saw it.
        path = tmp_path / "g.graph"
        path.write_text("3 1\n\n1\n\n")
        with pytest.raises(GraphValidationError, match="asymmetric"):
            read_graph(path)

    def test_edge_weight_mismatch_between_copies(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1 1\n2 7\n1 8\n")
        with pytest.raises(GraphValidationError, match="weight"):
            read_graph(path)

    def test_dangling_weight_token(self, tmp_path):
        # fmt=1 means neighbour/weight pairs; a trailing lone neighbour
        # used to crash with IndexError on fields[pos + 1].
        path = tmp_path / "g.graph"
        path.write_text("2 1 1\n2 7\n1\n")
        with pytest.raises(GraphValidationError, match="without an edge weight"):
            read_graph(path)

    def test_non_integer_token(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1\ntwo\n1\n")
        with pytest.raises(GraphValidationError, match="non-integer"):
            read_graph(path)

    def test_non_integer_header(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 x\n2\n1\n")
        with pytest.raises(GraphValidationError, match="non-integer"):
            read_graph(path)

    def test_missing_vertex_weight(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1 10\n5 2\n\n")
        with pytest.raises(GraphValidationError, match="vertex weight"):
            read_graph(path)

    def test_self_loop(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 2\n1 2\n1\n")
        with pytest.raises(GraphValidationError, match="self-loop"):
            read_graph(path)

    def test_duplicate_neighbour(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1\n2 2\n1\n")
        with pytest.raises(GraphValidationError, match="twice"):
            read_graph(path)

    def test_indented_comment_line(self, tmp_path):
        # A comment with leading whitespace escaped the startswith filter
        # and crashed the parse as a data line.
        path = tmp_path / "g.graph"
        path.write_text("  % indented comment\n3 2\n2\n1 3\n2\n")
        g = read_graph(path)
        assert g.nvtxs == 3 and g.nedges == 2

    @pytest.mark.parametrize(
        "text",
        [f"2 1 10\n{2**70} 2\n1 1\n", f"2 1 1\n2 {2**70}\n1 {2**70}\n"],
        ids=["vertex-weight", "edge-weight"],
    )
    def test_weight_beyond_int64(self, tmp_path, text):
        path = tmp_path / "g.graph"
        path.write_text(text)
        with pytest.raises(GraphValidationError, match="int64"):
            read_graph(path)

    def test_unsupported_fmt(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1 7\n2\n1\n")
        with pytest.raises(GraphValidationError, match="fmt"):
            read_graph(path)


class TestMatrixMarket:
    def test_symmetric_pattern(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% comment\n"
            "3 3 4\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "3 2 -1.0\n"
            "2 2 2.0\n"
        )
        g = read_matrix_market(path)
        assert g.nvtxs == 3
        assert g.nedges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_pattern_file_without_values(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "2 2 1\n"
            "2 1\n"
        )
        g = read_matrix_market(path)
        assert g.nedges == 1

    def test_rejects_nonsquare(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1.0\n")
        with pytest.raises(GraphValidationError, match="square"):
            read_matrix_market(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("2 2 1\n1 2 1.0\n")
        with pytest.raises(GraphValidationError, match="header"):
            read_matrix_market(path)

    def test_rejects_array_format(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
        with pytest.raises(GraphValidationError, match="coordinate"):
            read_matrix_market(path)

    def test_truncated_after_header(self, tmp_path):
        # Missing size line used to hit ''.split() and unpack-crash.
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n")
        with pytest.raises(GraphValidationError, match="truncated"):
            read_matrix_market(path)

    def test_truncated_entries(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n"
        )
        with pytest.raises(GraphValidationError, match="truncated"):
            read_matrix_market(path)

    def test_short_entry_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2\n"
        )
        with pytest.raises(GraphValidationError, match="row col"):
            read_matrix_market(path)

    def test_non_integer_size_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 x\n"
        )
        with pytest.raises(GraphValidationError, match="non-integer"):
            read_matrix_market(path)

    def test_malformed_size_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n2 2\n")
        with pytest.raises(GraphValidationError, match="size line"):
            read_matrix_market(path)

    def test_out_of_range_entry(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n3 1\n"
        )
        with pytest.raises(GraphValidationError, match="out of range"):
            read_matrix_market(path)

    def test_indented_comment_before_size(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "  % indented comment\n"
            "2 2 1\n"
            "2 1\n"
        )
        assert read_matrix_market(path).nedges == 1


# ---------------------------------------------------------------------------
# write_graph -> read_graph round-trip property: the format negotiation in
# write_graph (fmt 00/01/10/11, chosen from the weights actually present)
# must be lossless for every graph, including isolated vertices and int64
# weights beyond the 2^53 float-exactness cliff.
# ---------------------------------------------------------------------------
# Above 2^53 (catches any float round-trip in the writer) yet small enough
# that the validator's int64 sum-overflow guard accepts every draw.
_BIG = 2**55


@st.composite
def _io_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    ) if pairs else []
    weighted_edges = draw(st.booleans())
    weighted_vertices = draw(st.booleans())
    weights = (
        draw(
            st.lists(
                st.integers(1, _BIG), min_size=len(edges), max_size=len(edges)
            )
        )
        if weighted_edges
        else None
    )
    vwgt = (
        draw(st.lists(st.integers(1, _BIG), min_size=n, max_size=n))
        if weighted_vertices
        else None
    )
    return from_edge_list(n, edges, weights, vwgt)


@given(g=_io_graphs())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_roundtrip_property_all_fmt_combos(g, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "g.graph"
    write_graph(g, path)
    back = read_graph(path)
    assert back.nvtxs == g.nvtxs
    assert back.nedges == g.nedges
    assert np.array_equal(back.vwgt, g.vwgt)
    assert back.sorted_adjacency() == g.sorted_adjacency()
