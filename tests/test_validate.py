"""Tests for CSR structural validation — every failure mode."""

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.utils.errors import GraphValidationError


def make_raw(**overrides):
    """A valid 3-vertex path, fields overridable to inject defects."""
    fields = dict(
        xadj=np.array([0, 1, 3, 4]),
        adjncy=np.array([1, 0, 2, 1]),
        adjwgt=np.array([1, 1, 1, 1]),
        vwgt=np.array([1, 1, 1]),
    )
    fields.update(overrides)
    return fields


def build(**overrides):
    return CSRGraph(**make_raw(**overrides), validate=True)


def test_valid_graph_passes():
    build()


def test_xadj_must_start_at_zero():
    with pytest.raises(GraphValidationError, match="xadj\\[0\\]"):
        build(xadj=np.array([1, 2, 4, 5]))


def test_xadj_must_end_at_len_adjncy():
    with pytest.raises(GraphValidationError, match="xadj\\[-1\\]"):
        build(xadj=np.array([0, 1, 3, 3]))


def test_xadj_must_be_nondecreasing():
    with pytest.raises(GraphValidationError, match="non-decreasing"):
        build(xadj=np.array([0, 3, 1, 4]))


def test_adjwgt_length_mismatch():
    with pytest.raises(GraphValidationError, match="adjwgt length"):
        build(adjwgt=np.array([1, 1, 1]))


def test_vwgt_length_mismatch():
    with pytest.raises(GraphValidationError, match="vwgt length"):
        build(vwgt=np.array([1, 1]))


def test_out_of_range_neighbor():
    with pytest.raises(GraphValidationError, match="out-of-range"):
        build(adjncy=np.array([1, 0, 3, 1]))


def test_negative_neighbor():
    with pytest.raises(GraphValidationError, match="out-of-range"):
        build(adjncy=np.array([1, 0, -1, 1]))


def test_nonpositive_vertex_weight():
    with pytest.raises(GraphValidationError, match="vertex weights"):
        build(vwgt=np.array([1, 0, 1]))


def test_nonpositive_edge_weight():
    with pytest.raises(GraphValidationError, match="edge weights"):
        build(adjwgt=np.array([1, 1, 0, 1]))


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError, match="self-loop"):
        CSRGraph(
            xadj=np.array([0, 1]),
            adjncy=np.array([0]),
            adjwgt=np.array([1]),
            vwgt=np.array([1]),
        )


def test_asymmetric_adjacency_rejected():
    # Edge 0->1 present, 1->0 missing.
    with pytest.raises(GraphValidationError, match="symmetric"):
        CSRGraph(
            xadj=np.array([0, 1, 1]),
            adjncy=np.array([1]),
            adjwgt=np.array([1]),
            vwgt=np.array([1, 1]),
        )


def test_asymmetric_weights_rejected():
    with pytest.raises(GraphValidationError, match="symmetric"):
        CSRGraph(
            xadj=np.array([0, 1, 2]),
            adjncy=np.array([1, 0]),
            adjwgt=np.array([2, 3]),
            vwgt=np.array([1, 1]),
        )


def test_duplicate_neighbor_rejected():
    with pytest.raises(GraphValidationError, match="duplicate"):
        CSRGraph(
            xadj=np.array([0, 2, 4]),
            adjncy=np.array([1, 1, 0, 0]),
            adjwgt=np.array([1, 1, 1, 1]),
            vwgt=np.array([1, 1]),
        )


def test_empty_graph_is_valid():
    CSRGraph(
        xadj=np.array([0]),
        adjncy=np.array([], dtype=np.int32),
        adjwgt=np.array([], dtype=np.int64),
        vwgt=np.array([], dtype=np.int64),
    )


def test_isolated_vertices_are_valid():
    CSRGraph(
        xadj=np.array([0, 0, 0]),
        adjncy=np.array([], dtype=np.int32),
        adjwgt=np.array([], dtype=np.int64),
        vwgt=np.array([1, 1]),
    )


def test_validate_false_skips_checks():
    # Deliberately broken graph accepted when validation is off; this is
    # the documented contract for trusted internal constructors.
    g = CSRGraph(
        xadj=np.array([0, 1, 1]),
        adjncy=np.array([1]),
        adjwgt=np.array([1]),
        vwgt=np.array([1, 1]),
        validate=False,
    )
    assert g.nvtxs == 2


class TestCheckedBeforeTheCast:
    """Arrays are checked as given: a cast would truncate or wrap them."""

    def test_float_arrays_are_not_truncated_into_an_edge(self):
        with pytest.raises(GraphValidationError, match="dtype float64"):
            CSRGraph(np.array([0, 1.7, 2]), np.array([1.9, 0.2]))

    def test_int64_id_past_int32_does_not_wrap(self):
        # 2**32 + 1 would wrap to vertex 1 and pass as the edge 0-1.
        adjncy = np.array([2**32 + 1, 0], dtype=np.int64)
        with pytest.raises(GraphValidationError, match="4294967297"):
            CSRGraph(np.array([0, 1, 2]), adjncy)

    def test_uint64_weight_past_int64_does_not_wrap(self):
        with pytest.raises(GraphValidationError, match="vwgt"):
            build(vwgt=np.array([1, 2**63, 1], dtype=np.uint64))

    def test_two_dimensional_array(self):
        with pytest.raises(GraphValidationError, match="one-dimensional"):
            build(vwgt=np.ones((3, 1), dtype=np.int64))

    def test_empty_float_array_is_an_empty_adjacency(self):
        assert CSRGraph([0, 0], []).nvtxs == 1
