"""Tests for CSR structural validation — every failure mode.

:func:`repro.graph.validate.validate_graph` sorts the directed entries by
one fused key per direction.  ``_reference_validate_graph`` below keeps
the two-``lexsort`` formulation it replaced; a hypothesis sweep over valid
weighted graphs and single-defect mutants of them asserts that both make
the same accept/reject decision with the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.graph.validate import _check_weight_sum, validate_graph
from repro.utils.errors import GraphValidationError
from tests.test_properties import graphs


def _reference_validate_graph(graph) -> None:
    """The two-``lexsort`` validation that ``validate_graph`` replaced."""
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt
    n = len(xadj) - 1
    if n < 0:
        raise GraphValidationError("xadj must have at least one entry")
    if xadj[0] != 0:
        raise GraphValidationError(f"xadj[0] must be 0, got {xadj[0]}")
    if xadj[-1] != len(adjncy):
        raise GraphValidationError(
            f"xadj[-1] ({xadj[-1]}) must equal len(adjncy) ({len(adjncy)})"
        )
    if np.any(np.diff(xadj) < 0):
        raise GraphValidationError("xadj must be non-decreasing")
    if len(adjwgt) != len(adjncy):
        raise GraphValidationError(
            f"adjwgt length {len(adjwgt)} != adjncy length {len(adjncy)}"
        )
    if len(vwgt) != n:
        raise GraphValidationError(f"vwgt length {len(vwgt)} != nvtxs {n}")
    if n == 0:
        return
    if len(adjncy) and (adjncy.min() < 0 or adjncy.max() >= n):
        raise GraphValidationError("adjncy contains out-of-range vertex ids")
    if np.any(vwgt <= 0):
        raise GraphValidationError("vertex weights must be positive")
    if len(adjwgt) and np.any(adjwgt <= 0):
        raise GraphValidationError("edge weights must be positive")
    _check_weight_sum(vwgt, "vwgt")
    _check_weight_sum(adjwgt, "adjwgt")

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(xadj))
    if np.any(src == adjncy):
        raise GraphValidationError("self-loops are not allowed")

    order = np.lexsort((adjncy, src))
    s_sorted = src[order]
    d_sorted = adjncy[order]
    dup = (s_sorted[1:] == s_sorted[:-1]) & (d_sorted[1:] == d_sorted[:-1])
    if np.any(dup):
        i = int(np.flatnonzero(dup)[0])
        raise GraphValidationError(
            f"vertex {int(s_sorted[i])} has duplicate neighbour "
            f"{int(d_sorted[i])} in its adjacency list"
        )

    w_sorted = adjwgt[order]
    rorder = np.lexsort((src, adjncy))
    rs = adjncy[rorder].astype(np.int64)
    rd = src[rorder]
    rw = adjwgt[rorder]
    d64 = d_sorted.astype(np.int64)
    bad = (s_sorted != rs) | (d64 != rd) | (w_sorted != rw)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise GraphValidationError(
            "adjacency is not symmetric with equal weights: edge "
            f"({int(s_sorted[i])}, {int(d64[i])}, w={int(w_sorted[i])}) has no "
            f"matching reverse entry"
        )


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


# --------------------------------------------------------------------------
# The fused-key sort against the reference
# --------------------------------------------------------------------------
_DEFECTS = ("none", "duplicate", "missing-reverse", "weight", "self-loop")


@st.composite
def _cases(draw):
    """A valid weighted graph, shuffled within each adjacency list, with at
    most one defect: ``(defect, CSRGraph built without validation)``."""
    g = draw(graphs(weighted=True, min_n=1, max_n=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for v in range(g.nvtxs):
        lo, hi = g.xadj[v], g.xadj[v + 1]
        row = list(zip(g.adjncy[lo:hi].tolist(), g.adjwgt[lo:hi].tolist()))
        rows.append([row[i] for i in rng.permutation(len(row))])
    defect = draw(st.sampled_from(_DEFECTS))
    entries = [(v, i) for v, row in enumerate(rows) for i in range(len(row))]
    if defect in ("duplicate", "missing-reverse", "weight") and not entries:
        defect = "none"
    if defect == "self-loop":
        v = draw(st.integers(0, g.nvtxs - 1))
        rows[v].insert(draw(st.integers(0, len(rows[v]))), (v, 1))
    elif defect != "none":
        v, i = draw(st.sampled_from(entries))
        u, w = rows[v][i]
        if defect == "duplicate":
            rows[v].insert(draw(st.integers(0, len(rows[v]))), (u, w))
        elif defect == "missing-reverse":
            del rows[v][i]
        else:
            rows[v][i] = (u, w + draw(st.integers(1, 5)))
    xadj = np.cumsum([0] + [len(row) for row in rows])
    flat = [entry for row in rows for entry in row]
    vwgt = draw(st.lists(st.integers(1, 9), min_size=g.nvtxs,
                         max_size=g.nvtxs))
    graph = CSRGraph(
        xadj,
        np.array([u for u, _ in flat], dtype=np.int32),
        np.array([w for _, w in flat], dtype=np.int64),
        np.array(vwgt, dtype=np.int64),
        validate=False,
    )
    return defect, graph


def _verdict(check, graph):
    try:
        check(graph)
    except GraphValidationError as exc:
        return str(exc)
    return None


class TestFusedKeyAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(case=_cases())
    def test_same_decision_and_message(self, case):
        defect, graph = case
        got = _verdict(validate_graph, graph)
        assert got == _verdict(_reference_validate_graph, graph)
        assert (got is None) == (defect == "none"), (defect, got)

    def test_first_offending_edge_is_named(self):
        # Two asymmetric entries: both name the lowest (u, v) first.
        graph = CSRGraph(
            np.array([0, 2, 2, 2]), np.array([2, 1], dtype=np.int32),
            validate=False,
        )
        message = _verdict(validate_graph, graph)
        assert message == _verdict(_reference_validate_graph, graph)
        assert "edge (0, 1, w=1)" in message
