"""Tests for gain bookkeeping: the ed/id arrays, and the lazy-heap
:class:`GainTable` that drives the reference FM pass in
``tests/test_refine.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gains import external_degrees, external_internal_degrees
from repro.graph import from_edge_list
from repro.graph.partition import exact_weight_bincount
from tests.conftest import kernel_graphs, path_graph, random_graph
from tests.test_refine import GainTable


def _reference_external_internal_degrees(graph, where):
    """``(ed, id)`` as they were before the row sums: two exact weighted
    bincounts over the edge sources."""
    where = np.asarray(where)
    src = graph.edge_sources()
    cross = where[src] != where[graph.adjncy]
    w = graph.adjwgt
    total = 2 * graph.total_adjwgt()
    ed = exact_weight_bincount(
        src, np.where(cross, w, 0), minlength=graph.nvtxs, total=total
    )
    id_ = exact_weight_bincount(
        src, np.where(cross, 0, w), minlength=graph.nvtxs, total=total
    )
    return ed, id_


@st.composite
def _labelled(draw):
    """A kernel-oracle graph and a labelling of its vertices into 1–3
    parts (``ed`` counts every edge whose endpoints differ)."""
    graph = draw(kernel_graphs())
    parts = draw(st.integers(1, 3))
    where = draw(st.lists(st.integers(0, parts - 1), min_size=graph.nvtxs,
                          max_size=graph.nvtxs))
    return graph, np.array(where, dtype=np.int32)


class TestExternalInternalDegrees:
    def test_path_split_in_middle(self):
        g = path_graph(4)
        where = np.array([0, 0, 1, 1])
        ed, id_ = external_internal_degrees(g, where)
        assert ed.tolist() == [0, 1, 1, 0]
        assert id_.tolist() == [1, 1, 1, 1]

    def test_weighted(self):
        g = from_edge_list(3, [(0, 1), (1, 2)], [5, 7])
        where = np.array([0, 1, 1])
        ed, id_ = external_internal_degrees(g, where)
        assert ed.tolist() == [5, 5, 0]
        assert id_.tolist() == [0, 7, 7]

    def test_sum_identity(self):
        """ed[v] + id[v] must equal v's weighted degree; Σed = 2·cut."""
        from repro.graph import edge_cut

        g = random_graph(40, 0.2, seed=5)
        rng = np.random.default_rng(0)
        where = rng.integers(0, 2, g.nvtxs)
        ed, id_ = external_internal_degrees(g, where)
        src = np.repeat(np.arange(g.nvtxs), np.diff(g.xadj))
        wdeg = np.bincount(src, weights=g.adjwgt, minlength=g.nvtxs)
        assert np.array_equal(ed + id_, wdeg.astype(np.int64))
        assert ed.sum() == 2 * edge_cut(g, where)

    def test_all_same_side(self):
        g = path_graph(5)
        ed, id_ = external_internal_degrees(g, np.zeros(5, dtype=np.int8))
        assert ed.sum() == 0

    @settings(max_examples=100, deadline=None)
    @given(case=_labelled())
    def test_matches_the_reference(self, case):
        # Weights at validation's bound put the reference on its exact
        # np.add.at path; the row sums must agree there too.
        graph, where = case
        got = external_internal_degrees(graph, where)
        ref = _reference_external_internal_degrees(graph, where)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert np.array_equal(got[0] + got[1], graph.weighted_degrees())
        # The FM pass seeds from the external degrees alone.
        assert np.array_equal(external_degrees(graph, where), ref[0])

    def test_arrays_are_the_callers_to_update(self):
        # A pass updates ed and id in place: neither may be the cache.
        g = random_graph(20, 0.3, seed=6)
        ed, id_ = external_internal_degrees(g, np.arange(g.nvtxs) % 2)
        wdeg = g.weighted_degrees().copy()
        ed += 1
        id_ += 1
        assert np.array_equal(g.weighted_degrees(), wdeg)


class TestGainTable:
    def test_push_pop_max(self):
        t = GainTable()
        t.push(1, 5)
        t.push(2, 9)
        t.push(3, -2)
        assert t.pop_best() == (2, 9)
        assert t.pop_best() == (1, 5)
        assert t.pop_best() == (3, -2)
        assert t.pop_best() is None

    def test_update_replaces(self):
        t = GainTable()
        t.push(1, 5)
        t.update(1, 100)
        assert t.pop_best() == (1, 100)
        assert t.pop_best() is None

    def test_update_can_lower(self):
        t = GainTable()
        t.push(1, 100)
        t.push(2, 50)
        t.update(1, 10)
        assert t.pop_best() == (2, 50)
        assert t.pop_best() == (1, 10)

    def test_remove(self):
        t = GainTable()
        t.push(1, 5)
        t.push(2, 3)
        t.remove(1)
        assert 1 not in t
        assert t.pop_best() == (2, 3)
        assert t.pop_best() is None

    def test_remove_absent_is_noop(self):
        t = GainTable()
        t.remove(7)
        assert len(t) == 0

    def test_len_counts_live_entries(self):
        t = GainTable()
        t.push(1, 5)
        t.push(1, 6)  # replaces, still one live vertex
        t.push(2, 1)
        assert len(t) == 2
        t.pop_best()
        assert len(t) == 1

    def test_contains(self):
        t = GainTable()
        t.push(4, 0)
        assert 4 in t and 5 not in t

    def test_peek_best_gain(self):
        t = GainTable()
        assert t.peek_best_gain() is None
        t.push(1, 7)
        t.push(2, 3)
        assert t.peek_best_gain() == 7
        assert len(t) == 2  # peek does not remove

    def test_peek_skips_stale(self):
        t = GainTable()
        t.push(1, 100)
        t.update(1, 1)
        assert t.peek_best_gain() == 1

    def test_tie_break_insertion_order(self):
        t = GainTable()
        t.push(5, 3)
        t.push(2, 3)
        assert t.pop_best() == (5, 3)
        assert t.pop_best() == (2, 3)

    def test_many_operations_consistency(self):
        rng = np.random.default_rng(8)
        t = GainTable()
        reference = {}
        for _ in range(2000):
            op = rng.integers(3)
            v = int(rng.integers(50))
            if op == 0:
                gain = int(rng.integers(-100, 100))
                t.push(v, gain)
                reference[v] = gain
            elif op == 1:
                t.remove(v)
                reference.pop(v, None)
            else:
                got = t.pop_best()
                if reference:
                    best = max(reference.values())
                    assert got is not None and got[1] == best
                    reference.pop(got[0])
                else:
                    assert got is None
        assert len(t) == len(reference)
