"""Tests for greedy vertex-separator refinement.

:func:`repro.ordering.refine_vertex_separator` makes one scalar pass over
each separator vertex's row.  ``_reference_refine_vertex_separator`` below
keeps the per-vertex NumPy formulation it replaced; a hypothesis sweep over
labellings built from real bisections asserts the same labels, the same
returned array and the same RNG state afterwards, and a ``perf``-marked
class that the scan is the faster one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multilevel import bisect
from repro.graph import CSRGraph
from repro.matrices import load
from repro.ordering import (
    build_labelling,
    is_valid_separator_labelling,
    refine_vertex_separator,
    separator_weight,
    vertex_separator_from_bisection,
)
from repro.ordering.separator_refine import SEPARATOR, SIDE_A, SIDE_B
from repro.utils.rng import as_generator
from tests.conftest import interleaved_best, path_graph, random_graph
from tests.test_properties import graphs


def labelled_partition(graph, where, seed=0):
    sep = vertex_separator_from_bisection(graph, where)
    return build_labelling(graph, where, sep)


def _reference_refine_vertex_separator(
    graph, where3, rng=None, *, maxpwgt=None, max_passes=6
):
    """The per-vertex NumPy formulation the scalar scan must reproduce:
    same ``rng.permutation(sep)`` per sweep, same ``(delta, max side)``
    key and gates, same moves in the same order."""
    rng = as_generator(rng)
    where3 = np.asarray(where3)
    xadj, adjncy, vwgt = graph.xadj, graph.adjncy, graph.vwgt
    if maxpwgt is None:
        maxpwgt = (np.iinfo(np.int64).max, np.iinfo(np.int64).max)

    pwgts = [
        int(vwgt[where3 == SIDE_A].sum()),
        int(vwgt[where3 == SIDE_B].sum()),
    ]

    for _ in range(max_passes):
        sep = np.flatnonzero(where3 == SEPARATOR)
        if len(sep) == 0:
            break
        moved = 0
        for s in rng.permutation(sep):
            s = int(s)
            if where3[s] != SEPARATOR:
                continue
            nbrs = adjncy[xadj[s] : xadj[s + 1]]
            labels = where3[nbrs]
            w_s = int(vwgt[s])
            best = None
            for side, other in ((SIDE_A, SIDE_B), (SIDE_B, SIDE_A)):
                pulled = nbrs[labels == other]
                delta = int(vwgt[pulled].sum()) - w_s
                if delta > 0:
                    continue
                new_side = pwgts[side] + w_s
                new_other = pwgts[other] - int(vwgt[pulled].sum())
                if new_side > maxpwgt[side] and new_side >= pwgts[other]:
                    continue
                if delta == 0:
                    if max(new_side, new_other) >= max(pwgts):
                        continue
                key = (delta, max(new_side, new_other))
                if best is None or key < best[0]:
                    best = (key, side, other, pulled)
            if best is None:
                continue
            _, side, other, pulled = best
            where3[s] = side
            pwgts[side] += w_s
            if len(pulled):
                where3[pulled] = SEPARATOR
                pwgts[other] -= int(vwgt[pulled].sum())
            moved += 1
        if moved == 0:
            break
    return where3


def bisection_labelling(graph, seed):
    """The 3-way labelling MLND refines: a multilevel bisection, its
    minimum-cover separator, then ``build_labelling``."""
    where = bisect(graph, rng=np.random.default_rng(seed)).bisection.where
    return labelled_partition(graph, where)


def assert_refines_like_reference(graph, where3, seed, **kwargs):
    """The scan and the reference leave the same labels, return their
    own input array and draw the same random numbers."""
    got_in, ref_in = where3.copy(), where3.copy()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = refine_vertex_separator(graph, got_in, rng, **kwargs)
    ref = _reference_refine_vertex_separator(graph, ref_in, ref_rng, **kwargs)
    assert got is got_in and ref is ref_in
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def _labellings(draw):
    """A weighted graph, a labelling from a real bisection of it (some
    extra vertices moved into the separator, so sweeps have moves to
    make), per-side caps or none, and a sweep cap."""
    base = draw(graphs(weighted=True, max_n=40))
    n = base.nvtxs
    vwgt = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    graph = CSRGraph(base.xadj, base.adjncy, base.adjwgt, vwgt)
    where3 = bisection_labelling(graph, draw(st.integers(0, 2**16)))
    extra = draw(st.lists(st.integers(0, n - 1), max_size=n // 3))
    where3[extra] = SEPARATOR
    if draw(st.booleans()):
        where3 = where3.astype(np.int64)
    total = graph.total_vwgt()
    caps = draw(st.one_of(
        st.none(),
        st.tuples(st.integers(0, total), st.integers(0, total)),
    ))
    return graph, where3, caps, draw(st.integers(1, 6))


class TestInvariantChecker:
    def test_valid_labelling(self):
        g = path_graph(5)
        where3 = np.array([0, 0, 2, 1, 1])
        assert is_valid_separator_labelling(g, where3)

    def test_invalid_labelling(self):
        g = path_graph(3)
        assert not is_valid_separator_labelling(g, np.array([0, 1, 1]))

    def test_separator_weight(self):
        from repro.graph import from_edge_list

        g = from_edge_list(3, [(0, 1), (1, 2)], vwgt=[1, 5, 1])
        assert separator_weight(g, np.array([0, 2, 1])) == 5


class TestRefinement:
    def test_removes_redundant_separator_vertex(self):
        # Path 0-1-2-3-4 with separator {1, 2}: vertex 1 has no neighbour
        # on side B once 2 separates, so refinement must shrink to one.
        g = path_graph(5)
        where3 = np.array([0, 2, 2, 1, 1])
        refine_vertex_separator(g, where3, np.random.default_rng(0))
        assert is_valid_separator_labelling(g, where3)
        assert (where3 == SEPARATOR).sum() == 1

    def test_never_grows_separator(self):
        for seed in range(5):
            g = random_graph(60, 0.1, seed=seed, connected=True)
            rng = np.random.default_rng(seed)
            where = rng.integers(0, 2, g.nvtxs)
            where3 = labelled_partition(g, where)
            before = separator_weight(g, where3)
            refine_vertex_separator(g, where3, np.random.default_rng(1))
            assert separator_weight(g, where3) <= before
            assert is_valid_separator_labelling(g, where3)

    def test_respects_weight_caps(self):
        g = path_graph(10)
        # Separator at 5; everything left side A.
        where3 = np.full(10, SIDE_A, dtype=np.int8)
        where3[5] = SEPARATOR
        where3[6:] = SIDE_B
        cap = (5, 5)
        refine_vertex_separator(g, where3, np.random.default_rng(0), maxpwgt=cap)
        assert is_valid_separator_labelling(g, where3)
        assert int(g.vwgt[where3 == SIDE_A].sum()) <= 5

    def test_empty_separator_noop(self):
        from tests.conftest import two_triangles

        g = two_triangles()
        where3 = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        out = refine_vertex_separator(g, where3, np.random.default_rng(0))
        assert np.array_equal(out, [0, 0, 0, 1, 1, 1])

    def test_grid_separator_stays_near_row(self, grid8):
        where = np.zeros(64, dtype=np.int8)
        where[32:] = 1
        where3 = labelled_partition(grid8, where)
        refine_vertex_separator(grid8, where3, np.random.default_rng(0))
        assert is_valid_separator_labelling(grid8, where3)
        # A straight grid row (8 vertices) is already optimal.
        assert (where3 == SEPARATOR).sum() == 8

    def test_mlnd_with_refinement_not_worse(self):
        from repro.matrices import grid2d
        from repro.ordering import factor_stats, mlnd_ordering

        g = grid2d(18, 18)
        plain = mlnd_ordering(
            g, rng=np.random.default_rng(1), refine_separator=False
        )
        refined = mlnd_ordering(
            g, rng=np.random.default_rng(1), refine_separator=True
        )
        refined.verify()
        ops_plain = factor_stats(g, plain.perm).opcount
        ops_ref = factor_stats(g, refined.perm).opcount
        assert ops_ref <= ops_plain * 1.1


class TestReferenceOracle:
    """The scalar scan is bit-identical to the NumPy reference."""

    @settings(max_examples=80, deadline=None)
    @given(case=_labellings(), seed=st.integers(0, 2**32 - 1))
    def test_bisection_labellings(self, case, seed):
        graph, where3, caps, passes = case
        assert is_valid_separator_labelling(graph, where3)
        assert_refines_like_reference(
            graph, where3, seed, maxpwgt=caps, max_passes=passes
        )

    @pytest.mark.parametrize("name", ["4ELT", "BCSSTK31"])
    def test_analogue_labellings(self, name):
        # MLND's first separator of a suite analogue, capped as MLND caps it.
        graph = load(name, scale=0.25, seed=0)
        cap = int(np.ceil(0.55 * graph.total_vwgt()))
        for seed in range(3):
            where3 = bisection_labelling(graph, seed)
            for caps in (None, (cap, cap)):
                assert_refines_like_reference(graph, where3, seed, maxpwgt=caps)


@pytest.mark.perf
class TestSpeed:
    def test_scan_2x_over_reference_on_an_mlnd_separator(self):
        # MLND's first separator of the full-scale 4ELT analogue (4000
        # vertices), capped as MLND caps it.
        graph = load("4ELT", scale=1, seed=0)
        where3 = bisection_labelling(graph, 0)
        cap = int(np.ceil(0.55 * graph.total_vwgt()))
        (t_ref, ref), (t_scan, got) = interleaved_best(
            lambda: _reference_refine_vertex_separator(
                graph, where3.copy(), np.random.default_rng(3),
                maxpwgt=(cap, cap),
            ),
            lambda: refine_vertex_separator(
                graph, where3.copy(), np.random.default_rng(3),
                maxpwgt=(cap, cap),
            ),
            repeats=10,
        )
        assert not np.array_equal(got, where3)  # the sweep made moves
        assert np.array_equal(got, ref)
        assert t_ref / t_scan >= 2.0, (
            f"scan only {t_ref / t_scan:.2f}x faster than the reference "
            f"(reference {t_ref * 1e3:.2f} ms, scan {t_scan * 1e3:.2f} ms)"
        )
