"""Tests for the initial-partitioning algorithms (§3.2).

:func:`repro.core.initial.gggp_bisection` walks each absorbed vertex's
adjacency as Python scalars and takes the next vertex from a lazy max-heap.
``_reference_gggp_bisection`` below keeps the dense-argmax formulation it
replaced; a hypothesis sweep asserts the two are bit-identical (RNG
consumption included), and a ``perf``-marked test that the heap is faster.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.initial import (
    _grown_bisection,
    ggp_bisection,
    gggp_bisection,
    initial_bisection,
    sbp_bisection,
    split_at_weighted_median,
)
from repro.core.options import DEFAULT_OPTIONS, InitialScheme
from repro.graph import CSRGraph, from_edge_list
from repro.matrices import grid2d
from repro.utils.errors import PartitionError
from repro.utils.rng import as_generator
from tests.conftest import (
    assert_valid_bisection,
    dumbbell_graph,
    interleaved_best,
    path_graph,
    random_graph,
    two_triangles,
)
from tests.test_properties import graphs


def _reference_gggp_bisection(graph, target0=None, rng=None, trials=5):
    """A whole-array masked ``argmax`` over the frontier per absorbed vertex."""
    rng = as_generator(rng)
    n = graph.nvtxs
    if n < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    total = graph.total_vwgt()
    if target0 is None:
        target0 = total // 2
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt

    wdeg = np.zeros(n, dtype=np.int64)
    np.add.at(wdeg, graph.edge_sources(), adjwgt)
    neg_inf = np.iinfo(np.int64).min

    best = None
    for _ in range(trials):
        where = np.ones(n, dtype=np.int8)
        in_region = np.zeros(n, dtype=bool)
        frontier = np.zeros(n, dtype=bool)
        gain = -wdeg.copy()
        pwgt0 = 0
        while pwgt0 < target0 and pwgt0 < total:
            if frontier.any():
                masked = np.where(frontier, gain, neg_inf)
                v = int(np.argmax(masked))
            else:  # frontier empty: seed a fresh component
                candidates = np.flatnonzero(~in_region)
                v = int(candidates[rng.integers(len(candidates))])
            if pwgt0 + int(vwgt[v]) >= total:
                break  # absorbing v would empty part 1
            in_region[v] = True
            frontier[v] = False
            where[v] = 0
            pwgt0 += int(vwgt[v])
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            w = adjwgt[xadj[v] : xadj[v + 1]]
            outside = ~in_region[nbrs]
            touched = nbrs[outside]
            np.add.at(gain, touched, 2 * w[outside])
            frontier[touched] = True
        cand = _grown_bisection(graph, where)
        if best is None or cand.cut < best.cut:
            best = cand
    return best


def _assert_same_bisection(got, ref):
    assert got.cut == ref.cut
    assert got.where.dtype == ref.where.dtype == np.int8
    assert np.array_equal(got.where, ref.where)
    assert got.pwgts.dtype == ref.pwgts.dtype
    assert np.array_equal(got.pwgts, ref.pwgts)


@st.composite
def _growth_cases(draw):
    """A weighted graph (possibly disconnected, with isolated vertices),
    ``vwgt`` above 1 and a part-0 target anywhere in ``[0, total]``."""
    graph = draw(graphs(weighted=True))
    n = graph.nvtxs
    vwgt = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    graph = CSRGraph(graph.xadj, graph.adjncy, graph.adjwgt, vwgt)
    total = graph.total_vwgt()
    target0 = draw(
        st.one_of(st.none(), st.integers(0, total), st.sampled_from([1, total // 4]))
    )
    return graph, target0

PARTITIONERS = {
    "ggp": lambda g, t, rng: ggp_bisection(g, t, rng, trials=10),
    "gggp": lambda g, t, rng: gggp_bisection(g, t, rng, trials=5),
    "sbp": lambda g, t, rng: sbp_bisection(g, t, rng),
}


@pytest.mark.parametrize("name", PARTITIONERS, ids=PARTITIONERS.keys())
class TestAllPartitioners:
    def test_valid_on_random_graph(self, name):
        g = random_graph(50, 0.15, seed=1, connected=True)
        b = PARTITIONERS[name](g, None, np.random.default_rng(0))
        assert_valid_bisection(g, b)
        assert 0 < b.pwgts[0] < g.total_vwgt()

    def test_target_respected_within_max_vertex(self, name):
        g = random_graph(50, 0.15, seed=2, connected=True)
        target = g.total_vwgt() // 3
        b = PARTITIONERS[name](g, target, np.random.default_rng(0))
        # Growth stops as soon as the target is reached, so the overshoot
        # is bounded by the largest vertex weight (1 here).
        assert target <= b.pwgts[0] <= target + 1

    def test_dumbbell_bridge_found(self, name):
        g = dumbbell_graph(k=5)
        b = PARTITIONERS[name](g, None, np.random.default_rng(0))
        assert b.cut == 1

    def test_disconnected_graph_handled(self, name):
        g = two_triangles()
        b = PARTITIONERS[name](g, None, np.random.default_rng(0))
        assert_valid_bisection(g, b)
        assert b.cut == 0  # component split is free
        assert b.pwgts.tolist() == [3, 3]

    def test_too_small_graph_rejected(self, name):
        g = from_edge_list(1, [])
        with pytest.raises(PartitionError):
            PARTITIONERS[name](g, None, np.random.default_rng(0))


class TestGrowthSpecifics:
    def test_gggp_not_worse_than_ggp_on_average(self):
        cuts_ggp, cuts_gggp = [], []
        for seed in range(6):
            g = random_graph(60, 0.12, seed=seed, connected=True)
            cuts_ggp.append(
                ggp_bisection(g, None, np.random.default_rng(seed), trials=10).cut
            )
            cuts_gggp.append(
                gggp_bisection(g, None, np.random.default_rng(seed), trials=5).cut
            )
        assert np.mean(cuts_gggp) <= np.mean(cuts_ggp) * 1.05

    def test_more_trials_no_worse(self):
        g = random_graph(60, 0.12, seed=11, connected=True)
        one = ggp_bisection(g, None, np.random.default_rng(3), trials=1).cut
        many = ggp_bisection(g, None, np.random.default_rng(3), trials=15).cut
        assert many <= one

    def test_weighted_vertices(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)], vwgt=[10, 1, 1, 10])
        b = gggp_bisection(g, 11, np.random.default_rng(0))
        assert b.pwgts[0] in (11, 12)


class TestSplitAtWeightedMedian:
    def test_basic_split(self):
        g = path_graph(4)
        b = split_at_weighted_median(g, np.array([0.4, 0.1, 0.9, 0.2]), 2)
        # Two smallest values (indices 1, 3) go to part 0.
        assert b.where.tolist() == [1, 0, 1, 0]

    def test_ties_broken_by_vertex_id(self):
        g = path_graph(4)
        b = split_at_weighted_median(g, np.zeros(4), 2)
        assert b.where.tolist() == [0, 0, 1, 1]

    def test_never_produces_empty_side(self):
        g = path_graph(3)
        b_lo = split_at_weighted_median(g, np.array([1.0, 2.0, 3.0]), 0)
        b_hi = split_at_weighted_median(g, np.array([1.0, 2.0, 3.0]), 3)
        assert 0 < b_lo.pwgts[0] < 3
        assert 0 < b_hi.pwgts[0] < 3

    def test_respects_vertex_weights(self):
        g = from_edge_list(3, [(0, 1), (1, 2)], vwgt=[5, 1, 1])
        b = split_at_weighted_median(g, np.array([3.0, 1.0, 2.0]), 2)
        # Cumulative by value order (1,2,0): vertex 1 (w=1), vertex 2
        # (w=1) reach the target of 2.
        assert b.where.tolist() == [1, 0, 0]


class TestDispatch:
    def test_dispatch_all_schemes(self):
        g = random_graph(40, 0.2, seed=3, connected=True)
        for scheme in InitialScheme:
            options = DEFAULT_OPTIONS.with_(initial=scheme)
            b = initial_bisection(g, options, np.random.default_rng(0))
            assert_valid_bisection(g, b)


class TestReferenceOracle:
    """The heap-driven growth is bit-identical to the dense-argmax one."""

    @settings(max_examples=200, deadline=None)
    @given(case=_growth_cases(), seed=st.integers(0, 2**32 - 1),
           trials=st.integers(1, 5))
    def test_random_graphs(self, case, seed, trials):
        graph, target0 = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = gggp_bisection(graph, target0, rng, trials)
        ref = _reference_gggp_bisection(graph, target0, ref_rng, trials)
        _assert_same_bisection(got, ref)
        # Seeding draws exactly as often: the streams end in the same state.
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("target_frac", [0.5, 0.3, 0.7])
    def test_coarse_mesh_levels(self, target_frac):
        graph = grid2d(13, 11)
        target0 = int(target_frac * graph.total_vwgt())
        for seed in range(3):
            _assert_same_bisection(
                gggp_bisection(graph, target0, np.random.default_rng(seed)),
                _reference_gggp_bisection(
                    graph, target0, np.random.default_rng(seed)
                ),
            )


@pytest.mark.perf
class TestSpeed:
    def test_gggp_4x_over_reference(self):
        graph = grid2d(64, 64)
        (t_ref, ref), (t_new, got) = interleaved_best(
            lambda: _reference_gggp_bisection(graph, None, np.random.default_rng(0)),
            lambda: gggp_bisection(graph, None, np.random.default_rng(0)),
            repeats=3,
        )
        _assert_same_bisection(got, ref)
        assert t_ref / t_new >= 4, (
            f"gggp_bisection only {t_ref / t_new:.1f}x faster than the "
            f"reference (reference {t_ref:.4f}s, new {t_new:.4f}s)"
        )
