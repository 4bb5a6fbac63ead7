"""Tests for k-way partitioning by recursive bisection."""

import numpy as np
import pytest

from repro.core import partition
from repro.core.options import DEFAULT_OPTIONS
from repro.graph import edge_cut, part_weights
from repro.utils.errors import PartitionError
from tests.conftest import path_graph, random_graph


class TestBasics:
    def test_k1_trivial(self, grid16):
        p = partition(grid16, 1)
        assert p.cut == 0
        assert np.all(p.where == 0)

    def test_k2_is_bisection(self, grid16):
        p = partition(grid16, 2, DEFAULT_OPTIONS, np.random.default_rng(0))
        assert set(np.unique(p.where)) == {0, 1}
        assert p.cut == edge_cut(grid16, p.where)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 8, 16])
    def test_every_part_nonempty(self, grid16, k):
        p = partition(grid16, k, DEFAULT_OPTIONS, np.random.default_rng(1))
        assert p.nparts == k
        counts = np.bincount(p.where, minlength=k)
        assert np.all(counts > 0)

    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_cut_consistent(self, grid16, k):
        p = partition(grid16, k, DEFAULT_OPTIONS, np.random.default_rng(2))
        assert p.cut == edge_cut(grid16, p.where)
        assert np.array_equal(p.pwgts, part_weights(grid16, p.where, k))

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_balance_within_tolerance(self, grid16, k):
        p = partition(grid16, k, DEFAULT_OPTIONS, np.random.default_rng(3))
        # Granularity: ceil() at each bisection level can add one vertex
        # per part beyond the ubfactor, which matters when parts are tiny.
        granularity = 2.0 * k / grid16.total_vwgt()
        assert p.balance(grid16) <= DEFAULT_OPTIONS.ubfactor + granularity

    def test_nonpow2_balance(self, grid16):
        p = partition(grid16, 5, DEFAULT_OPTIONS, np.random.default_rng(4))
        ideal = grid16.total_vwgt() / 5
        assert p.pwgts.max() <= np.ceil(ideal * (DEFAULT_OPTIONS.ubfactor + 0.02))

    def test_cut_grows_with_k(self, grid16):
        cuts = [
            partition(grid16, k, DEFAULT_OPTIONS, np.random.default_rng(5)).cut
            for k in (2, 4, 8, 16)
        ]
        assert cuts == sorted(cuts)

    def test_deterministic_with_seed(self, grid16):
        a = partition(grid16, 8, DEFAULT_OPTIONS, np.random.default_rng(6))
        b = partition(grid16, 8, DEFAULT_OPTIONS, np.random.default_rng(6))
        assert np.array_equal(a.where, b.where)

    def test_k_equals_n(self):
        g = path_graph(6)
        p = partition(g, 6, DEFAULT_OPTIONS.with_(coarsen_to=2),
                      np.random.default_rng(7))
        assert sorted(p.where.tolist()) == list(range(6))
        assert p.cut == g.nedges  # every edge cut

    def test_errors(self, grid16):
        with pytest.raises(PartitionError):
            partition(grid16, 0)
        with pytest.raises(PartitionError):
            partition(path_graph(3), 4)

    def test_timers_merged(self, grid16):
        p = partition(grid16, 8, DEFAULT_OPTIONS, np.random.default_rng(8))
        assert p.timers.get("CTime", 0) > 0
        assert "RTime" in p.timers

    def test_disconnected_graph(self):
        g = random_graph(60, 0.05, seed=11)  # likely disconnected
        p = partition(g, 4, DEFAULT_OPTIONS.with_(coarsen_to=20),
                      np.random.default_rng(9))
        assert p.cut == edge_cut(g, p.where)
        assert np.bincount(p.where, minlength=4).min() > 0

    def test_weighted_vertices_balance_by_weight(self):
        from repro.graph import from_edge_list

        rng = np.random.default_rng(12)
        n = 64
        edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
        vwgt = rng.integers(1, 5, n)
        g = from_edge_list(n, edges, vwgt=vwgt)
        p = partition(g, 4, DEFAULT_OPTIONS, np.random.default_rng(0))
        ideal = g.total_vwgt() / 4
        assert p.pwgts.max() <= np.ceil(ideal * 1.25)  # weighted, coarse caps

    def test_custom_bisector_plugs_in(self, grid16):
        """The bisector hook must drive the recursion (spectral baselines
        rely on this)."""
        from repro.core.multilevel import MultilevelResult
        from repro.core.refine import PassStats
        from repro.graph import Bisection
        from repro.utils.timing import PhaseTimer

        calls = []

        def bisector(g, opts, rng, *, target0, run):
            calls.append(g.nvtxs)
            where = np.zeros(g.nvtxs, dtype=np.int8)
            where[: g.nvtxs // 2] = 0
            where[g.nvtxs // 2 :] = 1
            return MultilevelResult(
                bisection=Bisection.from_where(g, where),
                timers=PhaseTimer(),
                nlevels=1,
                coarsest_nvtxs=g.nvtxs,
                initial_cut=0,
                stats=PassStats(),
            )

        p = partition(grid16, 4, DEFAULT_OPTIONS, np.random.default_rng(0),
                      bisector=bisector)
        assert len(calls) == 3  # one root + two children
        assert np.bincount(p.where, minlength=4).min() > 0
