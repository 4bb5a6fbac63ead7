"""Tests for the matching kernels of the ``loop`` and ``vectorized`` backends.

The vectorized kernel is an alternative implementation of the §3.1
matchings, selected with ``MultilevelOptions.kernels``; it must
produce valid maximal matchings for every scheme and plug into the full
pipeline with cut quality in the same band as the loop kernel.  The
``loop`` kernel's scalar scan must beat the per-vertex NumPy reference
of ``tests/test_matching.py`` by a wide margin on large graphs while
returning the same matching — asserted by a ``perf``-marked test.
"""

import time

import numpy as np
import pytest

from repro.core import partition
from repro.core.matching import is_maximal_matching, is_valid_matching
from repro.core.options import DEFAULT_OPTIONS, MatchingScheme
from repro.kernels import resolve_kernels, segment_max, vectorized_matching
from repro.matrices import grid2d, suite
from repro.utils.errors import ConfigurationError
from tests.conftest import random_graph
from tests.test_matching import _reference_matching


def matching_kernel(backend):
    """The matching kernel the registry selects for ``backend``."""
    options = DEFAULT_OPTIONS.with_(kernels=backend)
    return resolve_kernels(options, env={}).kernel("matching")


ALL_SCHEMES = [
    MatchingScheme.RM,
    MatchingScheme.HEM,
    MatchingScheme.LEM,
    MatchingScheme.HCM,
]


class TestSegmentMax:
    def test_basic_segments(self):
        values = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
        xadj = np.array([0, 3, 5, 8], dtype=np.int64)
        out = segment_max(values, xadj, np.int64(-1))
        assert out.tolist() == [4, 5, 9]

    def test_empty_segments_get_sentinel(self):
        values = np.array([7, 2], dtype=np.int64)
        xadj = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        out = segment_max(values, xadj, np.int64(-5))
        assert out.tolist() == [-5, 7, -5, 2, -5]

    def test_trailing_empty_segment_keeps_last_value(self):
        # Regression guard for the classic reduceat pitfall: a trailing
        # empty segment must not swallow the final element of the last
        # non-empty segment.
        values = np.array([1, 9], dtype=np.int64)
        xadj = np.array([0, 2, 2], dtype=np.int64)
        out = segment_max(values, xadj, np.int64(0))
        assert out.tolist() == [9, 0]

    def test_float_values(self):
        values = np.array([0.5, -2.0, 3.25], dtype=np.float64)
        xadj = np.array([0, 1, 3], dtype=np.int64)
        out = segment_max(values, xadj, -np.inf)
        assert out.tolist() == [0.5, 3.25]

    def test_all_empty(self):
        values = np.empty(0, dtype=np.int64)
        xadj = np.zeros(4, dtype=np.int64)
        out = segment_max(values, xadj, np.int64(-1))
        assert out.tolist() == [-1, -1, -1]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
class TestPropertySweep:
    """Both kernels produce valid maximal matchings, 20 seeds per scheme."""

    GRAPHS = {
        "random": random_graph(70, 0.08, seed=3),
        "grid": grid2d(9, 8),
    }

    @pytest.mark.parametrize("impl", ["loop", "vectorized"])
    @pytest.mark.parametrize("name", GRAPHS, ids=GRAPHS.keys())
    def test_valid_and_maximal(self, scheme, impl, name):
        g = self.GRAPHS[name]
        kernel = matching_kernel(impl)
        for seed in range(20):
            match = kernel(g, scheme, np.random.default_rng(seed))
            assert is_valid_matching(g, match), (scheme, impl, seed)
            assert is_maximal_matching(g, match), (scheme, impl, seed)

    def test_vectorized_with_cewgt(self, scheme):
        # HCM keys depend on the coarse-vertex internal weights; make sure
        # the cewgt path works for every scheme.
        g = self.GRAPHS["random"]
        cewgt = np.arange(g.nvtxs, dtype=np.int64) % 5
        match = vectorized_matching(
            g, scheme, np.random.default_rng(11), cewgt=cewgt
        )
        assert is_valid_matching(g, match)
        assert is_maximal_matching(g, match)


class TestDispatch:
    def test_unknown_impl_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_kernels(None, env={"REPRO_KERNELS": "simd"})


class TestPipelineQuality:
    """The vectorized kernel keeps end-to-end cut quality in the HEM band."""

    @pytest.mark.parametrize("name,scale", [("BCSSTK31", 0.3), ("4ELT", 0.2)])
    def test_cut_band_on_table2_matrices(self, name, scale):
        graph = suite.load(name, scale=scale, seed=0)
        cuts = {}
        for impl in ("loop", "vectorized"):
            options = DEFAULT_OPTIONS.with_(
                matching=MatchingScheme.HEM, kernels=impl
            )
            result = partition(
                graph, 8, options, np.random.default_rng(1995)
            )
            assert result.cut > 0
            cuts[impl] = result.cut
        # Different tie-breaking gives different (equally legitimate)
        # matchings; the refined cut must stay in the same quality band.
        assert cuts["vectorized"] <= cuts["loop"] * 1.5


@pytest.mark.perf
class TestKernelSpeed:
    def test_loop_hem_3x_over_reference_on_100k_mesh(self):
        graph = grid2d(320, 320)  # 102 400 vertices
        assert graph.nvtxs >= 100_000

        def run(kernel):
            rng = np.random.default_rng(7)
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                match = kernel(graph, MatchingScheme.HEM, rng)
                best = min(best, time.perf_counter() - t0)
            return best, match

        t_ref, ref = run(_reference_matching)
        t_loop, match = run(matching_kernel("loop"))
        assert np.array_equal(match, ref)
        assert t_ref / t_loop >= 3.0, (
            f"loop HEM only {t_ref / t_loop:.2f}x faster than the reference "
            f"(reference {t_ref:.3f}s, loop {t_loop:.3f}s)"
        )
