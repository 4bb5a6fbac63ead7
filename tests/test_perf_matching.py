"""Tests for the ``loop`` backend's matching kernel.

The kernel the registry selects must produce valid maximal matchings for
every §3.1 scheme.  Its scalar scan must beat the per-vertex NumPy
reference of ``tests/test_matching.py`` by a wide margin on large graphs
while returning the same matching — asserted by ``perf``-marked tests on a
unit-weight level (HEM scans the rows as they are) and on a weighted
coarse level (HEM ranks the rows first).
"""

import numpy as np
import pytest

from repro.core.matching import (
    hem_matching,
    is_maximal_matching,
    is_valid_matching,
)
from repro.core.options import DEFAULT_OPTIONS, MatchingScheme
from repro.kernels import resolve_kernels
from repro.graph.contract import coarse_map_from_matching, contract
from repro.matrices import grid2d
from repro.utils.errors import ConfigurationError
from tests.conftest import interleaved_best, random_graph
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


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
class TestPropertySweep:
    """Valid maximal matchings, 20 seeds per scheme."""

    GRAPHS = {
        "random": random_graph(70, 0.08, seed=3),
        "grid": grid2d(9, 8),
    }

    @pytest.mark.parametrize("impl", ["loop"])
    @pytest.mark.parametrize("name", GRAPHS, ids=GRAPHS.keys())
    def test_valid_and_maximal(self, scheme, impl, name):
        g = self.GRAPHS[name]
        kernel = matching_kernel(impl)
        for seed in range(20):
            match = kernel(g, scheme, np.random.default_rng(seed))
            assert is_valid_matching(g, match), (scheme, impl, seed)
            assert is_maximal_matching(g, match), (scheme, impl, seed)


class TestDispatch:
    def test_unknown_impl_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_kernels(None, env={"REPRO_KERNELS": "simd"})


@pytest.mark.perf
class TestKernelSpeed:
    def test_loop_hem_3x_over_reference_on_100k_mesh(self):
        graph = grid2d(320, 320)  # 102 400 vertices
        assert graph.nvtxs >= 100_000

        loop = matching_kernel("loop")
        (t_ref, ref), (t_loop, match) = interleaved_best(
            lambda: _reference_matching(
                graph, MatchingScheme.HEM, np.random.default_rng(7)
            ),
            lambda: loop(graph, MatchingScheme.HEM, np.random.default_rng(7)),
            repeats=2,
        )
        assert np.array_equal(match, ref)
        assert t_ref / t_loop >= 3.0, (
            f"loop HEM only {t_ref / t_loop:.2f}x faster than the reference "
            f"(reference {t_ref:.3f}s, loop {t_loop:.3f}s)"
        )

    def test_loop_hem_3x_over_reference_on_a_weighted_coarse_level(self):
        # One HEM contraction of the 100k mesh: edge weights 1 and 2, so
        # the kernel sorts each row heaviest first before it scans.
        fine = grid2d(320, 320)
        cmap, ncoarse = coarse_map_from_matching(
            hem_matching(fine, np.random.default_rng(0))
        )
        graph = contract(fine, cmap, ncoarse)
        assert graph.adjwgt.min() < graph.adjwgt.max()

        loop = matching_kernel("loop")
        (t_ref, ref), (t_loop, match) = interleaved_best(
            lambda: _reference_matching(
                graph, MatchingScheme.HEM, np.random.default_rng(7)
            ),
            lambda: loop(graph, MatchingScheme.HEM, np.random.default_rng(7)),
            repeats=2,
        )
        assert np.array_equal(match, ref)
        assert t_ref / t_loop >= 3.0, (
            f"loop HEM only {t_ref / t_loop:.2f}x faster than the reference "
            f"on the coarse level (reference {t_ref:.3f}s, loop {t_loop:.3f}s)"
        )
