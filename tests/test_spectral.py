"""Tests for the spectral substrate and baselines (Laplacian, Lanczos,
Fiedler, SBP, MSB, Chaco-ML)."""

import numpy as np
import pytest

from repro.spectral import (
    LaplacianOperator,
    algebraic_connectivity,
    chaco_ml_bisect,
    chaco_ml_partition,
    dense_laplacian,
    fiedler_vector,
    lanczos_smallest,
    msb_bisect,
    msb_partition,
    spectral_bisection,
    weighted_degrees,
)
from repro.spectral.msb import msb_fiedler
from repro.core.options import DEFAULT_OPTIONS
from repro.graph import edge_cut, from_edge_list
from repro.matrices import grid2d
from repro.obs import read_trace
from tests.conftest import (
    assert_valid_bisection,
    cycle_graph,
    dumbbell_graph,
    path_graph,
    random_graph,
    two_triangles,
)


class TestLaplacian:
    def test_dense_rows_sum_to_zero(self):
        g = random_graph(20, 0.3, seed=1)
        lap = dense_laplacian(g)
        assert np.allclose(lap.sum(axis=1), 0)
        assert np.allclose(lap, lap.T)

    def test_dense_diagonal_is_weighted_degree(self):
        g = from_edge_list(3, [(0, 1), (1, 2)], [5, 7])
        lap = dense_laplacian(g)
        assert np.allclose(np.diag(lap), [5, 12, 7])
        assert lap[0, 1] == -5

    def test_operator_matches_dense(self):
        g = random_graph(30, 0.2, seed=2)
        lap = dense_laplacian(g)
        op = LaplacianOperator(g)
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.standard_normal(g.nvtxs)
            assert np.allclose(op.matvec(x), lap @ x)

    def test_weighted_degrees(self):
        g = from_edge_list(3, [(0, 1), (1, 2)], [2, 3])
        assert np.allclose(weighted_degrees(g), [2, 5, 3])

    def test_spectral_upper_bound(self):
        g = random_graph(25, 0.3, seed=3)
        op = LaplacianOperator(g)
        evals = np.linalg.eigvalsh(dense_laplacian(g))
        assert op.spectral_upper_bound() >= evals[-1]


class TestLanczos:
    def test_matches_dense_smallest(self):
        g = random_graph(80, 0.1, seed=4, connected=True)
        lap = dense_laplacian(g)
        # Smallest nontrivial eigenpair with the constant mode deflated.
        n = g.nvtxs
        ones = np.full(n, 1.0 / np.sqrt(n))
        op = LaplacianOperator(g)
        lam, vec = lanczos_smallest(
            op.matvec, n, rng=np.random.default_rng(0), deflate=[ones]
        )
        evals = np.linalg.eigvalsh(lap)
        assert lam == pytest.approx(evals[1], rel=1e-4, abs=1e-6)
        assert abs(np.dot(vec, np.ones(n))) < 1e-6
        # Residual small.
        assert np.linalg.norm(op.matvec(vec) - lam * vec) < 1e-4 * max(lam, 1)

    def test_warm_start_converges(self):
        g = random_graph(80, 0.1, seed=5, connected=True)
        n = g.nvtxs
        ones = np.full(n, 1.0 / np.sqrt(n))
        op = LaplacianOperator(g)
        _, exact = lanczos_smallest(
            op.matvec, n, rng=np.random.default_rng(1), deflate=[ones]
        )
        noisy = exact + 0.05 * np.random.default_rng(2).standard_normal(n)
        lam, vec = lanczos_smallest(
            op.matvec, n, rng=np.random.default_rng(3),
            start=noisy, deflate=[ones], krylov_dim=10, restarts=3,
        )
        assert abs(abs(np.dot(vec, exact)) - 1.0) < 1e-3

    def test_constant_start_recovers(self):
        """A start vector inside the deflation space must re-randomise."""
        g = path_graph(50)
        n = g.nvtxs
        ones = np.full(n, 1.0 / np.sqrt(n))
        op = LaplacianOperator(g)
        lam, vec = lanczos_smallest(
            op.matvec, n, rng=np.random.default_rng(4),
            start=np.ones(n), deflate=[ones],
        )
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-6)
        assert lam > 0


class TestFiedler:
    def test_path_fiedler_is_monotone(self):
        """The Fiedler vector of a path is (a cosine) monotone along it."""
        g = path_graph(40)
        vec = fiedler_vector(g, np.random.default_rng(0))
        diffs = np.diff(vec)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_algebraic_connectivity_path_formula(self):
        g = path_graph(10)
        lam = algebraic_connectivity(g)
        expected = 2 * (1 - np.cos(np.pi / 10))
        assert lam == pytest.approx(expected, rel=1e-6)

    def test_disconnected_has_zero_connectivity(self):
        lam = algebraic_connectivity(two_triangles())
        assert lam == pytest.approx(0.0, abs=1e-9)

    def test_lanczos_path_agrees_with_dense(self):
        g = random_graph(60, 0.12, seed=6, connected=True)
        dense = fiedler_vector(g, np.random.default_rng(0))
        lanc = fiedler_vector(g, np.random.default_rng(0), force_lanczos=True)
        # Same 1-D eigenspace up to sign (λ2 simple for a random graph).
        corr = abs(np.dot(dense / np.linalg.norm(dense), lanc))
        assert corr == pytest.approx(1.0, abs=1e-4)

    def test_tiny_graphs(self):
        assert len(fiedler_vector(from_edge_list(0, []))) == 0
        assert len(fiedler_vector(from_edge_list(1, []))) == 1


class TestSpectralBisection:
    def test_dumbbell_bridge(self):
        g = dumbbell_graph(k=6)
        b = spectral_bisection(g, rng=np.random.default_rng(0))
        assert b.cut == 1

    def test_cycle_cuts_two(self):
        g = cycle_graph(20)
        b = spectral_bisection(g, rng=np.random.default_rng(0))
        assert b.cut == 2  # any contiguous halving of a cycle

    def test_respects_target(self):
        g = path_graph(10)
        b = spectral_bisection(g, target0=3, rng=np.random.default_rng(0))
        assert b.pwgts[0] == 3

    def test_too_small_rejected(self):
        from repro.utils.errors import PartitionError

        with pytest.raises(PartitionError):
            spectral_bisection(from_edge_list(1, []))


class TestMSB:
    def test_msb_fiedler_close_to_exact(self, grid16):
        # The 16x16 grid's λ₂ has multiplicity 2 (x/y symmetry), so compare
        # by Rayleigh quotient, which is what the bisection quality depends
        # on, rather than by correlation with one arbitrary eigenvector.
        vec = msb_fiedler(grid16, DEFAULT_OPTIONS, np.random.default_rng(0))
        op = LaplacianOperator(grid16)
        vec = vec / np.linalg.norm(vec)
        rq = float(vec @ op.matvec(vec))
        lam2 = 2 * (1 - np.cos(np.pi / 16))
        assert rq == pytest.approx(lam2, rel=0.05)

    def test_msb_bisect_valid(self, grid16):
        r = msb_bisect(grid16, DEFAULT_OPTIONS, np.random.default_rng(0))
        assert_valid_bisection(grid16, r.bisection)
        assert r.bisection.cut <= 40  # sane for a 16x16 grid (optimal 16)

    def test_msb_kl_no_worse(self, grid16):
        plain = msb_bisect(grid16, DEFAULT_OPTIONS, np.random.default_rng(2))
        kl = msb_bisect(
            grid16, DEFAULT_OPTIONS, np.random.default_rng(2), kl_refine=True
        )
        assert kl.bisection.cut <= plain.bisection.cut

    def test_msb_partition_kway(self, grid16):
        p = msb_partition(grid16, 4, DEFAULT_OPTIONS, np.random.default_rng(0))
        assert p.cut == edge_cut(grid16, p.where)
        assert np.bincount(p.where, minlength=4).min() > 0

    def test_dumbbell(self):
        g = dumbbell_graph(k=6)
        r = msb_bisect(g, DEFAULT_OPTIONS, np.random.default_rng(0))
        assert r.bisection.cut == 1


class TestChacoML:
    def test_bisect_valid(self, grid16):
        r = chaco_ml_bisect(grid16, DEFAULT_OPTIONS, np.random.default_rng(0))
        assert_valid_bisection(grid16, r.bisection)
        assert r.nlevels > 1

    def test_partition_kway(self, grid16):
        p = chaco_ml_partition(grid16, 4, DEFAULT_OPTIONS, np.random.default_rng(1))
        assert p.cut == edge_cut(grid16, p.where)
        assert np.bincount(p.where, minlength=4).min() > 0

    def test_dumbbell(self):
        g = dumbbell_graph(k=6)
        r = chaco_ml_bisect(g, DEFAULT_OPTIONS, np.random.default_rng(0))
        assert r.bisection.cut == 1

    def test_sbp_failure_falls_back_inside_the_vcycle(self, grid16):
        """A failed spectral split walks SBP → GGGP inside the bisection,
        and k-way keeps that record instead of re-running a bisection."""
        options = DEFAULT_OPTIONS.with_(faults="lanczos")
        r = chaco_ml_bisect(grid16, options, np.random.default_rng(0))
        assert_valid_bisection(grid16, r.bisection)
        assert r.resilience.count(kind="fallback", phase="initial") == 1
        p = chaco_ml_partition(grid16, 4, options, np.random.default_rng(1))
        assert p.cut == edge_cut(grid16, p.where)
        assert p.resilience.count(kind="fallback", phase="initial") == 3
        assert p.resilience.count(phase="kway") == 0

    def test_trace_shows_rm_sbp_and_klr_every_other_level(self, tmp_path):
        """Chaco-ML runs the shared V-cycle, so it is traced like ML: RM
        under the coarsen span, SBP in the initial span, and KLR refine
        spans at level 0 and every second level below the coarsest."""
        path = str(tmp_path / "chaco.jsonl")
        r = chaco_ml_bisect(
            grid2d(32, 32), DEFAULT_OPTIONS.with_(trace=path),
            np.random.default_rng(0),
        )
        spans = [rec for rec in read_trace(path) if rec["t"] == "span"]
        by_id = {s["id"]: s for s in spans}
        coarsest = r.nlevels - 1
        assert coarsest >= 4  # deep enough to show the alternation

        matches = [s for s in spans if s["name"] == "coarsen.match"]
        assert len(matches) == coarsest
        for s in matches:
            assert s["fields"]["scheme"] == "rm"
            assert by_id[s["parent"]]["name"] == "coarsen"
        (initial,) = [s for s in spans if s["name"] == "initial"]
        assert initial["fields"]["scheme"] == "sbp"

        refines = [s for s in spans if s["name"] == "refine"]
        assert {s["fields"]["policy"] for s in refines} == {"klr"}
        refined = sorted(s["fields"]["level"] for s in refines)
        assert refined == sorted({0, *range(coarsest - 2, -1, -2)})
        assert coarsest not in refined
        projected = sorted(
            s["fields"]["level"] for s in spans if s["name"] == "project"
        )
        assert projected == list(range(coarsest))
