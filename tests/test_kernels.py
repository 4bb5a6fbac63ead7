"""Tests for :mod:`repro.kernels` — registry, fallback, and equivalence.

Three layers of guarantees, from strongest to weakest:

* **bit-exactness** — the ``loop`` backend must reproduce the pre-registry
  pipeline byte for byte (golden cuts/hashes pinned below), and the
  ``numba`` contraction and HEM/LEM/HCM matching must be bit-identical
  to ``loop``;
* **move-for-move identity** — the jitted k-way sweep applies exactly the
  moves the Python sweep applies;
* **semantic equivalence** — backends whose tie-breaks legitimately differ
  (RM matching, the bucket-array FM pass) must still satisfy the same
  oracles: valid maximal matchings, exact cut accounting, balance.

The differential sweep checks all three on hypothesis-drawn graphs with
the ``numba`` probe forced on, so its kernels run as plain Python on
hosts without numba and jitted where it is installed.  The cross-backend
sweep runs the full pipeline over a slice of the :mod:`repro.matrices`
suite with the sanitizer active for every available backend.  Without
numba, ``kernels="numba"`` is ``loop`` bit for bit.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels_mod
from repro.core.kway import partition
from repro.core.kway_refine import _python_sweep
from repro.core.matching import (
    compute_matching,
    is_maximal_matching,
    is_valid_matching,
)
from repro.core.multilevel import bisect
from repro.core.options import DEFAULT_OPTIONS, MatchingScheme
from repro.core.refine import fm_pass
from repro.graph.contract import coarse_map_from_matching, contract
from repro.graph.csr import CSRGraph
from repro.graph.partition import edge_cut, part_weights
from repro.kernels import (
    PHASES,
    KernelSelection,
    kway_kernel,
    numba_available,
    register_backend,
    resolve_kernels,
)
from repro.kernels import numba_backend
from repro.matrices import load
from repro.matrices.mesh2d import grid2d
from repro.matrices.mesh3d import fe_tet3d
from repro.obs import read_trace
from repro.ordering import mlnd_ordering
from repro.utils.errors import ConfigurationError
from tests.test_properties import graphs


SRC = Path(__file__).resolve().parents[1] / "src"


def _where_hash(where):
    return hashlib.sha256(
        np.asarray(where, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def _graphs_identical(a, b):
    return (
        np.array_equal(a.xadj, b.xadj)
        and np.array_equal(a.adjncy, b.adjncy)
        and np.array_equal(a.adjwgt, b.adjwgt)
        and np.array_equal(a.vwgt, b.vwgt)
    )


@pytest.fixture
def clean_registry(monkeypatch):
    """Snapshot the backend registry so tests may register throwaways."""
    monkeypatch.setattr(kernels_mod, "_BACKENDS", dict(kernels_mod._BACKENDS))
    monkeypatch.setattr(kernels_mod, "_KERNEL_CACHE", {})
    yield


def _force_numba_probe(available):
    """Re-register ``numba`` with its import probe pinned to ``available``."""
    backend = kernels_mod._BACKENDS["numba"]
    register_backend(
        "numba", backend.loaders,
        probe=lambda: available, fallback=backend.fallback,
    )


@pytest.fixture
def numba_off(clean_registry):
    """``numba`` behaves as on a host without numba, wherever tests run."""
    _force_numba_probe(False)


@pytest.fixture
def numba_on(clean_registry):
    """``numba`` is selected even without numba: its kernels then run as
    plain Python, and jitted where numba is installed."""
    _force_numba_probe(True)


def _numba_selection():
    return resolve_kernels(DEFAULT_OPTIONS.with_(kernels="numba"), env={})


class TestResolution:
    """Backend selection: precedence, fallback chains, errors."""

    def test_default_is_loop_everywhere(self):
        sel = resolve_kernels(None, env={})
        assert sel.requested == "loop"
        for phase in PHASES:
            assert sel.backend(phase) == "loop"
        assert sel.as_dict() == {
            "requested": "loop", "matching": "loop", "fm": "loop",
            "contract": "loop",
        }

    def test_env_knob_selects_backend(self, numba_off):
        sel = resolve_kernels(None, env={"REPRO_KERNELS": "numba"})
        assert sel.requested == "numba"
        assert sel.backend("matching") == "loop"
        assert sel.as_dict()["fallbacks"]["matching"] == "numba unavailable"

    def test_options_beat_env(self, numba_off):
        options = DEFAULT_OPTIONS.with_(kernels="loop")
        sel = resolve_kernels(options, env={"REPRO_KERNELS": "numba"})
        assert sel.requested == "loop"
        assert sel.backend("matching") == "loop"
        assert "fallbacks" not in sel.as_dict()

    def test_numba_unavailable_degrades_transparently(self, numba_off):
        sel = resolve_kernels(None, env={"REPRO_KERNELS": "numba"})
        assert sel.requested == "numba"
        # numba falls back straight to loop, for every phase.
        assert sel.as_dict() == {
            "requested": "numba", "matching": "loop", "fm": "loop",
            "contract": "loop",
            "fallbacks": {phase: "numba unavailable" for phase in PHASES},
        }

    def test_numba_selected_when_available(self):
        if not numba_available():
            pytest.skip("numba not installed")
        sel = resolve_kernels(None, env={"REPRO_KERNELS": "numba"})
        for phase in PHASES:
            assert sel.backend(phase) == "numba"
        assert "fallbacks" not in sel.as_dict()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_kernels(None, env={"REPRO_KERNELS": "simd"})
        with pytest.raises(ConfigurationError):
            DEFAULT_OPTIONS.with_(kernels="simd").validate()

    def test_kway_kernel_only_for_numba(self):
        assert kway_kernel(resolve_kernels(None, env={})) is None
        numba_sel = resolve_kernels(None, env={"REPRO_KERNELS": "numba"})
        if numba_available():
            assert kway_kernel(numba_sel) is not None
        else:
            assert kway_kernel(numba_sel) is None

    def test_selection_is_immutable_metadata(self):
        sel = resolve_kernels(None, env={})
        assert isinstance(sel, KernelSelection)
        d1, d2 = sel.as_dict(), sel.as_dict()
        assert d1 == d2 and d1 is not d2  # fresh dict each call

    def test_register_backend_extends_chain(self, clean_registry):
        calls = []

        def fake_matching(graph, scheme, rng=None, cewgt=None):
            calls.append(graph.nvtxs)
            return compute_matching(graph, scheme, rng, cewgt)

        register_backend(
            "test-fake", {"matching": lambda: fake_matching},
            fallback="loop",
        )
        sel = resolve_kernels(None, env={"REPRO_KERNELS": "test-fake"})
        assert sel.backend("matching") == "test-fake"
        assert sel.backend("fm") == "loop"  # chain fills the gap
        g = grid2d(6, 6)
        sel.kernel("matching")(g, MatchingScheme.HEM, np.random.default_rng(0))
        assert calls == [36]

    def test_probe_gates_registration(self, clean_registry):
        register_backend(
            "test-gated", {"matching": lambda: compute_matching},
            probe=lambda: False, fallback="loop",
        )
        sel = resolve_kernels(None, env={"REPRO_KERNELS": "test-gated"})
        assert sel.backend("matching") == "loop"
        assert "matching" in sel.as_dict()["fallbacks"]


# Golden values captured from the pre-registry pipeline (PR 6 tree).  The
# ``loop`` backend is the bit-exact reference: any drift here means the
# refactor changed the default numerics, which is a regression by contract.
_GOLDEN_4ELT_CUT = 239
_GOLDEN_4ELT_PWGTS = [105, 100, 94, 98, 94, 100, 107, 102]
_GOLDEN_4ELT_BISECT = (48, "e6893ab610dab3c8")
_GOLDEN_BC31_CUT = 7553
_GOLDEN_BC31_PWGTS = [142, 144, 129, 139, 130, 130, 133, 133]
_GOLDEN_BC31_BISECT = (2636, "462ff37deb9d9719")


class TestLoopGolden:
    """The default (loop) pipeline is bit-identical to the pre-PR output."""

    def test_4elt_partition(self):
        g = load("4ELT", scale=0.2, seed=0)
        p = partition(g, 8, DEFAULT_OPTIONS, np.random.default_rng(1995))
        assert p.cut == _GOLDEN_4ELT_CUT
        assert list(p.pwgts) == _GOLDEN_4ELT_PWGTS

    def test_4elt_bisect_where_hash(self):
        g = load("4ELT", scale=0.2, seed=0)
        r = bisect(g, DEFAULT_OPTIONS, np.random.default_rng(7))
        cut, digest = _GOLDEN_4ELT_BISECT
        assert r.bisection.cut == cut
        assert _where_hash(r.bisection.where) == digest

    def test_bcsstk31_partition(self):
        g = load("BCSSTK31", scale=0.3, seed=0)
        p = partition(g, 8, DEFAULT_OPTIONS, np.random.default_rng(1995))
        assert p.cut == _GOLDEN_BC31_CUT
        assert list(p.pwgts) == _GOLDEN_BC31_PWGTS

    def test_bcsstk31_bisect_where_hash(self):
        g = load("BCSSTK31", scale=0.3, seed=0)
        r = bisect(g, DEFAULT_OPTIONS, np.random.default_rng(7))
        cut, digest = _GOLDEN_BC31_BISECT
        assert r.bisection.cut == cut
        assert _where_hash(r.bisection.where) == digest

    def test_grid_scheme_variants(self):
        g = grid2d(40, 30)
        p = partition(
            g, 5, DEFAULT_OPTIONS.with_(matching="rm"),
            np.random.default_rng(3),
        )
        assert p.cut == 121
        p = partition(
            g, 5, DEFAULT_OPTIONS.with_(matching="hcm", gain_table="bucket"),
            np.random.default_rng(3),
        )
        assert p.cut == 111
        member = partition(
            g, 5,
            DEFAULT_OPTIONS.with_(matching=MatchingScheme.HCM, gain_table="bucket"),
            np.random.default_rng(3),
        )
        assert np.array_equal(p.where, member.where)

    def test_explicit_loop_request_matches_default(self):
        g = load("4ELT", scale=0.2, seed=0)
        p = partition(
            g, 8, DEFAULT_OPTIONS.with_(kernels="loop"),
            np.random.default_rng(1995),
        )
        assert p.cut == _GOLDEN_4ELT_CUT


def _backends_under_test():
    backends = ["loop"]
    if numba_available():
        backends.append("numba")
    return backends


class TestCrossBackendSweep:
    """Full-pipeline equivalence over a slice of the matrices suite.

    Every backend runs under the sanitizer, so degree/cut/partition-vector
    invariants are recomputed from scratch at each phase boundary; the test
    then re-verifies the reported cut against :func:`edge_cut` and checks
    balance.  Backends may differ in cut (tie-breaks), but none may be
    invalid.
    """

    SWEEP = [
        ("4ELT", 0.12),
        ("BCSSTK33", 0.12),
        ("LSHP3466", 0.3),
        ("MEMPLUS", 0.1),
    ]

    @pytest.mark.parametrize("name,scale", SWEEP)
    @pytest.mark.parametrize("backend", _backends_under_test())
    def test_pipeline_valid_per_backend(self, name, scale, backend):
        g = load(name, scale=scale, seed=0)
        options = DEFAULT_OPTIONS.with_(kernels=backend, sanitize=True)
        p = partition(g, 4, options, np.random.default_rng(42))
        assert p.cut == edge_cut(g, p.where)
        assert int(p.pwgts.sum()) == int(g.vwgt.sum())
        assert p.pwgts.min() > 0
        # Recursive-bisection balance: within the compounded tolerance.
        assert p.pwgts.max() <= np.ceil(
            float(DEFAULT_OPTIONS.ubfactor) ** 2 * g.vwgt.sum() / 4
        )

    @pytest.mark.parametrize("name,scale", SWEEP)
    def test_backends_are_deterministic(self, name, scale):
        g = load(name, scale=scale, seed=0)
        for backend in _backends_under_test():
            options = DEFAULT_OPTIONS.with_(kernels=backend)
            a = bisect(g, options, np.random.default_rng(11))
            b = bisect(g, options, np.random.default_rng(11))
            assert a.bisection.cut == b.bisection.cut, backend
            assert np.array_equal(a.bisection.where, b.bisection.where), backend

    def test_env_knob_reaches_pipeline(self, monkeypatch, numba_off):
        monkeypatch.setenv("REPRO_KERNELS", "numba")
        g = grid2d(24, 24)
        r = bisect(g, DEFAULT_OPTIONS, np.random.default_rng(5))
        assert r.kernels["requested"] == "numba"
        assert r.kernels["matching"] == "loop"


class TestNumbaWithoutNumbaIsLoop:
    """Without numba, ``kernels="numba"`` runs ``loop`` for every phase and
    returns its bits; the probe is forced off so this holds on any host."""

    @pytest.fixture
    def graph(self):
        return load("4ELT", scale=0.25)

    def _both(self, drive):
        loop = drive(DEFAULT_OPTIONS.with_(kernels="loop"))
        numba = drive(DEFAULT_OPTIONS.with_(kernels="numba"))
        return loop, numba

    def test_bisect(self, graph, numba_off):
        loop, numba = self._both(
            lambda o: bisect(graph, o, np.random.default_rng(1))
        )
        assert _where_hash(numba.bisection.where) == _where_hash(
            loop.bisection.where
        )
        assert numba.kernels == {
            "requested": "numba", "matching": "loop", "fm": "loop",
            "contract": "loop",
            "fallbacks": {phase: "numba unavailable" for phase in PHASES},
        }

    def test_partition(self, graph, numba_off):
        loop, numba = self._both(
            lambda o: partition(graph, 8, o, np.random.default_rng(1))
        )
        assert numba.cut == loop.cut
        assert _where_hash(numba.where) == _where_hash(loop.where)

    def test_mlnd_ordering(self, graph, numba_off):
        loop, numba = self._both(
            lambda o: mlnd_ordering(graph, o, np.random.default_rng(1))
        )
        assert _where_hash(numba.perm) == _where_hash(loop.perm)

    def test_vectorized_is_not_a_backend(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_OPTIONS.with_(kernels="vectorized")
        with pytest.raises(ConfigurationError):
            resolve_kernels(None, env={"REPRO_KERNELS": "vectorized"})


#: Drawn graphs are small (n <= 40), so the plain-Python kernels stay fast.
_SWEEP = settings(max_examples=200, deadline=None)


@pytest.mark.usefixtures("numba_on")
class TestNumbaDifferential:
    """The ``numba`` backend's kernels against ``loop`` on drawn graphs."""

    def test_probe_forced_on_selects_numba(self):
        sel = _numba_selection()
        assert [sel.backend(phase) for phase in PHASES] == ["numba"] * 3
        assert kway_kernel(sel) is not None

    @_SWEEP
    @given(graphs(max_n=40, weighted=True), st.booleans(), st.integers(0, 99))
    def test_matching_and_contraction_bit_identical(self, g, coarse, seed):
        loop, numba = resolve_kernels(None, env={}), _numba_selection()
        cewgt = None
        if coarse:  # a coarse level: vertex weights above 1, cewgt for HCM
            rng = np.random.default_rng(seed)
            vwgt = rng.integers(1, 5, g.nvtxs)
            g = CSRGraph(g.xadj, g.adjncy, g.adjwgt, vwgt)
            cewgt = rng.integers(0, 30, g.nvtxs)
        for scheme in (
            MatchingScheme.HEM, MatchingScheme.LEM, MatchingScheme.HCM
        ):
            ref = loop.kernel("matching")(
                g, scheme, np.random.default_rng(seed), cewgt
            )
            got = numba.kernel("matching")(
                g, scheme, np.random.default_rng(seed), cewgt
            )
            assert np.array_equal(ref, got), scheme
            cmap, ncoarse = coarse_map_from_matching(ref)
            assert _graphs_identical(
                loop.kernel("contract")(g, cmap, ncoarse),
                numba.kernel("contract")(g, cmap, ncoarse),
            )

    @_SWEEP
    @given(
        graphs(min_n=4, max_n=40, weighted=True),
        st.integers(2, 8),
        st.sampled_from([1.0, 1.05, 1.5]),
        st.integers(0, 99),
    )
    def test_kway_sweep_move_for_move(self, g, k, ubfactor, seed):
        rng = np.random.default_rng(seed)
        where_py = rng.integers(0, k, g.nvtxs).astype(np.int32)
        where_nb = where_py.copy()
        pwgts_py = part_weights(g, where_py, k)
        pwgts_nb = pwgts_py.copy()
        maxpwgt = int(np.ceil(ubfactor * g.total_vwgt() / k))
        order = rng.permutation(g.nvtxs)
        sweep = kway_kernel(_numba_selection())
        ref = _python_sweep(g, where_py, pwgts_py, maxpwgt, k, order)
        got = sweep(g, where_nb, pwgts_nb, maxpwgt, k, order)
        assert ref == got
        assert np.array_equal(where_py, where_nb)
        assert np.array_equal(pwgts_py, pwgts_nb)

    @_SWEEP
    @given(
        graphs(min_n=4, max_n=40, weighted=True),
        st.sampled_from(list(MatchingScheme)),
        st.integers(2, 4),
        st.integers(0, 99),
    )
    def test_pipeline_exact_under_sanitizer(self, g, scheme, k, seed):
        # coarsen_to=4 so the drawn graphs are coarsened at all.
        options = DEFAULT_OPTIONS.with_(
            kernels="numba", matching=scheme, coarsen_to=4, sanitize=True
        )
        r = bisect(g, options, np.random.default_rng(seed))
        assert r.kernels["fm"] == "numba"
        r.bisection.verify(g)  # cut and part weights recounted exactly
        p = partition(g, k, options, np.random.default_rng(seed))
        assert p.cut == edge_cut(g, p.where)
        assert np.array_equal(p.pwgts, part_weights(g, p.where, k))


class TestContractBackends:
    """The jitted contraction kernel is bit-identical to the reference."""

    def _cases(self):
        rng = np.random.default_rng(0)
        for g in (grid2d(17, 13), fe_tet3d(400, 3), load("4ELT", scale=0.1)):
            for seed in (0, 1):
                match = compute_matching(
                    g, MatchingScheme.HEM, np.random.default_rng(seed)
                )
                cmap = np.full(g.nvtxs, -1, dtype=np.int64)
                nxt = 0
                for v in range(g.nvtxs):
                    if cmap[v] < 0:
                        cmap[v] = cmap[match[v]] = nxt
                        nxt += 1
                yield g, cmap, nxt
        del rng

    def test_numba_bit_identical(self):
        for g, cmap, ncoarse in self._cases():
            ref = contract(g, cmap, ncoarse)
            nb = numba_backend.contract_numba(g, cmap, ncoarse)
            assert _graphs_identical(ref, nb)


class TestMatchingBackends:
    """Jitted matching: bit-identical for deterministic schemes, oracle-
    equivalent for RM (whose uniform draws differ from the loop's)."""

    GRAPHS = [grid2d(20, 15), fe_tet3d(500, 7)]

    @pytest.mark.parametrize(
        "scheme", [MatchingScheme.HEM, MatchingScheme.LEM, MatchingScheme.HCM]
    )
    def test_deterministic_schemes_bit_identical(self, scheme):
        for g in self.GRAPHS:
            for seed in (0, 3):
                ref = compute_matching(g, scheme, np.random.default_rng(seed))
                nb = numba_backend.matching_numba(
                    g, scheme, np.random.default_rng(seed)
                )
                assert np.array_equal(ref, nb)

    def test_rm_valid_and_maximal(self):
        for g in self.GRAPHS:
            nb = numba_backend.matching_numba(
                g, MatchingScheme.RM, np.random.default_rng(2)
            )
            assert is_valid_matching(g, nb)
            assert is_maximal_matching(g, nb)

    def test_compute_matching_accepts_numba_impl(self):
        g = grid2d(10, 10)
        kernel = resolve_kernels(
            DEFAULT_OPTIONS.with_(kernels="numba"), env={}
        ).kernel("matching")
        m = kernel(g, MatchingScheme.HEM, np.random.default_rng(0))
        assert is_valid_matching(g, m)


class TestKwaySweepBackend:
    def test_move_for_move_identical(self):
        g = load("4ELT", scale=0.15, seed=0)
        k = 6
        rng = np.random.default_rng(9)
        where_py = rng.integers(0, k, size=g.nvtxs).astype(np.int32)
        where_nb = where_py.copy()
        pwgts_py = np.bincount(
            where_py, weights=g.vwgt, minlength=k
        ).astype(np.int64)
        pwgts_nb = pwgts_py.copy()
        maxpwgt = int(np.ceil(1.05 * g.vwgt.sum() / k))
        order = rng.permutation(g.nvtxs)

        moved_py, gain_py = _python_sweep(
            g, where_py, pwgts_py, maxpwgt, k, order
        )
        moved_nb, gain_nb = numba_backend.kway_sweep_numba(
            g, where_nb, pwgts_nb, maxpwgt, k, order
        )
        assert (moved_py, gain_py) == (moved_nb, gain_nb)
        assert np.array_equal(where_py, where_nb)
        assert np.array_equal(pwgts_py, pwgts_nb)
        assert moved_py > 0 and gain_py > 0


class TestFMNumba:
    """The bucket-array FM pass: exact accounting, never worse than start."""

    def _setup(self, g, seed):
        rng = np.random.default_rng(seed)
        where = (rng.random(g.nvtxs) < 0.5).astype(np.int32)
        pwgts = np.array(
            [int(g.vwgt[where == 0].sum()), int(g.vwgt[where == 1].sum())],
            dtype=np.int64,
        )
        total = int(g.vwgt.sum())
        half = total // 2
        maxpwgt = (int(np.ceil(1.05 * half)), int(np.ceil(1.05 * half)))
        return where, pwgts, maxpwgt, edge_cut(g, where)

    def test_cut_accounting_is_exact(self):
        g = grid2d(30, 25)
        where, pwgts, maxpwgt, cut = self._setup(g, 4)
        new_cut, improvement = numba_backend.fm_pass_numba(
            g, where, pwgts, maxpwgt, cut,
            boundary_only=False, early_exit=50,
        )
        assert new_cut == edge_cut(g, where)
        assert new_cut <= cut
        assert improvement >= 0
        assert pwgts[0] == int(g.vwgt[where == 0].sum())
        assert pwgts[1] == int(g.vwgt[where == 1].sum())

    def test_converges_comparably_to_reference(self):
        g = grid2d(30, 25)
        for impl in (fm_pass, numba_backend.fm_pass_numba):
            where, pwgts, maxpwgt, cut = self._setup(g, 4)
            for _ in range(12):
                cut, improvement = impl(
                    g, where, pwgts, maxpwgt, cut,
                    boundary_only=False, early_exit=50,
                )
                if improvement == 0:
                    break
            assert cut == edge_cut(g, where)
            # A random split of a 30×25 grid cuts ~half the edges; any
            # competent FM should land well under a quarter of that.
            assert cut < 300
            assert max(pwgts) <= max(maxpwgt)

    def test_respects_sanitizer(self):
        from repro.analysis.sanitize import Sanitizer

        g = grid2d(20, 20)
        where, pwgts, maxpwgt, cut = self._setup(g, 1)
        new_cut, _ = numba_backend.fm_pass_numba(
            g, where, pwgts, maxpwgt, cut,
            boundary_only=False, early_exit=50, san=Sanitizer(),
        )
        assert new_cut == edge_cut(g, where)


class TestResultMetadata:
    """Kernel decisions surface in results and trace spans."""

    def test_result_records_loop_selection(self):
        r = bisect(grid2d(16, 16), DEFAULT_OPTIONS, np.random.default_rng(0))
        assert r.kernels == {
            "requested": "loop", "matching": "loop", "fm": "loop",
            "contract": "loop",
        }

    def test_result_records_fallbacks(self, numba_off):
        options = DEFAULT_OPTIONS.with_(kernels="numba")
        r = bisect(grid2d(16, 16), options, np.random.default_rng(0))
        assert r.kernels["requested"] == "numba"
        assert r.kernels["matching"] == "loop"
        assert r.kernels["fm"] == "loop"
        assert "fm" in r.kernels["fallbacks"]

    def test_spans_carry_kernel_fields(self, tmp_path, numba_off):
        trace = str(tmp_path / "trace.jsonl")
        options = DEFAULT_OPTIONS.with_(kernels="numba", trace=trace)
        bisect(grid2d(16, 16), options, np.random.default_rng(0))
        spans = [r for r in read_trace(trace) if r["t"] == "span"]
        coarsen_spans = [s for s in spans if s["name"] == "coarsen"]
        refine_spans = [s for s in spans if s["name"] == "refine"]
        assert coarsen_spans and refine_spans
        for s in coarsen_spans:
            assert s["fields"]["matching_kernel"] == "loop"
            assert s["fields"]["contract_kernel"] == "loop"
            assert "fm" in s["fields"]["kernel_fallbacks"]
        for s in refine_spans:
            assert s["fields"]["kernel"] == "loop"


#: Imports every ``repro`` module with numba blocked, the backend last,
#: and prints the module count and whether the others loaded the backend.
IMPORT_ALL_WITHOUT_NUMBA = """
import importlib, pkgutil, sys
sys.modules["numba"] = None  # every ``import numba`` now raises ImportError
import repro
backend = "repro.kernels.numba_backend"
names = ["repro"] + [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
]
for name in names:
    if name != backend:
        importlib.import_module(name)
loaded = backend in sys.modules
importlib.import_module(backend)
print(len(names), loaded)
"""


class TestOptionalNumba:
    """numba stays optional: the tree imports without it, and only the
    registry reaches the backend module (so a missing numba is a recorded
    fallback, never a crash)."""

    @pytest.fixture(scope="class")
    def import_all(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-c", IMPORT_ALL_WITHOUT_NUMBA], env=env,
            capture_output=True, text=True, timeout=120,
        )

    def test_every_module_imports_without_numba(self, import_all):
        assert import_all.returncode == 0, import_all.stderr
        count = int(import_all.stdout.split()[0])
        assert count == len(list(SRC.joinpath("repro").rglob("*.py")))

    def test_nothing_outside_the_registry_imports_the_backend(self, import_all):
        assert import_all.returncode == 0, import_all.stderr
        assert import_all.stdout.split()[1] == "False"


@pytest.mark.perf
@pytest.mark.skipif(
    not numba_available(), reason="numba not installed: no jitted FM to time"
)
class TestNumbaSpeedup:
    """Acceptance: ≥5× on the FM-dominated refinement of a large grid."""

    def test_fm_pass_speedup(self):
        g = grid2d(320, 320)
        rng = np.random.default_rng(0)
        where0 = (rng.random(g.nvtxs) < 0.5).astype(np.int32)
        total = int(g.vwgt.sum())
        maxpwgt = (
            int(np.ceil(1.05 * total / 2)), int(np.ceil(1.05 * total / 2)),
        )

        def run(impl):
            where = where0.copy()
            pwgts = np.array(
                [int(g.vwgt[where == 0].sum()),
                 int(g.vwgt[where == 1].sum())],
                dtype=np.int64,
            )
            cut = edge_cut(g, where)
            t0 = time.perf_counter()
            cut, _ = impl(
                g, where, pwgts, maxpwgt, cut,
                boundary_only=False, early_exit=100,
            )
            return time.perf_counter() - t0, cut

        # Warm the JIT outside the timed region.
        run(numba_backend.fm_pass_numba)
        t_numba, cut_numba = run(numba_backend.fm_pass_numba)
        t_loop, cut_loop = run(fm_pass)
        assert cut_numba < edge_cut(g, where0)
        assert t_loop / t_numba >= 5.0, (t_loop, t_numba)
