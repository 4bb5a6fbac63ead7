"""Tests for ``repro.resilience``: fault injection, fallback chains,
deadline-bounded partitioning, and the resilience audit trail.

Layers:

* spec parsing and injector selection (env vs options, null-object off
  path with **zero** framework calls — mirrors ``test_sanitize.py``);
* typed spectral failure (:class:`SpectralConvergenceError`) raised by the
  eigensolvers and *not* masked by ``sbp_bisection``;
* every declared fallback chain driven by an injected fault: SBP → GGGP,
  initial retry-with-reseed and scheme exhaustion, coarsening stall,
  refinement degradation, deadline best-so-far recovery, dissection → MMD;
* deadline guard unit behaviour under a fake clock;
* degenerate inputs (empty / single-vertex / edgeless / disconnected)
  through every driver: valid result or a typed ``ReproError``;
* the report API and the CLI surface (``--deadline``, ``--max-retries``,
  resilience summary lines).
"""

import pickle

import numpy as np
import pytest

from repro.core.coarsen import coarsen
from repro.core.initial import initial_bisection, sbp_bisection
from repro.core.kway import partition
from repro.core.multilevel import bisect
from repro.core.options import DEFAULT_OPTIONS, InitialScheme, RefinePolicy
from repro.core.run import Run
from repro.graph import from_edge_list
from repro.obs.tracer import open_tracer
from repro.matrices import grid2d
from repro.ordering import mlnd_ordering, snd_ordering
from repro.ordering.nested_dissection import nested_dissection_ordering
from repro.resilience.deadline import DeadlineGuard
from repro.resilience.faults import (
    NULL,
    FaultInjector,
    NullFaultInjector,
    fault_injector,
    faults_enabled,
    parse_fault_spec,
)
from repro.resilience.report import ResilienceReport
from repro.spectral.fiedler import fiedler_vector
from repro.spectral.lanczos import lanczos_smallest
from repro.utils.errors import (
    ConfigurationError,
    DeadlineExceededError,
    PartitionError,
    ReproError,
    SpectralConvergenceError,
)
from tests.conftest import path_graph, star_graph, two_triangles

pytestmark = pytest.mark.usefixtures("clean_fault_env")


@pytest.fixture
def clean_fault_env(monkeypatch):
    """Tests own REPRO_FAULTS; the CI leg may set it ambiently."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def assert_valid_bisection(graph, bisection):
    where = np.asarray(bisection.where)
    assert where.shape == (graph.nvtxs,)
    assert set(np.unique(where)) <= {0, 1}
    assert (where == 0).any() and (where == 1).any()
    bisection.verify(graph)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_single_site_defaults(self):
        plan = parse_fault_spec("lanczos")
        clause = plan.clauses["lanczos"]
        assert clause.count == 1 and clause.prob == 1.0
        assert plan.seed == 0

    def test_full_grammar(self):
        plan = parse_fault_spec("lanczos:2;refine:*@0.5,seed=7")
        assert plan.clauses["lanczos"].count == 2
        assert plan.clauses["refine"].count is None
        assert plan.clauses["refine"].prob == 0.5
        assert plan.seed == 7

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus",  # unknown site
            "lanczos:0",  # zero count
            "lanczos@0.0",  # prob out of range
            "lanczos@1.5",
            "lanczos;lanczos",  # duplicate site
            "seed=7",  # no fault clause
            "seed=x;lanczos",  # bad seed
            "",
            "lanczos:*:*",
        ],
    )
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(bad)

    def test_options_validate_spec_eagerly(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_OPTIONS.with_(faults="bogus")

    def test_options_validate_deadline_and_retries(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_OPTIONS.with_(deadline=0.0)
        with pytest.raises(ConfigurationError):
            DEFAULT_OPTIONS.with_(max_init_retries=-1)


# ---------------------------------------------------------------------------
# injector selection and the disabled path
# ---------------------------------------------------------------------------
class TestSelection:
    def test_disabled_by_default(self):
        assert faults_enabled() is None
        assert fault_injector() is NULL
        assert fault_injector(DEFAULT_OPTIONS) is NULL
        assert not NULL

    def test_env_activates(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "matching")
        fi = fault_injector(DEFAULT_OPTIONS)
        assert isinstance(fi, FaultInjector) and fi
        assert fi.plan.spec == "matching"

    def test_options_take_precedence_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "matching")
        fi = fault_injector(DEFAULT_OPTIONS.with_(faults="lanczos"))
        assert fi.plan.spec == "lanczos"

    def test_counted_clause_exhausts(self):
        fi = FaultInjector("initial:2")
        fired = [fi.trip("initial") for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert fi.consulted["initial"] == 5 and fi.fired["initial"] == 2

    def test_unlisted_site_never_fires(self):
        fi = FaultInjector("initial")
        assert not fi.trip("lanczos")

    def test_probabilistic_clause_is_seed_deterministic(self):
        draws = []
        for _ in range(2):
            fi = FaultInjector("refine:*@0.5;seed=3")
            draws.append([fi.trip("refine") for _ in range(32)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_disabled_path_makes_zero_trip_calls(self, monkeypatch):
        calls = []

        def counting_trip(self, site):
            calls.append(site)
            return False

        monkeypatch.setattr(FaultInjector, "trip", counting_trip)
        monkeypatch.setattr(NullFaultInjector, "trip", counting_trip)
        g = grid2d(12, 12)
        bisect(g, DEFAULT_OPTIONS)
        partition(g, 4, DEFAULT_OPTIONS)
        mlnd_ordering(g, DEFAULT_OPTIONS)
        assert calls == []


# ---------------------------------------------------------------------------
# typed spectral failure
# ---------------------------------------------------------------------------
class TestSpectralConvergence:
    def test_non_finite_operator_raises_typed(self):
        def bad_matvec(x):
            return np.full_like(x, np.nan)

        with pytest.raises(SpectralConvergenceError):
            lanczos_smallest(bad_matvec, 16, rng=np.random.default_rng(0))

    def test_injected_fiedler_failure(self):
        g = grid2d(6, 6)
        with pytest.raises(SpectralConvergenceError) as exc_info:
            fiedler_vector(g, rng=np.random.default_rng(0), faults=FaultInjector("lanczos"))
        assert exc_info.value.injected
        assert isinstance(exc_info.value, ReproError)

    def test_sbp_bisection_does_not_mask(self):
        g = grid2d(6, 6)
        with pytest.raises(SpectralConvergenceError):
            sbp_bisection(g, faults=FaultInjector("lanczos"))

    def test_healthy_lanczos_unaffected(self):
        g = grid2d(20, 20)
        vec = fiedler_vector(g, rng=np.random.default_rng(0), force_lanczos=True)
        assert np.isfinite(vec).all() and vec.shape == (400,)


# ---------------------------------------------------------------------------
# initial-partition fallback chain
# ---------------------------------------------------------------------------
class TestInitialFallbacks:
    def test_sbp_falls_back_to_gggp(self):
        """Acceptance criterion: injected Lanczos failure on the coarsest
        graph still yields a valid, balanced bisection via GGGP."""
        g = grid2d(16, 16)
        options = DEFAULT_OPTIONS.with_(
            initial=InitialScheme.SBP, faults="lanczos"
        )
        result = bisect(g, options)
        assert_valid_bisection(g, result.bisection)
        assert max(result.bisection.pwgts) <= np.ceil(1.2 * g.total_vwgt() / 2)
        events = [e for e in result.resilience if e.kind == "fallback"]
        assert len(events) == 1
        assert "sbp" in events[0].detail and events[0].phase == "initial"

    def test_retry_with_reseed_recovers(self):
        g = grid2d(16, 16)
        result = bisect(g, DEFAULT_OPTIONS.with_(faults="initial:2"))
        assert_valid_bisection(g, result.bisection)
        assert result.resilience.count("retry", "initial") == 2
        assert result.resilience.count("fallback") == 0

    def test_chain_exhaustion_hits_last_resort(self):
        g = grid2d(16, 16)
        result = bisect(
            g, DEFAULT_OPTIONS.with_(faults="initial:*", max_init_retries=1)
        )
        assert_valid_bisection(g, result.bisection)
        rep = result.resilience
        # Both grower schemes report exhaustion, then the terminal split.
        assert rep.count("fallback", "initial") == 3
        assert "weighted-median" in rep.events[-1].detail

    def test_direct_initial_bisection_fallback(self):
        g = grid2d(8, 8)
        options = DEFAULT_OPTIONS.with_(
            initial=InitialScheme.SBP, faults="lanczos"
        )
        with Run.open(options) as run:
            bis = initial_bisection(
                g, options, np.random.default_rng(1), run=run
            )
        assert_valid_bisection(g, bis)
        assert run.report.count("fallback", "initial") == 1

    def test_no_fault_path_identical_results(self):
        g = grid2d(16, 16)
        a = bisect(g, DEFAULT_OPTIONS)
        b = bisect(g, DEFAULT_OPTIONS)
        assert np.array_equal(a.bisection.where, b.bisection.where)
        assert len(a.resilience) == 0


# ---------------------------------------------------------------------------
# coarsening stall
# ---------------------------------------------------------------------------
class TestCoarseningStall:
    def test_injected_degenerate_matching_stalls(self):
        g = grid2d(16, 16)
        result = bisect(g, DEFAULT_OPTIONS.with_(faults="matching"))
        assert result.nlevels == 1  # stalled immediately, partitioned flat
        assert_valid_bisection(g, result.bisection)
        assert result.resilience.count("stall", "coarsen") == 1

    def test_natural_stall_is_recorded(self):
        g = star_graph(400)  # maximal matchings match one edge at a time
        run = Run.branch(DEFAULT_OPTIONS)
        hierarchy = coarsen(g, DEFAULT_OPTIONS, run=run)
        assert hierarchy.coarsest.nvtxs > DEFAULT_OPTIONS.coarsen_to
        assert run.report.count("stall", "coarsen") >= 1

    def test_phases_without_a_run_open_no_tracer_and_inject_nothing(
        self, tmp_path, monkeypatch
    ):
        def phases(g):
            hierarchy = coarsen(g, DEFAULT_OPTIONS, np.random.default_rng(0))
            bis = initial_bisection(
                hierarchy.coarsest, DEFAULT_OPTIONS, np.random.default_rng(0)
            )
            return hierarchy.nlevels, hierarchy.coarsest.nvtxs, bis.where

        for var in ("REPRO_FAULTS", "REPRO_TRACE"):
            monkeypatch.delenv(var, raising=False)
        graphs = (star_graph(400), grid2d(16, 16))
        clean = [phases(g) for g in graphs]
        trace = tmp_path / "t.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        monkeypatch.setenv("REPRO_FAULTS", "matching:*;initial:*")
        for g, (nlevels, coarsest, where) in zip(graphs, clean):
            got = phases(g)
            assert got[:2] == (nlevels, coarsest)
            assert np.array_equal(got[2], where)
        assert clean[0][1] > DEFAULT_OPTIONS.coarsen_to  # the natural stall
        assert clean[1][0] > 1  # an ambient matching fault would stop at 1
        assert not trace.exists()


# ---------------------------------------------------------------------------
# deadline guard
# ---------------------------------------------------------------------------
class TestDeadlineGuard:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            DeadlineGuard(0.0)
        with pytest.raises(ConfigurationError):
            DeadlineGuard(10.0, degrade_fraction=2.0)

    def test_lifecycle_with_fake_clock(self):
        clock = FakeClock()
        guard = DeadlineGuard(100.0, clock=clock)
        assert not guard.expired() and not guard.nearing()
        assert guard.remaining() == pytest.approx(100.0)
        clock.t = 80.0  # remaining 20 <= 0.25 * 100
        assert guard.nearing() and not guard.expired()
        clock.t = 100.0
        assert guard.expired() and guard.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            guard.check(phase="refine")

    def test_force_expire_and_report(self):
        guard = DeadlineGuard(1000.0, clock=FakeClock())
        guard.force_expire()
        assert guard.expired() and guard.remaining() == 0.0
        report = ResilienceReport()
        with pytest.raises(DeadlineExceededError) as exc_info:
            guard.check(phase="initial", level=3, report=report)
        assert report.count("deadline") == 1
        assert exc_info.value.phase == "initial"
        assert exc_info.value.report is report

    def test_check_is_noop_before_expiry(self):
        guard = DeadlineGuard(100.0, clock=FakeClock())
        guard.check(phase="coarsen")  # must not raise


# ---------------------------------------------------------------------------
# deadline-bounded drivers
# ---------------------------------------------------------------------------
class TestDeadlineIntegration:
    OPTIONS = DEFAULT_OPTIONS.with_(faults="deadline", deadline=3600.0)

    def test_bisect_raises_with_best_so_far(self):
        g = grid2d(16, 16)
        with pytest.raises(DeadlineExceededError) as exc_info:
            bisect(g, self.OPTIONS)
        best = exc_info.value.best
        assert best is not None
        assert_valid_bisection(g, best)
        assert exc_info.value.report.count("deadline") == 1

    def test_kway_degrades_instead_of_raising(self):
        g = grid2d(16, 16)
        result = partition(g, 4, self.OPTIONS)
        assert sorted(np.unique(result.where)) == [0, 1, 2, 3]
        assert int(result.pwgts.sum()) == g.total_vwgt()
        assert result.resilience.count("degradation", "kway") >= 1

    def test_ordering_degrades_to_mmd(self):
        g = grid2d(20, 20)
        ordering = mlnd_ordering(g, self.OPTIONS)
        ordering.verify()
        rep = ordering.meta["resilience"]
        assert rep.count("degradation", "ordering") >= 1

    def test_nearing_degrades_refinement(self):
        g = grid2d(16, 16)
        clock = FakeClock(0.0)
        guard = DeadlineGuard(100.0, clock=clock)
        clock.t = 90.0  # inside the degradation window, never expires
        result = bisect(g, DEFAULT_OPTIONS, run=Run.branch(DEFAULT_OPTIONS, guard))
        assert_valid_bisection(g, result.bisection)
        degradations = [
            e for e in result.resilience if e.kind == "degradation"
        ]
        assert degradations and all("nearing" in e.detail for e in degradations)

    def test_refine_fault_degrades_policy(self):
        g = grid2d(16, 16)
        result = bisect(g, DEFAULT_OPTIONS.with_(faults="refine:*"))
        assert_valid_bisection(g, result.bisection)
        assert result.resilience.count("degradation", "refine") == result.nlevels

    def test_refine_fault_degrades_a_policy_given_by_name(self):
        # The CLI and the service pass the policy as a string.
        g = grid2d(16, 16)
        options = DEFAULT_OPTIONS.with_(faults="refine", refinement="bklgr")
        result = bisect(g, options)
        assert_valid_bisection(g, result.bisection)
        assert result.resilience.count("degradation", "refine") == 1

    def test_refine_fault_noop_for_single_pass_policy(self):
        g = grid2d(16, 16)
        result = bisect(
            g, DEFAULT_OPTIONS.with_(faults="refine:*", refinement=RefinePolicy.BGR)
        )
        assert result.resilience.count("degradation") == 0


# ---------------------------------------------------------------------------
# nested dissection fallbacks
# ---------------------------------------------------------------------------
class TestOrderingResilience:
    def test_bisector_failure_falls_back_to_mmd(self):
        g = grid2d(20, 20)

        def exploding_bisector(subgraph, rng):
            raise PartitionError("synthetic bisector failure")

        ordering = nested_dissection_ordering(g, exploding_bisector)
        ordering.verify()
        rep = ordering.meta["resilience"]
        assert rep.count("fallback", "ordering") >= 1
        assert "MMD" in rep.events[0].detail

    def test_snd_survives_unlimited_lanczos_faults(self):
        g = grid2d(20, 20)
        ordering = snd_ordering(g, DEFAULT_OPTIONS.with_(faults="lanczos:*"))
        ordering.verify()
        assert ordering.meta["resilience"].count("fallback", "ordering") >= 1

    def test_mlnd_with_initial_faults_still_orders(self):
        g = grid2d(20, 20)
        ordering = mlnd_ordering(g, DEFAULT_OPTIONS.with_(faults="initial:3"))
        ordering.verify()
        assert ordering.meta["resilience"].count("retry", "initial") == 3

    def test_clean_run_has_empty_report(self):
        g = grid2d(14, 14)
        ordering = mlnd_ordering(g, DEFAULT_OPTIONS)
        assert not ordering.meta["resilience"]


# ---------------------------------------------------------------------------
# degenerate inputs: valid result or typed error, never a numpy crash
# ---------------------------------------------------------------------------
class TestDegenerateInputs:
    EMPTY = from_edge_list(0, [])
    SINGLE = from_edge_list(1, [])
    EDGELESS = from_edge_list(8, [])

    def test_bisect_rejects_tiny_graphs_typed(self):
        for g in (self.EMPTY, self.SINGLE):
            with pytest.raises(ReproError):
                bisect(g, DEFAULT_OPTIONS)

    def test_bisect_edgeless(self):
        result = bisect(self.EDGELESS, DEFAULT_OPTIONS)
        assert result.bisection.cut == 0
        assert sorted(result.bisection.pwgts.tolist()) == [4, 4]

    def test_bisect_disconnected(self):
        g = two_triangles()
        result = bisect(g, DEFAULT_OPTIONS)
        assert result.bisection.cut == 0
        assert_valid_bisection(g, result.bisection)

    def test_partition_degenerate(self):
        with pytest.raises(ReproError):
            partition(self.EMPTY, 1, DEFAULT_OPTIONS)
        single = partition(self.SINGLE, 1, DEFAULT_OPTIONS)
        assert single.where.tolist() == [0]
        edgeless = partition(self.EDGELESS, 4, DEFAULT_OPTIONS)
        assert sorted(edgeless.pwgts.tolist()) == [2, 2, 2, 2]
        disconnected = partition(two_triangles(), 2, DEFAULT_OPTIONS)
        assert disconnected.cut == 0

    def test_nested_dissection_degenerate(self):
        for g in (self.EMPTY, self.SINGLE, self.EDGELESS, two_triangles()):
            ordering = mlnd_ordering(g, DEFAULT_OPTIONS)
            ordering.verify()
            assert len(ordering) == g.nvtxs

    def test_degenerate_with_faults_active(self):
        options = DEFAULT_OPTIONS.with_(faults="lanczos:*;initial:*;matching:*")
        result = bisect(self.EDGELESS, options)
        assert result.bisection.cut == 0
        ordering = mlnd_ordering(two_triangles(), options)
        ordering.verify()


# ---------------------------------------------------------------------------
# report API
# ---------------------------------------------------------------------------
class TestReport:
    def test_record_count_iter_len_bool(self):
        report = ResilienceReport()
        assert not report and len(report) == 0
        report.record("fallback", "initial", "sbp failed", level=2)
        report.record("retry", "initial", "reseeded")
        report.record("stall", "coarsen", "stalled", level=0)
        assert report and len(report) == 3
        assert report.count() == 3
        assert report.count("retry") == 1
        assert report.count(phase="initial") == 2
        assert report.count("fallback", "coarsen") == 0
        assert [e.kind for e in report] == ["fallback", "retry", "stall"]

    def test_event_str_and_summary(self):
        report = ResilienceReport()
        event = report.record("fallback", "initial", "sbp failed", level=2)
        assert str(event) == "[fallback/initial@L2] sbp failed"
        report.record("retry", "initial", "reseeded")
        assert report.summary().splitlines() == [
            "[fallback/initial@L2] sbp failed",
            "[retry/initial] reseeded",
        ]

    def test_traced_report_pickles_without_its_tracer(self, tmp_path):
        tracer = open_tracer(str(tmp_path / "t.jsonl"))
        report = ResilienceReport(tracer)
        report.record("stall", "coarsen", "stalled", level=0, nvtxs=9)
        clone = pickle.loads(pickle.dumps(report))
        tracer.close()
        assert report.tracer is tracer and clone.tracer is None
        assert [(e.trace_name, e.fields) for e in clone] == [
            ("coarsen.stall", {"nvtxs": 9})
        ]

    def test_merge(self):
        a, b = ResilienceReport(), ResilienceReport()
        a.record("fallback", "initial", "x")
        b.record("stall", "coarsen", "y")
        a.merge(b)
        assert len(a) == 2
        a.merge(a)  # self-merge is a no-op
        assert len(a) == 2


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLI:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.graph import write_graph

        path = tmp_path / "grid.graph"
        write_graph(grid2d(10, 10), path)
        return str(path)

    def test_partition_accepts_deadline_flags(self, graph_file, capsys):
        from repro.cli import main

        code = main(
            ["partition", graph_file, "2", "--deadline", "3600",
             "--max-retries", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "edge-cut" in out
        assert "resilience" not in out  # clean run prints no events

    def test_partition_prints_resilience_events(self, graph_file, capsys,
                                                monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULTS", "initial:2")
        assert main(["partition", graph_file, "2"]) == 0
        out = capsys.readouterr().out
        assert "resilience: 2 event(s)" in out
        assert "[retry/initial]" in out

    def test_order_prints_resilience_events(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.cli import main
        from repro.graph import write_graph

        # Big enough that mlnd actually dissects (leaf_size is 120).
        path = tmp_path / "grid20.graph"
        write_graph(grid2d(20, 20), path)
        monkeypatch.setenv("REPRO_FAULTS", "initial:1")
        assert main(["order", str(path), "--method", "mlnd"]) == 0
        out = capsys.readouterr().out
        assert "resilience: 1 event(s)" in out
        assert "[retry/initial]" in out

    def test_bad_deadline_is_a_config_error(self, graph_file):
        from repro.cli import main

        with pytest.raises(ConfigurationError):
            main(["partition", graph_file, "2", "--deadline", "-1"])
