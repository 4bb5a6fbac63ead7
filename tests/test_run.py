"""One run per driver call (``repro.core.run``).

Every driver entry opens one :class:`~repro.core.run.Run` — report, fault
injector, deadline guard, tracer, sanitizer, kernels — and threads it
down, so the baselines plugged into k-way recursion (Chaco-ML, MSB,
MSB-KL) are traced, fault-injected and budgeted exactly like ML:

* a traced call writes one trace run, with every bisection's spans under
  the entry's root span;
* a counted fault clause fires once per call, not once per bisection,
  and reaches MSB's coarsening and Fiedler solves;
* one deadline guard spans the call; MSB's Fiedler loop checkpoints it at
  every level boundary with a best-so-far split.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.kway import partition
from repro.core.kway_refine import partition_refined
from repro.core.options import DEFAULT_OPTIONS
from repro.core.run import Run
from repro.matrices import grid2d
from repro.obs import NULL, read_trace
from repro.ordering import mlnd_ordering, snd_ordering
from repro.spectral import chaco_ml_partition, msb_bisect, msb_partition
from repro.utils.errors import DeadlineExceededError, SanitizerError
from tests.conftest import assert_valid_bisection

pytestmark = pytest.mark.usefixtures("clean_env")

GRID = grid2d(32, 32)


@pytest.fixture
def clean_env(monkeypatch):
    """These tests own faults, tracing and the sanitizer; CI legs may set
    them ambiently."""
    for var in ("REPRO_FAULTS", "REPRO_TRACE", "REPRO_SANITIZE"):
        monkeypatch.delenv(var, raising=False)


KWAY = {
    "ml": partition,
    "chaco-ml": chaco_ml_partition,
    "msb": msb_partition,
    "msb-kl": partial(msb_partition, kl_refine=True),
}

DRIVERS = {
    **{name: partial(f, GRID, 8) for name, f in KWAY.items()},
    "partition-refined": partial(partition_refined, GRID, 8),
    "mlnd": partial(mlnd_ordering, GRID),
    "snd": partial(snd_ordering, GRID),
}


def _spans(records):
    return [r for r in records if r["t"] == "span"]


def _root(span, by_id):
    while span["parent"] is not None:
        span = by_id[span["parent"]]
    return span


class TestRunObject:
    def test_branch_run_has_no_tracer_and_only_the_given_guard(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        options = DEFAULT_OPTIONS.with_(deadline=60.0)
        run = Run.branch(options)
        assert run.tracer is NULL and not run.owns_tracer
        assert run.guard is None
        with Run.open(options, "entry") as outer:
            assert outer.guard is not None and outer.owns_tracer
            assert Run.branch(options, outer.guard).guard is outer.guard

    def test_entry_joins_a_threaded_run_and_leaves_it_open(self, tmp_path):
        options = DEFAULT_OPTIONS.with_(trace=str(tmp_path / "t.jsonl"))
        with Run.open(options, "outer") as outer:
            with Run.entry(outer, options, "inner") as inner:
                assert inner is outer
            with outer.tracer.span("after"):
                pass
        records = read_trace(str(tmp_path / "t.jsonl"))
        assert [r["run"] for r in records if r["t"] == "meta"] == ["outer"]
        assert [s["name"] for s in _spans(records)] == ["after"]


class TestOneTraceRun:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_one_meta_record_per_call(self, name, tmp_path):
        path = str(tmp_path / "t.jsonl")
        DRIVERS[name](DEFAULT_OPTIONS.with_(trace=path))
        records = read_trace(path)
        assert [r["t"] for r in records].count("meta") == 1

    @pytest.mark.parametrize("name", ["chaco-ml", "msb", "msb-kl"])
    def test_baseline_bisections_nest_under_partition(self, name, tmp_path):
        path = str(tmp_path / "t.jsonl")
        KWAY[name](GRID, 8, DEFAULT_OPTIONS.with_(trace=path))
        spans = _spans(read_trace(path))
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["partition"]
        coarsenings = [s for s in spans if s["name"] == "coarsen"]
        assert len(coarsenings) == 7  # one per bisection of an 8-way split
        for s in coarsenings:
            assert _root(s, by_id)["name"] == "partition"

    def test_partition_refined_traces_both_steps_in_one_run(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        partition_refined(GRID, 8, DEFAULT_OPTIONS.with_(trace=path))
        records = read_trace(path)
        (meta,) = [r for r in records if r["t"] == "meta"]
        assert meta["run"] == "partition-refined"
        roots = [s["name"] for s in _spans(records) if s["parent"] is None]
        assert sorted(roots) == ["kway-refine", "partition"]


class TestOneInjector:
    @pytest.mark.parametrize(
        "spec,kind,phase",
        [
            ("initial:1", "retry", "initial"),
            ("refine:1", "degradation", "refine"),
            ("matching:1", "stall", "coarsen"),
        ],
    )
    def test_chaco_ml_clause_fires_once_per_call(self, spec, kind, phase):
        result = chaco_ml_partition(GRID, 8, DEFAULT_OPTIONS.with_(faults=spec))
        assert [(e.kind, e.phase) for e in result.resilience] == [(kind, phase)]

    def test_matching_fault_reaches_msb(self):
        result = msb_partition(GRID, 8, DEFAULT_OPTIONS.with_(faults="matching:1"))
        assert result.resilience.count("stall", "coarsen") == 1

    def test_lanczos_fault_reaches_msb(self):
        result = msb_partition(GRID, 8, DEFAULT_OPTIONS.with_(faults="lanczos:1"))
        (event,) = [e for e in result.resilience if e.phase == "kway"]
        assert event.kind == "fallback" and "injected" in event.detail
        assert len(np.unique(result.where)) == 8

    def test_kept_interpolant_is_a_recorded_fallback(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        result = msb_partition(GRID, 8, DEFAULT_OPTIONS.with_(trace=path))
        kept = [
            s for s in _spans(read_trace(path))
            if s["name"] == "polish"
            and s["fields"].get("polish") == "kept-interpolant"
        ]
        # The polish tolerance is tight enough that some levels keep it.
        assert kept
        assert result.resilience.count("fallback", "refine") == len(kept)

    def test_sanitizer_checks_the_msb_split(self, monkeypatch):
        import repro.spectral.msb as msb
        from repro.core.initial import split_at_weighted_median

        def drifted(graph, vec, target0):
            bisection = split_at_weighted_median(graph, vec, target0)
            bisection.cut += 1
            return bisection

        monkeypatch.setattr(msb, "split_at_weighted_median", drifted)
        with pytest.raises(SanitizerError) as exc_info:
            msb_bisect(GRID, DEFAULT_OPTIONS.with_(sanitize=True))
        assert exc_info.value.phase == "initial"


class TestOneGuard:
    OPTIONS = DEFAULT_OPTIONS.with_(faults="deadline", deadline=3600.0)

    @pytest.mark.parametrize("name", ["chaco-ml", "msb", "msb-kl"])
    def test_deadline_degrades_like_ml(self, name):
        ml = partition(GRID, 8, self.OPTIONS)
        result = KWAY[name](GRID, 8, self.OPTIONS)
        assert result.resilience.count("deadline") == 1
        assert [(e.kind, e.phase) for e in result.resilience] == [
            (e.kind, e.phase) for e in ml.resilience
        ]
        contiguous = [
            e for e in result.resilience if "weight-contiguous" in e.detail
        ]
        assert len(contiguous) == 2  # both halves of the interrupted root
        assert sorted(np.unique(result.where)) == list(range(8))
        assert int(result.pwgts.sum()) == GRID.total_vwgt()

    def test_msb_raises_with_best_so_far(self):
        with pytest.raises(DeadlineExceededError) as exc_info:
            msb_bisect(GRID, self.OPTIONS)
        best = exc_info.value.best
        assert best is not None
        assert_valid_bisection(GRID, best)
        assert exc_info.value.report.count("deadline") == 1
