"""Chaos tests for the supervised worker runtime (repro.resilience.supervisor).

The supervision contract: with ``workers=N`` and injected worker faults
(``worker_crash`` / ``worker_hang`` / ``worker_slow``), every driver entry
still *returns* — no hang, no unhandled ``BrokenProcessPool``, no leaked
child process — and the result is bit-identical to ``workers=1``, because
every retry and the sequential demotion re-run the branch from the same
pre-seeded RNG stream.  Every supervision decision must be auditable: a
``retry``/``degradation`` event (phase ``"worker"``) in the
``ResilienceReport`` and a ``worker.*`` event in the trace.

The suite is written to pass under the CI chaos leg, which sets ambient
``REPRO_FAULTS`` (a worker-site spec) and ``REPRO_WORKERS=2``: baselines
pin ``workers=1`` explicitly (worker sites are never consulted without a
pool), and tests that need a specific fault mix set ``options.faults``,
which takes precedence over the environment.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import partition
from repro.core.options import DEFAULT_OPTIONS
from repro.matrices import grid2d, grid3d
from repro.obs import WORKER_EVENT_PREFIX, profile, read_trace
from repro.ordering import mlnd_ordering
from repro.resilience.deadline import DeadlineGuard
from repro.resilience.faults import (
    WORKER_FAULT_SITES,
    fault_injector,
    parse_fault_spec,
    worker_faults_only,
)
from repro.resilience.report import ResilienceReport
from repro.resilience.supervisor import BranchSupervisor


@pytest.fixture(autouse=True)
def _controlled_env(monkeypatch):
    # Worker timeout and tracing are owned by each test; ambient
    # REPRO_FAULTS / REPRO_WORKERS are deliberately left alone so the CI
    # chaos leg exercises the env-driven path through the same tests.
    monkeypatch.delenv("REPRO_WORKER_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)


MESHES = {
    "mesh2d": lambda: grid2d(24, 23),
    "mesh3d": lambda: grid3d(9, 8, 8),
}

SEQ = DEFAULT_OPTIONS.with_(workers=1)


def _worker_events(report):
    return [e for e in report if e.phase == "worker"]


def _assert_no_orphans():
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


# -- fault grammar ------------------------------------------------------


class TestWorkerFaultSites:
    def test_sites_parse(self):
        plan = parse_fault_spec("worker_crash:2@0.5;worker_hang:1;seed=9")
        assert set(plan.clauses) == {"worker_crash", "worker_hang"}
        assert plan.seed == 9

    def test_worker_faults_only(self):
        only = fault_injector(DEFAULT_OPTIONS.with_(faults="worker_crash"))
        mixed = fault_injector(
            DEFAULT_OPTIONS.with_(faults="worker_crash;lanczos:1")
        )
        assert worker_faults_only(None)
        assert worker_faults_only(only)
        assert not worker_faults_only(mixed)
        assert WORKER_FAULT_SITES == {
            "worker_crash", "worker_hang", "worker_slow",
        }

    def test_mixed_spec_runs_sequentially_and_identically(self):
        graph = grid2d(20, 20)
        base = partition(graph, 4, SEQ, np.random.default_rng(3))
        opts = DEFAULT_OPTIONS.with_(workers=2, faults="worker_crash;lanczos:1")
        mixed = partition(graph, 4, opts, np.random.default_rng(3))
        # The in-process site forces the sequential path; the lanczos
        # fault itself is absorbed by the initial-partition fallback chain.
        assert np.array_equal(base.where, mixed.where)


# -- supervisor unit behaviour ------------------------------------------


def _square_job(value, *, guard=None):
    return value * value


def _guard_probe_job(value, *, guard=None):
    return value, (None if guard is None else type(guard).__name__)


def _marker_probe_job(value, *, guard=None):
    # Pool submissions never carry a guard; only the in-process demotion
    # path can see an attribute stamped on the parent's guard object.
    return value, getattr(guard, "test_marker", None)


def _double_job(value, *, guard=None):
    return 2 * value


class _RecordingSpan:
    """A truthy stand-in span (or a report's tracer) that keeps the events
    it receives."""

    def __init__(self):
        self.events = []

    def __bool__(self):
        return True

    def event(self, name, **fields):
        self.events.append((name, fields))


class TestBranchSupervisor:
    def test_drain_preserves_submission_order(self):
        with BranchSupervisor(2) as sup:
            for i in range(5):
                sup.submit(_square_job, i, meta=f"m{i}")
            drained = list(sup.drain())
        assert drained == [(f"m{i}", i * i) for i in range(5)]
        _assert_no_orphans()

    def test_crash_demotion_builds_guard_from_timeout(self):
        faults = fault_injector(
            DEFAULT_OPTIONS.with_(faults="worker_crash:*@1.0;seed=1")
        )
        report = ResilienceReport()
        with BranchSupervisor(
            2, max_retries=0, timeout=30.0, report=report, faults=faults
        ) as sup:
            sup.submit(_guard_probe_job, 7, meta="m")
            [(meta, result)] = list(sup.drain())
        assert result == (7, "DeadlineGuard")
        kinds = [e.kind for e in _worker_events(report)]
        assert "degradation" in kinds
        _assert_no_orphans()

    def test_demoted_branch_shares_the_parent_guard(self):
        faults = fault_injector(
            DEFAULT_OPTIONS.with_(faults="worker_crash:*@1.0;seed=1")
        )
        guard = DeadlineGuard(60.0)
        guard.test_marker = "parent-guard"
        with BranchSupervisor(
            2, max_retries=0, guard=guard, faults=faults
        ) as sup:
            sup.submit(_marker_probe_job, 5, meta=None)
            [(meta, result)] = list(sup.drain())
        assert result == (5, "parent-guard")
        _assert_no_orphans()

    def test_crash_found_at_submit_is_recorded(self):
        # The first branch's worker dies before the second submit, which
        # then meets the broken pool; the crashed branch must still be
        # charged with a retry, in the report and in the trace.
        faults = fault_injector(
            DEFAULT_OPTIONS.with_(faults="worker_crash:1")
        )
        span = _RecordingSpan()
        report = ResilienceReport(tracer=span)
        with BranchSupervisor(
            2, report=report, span=span, faults=faults
        ) as sup:
            sup.submit(_double_job, 1, meta=0)
            time.sleep(1.0)
            sup.submit(_double_job, 2, meta=1)
            drained = list(sup.drain())
        assert drained == [(0, 2), (1, 4)]
        assert [e.kind for e in _worker_events(report)] == ["retry"]
        assert ("worker.retry", 0) in [(n, f.get("branch")) for n, f in span.events]
        _assert_no_orphans()

    def test_abnormal_exit_kills_the_pool(self):
        with pytest.raises(RuntimeError):
            with BranchSupervisor(2) as sup:
                sup.submit(_square_job, 3, meta=None)
                raise RuntimeError("driver died before draining")
        _assert_no_orphans()


# -- driver chaos: crash ------------------------------------------------


@pytest.mark.parametrize("name", MESHES, ids=MESHES.keys())
class TestCrashRecovery:
    def test_partition_retries_and_matches_sequential(self, name):
        graph = MESHES[name]()
        base = partition(graph, 5, SEQ, np.random.default_rng(7))
        opts = DEFAULT_OPTIONS.with_(workers=2, faults="worker_crash;seed=3")
        chaotic = partition(graph, 5, opts, np.random.default_rng(7))
        assert np.array_equal(base.where, chaotic.where)
        assert chaotic.cut == base.cut
        events = _worker_events(chaotic.resilience)
        assert events and all(e.kind in ("retry", "degradation") for e in events)
        _assert_no_orphans()

    def test_mlnd_retries_and_matches_sequential(self, name):
        graph = MESHES[name]()
        base = mlnd_ordering(graph, SEQ, np.random.default_rng(13))
        opts = DEFAULT_OPTIONS.with_(workers=2, faults="worker_crash;seed=3")
        chaotic = mlnd_ordering(graph, opts, np.random.default_rng(13))
        assert np.array_equal(base.perm, chaotic.perm)
        assert _worker_events(chaotic.meta["resilience"])
        _assert_no_orphans()


class TestRetryExhaustion:
    def test_every_submission_crashing_degrades_to_sequential(self):
        graph = grid2d(24, 23)
        base = partition(graph, 4, SEQ, np.random.default_rng(7))
        opts = DEFAULT_OPTIONS.with_(
            workers=2, faults="worker_crash:*@1.0;seed=1", worker_retries=1
        )
        chaotic = partition(graph, 4, opts, np.random.default_rng(7))
        assert np.array_equal(base.where, chaotic.where)
        kinds = [e.kind for e in _worker_events(chaotic.resilience)]
        assert "degradation" in kinds
        _assert_no_orphans()

    def test_mlnd_degrades_to_sequential(self):
        graph = grid3d(9, 8, 8)
        base = mlnd_ordering(graph, SEQ, np.random.default_rng(13))
        opts = DEFAULT_OPTIONS.with_(
            workers=2, faults="worker_crash:*@1.0;seed=1", worker_retries=0
        )
        chaotic = mlnd_ordering(graph, opts, np.random.default_rng(13))
        assert np.array_equal(base.perm, chaotic.perm)
        kinds = [e.kind for e in _worker_events(chaotic.meta["resilience"])]
        assert "degradation" in kinds
        _assert_no_orphans()


# -- driver chaos: hang and slow ----------------------------------------


class TestHangAndSlow:
    def test_hung_worker_times_out_and_retries(self):
        graph = grid2d(24, 23)
        base = partition(graph, 4, SEQ, np.random.default_rng(7))
        opts = DEFAULT_OPTIONS.with_(
            workers=2, faults="worker_hang:1;seed=5", worker_timeout=0.5
        )
        t0 = time.monotonic()
        chaotic = partition(graph, 4, opts, np.random.default_rng(7))
        assert time.monotonic() - t0 < 60.0
        assert np.array_equal(base.where, chaotic.where)
        events = _worker_events(chaotic.resilience)
        assert events and events[0].kind == "retry"
        _assert_no_orphans()

    def test_hang_without_timeout_is_still_bounded(self):
        # No worker_timeout, no deadline: the supervisor's internal hang
        # fallback must keep an injected hang from stalling the run.
        graph = grid2d(24, 23)
        base = partition(graph, 4, SEQ, np.random.default_rng(7))
        opts = DEFAULT_OPTIONS.with_(workers=2, faults="worker_hang:1;seed=5")
        t0 = time.monotonic()
        chaotic = partition(graph, 4, opts, np.random.default_rng(7))
        assert time.monotonic() - t0 < 120.0
        assert np.array_equal(base.where, chaotic.where)
        _assert_no_orphans()

    def test_slow_worker_completes_without_supervision_events(self):
        graph = grid2d(24, 23)
        base = partition(graph, 4, SEQ, np.random.default_rng(7))
        opts = DEFAULT_OPTIONS.with_(workers=2, faults="worker_slow;seed=7")
        chaotic = partition(graph, 4, opts, np.random.default_rng(7))
        assert np.array_equal(base.where, chaotic.where)
        assert _worker_events(chaotic.resilience) == []
        _assert_no_orphans()


# -- clean path ----------------------------------------------------------


@pytest.mark.parametrize("name", MESHES, ids=MESHES.keys())
class TestCleanPath:
    def test_no_faults_no_timeout_bit_identical(self, name, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        graph = MESHES[name]()
        base = partition(graph, 5, SEQ, np.random.default_rng(7))
        fanned = partition(
            graph, 5, DEFAULT_OPTIONS.with_(workers=2), np.random.default_rng(7)
        )
        assert np.array_equal(base.where, fanned.where)
        assert _worker_events(fanned.resilience) == []
        _assert_no_orphans()

    def test_worker_timeout_alone_does_not_perturb(self, name, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        graph = MESHES[name]()
        base = partition(graph, 5, SEQ, np.random.default_rng(7))
        opts = DEFAULT_OPTIONS.with_(workers=2, worker_timeout=120.0)
        fanned = partition(graph, 5, opts, np.random.default_rng(7))
        assert np.array_equal(base.where, fanned.where)
        assert _worker_events(fanned.resilience) == []


# -- observability -------------------------------------------------------


class TestWorkerTraceEvents:
    def test_supervision_decisions_land_in_the_trace(self, tmp_path):
        graph = grid2d(24, 23)
        trace = tmp_path / "chaos.jsonl"
        opts = DEFAULT_OPTIONS.with_(
            workers=2,
            faults="worker_crash:*@1.0;seed=1",
            worker_retries=1,
            trace=str(trace),
        )
        partition(graph, 4, opts, np.random.default_rng(7))
        prof = profile(read_trace(trace))
        worker_events = {
            name: count
            for name, count in prof["events"].items()
            if name.startswith(WORKER_EVENT_PREFIX)
        }
        assert "worker.crash" in worker_events
        assert "worker.retry" in worker_events
        assert "worker.degrade" in worker_events
        # The rollup folds the same events into the worker bucket, next to
        # the demoted branches' worker.sequential spans.
        bucket = prof["rollup"]["worker"]
        assert bucket["events"] == worker_events
        assert "worker.sequential" in bucket["spans"]

    def test_clean_traced_run_reconciles_timers(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        graph = grid2d(24, 23)
        trace = tmp_path / "clean.jsonl"
        opts = DEFAULT_OPTIONS.with_(workers=2, trace=str(trace))
        result = partition(graph, 4, opts, np.random.default_rng(7))
        prof = profile(read_trace(trace))
        # Synthetic worker.phase spans splice pool-measured phase time
        # back into the span tree, so traced workers=N still reconciles.
        # Span and timer clocks are sampled independently, hence the
        # loose-but-meaningful tolerance.
        for phase, total in result.timers.items():
            assert prof["phases"][phase] == pytest.approx(
                total, rel=0.05, abs=5e-3
            )
