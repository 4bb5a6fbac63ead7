"""Resilience engineering for the multilevel pipeline.

The paper's coarsen → initial-partition → refine pipeline assumes every
phase succeeds; production partitioners survive because they engineer
around the failures (Sanders & Schulz; Holtgrewe et al.).  This package is
that engineering for :mod:`repro`:

* **fault injection** (:mod:`repro.resilience.faults`) — deterministic,
  seeded failures at phase boundaries, activated by ``REPRO_FAULTS=<spec>``
  or ``MultilevelOptions.faults``, free when off;
* **deadline guarding** (:mod:`repro.resilience.deadline`) — wall-clock
  budgets that degrade refinement near the limit and raise
  :class:`~repro.utils.errors.DeadlineExceededError` carrying the best
  bisection found so far;
* **the audit trail** (:mod:`repro.resilience.report`) — every fallback,
  retry and degradation that fired, attached to the result object;
* **worker supervision** (:mod:`repro.resilience.supervisor`) — the
  worker settings and process-pool branch runtime of ``workers=N`` runs:
  per-branch time budgets sliced from the deadline guard, crash/hang
  recovery with a deterministic retry ladder, and degradation to
  bit-identical in-process sequential execution.

See ``docs/RESILIENCE.md`` for the fault-spec grammar, the fallback chain
table, deadline semantics, and the worker-supervision contract.
"""

from repro.resilience.deadline import DeadlineGuard
from repro.resilience.faults import (
    FAULT_SITES,
    WORKER_FAULT_SITES,
    FaultClause,
    FaultInjector,
    FaultPlan,
    NullFaultInjector,
    fault_injector,
    faults_enabled,
    parse_fault_spec,
    worker_faults_only,
)
from repro.resilience.report import EVENT_KINDS, ResilienceEvent, ResilienceReport
from repro.resilience.supervisor import BranchSupervisor

__all__ = [
    "DeadlineGuard",
    "FAULT_SITES",
    "WORKER_FAULT_SITES",
    "FaultClause",
    "FaultPlan",
    "FaultInjector",
    "NullFaultInjector",
    "fault_injector",
    "faults_enabled",
    "parse_fault_spec",
    "worker_faults_only",
    "EVENT_KINDS",
    "ResilienceEvent",
    "ResilienceReport",
    "BranchSupervisor",
]
