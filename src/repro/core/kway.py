"""k-way partitioning by recursive bisection (§2).

"The k-way partition problem is most frequently solved by recursive
bisection … After log k phases, graph G is partitioned into k parts."  For
non-power-of-two ``k`` the split targets ⌈k/2⌉ : ⌊k/2⌋ of the vertex
weight, so every leaf ends up with ≈ 1/k of the total — the same device
METIS uses.

The recursion extracts induced subgraphs (boundary edges between already
separated parts can never be un-cut, so dropping them is exact) and gives
each subproblem an independent RNG stream, *pre-spawned before either side
runs*, making the result invariant to evaluation order — including
evaluation in other processes: with ``options.workers`` (or
``REPRO_WORKERS``) above 1, the independent branches at the top of the
recursion tree are fanned across a supervised process pool
(:class:`~repro.resilience.supervisor.BranchSupervisor`) and the
partition vector is bit-identical to the sequential run.  The supervisor
bounds each branch wait by ``worker_timeout`` and the remaining deadline
budget, retries crashed or hung workers, and degrades stubborn branches
to in-process sequential execution — so a dead worker can cost time but
never a hang, a leak or a different partition.  Only a caller-supplied
bisector closure (unpicklable) or a fault spec naming in-process phase
sites still forces sequential execution, with identical results.
"""

from __future__ import annotations

import numpy as np

from repro.core.initial import split_at_weighted_median
from repro.core.multilevel import bisect
from repro.core.options import DEFAULT_OPTIONS
from repro.graph.components import extract_subgraph
from repro.graph.partition import KWayPartition, edge_cut, part_weights
from repro.obs.tracer import NULL as NULL_TRACER
from repro.obs.tracer import resolve_tracer
from repro.resilience.deadline import DeadlineGuard
from repro.resilience.faults import fault_injector, worker_faults_only
from repro.resilience.report import ResilienceReport
from repro.resilience.supervisor import (
    BranchSupervisor,
    resolve_worker_timeout,
    resolve_workers,
)
from repro.utils.errors import (
    DeadlineExceededError,
    PartitionError,
    SpectralConvergenceError,
)
from repro.utils.rng import as_generator, spawn_child
from repro.utils.timing import PhaseTimer


def partition(
    graph,
    nparts: int,
    options=DEFAULT_OPTIONS,
    rng=None,
    *,
    bisector=None,
) -> KWayPartition:
    """Partition ``graph`` into ``nparts`` parts of roughly equal weight.

    Parameters
    ----------
    graph:
        The graph to partition.
    nparts:
        Number of parts ``k ≥ 1``.
    options:
        Multilevel configuration used for every bisection.
    bisector:
        Optional override: a callable ``(graph, options, rng, target0) →
        MultilevelResult``-like object with a ``bisection`` attribute, a
        ``timers`` :class:`PhaseTimer` and a ``resilience`` report (merged
        into the run's).  The spectral baselines plug in here so Figures
        1–4 compare k-way against k-way.

    Returns
    -------
    repro.graph.partition.KWayPartition
        With ``timers`` carrying the accumulated CTime/ITime/RTime/PTime
        and ``resilience`` holding the run's
        :class:`~repro.resilience.report.ResilienceReport`.  Unlike
        :func:`~repro.core.multilevel.bisect`, an expired deadline never
        raises here: the remaining subproblems degrade to weight-contiguous
        assignment and the partition completes.
    """
    if nparts < 1:
        raise PartitionError(f"nparts must be >= 1, got {nparts}")
    if nparts > graph.nvtxs:
        raise PartitionError(
            f"cannot cut {graph.nvtxs} vertices into {nparts} parts"
        )
    rng = as_generator(rng if rng is not None else options.seed)
    # Imbalance compounds multiplicatively down the ⌈log₂ k⌉ bisection
    # levels, so give each level the root of the overall tolerance.
    depth = max(1, int(np.ceil(np.log2(nparts)))) if nparts > 1 else 1
    options = options.with_(ubfactor=float(options.ubfactor) ** (1.0 / depth))
    where = np.zeros(graph.nvtxs, dtype=np.int32)
    timers = PhaseTimer()
    faults = fault_injector(options)
    report = ResilienceReport()
    guard = None
    if options.deadline is not None:
        guard = DeadlineGuard(options.deadline, timer=timers)
    trc, owned_trace = resolve_tracer(
        None, options, run="partition",
        nvtxs=graph.nvtxs, nedges=graph.nedges, nparts=nparts,
    )
    # Parallel fan-out needs picklable branch state: a caller-supplied
    # bisector closure cannot be shipped to workers, and a fault spec
    # naming in-process phase sites carries injector countdowns the
    # workers could not share.  Everything else — tracer, deadline guard,
    # worker-site faults — is handled by the supervisor in the parent.
    # The RNG tree is identical either way, so sequential and parallel
    # runs are bit-identical.
    workers = resolve_workers(options)
    parallel = (
        workers > 1
        and nparts > 1
        and bisector is None
        and worker_faults_only(faults)
    )
    try:
        with trc.span("partition", nparts=nparts) as root:
            vmap = np.arange(graph.nvtxs, dtype=np.int64)
            if parallel:
                with BranchSupervisor(
                    workers,
                    timeout=resolve_worker_timeout(options),
                    guard=guard,
                    max_retries=options.worker_retries,
                    report=report,
                    span=root,
                    faults=faults,
                ) as par:
                    _recurse(graph, nparts, 0, where, vmap,
                             options, rng, timers, bisector, faults, report,
                             guard, trc, par=par)
                    for meta, branch in par.drain():
                        first_part, branch_vmap = meta
                        sub_where, totals, sub_report = branch
                        where[branch_vmap] = first_part + sub_where
                        for phase_name, seconds in totals.items():
                            timers.add(phase_name, seconds)
                            if root:
                                # Splice the worker-measured phase time
                                # into the span tree so traced workers=N
                                # runs still reconcile with result.timers.
                                root.record(
                                    "worker.phase", seconds,
                                    phase=phase_name,
                                )
                        report.merge(sub_report)
            else:
                _recurse(graph, nparts, 0, where, vmap,
                         options, rng, timers, bisector, faults, report,
                         guard, trc)
            result = KWayPartition(
                where=where,
                nparts=nparts,
                cut=edge_cut(graph, where),
                pwgts=part_weights(graph, where, nparts),
            )
            if root:
                root.set(cut=int(result.cut))
        result.timers = timers.totals()
        result.resilience = report
        return result
    finally:
        if owned_trace:
            trc.close()


def _assign_by_weight(graph, k) -> np.ndarray:
    """Deadline-degraded k-way assignment: contiguous vertex-id ranges of
    roughly equal weight — O(n), no bisections, never fails."""
    total = max(int(graph.total_vwgt()), 1)
    cum = np.cumsum(graph.vwgt) - graph.vwgt  # exclusive prefix weights
    part = (cum * k) // total
    return np.minimum(part, k - 1).astype(np.int32)


def _branch_job(graph, k, options, rng, *, guard=None):
    """Partition one recursion branch in a pool worker.

    Runs the same ``_recurse`` with branch-local accumulators (parts are
    numbered from 0; the parent offsets them when merging) and returns
    everything the parent must fold back: the branch partition vector, the
    phase-timer totals and the resilience events.  Tracing is explicitly
    off (the parent owns the span tree and splices worker timings back as
    synthetic spans).  ``guard`` is only passed by the supervisor's
    sequential fallback, which runs this in the *parent* process under
    the remaining deadline budget; pool submissions never carry one —
    their time budget is enforced parent-side via future timeouts.
    """
    where = np.zeros(graph.nvtxs, dtype=np.int32)
    timers = PhaseTimer()
    report = ResilienceReport()
    _recurse(graph, k, 0, where, np.arange(graph.nvtxs, dtype=np.int64),
             options, rng, timers, None, fault_injector(options), report,
             guard, NULL_TRACER)
    return where, timers.totals(), report


def _recurse(graph, k, first_part, where, vmap, options, rng, timers, bisector,
             faults, report, guard, trc=NULL_TRACER, *, par=None, depth=0):
    """Assign parts ``first_part .. first_part+k-1`` to ``graph``'s vertices.

    ``vmap`` maps this subgraph's vertices to the original graph; ``where``
    is the original-graph partition vector being filled in.  ``par`` (a
    :class:`~repro.resilience.supervisor.BranchSupervisor`) ships whole
    subtrees at ``depth >= par.fan_depth`` to supervised pool workers
    instead of recursing.
    """
    if k == 1:
        where[vmap] = first_part
        return
    if k == graph.nvtxs:
        # One vertex per part; no bisection needed (k = n base case).
        where[vmap] = first_part + np.arange(k, dtype=np.int32)
        return
    if (
        par is not None
        and depth >= par.fan_depth
        and (guard is None or not guard.expired())
    ):
        # Workers receive no guard object; their time budget is enforced
        # parent-side by the supervisor's future timeouts.  An expired
        # guard skips submission and falls through to cheap assignment.
        par.submit(_branch_job, graph, k, options, rng,
                   meta=(first_part, vmap))
        return
    if guard is not None and guard.expired():
        # Budget gone: finish this whole subtree with the cheap assignment.
        where[vmap] = first_part + _assign_by_weight(graph, k)
        report.record(
            "degradation",
            "kway",
            f"deadline expired; weight-contiguous assignment of parts "
            f"{first_part}..{first_part + k - 1}",
        )
        return
    k_left = (k + 1) // 2
    target0 = (graph.total_vwgt() * k_left) // k

    # Pre-spawn every stream this node will use *before* any of them runs:
    # each branch owns an independent generator, so the two sides may be
    # evaluated in any order — or in other processes — bit-identically.
    child_rng = spawn_child(rng)
    rng_left = spawn_child(rng)
    rng_right = spawn_child(rng)
    try:
        if bisector is None:
            result = bisect(graph, options, child_rng, target0=target0,
                            faults=faults, report=report, guard=guard,
                            tracer=trc)
        else:
            try:
                result = bisector(graph, options, child_rng, target0)
            except SpectralConvergenceError as exc:
                report.record(
                    "fallback",
                    "kway",
                    f"bisector failed ({exc}); multilevel bisection fallback",
                )
                result = bisect(graph, options, spawn_child(child_rng),
                                target0=target0, faults=faults, report=report,
                                guard=guard, tracer=trc)
        timers.merge(result.timers)
        report.merge(result.resilience)
        side = np.asarray(result.bisection.where).copy()
    except DeadlineExceededError as exc:
        report.record(
            "degradation",
            "kway",
            "deadline expired mid-bisection; continuing from "
            + ("best-so-far split" if exc.best is not None
               else "weighted-median split"),
        )
        if exc.best is not None:
            side = np.asarray(exc.best.where).copy()
        else:
            side = np.asarray(
                split_at_weighted_median(graph, np.arange(graph.nvtxs), target0).where
            ).copy()

    # Each side must hold at least as many vertices as parts it will be
    # split into; top up a too-small side from the other (k close to n).
    k_right = k - k_left
    for needy, donor_label, needed in ((0, 1, k_left), (1, 0, k_right)):
        ids = np.flatnonzero(side == needy)
        if len(ids) < needed:
            donors = np.flatnonzero(side == donor_label)
            take = needed - len(ids)
            side[donors[:take]] = needy

    left = np.flatnonzero(side == 0).astype(np.int64)
    right = np.flatnonzero(side == 1).astype(np.int64)
    if len(left) == 0 or len(right) == 0:
        raise PartitionError("bisection produced an empty side")

    sub_left, _ = extract_subgraph(graph, left)
    sub_right, _ = extract_subgraph(graph, right)
    with trc.span("kway.branch", side=0, k=k_left, nvtxs=len(left),
                  depth=depth):
        _recurse(sub_left, k_left, first_part, where, vmap[left],
                 options, rng_left, timers, bisector, faults, report, guard,
                 trc, par=par, depth=depth + 1)
    with trc.span("kway.branch", side=1, k=k - k_left, nvtxs=len(right),
                  depth=depth):
        _recurse(sub_right, k - k_left, first_part + k_left, where,
                 vmap[right], options, rng_right, timers, bisector, faults,
                 report, guard, trc, par=par, depth=depth + 1)
