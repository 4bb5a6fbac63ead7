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

from dataclasses import replace

import numpy as np

from repro.core.initial import split_at_weighted_median
from repro.core.multilevel import bisect
from repro.core.options import DEFAULT_OPTIONS
from repro.core.run import Run
from repro.graph.components import extract_subgraph
from repro.graph.partition import KWayPartition, edge_cut, part_weights
from repro.resilience.faults import worker_faults_only
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


def partition(
    graph,
    nparts: int,
    options=DEFAULT_OPTIONS,
    rng=None,
    *,
    bisector=None,
    run=None,
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
        Optional override, called exactly like
        :func:`~repro.core.multilevel.bisect` — ``bisector(graph, options,
        rng, target0=…, run=run)`` — and returning an object with a
        ``bisection`` and a ``timers`` :class:`PhaseTimer`.  The spectral
        baselines plug in here so Figures 1–4 compare k-way against k-way.
    run:
        An outer call's :class:`~repro.core.run.Run` (else one is opened
        from ``options``), shared with every bisection.

    Returns
    -------
    repro.graph.partition.KWayPartition
        With ``timers`` carrying the accumulated CTime/ITime/RTime/PTime,
        ``resilience`` holding the run's
        :class:`~repro.resilience.report.ResilienceReport` and ``kernels``
        its resolved per-phase kernel backends.  Unlike
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
    with Run.entry(
        run, options, "partition",
        nvtxs=graph.nvtxs, nedges=graph.nedges, nparts=nparts,
    ) as run:
        run = replace(run, options=options)
        # Parallel fan-out needs picklable branch state: a caller-supplied
        # bisector closure cannot be shipped to workers, and a fault spec
        # naming in-process phase sites carries injector countdowns the
        # workers could not share.  Everything else — tracer, deadline
        # guard, worker-site faults — is handled by the supervisor in the
        # parent.  The RNG tree is identical either way, so sequential and
        # parallel runs are bit-identical.
        workers = resolve_workers(options)
        parallel = (
            workers > 1
            and nparts > 1
            and bisector is None
            and worker_faults_only(run.faults)
        )
        if bisector is None:
            bisector = bisect
        with run.tracer.span("partition", nparts=nparts) as root:
            vmap = np.arange(graph.nvtxs, dtype=np.int64)
            if parallel:
                with BranchSupervisor(
                    workers,
                    timeout=resolve_worker_timeout(options),
                    guard=run.guard,
                    max_retries=options.worker_retries,
                    report=run.report,
                    span=root,
                    faults=run.faults,
                ) as par:
                    _recurse(graph, nparts, 0, where, vmap, rng, run,
                             bisector, par=par)
                    for meta, branch in par.drain():
                        first_part, branch_vmap = meta
                        sub_where, totals, sub_report = branch
                        where[branch_vmap] = first_part + sub_where
                        for phase_name, seconds in totals.items():
                            run.timers.add(phase_name, seconds)
                            if root:
                                # Splice the worker-measured phase time
                                # into the span tree so traced workers=N
                                # runs still reconcile with result.timers.
                                root.record(
                                    "worker.phase", seconds,
                                    phase=phase_name,
                                )
                        run.report.merge(sub_report)
            else:
                _recurse(graph, nparts, 0, where, vmap, rng, run, bisector)
            result = KWayPartition(
                where=where,
                nparts=nparts,
                cut=edge_cut(graph, where),
                pwgts=part_weights(graph, where, nparts),
            )
            if root:
                root.set(cut=int(result.cut))
        result.timers = run.timers.totals()
        result.resilience = run.report
        result.kernels = run.kernels.as_dict()
        return result


def _assign_by_weight(vwgt, k) -> np.ndarray:
    """Deadline-degraded k-way assignment: contiguous vertex-id ranges of
    roughly equal weight — O(n), no bisections, never fails."""
    total = max(int(vwgt.sum()), 1)
    cum = np.cumsum(vwgt) - vwgt  # exclusive prefix weights
    part = (cum * k) // total
    return np.minimum(part, k - 1).astype(np.int32)


def _settle(vwgt, k, first_part, where, vmap, run) -> bool:
    """Assign parts ``first_part .. first_part+k-1`` to the ``vmap``
    vertices (weights ``vwgt``) without a bisection when none is needed or
    the run's deadline has expired; ``True`` when it did.  Needs no
    subgraph, so a branch that settles is never extracted."""
    if k == 1:
        where[vmap] = first_part
    elif k == len(vwgt):
        # One vertex per part; no bisection needed (k = n base case).
        where[vmap] = first_part + np.arange(k, dtype=np.int32)
    elif run.guard is not None and run.guard.expired():
        # Budget gone: finish this whole subtree with the cheap assignment.
        where[vmap] = first_part + _assign_by_weight(vwgt, k)
        run.report.record(
            "degradation",
            "kway",
            f"deadline expired; weight-contiguous assignment of parts "
            f"{first_part}..{first_part + k - 1}",
            reason="deadline",
            first_part=first_part,
            nparts=k,
        )
    else:
        return False
    return True


def _branch_job(graph, k, options, rng, *, guard=None):
    """Partition one recursion branch in a pool worker.

    Runs the same ``_recurse`` under :meth:`Run.branch(options, guard)
    <repro.core.run.Run.branch>`, numbering parts from 0 (the parent
    offsets them when merging), and returns everything the parent must
    fold back: the branch partition vector, the phase-timer totals and
    the resilience events.
    """
    where = np.zeros(graph.nvtxs, dtype=np.int32)
    run = Run.branch(options, guard)
    _recurse(graph, k, 0, where, np.arange(graph.nvtxs, dtype=np.int64),
             rng, run, bisect)
    return where, run.timers.totals(), run.report


def _recurse(graph, k, first_part, where, vmap, rng, run, bisector, *,
             par=None, depth=0):
    """Assign parts ``first_part .. first_part+k-1`` to ``graph``'s vertices.

    ``vmap`` maps this subgraph's vertices to the original graph; ``where``
    is the original-graph partition vector being filled in.  ``par`` (a
    :class:`~repro.resilience.supervisor.BranchSupervisor`) ships whole
    subtrees at ``depth >= par.fan_depth`` to supervised pool workers
    instead of recursing.
    """
    if _settle(graph.vwgt, k, first_part, where, vmap, run):
        return
    if par is not None and depth >= par.fan_depth:
        # Workers receive no guard object; their time budget is enforced
        # parent-side by the supervisor's future timeouts.
        par.submit(_branch_job, graph, k, run.options, rng,
                   meta=(first_part, vmap))
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
        try:
            result = bisector(graph, run.options, child_rng,
                              target0=target0, run=run)
        except SpectralConvergenceError as exc:
            run.report.record(
                "fallback",
                "kway",
                f"bisector failed ({exc}); multilevel bisection fallback",
                reason="bisector-error",
            )
            result = bisect(graph, run.options, spawn_child(child_rng),
                            target0=target0, run=run)
        run.timers.merge(result.timers)
        side = np.asarray(result.bisection.where).copy()
    except DeadlineExceededError as exc:
        run.report.record(
            "degradation",
            "kway",
            "deadline expired mid-bisection; continuing from "
            + ("best-so-far split" if exc.best is not None
               else "weighted-median split"),
            reason="deadline-mid-bisection",
            best=exc.best is not None,
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

    halves = ((left, k_left, first_part, rng_left),
              (right, k_right, first_part + k_left, rng_right))
    for half, (ids, k_half, first, half_rng) in enumerate(halves):
        half_vmap = vmap[ids]
        with run.tracer.span("kway.branch", side=half, k=k_half,
                             nvtxs=len(ids), depth=depth):
            if not _settle(graph.vwgt[ids], k_half, first, where, half_vmap,
                           run):
                sub, _ = extract_subgraph(graph, ids)
                _recurse(sub, k_half, first, where, half_vmap, half_rng, run,
                         bisector, par=par, depth=depth + 1)
