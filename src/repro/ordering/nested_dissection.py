"""Nested dissection orderings: MLND (the paper's) and the generic driver.

"Nested dissection recursively splits a graph into almost equal halves by
selecting a vertex separator … The vertices of the graph are numbered such
that at each level of recursion, the separator vertices are numbered after
the vertices in the partitions." (§2)

The driver is parametric in the bisection routine, so the paper's MLND
(multilevel bisection + minimum-vertex-cover separator) and the SND
baseline (spectral bisection + the same separator construction) share all
of the recursion, numbering and leaf handling:

* separators are numbered **last** within their range, recursively;
* recursion stops at ``leaf_size`` vertices; leaves are ordered by MMD,
  the standard practice (and what METIS does) — on tiny subgraphs minimum
  degree is excellent and dissection overhead is pure loss;
* disconnected subgraphs are split into components first (a component
  boundary is a free separator of size zero).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis.sanitize import sanitizer
from repro.core.multilevel import bisect as ml_bisect
from repro.core.options import DEFAULT_OPTIONS
from repro.graph.components import connected_components, extract_subgraph
from repro.obs.tracer import NULL as NULL_TRACER
from repro.obs.tracer import NULL_SPAN, resolve_tracer
from repro.ordering.base import Ordering
from repro.ordering.mmd import mmd_ordering
from repro.ordering.vertex_cover import vertex_separator_from_bisection
from repro.resilience.deadline import DeadlineGuard
from repro.resilience.faults import fault_injector, worker_faults_only
from repro.resilience.report import ResilienceReport
from repro.resilience.supervisor import (
    BranchSupervisor,
    resolve_worker_timeout,
    resolve_workers,
)
from repro.utils.errors import DeadlineExceededError, ReproError, SanitizerError
from repro.utils.rng import as_generator, spawn_child


def mlnd_ordering(
    graph,
    options=DEFAULT_OPTIONS,
    rng=None,
    *,
    leaf_size: int = 120,
    refine_separator: bool = True,
) -> Ordering:
    """Multilevel nested dissection (MLND) — the paper's ordering algorithm.

    Uses the multilevel bisector (HEM + GGGP + BKLGR by default) for the
    edge separator at every level and minimum vertex cover for the vertex
    separator.  One fault injector, resilience report and deadline guard
    span the whole dissection; the report lands in
    ``ordering.meta["resilience"]``.
    """
    rng = as_generator(rng if rng is not None else options.seed)
    faults = fault_injector(options)
    report = ResilienceReport()
    guard = None
    if options.deadline is not None:
        guard = DeadlineGuard(options.deadline)
    trc, owned_trace = resolve_tracer(
        None, options, run="mlnd", nvtxs=graph.nvtxs, nedges=graph.nedges
    )

    def bisector(subgraph, child_rng):
        return ml_bisect(
            subgraph, options, child_rng, faults=faults, report=report,
            guard=guard, tracer=trc,
        ).bisection.where

    # MLND's bisector is reconstructible from picklable state (just the
    # options), so its subtrees can run in supervised pool workers — same
    # gating as k-way ``partition``: only a fault spec naming in-process
    # phase sites forces sequential execution.  Generic/SND dissections
    # pass an arbitrary closure and always run sequentially.
    branch_job = None
    if resolve_workers(options) > 1 and worker_faults_only(faults):
        branch_job = partial(
            _mlnd_branch_job,
            options=options,
            leaf_size=leaf_size,
            refine_separator=refine_separator,
        )

    try:
        return nested_dissection_ordering(
            graph, bisector, rng, leaf_size=leaf_size, method="mlnd",
            refine_separator=refine_separator, options=options, report=report,
            guard=guard, tracer=trc, branch_job=branch_job, faults=faults,
        )
    finally:
        if owned_trace:
            trc.close()


def _mlnd_branch_job(sub, rng, *, options, leaf_size, refine_separator,
                     guard=None):
    """Dissect one MLND subtree in a pool worker.

    Rebuilds the multilevel bisector from ``options`` and returns the
    subtree's local permutation plus its resilience events for the parent
    to merge.  Tracing is explicitly off (a pool worker must not resolve
    the ambient trace target and race the parent for the sink).  ``guard``
    is only passed by the supervisor's sequential fallback, which runs
    this in the *parent* process under the remaining deadline budget;
    pool submissions never carry one — their time budget is enforced
    parent-side via future timeouts.
    """
    report = ResilienceReport()
    faults = fault_injector(options)
    san = sanitizer(options)

    def bisector(subgraph, child_rng):
        return ml_bisect(
            subgraph, options, child_rng, faults=faults, report=report,
            guard=guard, tracer=NULL_TRACER,
        ).bisection.where

    perm = np.empty(sub.nvtxs, dtype=np.int64)
    _dissect(sub, bisector, rng, perm, leaf_size, refine_separator,
             san, report, guard, NULL_SPAN)
    return perm, report


def nested_dissection_ordering(
    graph,
    bisector,
    rng=None,
    *,
    leaf_size: int = 120,
    method: str = "nd",
    refine_separator: bool = True,
    options=None,
    report=None,
    guard=None,
    tracer=None,
    branch_job=None,
    faults=None,
) -> Ordering:
    """Generic nested-dissection driver.

    Parameters
    ----------
    bisector:
        Callable ``(subgraph, rng) → where`` returning a 0/1 assignment.
    leaf_size:
        Subgraphs at or below this size are ordered with MMD.
    refine_separator:
        Shrink each minimum-vertex-cover separator further with greedy
        node-FM refinement (see :mod:`repro.ordering.separator_refine`)
        before recursing — what the released METIS does.
    options:
        Only consulted for ``sanitize``: when set (or ``REPRO_SANITIZE=1``)
        every separator is checked to actually separate its subgraph.
    report:
        Optional :class:`~repro.resilience.report.ResilienceReport`; a
        fresh one is created otherwise.  Attached to the result as
        ``ordering.meta["resilience"]``.  A subgraph whose bisector raises
        a :class:`~repro.utils.errors.ReproError` is ordered with MMD
        instead (recorded as a fallback); sanitizer failures still
        propagate — they mean the pipeline is broken, not the input.
    guard:
        Optional :class:`~repro.resilience.deadline.DeadlineGuard`; once it
        expires, every remaining subgraph is ordered with MMD (recorded as
        a degradation) — dissection never raises on deadline.
    tracer:
        Optional threaded :class:`~repro.obs.tracer.Tracer` (default:
        ``options.trace`` / ``REPRO_TRACE``).  The dissection runs inside
        one ``dissect`` span carrying ``nd.separator`` / ``nd.fallback`` /
        ``nd.degraded`` events, with each sub-bisection's phase spans
        nested under it.
    branch_job:
        Optional *picklable* callable ``(subgraph, rng) → (perm, report)``
        dissecting one subtree in a pool worker (it must also accept a
        ``guard`` keyword for the supervisor's sequential fallback).  When
        provided and the resolved worker count exceeds 1, the driver fans
        independent subtrees across a supervised process pool
        (:class:`~repro.resilience.supervisor.BranchSupervisor`): waits
        are bounded by ``worker_timeout`` and the remaining deadline
        budget, crashed or hung workers are retried and finally demoted
        to in-process execution.  Per-entry pre-spawned RNGs make the
        permutation bit-identical to the sequential run.
    faults:
        Optional fault injector; the supervisor consults its ``worker_*``
        sites at submission time.

    Returns
    -------
    Ordering
    """
    rng = as_generator(rng)
    san = sanitizer(options)
    if report is None:
        report = ResilienceReport()
    n = graph.nvtxs
    perm = np.empty(n, dtype=np.int64)
    trc, owned_trace = resolve_tracer(tracer, options, run=method, nvtxs=n)
    workers = resolve_workers(options)

    try:
        with trc.span("dissect", method=method) as sp:
            if branch_job is not None and workers > 1:
                with BranchSupervisor(
                    workers,
                    timeout=resolve_worker_timeout(options),
                    guard=guard,
                    max_retries=(
                        2 if options is None else options.worker_retries
                    ),
                    report=report,
                    span=sp,
                    faults=faults,
                ) as par:
                    _dissect(
                        graph, bisector, rng, perm, leaf_size,
                        refine_separator, san, report, guard, sp,
                        par=par, branch_job=branch_job,
                    )
                    for meta, branch in par.drain():
                        vmap, lo, hi = meta
                        sub_perm, sub_report = branch
                        perm[lo:hi] = vmap[sub_perm]
                        report.merge(sub_report)
            else:
                _dissect(
                    graph, bisector, rng, perm, leaf_size, refine_separator,
                    san, report, guard, sp,
                )
    finally:
        if owned_trace:
            trc.close()

    ordering = Ordering.from_perm(perm, method)
    ordering.meta["resilience"] = report
    return ordering


def _dissect(graph, bisector, rng, perm, leaf_size, refine_separator, san,
             report, guard, sp, *, par=None, branch_job=None):
    """The dissection loop of :func:`nested_dissection_ordering`.

    Fills ``perm`` in place; ``sp`` is the enclosing ``dissect`` span (or a
    null span when tracing is off).  Every stack entry owns a dedicated
    generator, spawned by its parent *before* any sibling runs, so the
    result is invariant to processing order — which lets ``par`` ship
    whole subtrees at ``depth >= par.fan_depth`` to pool workers via
    ``branch_job`` without changing a bit of the permutation.
    """
    n = graph.nvtxs
    # Explicit stack of (subgraph, vmap, lo, hi, depth, rng) jobs;
    # positions [lo, hi) belong to the subgraph.  Avoids Python recursion
    # limits on deep dissections of path-like graphs.
    stack = [(graph, np.arange(n, dtype=np.int64), 0, n, 0, rng)]
    while stack:
        sub, vmap, lo, hi, depth, sub_rng = stack.pop()
        nv = sub.nvtxs
        if nv == 0:
            continue
        if nv <= leaf_size:
            leaf = mmd_ordering(sub)
            perm[lo:hi] = vmap[leaf.perm]
            continue
        if (
            par is not None
            and depth >= par.fan_depth
            and (guard is None or not guard.expired())
        ):
            # Workers receive no guard object; the supervisor bounds their
            # wall-clock parent-side.  Once the budget is gone, subtrees
            # fall through to the MMD degradation below instead.
            par.submit(branch_job, sub, sub_rng, meta=(vmap, lo, hi))
            continue

        comp = connected_components(sub)
        ncomp = int(comp.max()) + 1
        if ncomp > 1:
            # Order components independently, side by side.
            pos = lo
            for c in range(ncomp):
                ids = np.flatnonzero(comp == c).astype(np.int64)
                csub, _ = extract_subgraph(sub, ids)
                stack.append((csub, vmap[ids], pos, pos + len(ids), depth,
                              spawn_child(sub_rng)))
                pos += len(ids)
            continue

        if guard is not None and guard.expired():
            # Budget gone: MMD the rest of the tree — valid ordering, no
            # more dissection levels.
            leaf = mmd_ordering(sub)
            perm[lo:hi] = vmap[leaf.perm]
            report.record(
                "degradation",
                "ordering",
                f"deadline expired; MMD on remaining {nv}-vertex subgraph",
                level=depth,
            )
            if sp:
                sp.event(
                    "nd.degraded", reason="deadline", nvtxs=nv, depth=depth
                )
            continue

        # Every stream this entry uses is spawned from its own generator in
        # a fixed order, before any child runs.
        rng_bisect = spawn_child(sub_rng)
        rng_refine = spawn_child(sub_rng)
        rng_a = spawn_child(sub_rng)
        rng_b = spawn_child(sub_rng)
        try:
            where = np.asarray(bisector(sub, rng_bisect))
        except SanitizerError:
            raise  # a broken invariant is a bug, not a recoverable fault
        except DeadlineExceededError:
            leaf = mmd_ordering(sub)
            perm[lo:hi] = vmap[leaf.perm]
            report.record(
                "degradation",
                "ordering",
                f"deadline expired mid-bisection; MMD on {nv}-vertex "
                "subgraph",
                level=depth,
            )
            if sp:
                sp.event(
                    "nd.degraded",
                    reason="deadline-mid-bisection",
                    nvtxs=nv,
                    depth=depth,
                )
            continue
        except ReproError as exc:
            leaf = mmd_ordering(sub)
            perm[lo:hi] = vmap[leaf.perm]
            report.record(
                "fallback",
                "ordering",
                f"bisector failed ({exc}); MMD on {nv}-vertex subgraph",
                level=depth,
            )
            if sp:
                sp.event(
                    "nd.fallback",
                    reason="bisector-error",
                    nvtxs=nv,
                    depth=depth,
                )
            continue
        sep = vertex_separator_from_bisection(sub, where)
        if refine_separator and len(sep):
            from repro.ordering.separator_refine import (
                build_labelling,
                refine_vertex_separator,
            )

            where3 = build_labelling(sub, where, sep)
            cap = int(np.ceil(0.55 * sub.total_vwgt()))
            refine_vertex_separator(
                sub, where3, rng_refine, maxpwgt=(cap, cap)
            )
            a_ids = np.flatnonzero(where3 == 0).astype(np.int64)
            b_ids = np.flatnonzero(where3 == 1).astype(np.int64)
            sep = np.flatnonzero(where3 == 2).astype(np.int64)
        else:
            in_sep = np.zeros(nv, dtype=bool)
            in_sep[sep] = True
            a_ids = np.flatnonzero((where == 0) & ~in_sep).astype(np.int64)
            b_ids = np.flatnonzero((where == 1) & ~in_sep).astype(np.int64)
        if san:
            san.check_separator(sub, a_ids, b_ids, sep, level=depth)
        if len(a_ids) == 0 or len(b_ids) == 0:
            # Degenerate split (can happen on cliques where the separator
            # swallows a side): fall back to MMD on the whole subgraph.
            leaf = mmd_ordering(sub)
            perm[lo:hi] = vmap[leaf.perm]
            report.record(
                "fallback",
                "ordering",
                f"degenerate split (separator swallowed a side); MMD on "
                f"{nv}-vertex subgraph",
                level=depth,
            )
            if sp:
                sp.event(
                    "nd.fallback",
                    reason="degenerate-split",
                    nvtxs=nv,
                    depth=depth,
                )
            continue

        if sp:
            sp.event(
                "nd.separator",
                depth=depth,
                nvtxs=nv,
                sep=len(sep),
                a=len(a_ids),
                b=len(b_ids),
            )
        # Separator vertices are numbered last within [lo, hi).
        sep_lo = hi - len(sep)
        perm[sep_lo:hi] = vmap[sep]
        a_sub, _ = extract_subgraph(sub, a_ids)
        b_sub, _ = extract_subgraph(sub, b_ids)
        stack.append((a_sub, vmap[a_ids], lo, lo + len(a_ids), depth + 1,
                      rng_a))
        stack.append((b_sub, vmap[b_ids], lo + len(a_ids), sep_lo, depth + 1,
                      rng_b))
