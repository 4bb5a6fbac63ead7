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

from repro.core.multilevel import bisect as ml_bisect
from repro.core.options import DEFAULT_OPTIONS
from repro.core.run import Run
from repro.graph.components import connected_components, extract_subgraph
from repro.ordering.base import Ordering
from repro.ordering.mmd import mmd_ordering
from repro.ordering.vertex_cover import vertex_separator_from_bisection
from repro.resilience.faults import worker_faults_only
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
    separator.  One :class:`~repro.core.run.Run` — fault injector,
    resilience report, deadline guard and tracer — spans the whole
    dissection; the report lands in ``ordering.meta["resilience"]``.
    """
    rng = as_generator(rng if rng is not None else options.seed)
    with Run.open(options, "mlnd", nvtxs=graph.nvtxs, nedges=graph.nedges) as run:
        # MLND's bisector is reconstructible from picklable state (just
        # the options), so its subtrees can run in supervised pool
        # workers — same gating as k-way ``partition``: only a fault spec
        # naming in-process phase sites forces sequential execution.
        # Generic/SND dissections pass an arbitrary closure and always
        # run sequentially.
        branch_job = None
        if worker_faults_only(run.faults):
            branch_job = partial(
                _mlnd_branch_job,
                options=options,
                leaf_size=leaf_size,
                refine_separator=refine_separator,
            )
        return nested_dissection_ordering(
            graph, _ml_bisector(options, run), rng, leaf_size=leaf_size,
            method="mlnd", refine_separator=refine_separator, run=run,
            branch_job=branch_job,
        )


def _ml_bisector(options, run):
    """MLND's ``(subgraph, rng) → where`` bisector, sharing ``run``."""

    def bisector(subgraph, child_rng):
        return ml_bisect(subgraph, options, child_rng, run=run).bisection.where

    return bisector


def _mlnd_branch_job(sub, rng, *, options, leaf_size, refine_separator,
                     guard=None):
    """Dissect one MLND subtree in a pool worker.

    Rebuilds the multilevel bisector from ``options`` under
    :meth:`Run.branch(options, guard) <repro.core.run.Run.branch>` and
    returns the subtree's local permutation plus its resilience events
    for the parent to merge.
    """
    run = Run.branch(options, guard)
    perm = np.empty(sub.nvtxs, dtype=np.int64)
    _dissect(sub, _ml_bisector(options, run), rng, perm, leaf_size,
             refine_separator, run)
    return perm, run.report


def nested_dissection_ordering(
    graph,
    bisector,
    rng=None,
    *,
    leaf_size: int = 120,
    method: str = "nd",
    refine_separator: bool = True,
    run=None,
    branch_job=None,
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
    run:
        The ordering entry's :class:`~repro.core.run.Run` (else one is
        opened from the default options and the environment).  Its report
        becomes ``ordering.meta["resilience"]``: a subgraph whose bisector
        raises a :class:`~repro.utils.errors.ReproError` — or that is left
        once the guard expires — is ordered with MMD instead (recorded;
        dissection never raises on deadline, and sanitizer failures still
        propagate).  Its sanitizer checks every separator, and its tracer
        gets one ``dissect`` span with ``nd.*`` events — the report's
        degradations among them, pool branches' included.
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
        permutation bit-identical to the sequential run.  The supervisor
        consults the run's ``worker_*`` fault sites at submission time.

    Returns
    -------
    Ordering
    """
    rng = as_generator(rng)
    n = graph.nvtxs
    perm = np.empty(n, dtype=np.int64)
    with Run.entry(
        run, DEFAULT_OPTIONS, method, nvtxs=n, nedges=graph.nedges
    ) as run, run.tracer.span("dissect", method=method) as sp:
        workers = resolve_workers(run.options)
        if branch_job is not None and workers > 1:
            with BranchSupervisor(
                workers,
                timeout=resolve_worker_timeout(run.options),
                guard=run.guard,
                max_retries=run.options.worker_retries,
                report=run.report,
                span=sp,
                faults=run.faults,
            ) as par:
                _dissect(
                    graph, bisector, rng, perm, leaf_size, refine_separator,
                    run, par=par, branch_job=branch_job,
                )
                for meta, branch in par.drain():
                    vmap, lo, hi = meta
                    sub_perm, sub_report = branch
                    perm[lo:hi] = vmap[sub_perm]
                    run.report.merge(sub_report)
        else:
            _dissect(
                graph, bisector, rng, perm, leaf_size, refine_separator, run
            )

    ordering = Ordering.from_perm(perm, method)
    ordering.meta["resilience"] = run.report
    return ordering


def _dissect(graph, bisector, rng, perm, leaf_size, refine_separator, run,
             *, par=None, branch_job=None):
    """The dissection loop of :func:`nested_dissection_ordering`.

    Fills ``perm`` in place.  Every stack entry owns a dedicated
    generator, spawned by its parent *before* any sibling runs, so the
    result is invariant to processing order — which lets ``par`` ship
    whole subtrees at ``depth >= par.fan_depth`` to pool workers via
    ``branch_job`` without changing a bit of the permutation.  ``run``
    supplies the sanitizer, the report, the deadline guard and the
    tracer, whose events land on the enclosing ``dissect`` span.
    """
    n = graph.nvtxs
    san, report, guard = run.sanitizer, run.report, run.guard
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
            _order_by_mmd(sub, vmap, perm, lo, hi)
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
            _order_by_mmd(sub, vmap, perm, lo, hi)
            report.record(
                "degradation",
                "ordering",
                f"deadline expired; MMD on remaining {nv}-vertex subgraph",
                level=depth,
                reason="deadline",
                nvtxs=nv,
                depth=depth,
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
            _order_by_mmd(sub, vmap, perm, lo, hi)
            report.record(
                "degradation",
                "ordering",
                f"deadline expired mid-bisection; MMD on {nv}-vertex "
                "subgraph",
                level=depth,
                reason="deadline-mid-bisection",
                nvtxs=nv,
                depth=depth,
            )
            continue
        except ReproError as exc:
            _order_by_mmd(sub, vmap, perm, lo, hi)
            report.record(
                "fallback",
                "ordering",
                f"bisector failed ({exc}); MMD on {nv}-vertex subgraph",
                level=depth,
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
            _order_by_mmd(sub, vmap, perm, lo, hi)
            report.record(
                "fallback",
                "ordering",
                f"degenerate split (separator swallowed a side); MMD on "
                f"{nv}-vertex subgraph",
                level=depth,
                reason="degenerate-split",
                nvtxs=nv,
                depth=depth,
            )
            continue

        if run.tracer:
            run.tracer.event(
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


def _order_by_mmd(sub, vmap, perm, lo, hi):
    """Order subgraph ``sub`` by MMD into ``perm[lo:hi]`` (``vmap`` maps
    its vertices to the original graph): leaves and every fallback."""
    perm[lo:hi] = vmap[mmd_ordering(sub).perm]
