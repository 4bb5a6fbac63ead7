"""The multilevel bisection driver (§3): coarsen → partition → uncoarsen.

:func:`bisect` wires the three phases together and accounts time the way the
paper's tables do:

* ``CTime`` — coarsening;
* ``ITime`` — initial partition of the coarsest graph;
* ``RTime`` — refinement across all levels;
* ``PTime`` — projecting partitions level to level;
* ``UTime`` — ``ITime + RTime + PTime`` (derived, reported by the bench).

The projected partition of level ``i+1`` is refined on level ``i`` before
projecting further — "after projecting a partition, a partition refinement
algorithm is used" — and the coarsest-level partition itself is also
refined once, which costs nothing (the graph is tiny) and matches the
released implementation of the paper's system.

Which levels are refined is the one knob of the V-cycle: the Chaco-ML
baseline (:mod:`repro.spectral.chaco_ml`) runs the same loop with RM +
SBP + KLR and refines only every other level, so both schemes are timed,
traced, sanitized and deadline-checked by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coarsen import CoarseningHierarchy, coarsen
from repro.core.initial import initial_bisection
from repro.core.options import DEFAULT_OPTIONS, RefinePolicy
from repro.core.refine import PassStats, refine_bisection
from repro.core.run import Run
from repro.graph.partition import Bisection, part_weights, weight_cap
from repro.resilience.report import ResilienceReport
from repro.utils.errors import PartitionError
from repro.utils.rng import as_generator
from repro.utils.timing import PhaseTimer


@dataclass
class MultilevelResult:
    """Everything :func:`bisect` learned.

    Attributes
    ----------
    bisection:
        Final bisection of the input graph.
    timers:
        :class:`PhaseTimer` with CTime/ITime/RTime/PTime totals.
    nlevels:
        Number of graphs in the coarsening hierarchy.
    coarsest_nvtxs:
        Size of the coarsest graph.
    initial_cut:
        Cut of the initial partition *on the coarsest graph* — by the edge
        weight construction of §3.1 this is directly comparable with the
        final cut, which is how Table 3 measures coarsening quality.
    stats:
        Aggregated refinement pass statistics.
    resilience:
        Audit trail of every fallback, retry, degradation and stall that
        fired during the run (empty on a clean run).
    kernels:
        The resolved per-phase kernel backends
        (:meth:`repro.kernels.KernelSelection.as_dict`): the requested
        backend, the backend each phase actually ran on, and the reason
        for any fallback — so bench snapshots and traces always say
        which kernel produced each number.
    """

    bisection: Bisection
    timers: PhaseTimer
    nlevels: int
    coarsest_nvtxs: int
    initial_cut: int
    stats: PassStats = field(default_factory=PassStats)
    resilience: ResilienceReport = field(default_factory=ResilienceReport)
    kernels: dict = field(default_factory=dict)


def project_where(where_coarse, cmap) -> np.ndarray:
    """Project a coarse partition assignment to the finer level."""
    return np.asarray(where_coarse)[cmap]


#: Deadline/fault degradation: each multi-pass refinement policy maps to its
#: single-pass boundary counterpart (same move engine, bounded work).
_DEGRADE = {
    RefinePolicy.BKLR: RefinePolicy.BGR,
    RefinePolicy.BKLGR: RefinePolicy.BGR,
    RefinePolicy.KLR: RefinePolicy.GR,
}


def _effective_policy(policy, run, level):
    """The refinement policy to run at ``level``, degraded when necessary."""
    degraded = _DEGRADE.get(policy)
    if degraded is None:
        return policy
    if run.faults and run.faults.trip("refine"):
        run.report.record(
            "degradation",
            "refine",
            f"injected pass-budget exhaustion: {policy.value} → "
            f"{degraded.value}",
            level=level,
            reason="injected",
            policy=policy.value,
            degraded=degraded.value,
        )
        return degraded
    guard = run.guard
    if guard is not None and guard.nearing():
        run.report.record(
            "degradation",
            "refine",
            f"deadline nearing ({guard.remaining():.3f}s of "
            f"{guard.deadline:.3f}s left): {policy.value} → "
            f"{degraded.value}",
            level=level,
            reason="deadline",
            policy=policy.value,
            degraded=degraded.value,
        )
        return degraded
    return policy


def _checkpoint(run, hierarchy, level, phase, current=None):
    """Deadline checkpoint at a level boundary of a multilevel loop.

    Once the run's guard has expired (or the ``deadline`` fault site
    forces it to), ``current()`` — the bisection of level ``level`` as it
    stands, ``None`` before one exists — is projected down to the finest
    graph and attached to the raised
    :class:`~repro.utils.errors.DeadlineExceededError` as the best result
    so far, so callers can degrade instead of failing.
    """
    guard = run.guard
    if guard is None:
        return
    # The fault site is consulted only once a bisection exists, so an
    # injected expiry always carries a usable best-so-far.
    if current is not None and run.faults and run.faults.trip("deadline"):
        guard.force_expire()
    if not guard.expired():
        return
    best = None
    if current is not None:
        where = hierarchy.project_to_finest(current().where, level)
        best = Bisection.from_where(hierarchy.graphs[0], where)
    guard.check(phase=phase, level=level, best=best, report=run.report)


def _targets(graph, options, target0):
    """``(target0, maxpwgt)`` of a bisection: part 0's target weight (half
    the total by default) and both parts' caps, ``ubfactor ×`` the targets."""
    total = graph.total_vwgt()
    if target0 is None:
        target0 = total // 2
    if not (0 < target0 < total):
        raise PartitionError(f"target0 must be in (0, {total}); got {target0}")
    caps = (weight_cap(options.ubfactor * target0, total),
            weight_cap(options.ubfactor * (total - target0), total))
    return target0, caps


def _every_level(level, coarsest):
    """ML's refinement schedule: every level, the coarsest included."""
    return True


def bisect(
    graph,
    options=DEFAULT_OPTIONS,
    rng=None,
    *,
    target0=None,
    hierarchy: CoarseningHierarchy | None = None,
    run=None,
) -> MultilevelResult:
    """Multilevel bisection of ``graph``.

    Parameters
    ----------
    graph:
        Graph to bisect (≥ 2 vertices).
    options:
        Phase configuration; see :class:`~repro.core.options.MultilevelOptions`.
    target0:
        Target vertex weight for part 0 (default: half the total).  Part
        weight caps are ``ubfactor ×`` the respective targets.
    hierarchy:
        Pre-computed coarsening hierarchy to reuse (the matching-ablation
        bench coarsens once and tries several refinements); must have been
        built from ``graph``.
    run:
        The :class:`~repro.core.run.Run` of an outer driver call (k-way,
        nested dissection, a baseline), whose report, fault injector,
        deadline guard, tracer, sanitizer and kernels this bisection
        shares; by default one is opened from ``options`` for this
        bisection alone (its report is ``result.resilience``).

    Returns
    -------
    MultilevelResult

    Raises
    ------
    repro.utils.errors.DeadlineExceededError
        When the run's deadline guard expires; ``exc.best`` carries the
        best finest-graph bisection found before the budget ran out (or
        ``None`` if none existed yet) and ``exc.report`` the audit trail.
    """
    return _vcycle(
        graph, options, rng, _every_level, target0=target0,
        hierarchy=hierarchy, run=run,
    )


def _vcycle(graph, options, rng, refine_at, *, target0=None, hierarchy=None,
            run=None):
    """The bisection V-cycle behind :func:`bisect` and Chaco-ML.

    Coarsens with ``options.matching``, bisects the coarsest graph with
    ``options.initial`` (and its fallback chain), then walks one loop from
    the coarsest level down to level 0: each level below the coarsest is
    first projected onto, and every level where ``refine_at(level,
    coarsest_level)`` holds is refined with ``options.refinement``.  The
    keyword arguments are those of :func:`bisect`.
    """
    if graph.nvtxs < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    rng = as_generator(rng if rng is not None else options.seed)
    stats = PassStats()
    target0, maxpwgt = _targets(graph, options, target0)
    with Run.entry(
        run, options, "bisect", timers=PhaseTimer(),
        nvtxs=graph.nvtxs, nedges=graph.nedges,
    ) as run:
        san = run.sanitizer
        # --- Phase 1: coarsening -------------------------------------
        if hierarchy is None:
            with run.phase("CTime", "coarsen") as sp:
                hierarchy = coarsen(graph, options, rng, run=run, span=sp)
        coarsest_level = hierarchy.nlevels - 1
        coarsest = hierarchy.coarsest
        _checkpoint(run, hierarchy, coarsest_level, "coarsen")

        # --- Phase 2: initial partition ------------------------------
        with run.phase("ITime", "initial") as sp:
            bisection = initial_bisection(
                coarsest, options, rng, target0, run=run, span=sp
            )
            if sp:
                sp.set(
                    scheme=options.initial.value,
                    cut=int(bisection.cut),
                )
        initial_cut = bisection.cut
        if san:
            san.check_bisection(
                coarsest,
                bisection.where,
                bisection.pwgts,
                bisection.cut,
                phase="initial",
                level=coarsest_level,
            )

        # --- Phase 3: uncoarsening, coarsest level first -------------
        for level in range(coarsest_level, -1, -1):
            level_graph = hierarchy.graphs[level]
            if level < coarsest_level:
                with run.phase("PTime", "project", level=level):
                    where = project_where(bisection.where, hierarchy.cmaps[level])
                    bisection = Bisection(
                        where=where,
                        cut=bisection.cut,  # invariant: cut is preserved by projection
                        pwgts=part_weights(level_graph, where, 2),
                    )
                if san:
                    san.check_bisection(
                        level_graph,
                        bisection.where,
                        bisection.pwgts,
                        bisection.cut,
                        phase="project",
                        level=level,
                    )
            if refine_at(level, coarsest_level):
                with run.phase("RTime", "refine", level=level) as sp:
                    refine_bisection(
                        level_graph,
                        bisection,
                        _effective_policy(options.refinement, run, level),
                        options,
                        maxpwgt=maxpwgt,
                        original_nvtxs=graph.nvtxs,
                        stats=stats,
                        run=run,
                        span=sp,
                    )
            _checkpoint(
                run, hierarchy, level,
                "initial" if level == coarsest_level else "refine",
                lambda: bisection,
            )

        trc = run.tracer
        if trc:
            trc.counter("bisect.calls", 1)
            trc.counter("fm.moves", stats.moves_tried)
            trc.counter("fm.rejected", stats.moves_rejected)
            trc.counter("fm.kept", stats.moves_kept)

        return MultilevelResult(
            bisection=bisection,
            timers=run.timers,
            nlevels=hierarchy.nlevels,
            coarsest_nvtxs=coarsest.nvtxs,
            initial_cut=initial_cut,
            stats=stats,
            resilience=run.report,
            kernels=run.kernels.as_dict(),
        )
