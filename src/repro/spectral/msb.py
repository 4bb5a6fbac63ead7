"""Multilevel spectral bisection (MSB) — the paper's main baseline.

Barnard & Simon's algorithm ([2] in the paper): coarsen the graph with
random matchings, compute the Fiedler vector of the coarsest graph exactly,
then walk back up the hierarchy — at each level the coarse Fiedler vector
is *interpolated* onto the finer graph (each fine vertex inherits its
multinode's value) and *polished* by an iterative eigensolver warm-started
from the interpolant.  The original used SYMMLQ for the polish; any
convergent Krylov polish preserves the structure, and we reuse our deflated
Lanczos (:mod:`repro.spectral.lanczos`) with a small Krylov space, which
plays the same role: few iterations because the start vector is already
close.

``msb_bisect`` mirrors :func:`repro.core.multilevel.bisect`'s result shape
so it can be plugged into recursive bisection (Figures 1, 2 and 4 compare
k-way MSB against the k-way multilevel scheme).  The MSB-KL variant
additionally runs full Kernighan–Lin refinement on the final flat
bisection, as in Figure 2.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.coarsen import coarsen
from repro.core.initial import split_at_weighted_median
from repro.core.kway import partition as _kway_partition
from repro.core.multilevel import MultilevelResult, _checkpoint, _targets
from repro.core.multilevel import _effective_policy
from repro.core.options import DEFAULT_OPTIONS, MatchingScheme, RefinePolicy
from repro.core.refine import PassStats, refine_bisection
from repro.core.run import Run
from repro.spectral.fiedler import DENSE_THRESHOLD, fiedler_vector
from repro.utils.errors import PartitionError, SpectralConvergenceError
from repro.utils.rng import as_generator
from repro.utils.timing import PhaseTimer


def msb_fiedler(
    graph, options=DEFAULT_OPTIONS, rng=None, timers=None, *, target0=None,
    run=None,
) -> np.ndarray:
    """Fiedler vector of ``graph`` via the multilevel (MSB) scheme.

    Uses ``run`` like the V-cycle does, timing its phases into ``timers``
    (default: the run's own), with a deadline checkpoint at each level
    boundary: once it fires, the raised
    :class:`~repro.utils.errors.DeadlineExceededError` carries the current
    vector's weighted-median split for ``target0`` (default half the
    weight), projected to ``graph``, as best-so-far.
    """
    rng = as_generator(rng if rng is not None else options.seed)
    if target0 is None:
        target0 = graph.total_vwgt() // 2
    with Run.entry(
        run, options, "msb-fiedler", timers=timers, nvtxs=graph.nvtxs
    ) as run:
        msb_options = options.with_(matching=MatchingScheme.RM)
        with run.phase("CTime", "coarsen") as sp:
            hierarchy = coarsen(graph, msb_options, rng, run=run, span=sp)
        level = hierarchy.nlevels - 1
        _checkpoint(run, hierarchy, level, "coarsen")

        def split():
            return split_at_weighted_median(hierarchy.graphs[level], vec, target0)

        with run.phase("ITime", "fiedler"):
            vec = fiedler_vector(hierarchy.coarsest, rng, faults=run.faults)
        _checkpoint(run, hierarchy, level, "initial", split)
        for level in range(hierarchy.nlevels - 2, -1, -1):
            fine = hierarchy.graphs[level]
            with run.phase("PTime", "interpolate", level=level):
                vec = vec[hierarchy.cmaps[level]]  # interpolate
            with run.phase("RTime", "polish", level=level) as sp:
                try:
                    # Small levels are solved densely (the warm start and
                    # Krylov settings only steer the Lanczos path).
                    vec = fiedler_vector(
                        fine, rng, start=vec,
                        force_lanczos=fine.nvtxs > DENSE_THRESHOLD,
                        krylov_dim=25, restarts=4, tol=1e-6, faults=run.faults,
                    )
                except SpectralConvergenceError as exc:
                    # A failed polish keeps the interpolated coarse
                    # vector — that is MSB's whole premise (the
                    # interpolant is already close); the next finer
                    # level polishes from it again.
                    run.report.record(
                        "fallback", "refine", f"Fiedler polish failed "
                        f"({exc}); kept the interpolated vector", level=level,
                        reason="convergence",
                    )
                    if sp:
                        sp.set(polish="kept-interpolant")
            _checkpoint(run, hierarchy, level, "refine", split)
        return vec


def msb_bisect(
    graph,
    options=DEFAULT_OPTIONS,
    rng=None,
    *,
    target0=None,
    kl_refine=False,
    run=None,
) -> MultilevelResult:
    """Bisect via MSB; with ``kl_refine`` this is the MSB-KL baseline.
    Called like :func:`~repro.core.multilevel.bisect`."""
    if graph.nvtxs < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    rng = as_generator(rng if rng is not None else options.seed)
    stats = PassStats()
    target0, maxpwgt = _targets(graph, options, target0)
    with Run.entry(
        run, options, "msb", timers=PhaseTimer(), nvtxs=graph.nvtxs
    ) as run:
        vec = msb_fiedler(graph, options, rng, target0=target0, run=run)
        with run.phase("ITime", "split"):
            bisection = split_at_weighted_median(graph, vec, target0)
        if run.sanitizer:
            run.sanitizer.check_bisection(
                graph, bisection.where, bisection.pwgts, bisection.cut,
                phase="initial", level=0,
            )
        initial_cut = bisection.cut
        if kl_refine:
            with run.phase("RTime", "refine") as sp:
                refine_bisection(
                    graph,
                    bisection,
                    _effective_policy(RefinePolicy.KLR, run, 0),
                    options,
                    maxpwgt=maxpwgt,
                    stats=stats,
                    run=run,
                    span=sp,
                )
        return MultilevelResult(
            bisection=bisection,
            timers=run.timers,
            nlevels=1,
            coarsest_nvtxs=graph.nvtxs,
            initial_cut=initial_cut,
            stats=stats,
            resilience=run.report,
            kernels=run.kernels.as_dict(),
        )


def msb_partition(graph, nparts, options=DEFAULT_OPTIONS, rng=None, *, kl_refine=False):
    """k-way partition by recursive MSB (optionally MSB-KL) bisection."""
    bisector = partial(msb_bisect, kl_refine=kl_refine)
    return _kway_partition(graph, nparts, options, rng, bisector=bisector)
