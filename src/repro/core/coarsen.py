"""The coarsening phase (§3.1): repeated match-and-contract.

Produces the sequence ``G_0, G_1, …, G_m`` with ``|V_0| > |V_1| > … >
|V_m|`` together with the coarse maps that project partitions back up.
Coarsening stops when the graph is small enough (``coarsen_to``), when a
level fails to shrink the graph meaningfully (``coarsen_stall_ratio`` — a
maximal matching on a star matches one edge, so stall detection is what
terminates on such graphs), or at the level cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.matching import matching_stats
from repro.core.options import DEFAULT_OPTIONS, MatchingScheme
from repro.core.run import Run
from repro.obs.tracer import NULL_SPAN
from repro.graph.contract import (
    coarse_map_from_matching,
    collapsed_edge_weight,
)
from repro.utils.rng import as_generator


@dataclass
class CoarseningHierarchy:
    """The result of the coarsening phase.

    Attributes
    ----------
    graphs:
        ``graphs[0]`` is the input graph, ``graphs[-1]`` the coarsest.
    cmaps:
        ``cmaps[i][v]`` is the vertex of ``graphs[i+1]`` that vertex ``v``
        of ``graphs[i]`` collapsed into; ``len(cmaps) == len(graphs) - 1``.
    """

    graphs: list = field(default_factory=list)
    cmaps: list = field(default_factory=list)

    @property
    def nlevels(self) -> int:
        """Number of graphs in the hierarchy (≥ 1)."""
        return len(self.graphs)

    @property
    def coarsest(self):
        """The coarsest graph ``G_m``."""
        return self.graphs[-1]

    def project_to_finest(
        self, coarse_values: np.ndarray, level=None
    ) -> np.ndarray:
        """Map per-vertex values on graph ``level`` (default: the coarsest)
        to the finest: composes the coarse maps so ``result[v] =
        coarse_values[cmap_{level-1}[… cmap_0[v]]]``.
        """
        values = np.asarray(coarse_values)
        for cmap in reversed(self.cmaps[:level]):
            values = values[cmap]
        return values


def coarsen(
    graph, options=DEFAULT_OPTIONS, rng=None, *, run=None, span=None,
) -> CoarseningHierarchy:
    """Run the coarsening phase on ``graph``.

    Parameters
    ----------
    graph:
        The graph to coarsen (``G_0``).
    options:
        :class:`~repro.core.options.MultilevelOptions`; the fields used here
        are ``matching``, ``coarsen_to``, ``coarsen_stall_ratio`` and
        ``max_coarsen_levels``.
    rng:
        Seed or generator for the randomized matchings.
    run:
        The caller's :class:`~repro.core.run.Run`, whose kernels match and
        contract and whose sanitizer checks each level.  Its fault
        injector's ``matching`` site simulates a degenerate matching (no
        shrinkage), stopping coarsening at the current level, and its
        report gets a ``stall`` event whenever coarsening stops above
        ``coarsen_to`` — injected or natural — since downstream phases
        then run on a larger-than-intended coarsest graph.  Without one
        (:meth:`Run.branch <repro.core.run.Run.branch>`) nothing is
        traced or injected.
    span:
        Optional open tracer span (the ``CTime`` phase span); when truthy
        each level gets a ``coarsen.match`` and a ``coarsen.contract``
        child span and a ``coarsen.level`` event with the coarse sizes and
        the :func:`~repro.core.matching.matching_stats` summary, and the
        selected matching/contract backends are recorded on the span.

    Returns
    -------
    CoarseningHierarchy
    """
    rng = as_generator(rng if rng is not None else options.seed)
    if run is None:
        run = Run.branch(options)
    san, kernels = run.sanitizer, run.kernels
    matching_kernel = kernels.kernel("matching")
    contract_kernel = kernels.kernel("contract")
    matching_backend = kernels.backend("matching")
    contract_backend = kernels.backend("contract")
    if span:
        span.set(
            matching_kernel=matching_backend,
            contract_kernel=contract_backend,
        )
        fallbacks = kernels.as_dict().get("fallbacks")
        if fallbacks:
            span.set(kernel_fallbacks=fallbacks)
    hierarchy = CoarseningHierarchy(graphs=[graph], cmaps=[])
    current = graph
    cewgt = None
    if options.matching is MatchingScheme.HCM:
        cewgt = np.zeros(graph.nvtxs, dtype=np.int64)

    while (
        current.nvtxs > options.coarsen_to
        and hierarchy.nlevels <= options.max_coarsen_levels
    ):
        level = hierarchy.nlevels - 1
        if run.faults and run.faults.trip("matching"):
            run.report.record(
                "stall",
                "coarsen",
                f"injected degenerate matching at {current.nvtxs} "
                "vertices; coarsening stopped",
                level=level,
                reason="injected",
                nvtxs=current.nvtxs,
            )
            break
        with (
            span.child(
                "coarsen.match",
                level=level,
                nvtxs=current.nvtxs,
                scheme=MatchingScheme(options.matching).value,
                impl=matching_backend,
            )
            if span
            else NULL_SPAN
        ):
            match = matching_kernel(current, options.matching, rng, cewgt)
        if san:
            san.check_matching(current, match, level=level)
        cmap, ncoarse = coarse_map_from_matching(match)
        if ncoarse >= current.nvtxs * options.coarsen_stall_ratio:
            run.report.record(
                "stall",
                "coarsen",
                f"matching stalled ({current.nvtxs} → {ncoarse} "
                "vertices); coarsening stopped",
                level=level,
                reason="stalled",
                nvtxs=current.nvtxs,
                ncoarse=ncoarse,
            )
            break  # matching stalled; further levels would spin
        if options.matching is MatchingScheme.HCM:
            cewgt = collapsed_edge_weight(current, cmap, ncoarse, cewgt)
        with (
            span.child(
                "coarsen.contract",
                level=level,
                nvtxs=current.nvtxs,
                ncoarse=ncoarse,
                impl=contract_backend,
            )
            if span
            else NULL_SPAN
        ):
            coarse = contract_kernel(current, cmap, ncoarse)
        if san:
            san.check_contraction(current, coarse, cmap, level=level)
        hierarchy.graphs.append(coarse)
        hierarchy.cmaps.append(cmap)
        if span:
            span.event(
                "coarsen.level",
                level=level,
                scheme=MatchingScheme(options.matching).value,
                nvtxs=coarse.nvtxs,
                nedges=coarse.nedges,
                **matching_stats(current, match),
            )
        current = coarse
    if span:
        span.set(levels=hierarchy.nlevels, coarsest_nvtxs=current.nvtxs)
    return hierarchy
