"""The Chaco-ML baseline: Hendrickson & Leland's multilevel scheme.

Per §4.2 of the paper, Chaco's multilevel algorithm "uses random matching
during coarsening, spectral bisection for partitioning the coarse graph,
and Kernighan-Lin refinement every other coarsening level during the
uncoarsening phase".  This module expresses exactly that combination as a
configuration of the shared V-cycle in :mod:`repro.core.multilevel`, so the
comparison in Figure 3 isolates the *policy* differences (HEM vs RM, GGGP
vs spectral, BKLGR vs periodic KLR) rather than implementation
differences.
"""

from __future__ import annotations

from repro.core.kway import partition as _kway_partition
from repro.core.multilevel import MultilevelResult, _vcycle
from repro.core.options import (
    DEFAULT_OPTIONS,
    InitialScheme,
    MatchingScheme,
    RefinePolicy,
)


def _every_other_level(level, coarsest):
    """Chaco's refinement schedule: every second level below the coarsest,
    and always the finest so the final answer is locally optimal — but
    never the coarsest itself, not even when it is also the finest."""
    return level < coarsest and (level == 0 or (coarsest - level) % 2 == 0)


def chaco_ml_bisect(
    graph, options=DEFAULT_OPTIONS, rng=None, target0=None
) -> MultilevelResult:
    """Multilevel bisection with RM + SBP + KLR-every-other-level."""
    chaco_options = options.with_(
        matching=MatchingScheme.RM,
        initial=InitialScheme.SBP,
        refinement=RefinePolicy.KLR,
    )
    return _vcycle(graph, chaco_options, rng, _every_other_level, target0=target0)


def chaco_ml_partition(graph, nparts, options=DEFAULT_OPTIONS, rng=None):
    """k-way partition by recursive Chaco-ML bisection."""
    return _kway_partition(graph, nparts, options, rng, bisector=chaco_ml_bisect)
