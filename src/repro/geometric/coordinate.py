"""Coordinate and inertial bisection.

* **Coordinate bisection**: split at the weighted median along the
  coordinate axis with the largest extent.  The cheapest partitioner there
  is; quality depends entirely on mesh anisotropy.
* **Inertial bisection**: split along the principal axis of the vertex
  point cloud (the eigenvector of the largest eigenvalue of the d×d
  inertia/covariance matrix), i.e. coordinate bisection in a rotated frame
  that follows the domain's actual shape.

Both need ``graph.coords`` and raise :class:`PartitionError` otherwise —
deliberately, since "often the geometric information is not available" is
the paper's argument for combinatorial methods.
"""

from __future__ import annotations

import numpy as np

from repro.core.initial import split_at_weighted_median
from repro.core.kway import partition as _kway_partition
from repro.core.multilevel import MultilevelResult
from repro.graph.partition import Bisection
from repro.utils.errors import PartitionError
from repro.utils.timing import PhaseTimer


def _require_coords(graph):
    if graph.coords is None:
        raise PartitionError(
            "geometric bisection needs vertex coordinates (graph.coords is None)"
        )
    return graph.coords


def coordinate_bisection(graph, target0=None) -> Bisection:
    """Bisect at the weighted median of the longest coordinate axis."""
    coords = _require_coords(graph)
    if graph.nvtxs < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    if target0 is None:
        target0 = graph.total_vwgt() // 2
    extents = coords.max(axis=0) - coords.min(axis=0)
    axis = int(np.argmax(extents))
    return split_at_weighted_median(graph, coords[:, axis], target0)


def inertial_bisection(graph, target0=None) -> Bisection:
    """Bisect along the principal axis of the vertex point cloud."""
    coords = _require_coords(graph)
    if graph.nvtxs < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    if target0 is None:
        target0 = graph.total_vwgt() // 2
    w = graph.vwgt.astype(np.float64)
    centroid = (coords * w[:, None]).sum(axis=0) / w.sum()
    centered = coords - centroid
    inertia = (centered * w[:, None]).T @ centered
    _, vecs = np.linalg.eigh(inertia)
    principal = vecs[:, -1]  # largest-variance direction
    return split_at_weighted_median(graph, centered @ principal, target0)


def geometric_partition(graph, nparts, options=None, rng=None, *, inertial=True):
    """k-way partition by recursive geometric bisection.

    Plugs the geometric bisector into the shared recursive-bisection
    driver, so results are directly comparable with the multilevel and
    spectral k-way partitions.
    """
    from repro.core.options import DEFAULT_OPTIONS

    options = options or DEFAULT_OPTIONS
    bisect_fn = inertial_bisection if inertial else coordinate_bisection

    def bisector(g, opts, child_rng, *, target0, run):
        timers = PhaseTimer()
        with timers.phase("ITime"):
            bisection = bisect_fn(g, target0)
        return MultilevelResult(
            bisection=bisection,
            timers=timers,
            nlevels=1,
            coarsest_nvtxs=g.nvtxs,
            initial_cut=bisection.cut,
        )

    return _kway_partition(graph, nparts, options, rng, bisector=bisector)
