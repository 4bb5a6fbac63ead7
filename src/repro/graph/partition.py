"""Partition objects and the quality metrics the paper reports.

The paper's objective is the **edge-cut**: the total weight of edges whose
endpoints lie in different parts, subject to each part carrying (roughly)
equal vertex weight.  This module provides vectorised edge-cut, balance, and
boundary computations plus small result records used across the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.errors import PartitionError


def edge_cut(graph, where) -> int:
    """Total weight of edges crossing the partition ``where``.

    ``where`` is an integer array of length ``nvtxs`` assigning each vertex
    a part id.  Works for any number of parts.  O(m), fully vectorised.
    """
    where = np.asarray(where)
    src = graph.edge_sources()
    crossing = where[src] != where[graph.adjncy]
    # Each undirected crossing edge is seen from both endpoints.
    return int(graph.adjwgt[crossing].sum()) // 2


#: Largest total weight for which float64 accumulation is still exact:
#: every partial sum of non-negative integers bounded by 2**53 is an
#: integer 2**53 or below, and all of those are representable exactly.
_FLOAT64_EXACT_LIMIT = 2**53


def exact_weight_bincount(idx, weights, minlength=0, total=None) -> np.ndarray:
    """``np.bincount(idx, weights=...)`` with exact int64 accumulation.

    ``np.bincount`` always sums its weights in float64, which silently
    rounds once a partial sum exceeds 2**53.  This helper is the one
    blessed way to bin integer weight data (RP012 flags raw unguarded
    calls): it takes the fast bincount path only when the total weight
    provably fits the float64-exact range, and an ``np.add.at`` int64
    path otherwise.  Bit-identical to bincount below the limit.

    Parameters
    ----------
    idx:
        Non-negative bin indices, one per weight.
    weights:
        Integer weights to accumulate.
    minlength:
        Minimum length of the output array.
    total:
        The exact sum of ``weights``, when the caller already holds it
        (e.g. ``graph.total_vwgt()``) — avoids one O(n) reduction.
    """
    idx = np.asarray(idx)
    weights = np.asarray(weights)
    if total is None:
        total = int(weights.sum(dtype=np.int64)) if len(weights) else 0
    if total <= _FLOAT64_EXACT_LIMIT:
        return np.bincount(idx, weights=weights, minlength=minlength).astype(
            np.int64
        )
    length = max(int(minlength), int(idx.max()) + 1 if len(idx) else 0)
    out = np.zeros(length, dtype=np.int64)
    np.add.at(out, idx, weights.astype(np.int64))
    return out


def part_weights(graph, where, nparts=None) -> np.ndarray:
    """Vertex weight carried by each part, as an int64 array of length k.

    Accumulation stays in exact integer arithmetic for any int64 vertex
    weights via :func:`exact_weight_bincount`; the graph's cached total
    vertex weight picks the fast float64 path whenever it provably fits.
    """
    where = np.asarray(where)
    if nparts is None:
        nparts = int(where.max()) + 1 if len(where) else 0
    if len(where) == 0:
        return np.zeros(nparts, dtype=np.int64)
    return exact_weight_bincount(
        where, graph.vwgt, minlength=nparts, total=graph.total_vwgt()
    )


def weight_cap(bound: float, total: int) -> int:
    """The part-weight cap ``⌈bound⌉`` (a ``ubfactor ×`` target), clamped
    at the graph's total vertex weight ``total``.

    No part can weigh more than ``total``, so the clamp changes no
    comparison against a part weight; it keeps a huge ``ubfactor`` from
    overflowing to ``int(inf)``.
    """
    return int(min(np.ceil(bound), total))


def boundary_mask(graph, where) -> np.ndarray:
    """Boolean mask of boundary vertices.

    A vertex is on the boundary if at least one of its edges is cut — the
    definition §3.3 of the paper uses for the boundary refinement variants.
    """
    where = np.asarray(where)
    src = graph.edge_sources()
    crossing = where[src] != where[graph.adjncy]
    mask = np.zeros(graph.nvtxs, dtype=bool)
    mask[src[crossing]] = True
    return mask


def balance(graph, where, nparts=None) -> float:
    """Load imbalance: ``k * max_part_weight / total_weight`` (1.0 = perfect)."""
    pw = part_weights(graph, where, nparts)
    total = graph.total_vwgt()
    if total == 0 or len(pw) == 0:
        return 1.0
    return float(len(pw) * pw.max() / total)


@dataclass
class Bisection:
    """Result of a 2-way partition.

    Attributes
    ----------
    where:
        int8 array, ``where[v] ∈ {0, 1}``.
    cut:
        Edge-cut of the bisection (kept in sync by the refinement code).
    pwgts:
        Two-element array of part vertex weights.
    """

    where: np.ndarray
    cut: int
    pwgts: np.ndarray

    @classmethod
    def from_where(cls, graph, where) -> "Bisection":
        """Build a consistent record from a raw assignment array."""
        where = np.asarray(where, dtype=np.int8)
        if len(where) != graph.nvtxs:
            raise PartitionError(
                f"where has length {len(where)} for a {graph.nvtxs}-vertex graph"
            )
        if len(where) and not np.isin(where, (0, 1)).all():
            raise PartitionError("bisection part ids must be 0 or 1")
        return cls(
            where=where,
            cut=edge_cut(graph, where),
            pwgts=part_weights(graph, where, 2),
        )

    def verify(self, graph) -> None:
        """Re-derive cut and weights; raise if the cached values drifted."""
        fresh = Bisection.from_where(graph, self.where)
        # Exact int comparison: both cuts come from edge_cut's int64 sum.
        if fresh.cut != self.cut or not np.array_equal(  # repro: noqa[RP004]
            fresh.pwgts, self.pwgts
        ):
            raise PartitionError(
                f"inconsistent bisection record: cached (cut={self.cut}, "
                f"pwgts={self.pwgts.tolist()}) vs actual (cut={fresh.cut}, "
                f"pwgts={fresh.pwgts.tolist()})"
            )


@dataclass
class KWayPartition:
    """Result of a k-way partition produced by recursive bisection.

    Attributes
    ----------
    where:
        int32 array of part ids in ``[0, k)``.
    nparts:
        Number of parts ``k``.
    cut:
        Total edge-cut.
    pwgts:
        Part weights, length ``k``.
    timers:
        Optional accumulated per-phase times (CTime/ITime/RTime/PTime keys
        mirroring the paper's tables).
    kernels:
        The resolved per-phase kernel backends of the run that produced
        the partition (:meth:`repro.kernels.KernelSelection.as_dict`).
    """

    where: np.ndarray
    nparts: int
    cut: int
    pwgts: np.ndarray
    timers: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)

    @classmethod
    def from_where(cls, graph, where, nparts=None) -> "KWayPartition":
        where = np.asarray(where, dtype=np.int32)
        if nparts is None:
            nparts = int(where.max()) + 1 if len(where) else 1
        if len(where) and (where.min() < 0 or where.max() >= nparts):
            raise PartitionError("part ids out of range")
        return cls(
            where=where,
            nparts=nparts,
            cut=edge_cut(graph, where),
            pwgts=part_weights(graph, where, nparts),
        )

    def balance(self, graph) -> float:
        """Load imbalance of this partition on ``graph``."""
        return balance(graph, self.where, self.nparts)
