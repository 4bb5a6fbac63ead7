"""Graph contraction: build the next-level coarser graph from a matching.

Section 3.1 of the paper defines contraction: matched vertex pairs collapse
into *multinodes*; the multinode's weight is the sum of its constituents'
vertex weights, its adjacency is the union of theirs, and parallel edges
created by the union merge by summing edge weights.  Two invariants follow
and are preserved (and tested) here:

* total vertex weight is conserved:  ``W(V_{i+1}) = W(V_i)``;
* total edge weight drops by the matching weight:
  ``W(E_{i+1}) = W(E_i) − W(M_i)``.

The kernel is fully vectorised: it maps every directed edge through the
coarse map, drops intra-multinode edges, and sorts the remainder once as
the packed int64 key ``((cu·ncoarse + cv) << s) | w``, which carries each
edge weight ``w < 2^s`` in its low bits.  A run of equal high bits is one
coarse edge: its parallel edges merge as a difference of the weights'
prefix sum at the run bounds — O(m log m) with NumPy constants.  When the
packed key would overflow int64, an ``argsort`` of ``cu·ncoarse + cv``
orders the weights instead; the runs and sums are the same.  It is the
``loop`` kernel backend's contraction.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import exact_weight_bincount

_INT64_LIMIT = 2**63


def coarse_map_from_matching(match) -> tuple[np.ndarray, int]:
    """Number the multinodes induced by a matching.

    Parameters
    ----------
    match:
        int array where ``match[v]`` is the vertex matched with ``v``, or
        ``v`` itself when unmatched.  Must be an involution
        (``match[match[v]] == v``).

    Returns
    -------
    (cmap, ncoarse):
        ``cmap[v]`` is the coarse vertex id of ``v``; matched pairs share an
        id.  Ids are dense ``0..ncoarse-1``, assigned in increasing order of
        each group's smallest member so the numbering is deterministic for a
        given matching.
    """
    match = np.asarray(match, dtype=np.int64)
    arange = np.arange(len(match), dtype=np.int64)
    leader = np.minimum(arange, match)
    # A pair's leader is its smaller member, a leader of itself: numbering
    # the leaders in order is one running count.
    number = np.cumsum(leader == arange) - 1
    return number[leader], int(number[-1]) + 1 if len(number) else 0


def contract(graph, cmap, ncoarse) -> CSRGraph:
    """Contract ``graph`` according to the coarse map ``cmap``.

    ``cmap`` may merge any groups of vertices (not just pairs), so the same
    kernel also serves cluster-based coarsening extensions.  Groups must be
    connected or at least disjoint; dense ids ``0..ncoarse-1`` are required.
    The coarse graph carries no coordinates: nothing reads them, and the
    geometric baseline bisects the original graph.
    """
    cmap = np.asarray(cmap, dtype=np.int64)
    cu = cmap[graph.edge_sources()]
    # np.take gathers through adjncy's int32 ids faster than indexing.
    cv = np.take(cmap, graph.adjncy)
    keep = cu != cv  # drop collapsed (intra-multinode) edges
    # The fused key cu·ncoarse + cv is collision-free because both factors
    # are below ncoarse, and ncoarse² < 2⁶³ for any graph that fits in
    # memory.  Packing the weight below it sorts keys and weights at once.
    key = cu * np.int64(ncoarse) + cv
    adjwgt = graph.adjwgt
    shift = int(adjwgt.max()).bit_length() if len(adjwgt) else 0
    if int(ncoarse) ** 2 << shift <= _INT64_LIMIT:
        key <<= shift
        key |= adjwgt
        packed = np.sort(np.compress(keep, key))
        key, w = packed >> shift, packed & ((1 << shift) - 1)
    else:
        key, w = np.compress(keep, key), np.compress(keep, adjwgt)
        order = np.argsort(key)
        key, w = key[order], w[order]
    # Each run of equal keys is one coarse edge, its parallel edges merged
    # by int64 summation, which no order within the run can change.  The
    # sums are differences of one prefix sum at the runs' last entries,
    # exact because validation bounds the total edge weight by the int64
    # maximum.
    last = np.empty(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=last[:-1])
    last[-1:] = True
    ends = np.flatnonzero(last)
    mu = key[ends] // ncoarse
    mv = key[ends] - mu * ncoarse
    xadj = np.zeros(ncoarse + 1, dtype=np.int64)
    np.cumsum(np.bincount(mu, minlength=ncoarse), out=xadj[1:])
    merged = np.diff(np.cumsum(w)[ends], prepend=0)

    cvwgt = exact_weight_bincount(
        cmap, graph.vwgt, minlength=ncoarse, total=graph.total_vwgt()
    )
    return CSRGraph(xadj, mv, merged, cvwgt, validate=False)


def collapsed_edge_weight(graph, cmap, ncoarse, cewgt=None) -> np.ndarray:
    """Per-multinode contracted edge weight (``cewgt``) after contraction.

    The contracted edge weight of a coarse vertex is the total weight of all
    *original-graph* edges that ended up inside it: the cewgt its members
    carried in, plus the weight of the fine edges collapsed by this
    contraction.  Heavy-clique matching (HCM) uses this to estimate edge
    density across levels.
    """
    cmap = np.asarray(cmap, dtype=np.int64)
    n = graph.nvtxs
    if cewgt is None:
        cewgt = np.zeros(n, dtype=np.int64)
    src = graph.edge_sources()
    cu = cmap[src]
    internal = cu == cmap[graph.adjncy]
    # Each collapsed undirected edge appears twice in the directed arrays.
    collapsed = exact_weight_bincount(
        cu[internal], graph.adjwgt[internal], minlength=ncoarse
    )
    carried = exact_weight_bincount(cmap, cewgt, minlength=ncoarse)
    return carried + collapsed // 2


def matching_weight(graph, match) -> int:
    """Total weight ``W(M)`` of the edges in a matching.

    ``match`` is in the involution form of
    :func:`coarse_map_from_matching`.  Counts each matched pair once.
    """
    match = np.asarray(match, dtype=np.int64)
    total = 0
    for v in range(len(match)):
        u = match[v]
        if u > v:
            total += graph.edge_weight(v, int(u))
    return int(total)
