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
coarse map, drops intra-multinode edges, sorts the remainder once on the
fused key ``cu * ncoarse + cv`` and merges runs of equal keys with
``np.add.reduceat`` — O(m log m) with NumPy constants.  It is the
``loop`` kernel backend's contraction.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import exact_weight_bincount


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
    n = len(match)
    leader = np.minimum(np.arange(n, dtype=np.int64), match)
    is_leader = leader == np.arange(n)
    cmap = np.empty(n, dtype=np.int64)
    cmap[is_leader] = np.arange(int(is_leader.sum()), dtype=np.int64)
    cmap[~is_leader] = cmap[leader[~is_leader]]
    return cmap, int(is_leader.sum())


def contract(graph, cmap, ncoarse) -> CSRGraph:
    """Contract ``graph`` according to the coarse map ``cmap``.

    ``cmap`` may merge any groups of vertices (not just pairs), so the same
    kernel also serves cluster-based coarsening extensions.  Groups must be
    connected or at least disjoint; dense ids ``0..ncoarse-1`` are required.
    """
    cmap = np.asarray(cmap, dtype=np.int64)
    cu = cmap[graph.edge_sources()]
    cv = cmap[graph.adjncy]
    keep = cu != cv  # drop collapsed (intra-multinode) edges
    # One sort on the fused key: collision-free because both factors are
    # below ncoarse, and ncoarse² < 2⁶³ for any graph that fits in memory.
    key = cu[keep] * np.int64(ncoarse) + cv[keep]
    order = np.argsort(key)
    key, w = key[order], graph.adjwgt[keep][order]
    # Parallel edges created by the union merge by int64 summation, which
    # no order within a run of equal keys can change.
    new_run = np.ones(len(key), dtype=bool)
    new_run[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new_run)
    mu, mv = np.divmod(key[starts], ncoarse)
    xadj = np.zeros(ncoarse + 1, dtype=np.int64)
    np.cumsum(np.bincount(mu, minlength=ncoarse), out=xadj[1:])

    cvwgt = exact_weight_bincount(
        cmap, graph.vwgt, minlength=ncoarse, total=graph.total_vwgt()
    )
    coarse = CSRGraph(
        xadj, mv, np.add.reduceat(w, starts), cvwgt, validate=False
    )
    propagate_coords(graph, coarse, cmap, ncoarse, cvwgt)
    return coarse


def propagate_coords(graph, coarse, cmap, ncoarse, cvwgt) -> None:
    """Carry coordinates to the coarse graph as weighted centroids.

    Keeps geometric methods usable on coarse graphs (used by the geometric
    baseline only).
    """
    if graph.coords is None:
        return
    d = graph.coords.shape[1]
    sums = np.zeros((ncoarse, d))
    for j in range(d):
        sums[:, j] = np.bincount(
            cmap, weights=graph.coords[:, j] * graph.vwgt, minlength=ncoarse
        )
    coarse.coords = sums / cvwgt[:, None]


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
