"""The four maximal-matching schemes of §3.1.

All four share the same randomized skeleton: visit the vertices in a random
order; when an unmatched vertex ``u`` is reached, pick one of its unmatched
neighbours ``v`` according to the scheme's criterion and match the pair; if
no unmatched neighbour exists, ``u`` stays unmatched.  The result is a
*maximal* matching (no edge can be added) in O(|E|).

Schemes differ only in the neighbour choice:

* **RM** — uniformly random unmatched neighbour;
* **HEM** — the unmatched neighbour joined by the heaviest edge, which
  maximises (greedily) the matching weight ``W(M)`` and therefore minimises
  the coarse graph's total edge weight ``W(E_{i+1}) = W(E_i) − W(M)``;
* **LEM** — the lightest edge (the paper's deliberately adversarial
  control: it leaves the coarse graph heavy and high-degree);
* **HCM** — the neighbour maximising the *edge density* of the merged
  multinode, approximating clique-clustering coarseners.  This needs the
  contracted edge weight (``cewgt``) of each multinode, which the
  coarsening driver threads through the levels.

A matching is returned in involution form: ``match[v]`` is ``v``'s partner,
or ``v`` itself when unmatched.

The loop walks each visited vertex's adjacency as Python scalars over
memoryviews of the CSR arrays; a NumPy call per vertex would cost more
than the handful of neighbours it scans.  RM and HCM evaluate every free
neighbour; HEM and LEM rank each row once per call and stop at the first
free one (:func:`_ranked_adjncy`).  Either way, ties go to the first such
neighbour in the adjacency list.  ``tests/test_matching.py`` keeps the
per-vertex NumPy formulation as the bit-identity reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.options import MatchingScheme
from repro.utils.rng import as_generator

UNMATCHED = -1
_INT64_LIMIT = 2**63


def _match_loop(graph, rng, pick):
    """Shared randomized maximal-matching skeleton.

    Vertices are visited in the order of one ``rng.permutation(n)``.
    ``pick(u, s, e, match)`` scans ``u``'s adjacency slice ``[s, e)``
    against the list ``match`` and returns the chosen unmatched neighbour,
    or ``UNMATCHED`` when there is none: ``u`` then stays unmatched and is
    copied to the coarse graph.
    """
    xadj = memoryview(graph.xadj)
    match = [UNMATCHED] * graph.nvtxs
    for u in memoryview(rng.permutation(graph.nvtxs)):
        if match[u] != UNMATCHED:
            continue
        v = pick(u, xadj[u], xadj[u + 1], match)
        if v == UNMATCHED:
            v = u
        match[u] = v
        match[v] = u
    return np.array(match, dtype=np.int64)


def rm_matching(graph, rng=None) -> np.ndarray:
    """Random matching (RM): uniformly random unmatched neighbour."""
    rng = as_generator(rng)
    adjncy = memoryview(graph.adjncy)

    def pick(u, s, e, match):
        free = [v for v in adjncy[s:e] if match[v] == UNMATCHED]
        if len(free) > 1:
            return free[rng.integers(len(free))]
        # integers(1) draws nothing, so a lone candidate skips the call
        # and leaves the stream exactly where the call would.
        return free[0] if free else UNMATCHED

    return _match_loop(graph, rng, pick)


def _ranked_adjncy(graph, heaviest: bool) -> np.ndarray:
    """``adjncy`` with each row stably sorted by edge weight.

    Heaviest first when ``heaviest``, else lightest first; ties keep
    their adjacency order.  The first free entry of a ranked row is then
    the neighbour a scan for the strict maximum (or minimum) picks, since
    that scan keeps the earliest extreme.  With all weights equal the
    rows are already ranked and ``adjncy`` is returned as it is.

    Otherwise the rows are ranked by the fused key ``src·(wmax+1) + r``,
    with ``r = wmax − w`` (heaviest first) or ``w``, which keeps every row
    in place (``src`` is non-decreasing).  One ``np.sort`` of the packed
    key ``(fused << s) | slot``, with every slot index below ``2^s``, is
    its stable order: the keys are distinct, and equal fused keys compare
    by slot.  Where the packed key would overflow int64, ``np.lexsort``
    gives the same order.
    """
    adjncy, adjwgt = graph.adjncy, graph.adjwgt
    if len(adjwgt) == 0 or adjwgt.min() == adjwgt.max():
        return adjncy
    wmax = int(adjwgt.max())
    rank = wmax - adjwgt if heaviest else adjwgt
    src = graph.edge_sources()
    shift = (len(adjncy) - 1).bit_length()
    if graph.nvtxs * (wmax + 1) << shift <= _INT64_LIMIT:
        fused = src * (wmax + 1) + rank
        slots = np.arange(len(adjncy), dtype=np.int64)
        order = np.sort((fused << shift) | slots) & ((1 << shift) - 1)
    else:
        order = np.lexsort((rank, src))
    return adjncy[order]


def _first_free(adjncy):
    """A ``pick`` returning the first unmatched entry of a row of
    ``adjncy`` (a ranked adjacency, see :func:`_ranked_adjncy`)."""
    adjncy = memoryview(adjncy)

    def pick(u, s, e, match):
        for v in adjncy[s:e]:
            if match[v] == UNMATCHED:
                return v
        return UNMATCHED

    return pick


def hem_matching(graph, rng=None) -> np.ndarray:
    """Heavy-edge matching (HEM): heaviest edge to an unmatched neighbour.

    Ties go to the first such neighbour in the adjacency list, which is
    effectively random for the shuffled graphs our generators emit; the
    visiting order is random regardless.  Each row is ranked heaviest
    first once per call, and a visit takes its first free neighbour.
    """
    rng = as_generator(rng)
    return _match_loop(graph, rng, _first_free(_ranked_adjncy(graph, True)))


def lem_matching(graph, rng=None) -> np.ndarray:
    """Light-edge matching (LEM): lightest edge to an unmatched neighbour.

    Each row is ranked lightest first, as HEM ranks heaviest first.
    """
    rng = as_generator(rng)
    return _match_loop(graph, rng, _first_free(_ranked_adjncy(graph, False)))


def hcm_matching(graph, rng=None, cewgt=None) -> np.ndarray:
    """Heavy-clique matching (HCM): maximise merged edge density.

    The edge density of a would-be multinode ``{u, v}`` with unit-vertex
    counts ``nu = vwgt[u]``, ``nv = vwgt[v]`` and internal edge weight
    ``cewgt[u] + cewgt[v] + w(u, v)`` is::

        2 * (cewgt[u] + cewgt[v] + w(u, v)) / ((nu + nv) * (nu + nv - 1))

    which is 1 exactly when the multinode is a clique of the original
    (unit-weight) graph.  ``cewgt`` defaults to zeros, which is exact for an
    uncoarsened unit-weight graph.
    """
    rng = as_generator(rng)
    adjncy, adjwgt = memoryview(graph.adjncy), memoryview(graph.adjwgt)
    vwgt = memoryview(graph.vwgt)
    if cewgt is None:
        cewgt = np.zeros(graph.nvtxs, dtype=np.int64)
    cewgt = memoryview(np.ascontiguousarray(cewgt, dtype=np.int64))

    def pick(u, s, e, match):
        nu, cu = vwgt[u], cewgt[u]
        best, densest = UNMATCHED, -1.0
        for j in range(s, e):
            v = adjncy[j]
            if match[v] == UNMATCHED:
                size = vwgt[v] + nu
                denom = size * (size - 1)
                internal = cewgt[v] + cu + adjwgt[j]
                density = 2.0 * internal / denom if denom > 0 else 0.0
                if density > densest:
                    best, densest = v, density
        return best

    return _match_loop(graph, rng, pick)


_SCHEMES = {
    MatchingScheme.RM: rm_matching,
    MatchingScheme.HEM: hem_matching,
    MatchingScheme.LEM: lem_matching,
    MatchingScheme.HCM: hcm_matching,
}


def compute_matching(graph, scheme, rng=None, cewgt=None) -> np.ndarray:
    """Dispatch to the matching scheme named by ``scheme``.

    This is the ``loop`` backend's matching kernel in the
    :mod:`repro.kernels` registry — bit-exact with the paper's published
    runs and the terminal fallback of every backend chain.  The other
    backends' kernels are reached through
    :func:`repro.kernels.resolve_kernels`.
    """
    scheme = MatchingScheme(scheme)
    if scheme is MatchingScheme.HCM:
        return hcm_matching(graph, rng, cewgt)
    return _SCHEMES[scheme](graph, rng)


def matching_stats(graph, match) -> dict:
    """Vectorised per-level matching summary for the tracer.

    Returns ``matched_frac`` (fraction of vertices in a matched pair),
    ``matched_weight`` (total weight of matched edges — the ``W(M)``
    removed from the coarser graph) and ``heavy_share`` (``W(M)`` as a
    fraction of the level's total edge weight).  O(|E|) NumPy work, no
    Python loop — cheap enough to run once per coarsening level when
    tracing is on.
    """
    match = np.asarray(match)
    n = graph.nvtxs
    if n == 0:
        return {"matched_frac": 0.0, "matched_weight": 0, "heavy_share": 0.0}
    arange = np.arange(n, dtype=np.int64)
    match = np.where(match < 0, arange, match)
    src = graph.edge_sources()
    pair = (match[src] == graph.adjncy) & (src < graph.adjncy)
    matched_weight = int(graph.adjwgt[pair].sum())
    total = int(graph.adjwgt.sum()) // 2
    return {
        "matched_frac": float((match != arange).mean()),
        "matched_weight": matched_weight,
        "heavy_share": float(matched_weight / total) if total else 0.0,
    }


def is_valid_matching(graph, match) -> bool:
    """Check involution + adjacency: every matched pair is a real edge."""
    match = np.asarray(match)
    n = graph.nvtxs
    if len(match) != n:
        return False
    if not np.array_equal(match[match], np.arange(n)):
        return False
    for v in range(n):
        u = int(match[v])
        if u != v and not graph.has_edge(v, u):
            return False
    return True


def is_maximal_matching(graph, match) -> bool:
    """Check maximality: no edge joins two unmatched vertices."""
    match = np.asarray(match)
    unmatched = match == np.arange(graph.nvtxs)
    src = graph.edge_sources()
    both_free = unmatched[src] & unmatched[graph.adjncy]
    return not bool(both_free.any())
