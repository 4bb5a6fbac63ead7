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
"""

from __future__ import annotations

import numpy as np

from repro.core.options import MatchingScheme
from repro.utils.rng import as_generator

UNMATCHED = -1


def _match_loop(graph, rng, pick):
    """Shared randomized maximal-matching skeleton.

    ``pick(candidates, weights, slice)`` chooses the index (into the
    neighbour slice) of the partner among unmatched candidates, or -1 to
    leave the vertex unmatched (never happens when candidates exist).
    """
    n = graph.nvtxs
    xadj, adjncy = graph.xadj, graph.adjncy
    match = np.full(n, UNMATCHED, dtype=np.int64)
    for u in rng.permutation(n):
        if match[u] != UNMATCHED:
            continue
        s, e = xadj[u], xadj[u + 1]
        nbrs = adjncy[s:e]
        free = match[nbrs] == UNMATCHED
        if not free.any():
            match[u] = u  # stays unmatched; copied to the coarse graph
            continue
        idx = pick(u, nbrs, free, s, e)
        v = int(nbrs[idx])
        match[u] = v
        match[v] = u
    # Vertices never visited as 'u' but also never chosen as partners keep
    # UNMATCHED only if the permutation missed them — it cannot, so any
    # remaining UNMATCHED means an isolated vertex already handled above.
    return match


def rm_matching(graph, rng=None) -> np.ndarray:
    """Random matching (RM): uniformly random unmatched neighbour."""
    rng = as_generator(rng)

    def pick(u, nbrs, free, s, e):
        candidates = np.flatnonzero(free)
        return int(candidates[rng.integers(len(candidates))])

    return _match_loop(graph, rng, pick)


def hem_matching(graph, rng=None) -> np.ndarray:
    """Heavy-edge matching (HEM): heaviest edge to an unmatched neighbour.

    Ties are broken by position in the adjacency list, which is effectively
    random for the shuffled graphs our generators emit; the visiting order
    is random regardless.
    """
    rng = as_generator(rng)
    adjwgt = graph.adjwgt

    def pick(u, nbrs, free, s, e):
        w = adjwgt[s:e].copy()
        w[~free] = -1
        return int(np.argmax(w))

    return _match_loop(graph, rng, pick)


def lem_matching(graph, rng=None) -> np.ndarray:
    """Light-edge matching (LEM): lightest edge to an unmatched neighbour."""
    rng = as_generator(rng)
    adjwgt = graph.adjwgt
    big = np.int64(np.iinfo(np.int64).max)

    def pick(u, nbrs, free, s, e):
        w = adjwgt[s:e].copy()
        w[~free] = big
        return int(np.argmin(w))

    return _match_loop(graph, rng, pick)


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
    adjwgt, vwgt = graph.adjwgt, graph.vwgt
    if cewgt is None:
        cewgt = np.zeros(graph.nvtxs, dtype=np.int64)

    def pick(u, nbrs, free, s, e):
        nu = vwgt[u]
        sizes = vwgt[nbrs] + nu
        internal = cewgt[nbrs] + cewgt[u] + adjwgt[s:e]
        denom = sizes * (sizes - 1)
        density = np.where(denom > 0, 2.0 * internal / np.maximum(denom, 1), 0.0)
        density = np.where(free, density, -1.0)
        return int(np.argmax(density))

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
