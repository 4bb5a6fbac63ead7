"""The ``vectorized`` kernel backend: whole-array NumPy matching.

Reached only through the :mod:`repro.kernels` registry (lint rule RP017).
The backend has one phase kernel, matching, built from batched proposal
rounds.  The reference kernels in :mod:`repro.core.matching` visit
vertices one at a time in a random order — O(|E|) work in one scalar pass
per vertex.  :func:`vectorized_matching` rewrites all four §3.1 schemes as
*proposal rounds* made of whole-array NumPy passes:

1. every vertex that is still free proposes to its best free neighbour,
   where "best" is the scheme's criterion (heaviest edge for HEM, lightest
   for LEM, densest merged multinode for HCM, any free neighbour for RM)
   evaluated by a masked segment-max over the CSR adjacency slices;
2. ties inside a vertex's candidate set are broken by a per-round random
   vertex priority, so each vertex proposes to exactly one neighbour;
3. mutual proposals (``partner[partner[u]] == u``) are accepted and both
   endpoints leave the free set;
4. repeat until no edge joins two free vertices.

Termination is guaranteed: let ``K`` be the maximal primary key among the
round's free-free edges and ``w`` the highest-priority endpoint of any
``K``-edge.  Every free vertex reaching ``w`` through a ``K``-edge has all
its candidates in the ``K`` class (``K`` is the global maximum) and breaks
ties toward the highest-priority target — which is ``w`` — so ``w``'s own
proposal (to some ``K``-neighbour ``x``) is reciprocated and ``(w, x)`` is
matched.  At least one pair therefore lands per round; in practice a round
matches a large constant fraction of the free vertices and the loop
finishes in O(log n) rounds.  On exit no edge joins two free vertices,
which is exactly the maximality oracle, and matched pairs are symmetric by
construction, which is the involution oracle.

The result is deterministic for a given generator but *not* bit-identical
to the loop kernels (the visitation order and the proposal rounds consume
randomness differently); keep the ``loop`` backend when reproducing the
paper's published tables bit-for-bit.  Contraction has no kernel here: the
backend falls back to the ``loop`` backend's single-sort
:func:`repro.graph.contract.contract`.
"""

from __future__ import annotations

import numpy as np

from repro.core.options import MatchingScheme
from repro.utils.errors import ConfigurationError
from repro.utils.rng import as_generator

UNMATCHED = -1

_INT_SENTINEL = np.int64(np.iinfo(np.int64).min)


def segment_max(values, xadj, sentinel):
    """Per-vertex maximum of ``values`` over CSR slices ``xadj``.

    Returns an array of length ``len(xadj) - 1`` whose entry ``v`` is
    ``values[xadj[v]:xadj[v+1]].max()``, or ``sentinel`` when the slice is
    empty.  ``np.maximum.reduceat`` mishandles empty segments (it returns
    ``values[start]`` and raises on a trailing ``start == len(values)``),
    so the reduction runs over the non-empty segments only: their start
    offsets are strictly increasing and in bounds, and consecutive
    non-empty starts delimit exactly one CSR slice because the empty
    segments in between share the same offset.
    """
    n = len(xadj) - 1
    values = np.asarray(values)
    out = np.full(n, sentinel, dtype=values.dtype)
    if n == 0 or len(values) == 0:
        return out
    nonempty = xadj[:-1] < xadj[1:]
    starts = xadj[:-1][nonempty]
    if len(starts):
        out[nonempty] = np.maximum.reduceat(values, starts)
    return out


def _edge_keys(graph, scheme, cewgt):
    """Per-directed-edge primary key for ``scheme`` (``None`` for RM).

    Keys are symmetric — both copies of an undirected edge carry the same
    key — so "u's best edge is (u, v)" and "v's best edge is (v, u)" rank
    the same physical edge identically, which the round-progress argument
    relies on.
    """
    if scheme is MatchingScheme.RM:
        return None
    if scheme is MatchingScheme.HEM:
        return graph.adjwgt
    if scheme is MatchingScheme.LEM:
        return -graph.adjwgt
    if scheme is MatchingScheme.HCM:
        src = graph.edge_sources()
        dst = graph.adjncy
        if cewgt is None:
            cewgt = np.zeros(graph.nvtxs, dtype=np.int64)
        sizes = graph.vwgt[src] + graph.vwgt[dst]
        internal = cewgt[src] + cewgt[dst] + graph.adjwgt
        denom = sizes * (sizes - 1)
        return np.where(denom > 0, 2.0 * internal / np.maximum(denom, 1), 0.0)
    raise ConfigurationError(f"unknown matching scheme {scheme!r}")


def vectorized_matching(graph, scheme, rng=None, cewgt=None) -> np.ndarray:
    """Maximal matching of ``graph`` under ``scheme``, in involution form.

    Drop-in counterpart of :func:`repro.core.matching.compute_matching`
    (the ``vectorized`` backend's matching kernel); see the module
    docstring for the round algorithm and its termination/maximality
    argument.
    """
    scheme = MatchingScheme(scheme)
    rng = as_generator(rng)
    n = graph.nvtxs
    match = np.full(n, UNMATCHED, dtype=np.int64)
    if n == 0:
        return match
    xadj, adjncy = graph.xadj, graph.adjncy
    src = graph.edge_sources()
    key = _edge_keys(graph, scheme, cewgt)
    if key is not None and key.dtype.kind == "f":
        key_sentinel = -np.inf
    else:
        key_sentinel = _INT_SENTINEL
    arange = np.arange(n, dtype=np.int64)
    free = np.ones(n, dtype=bool)
    while True:
        live = free[src] & free[adjncy]
        if not live.any():
            break
        # Fresh priorities each round keep RM a *random* matching and
        # de-correlate tie-breaks across rounds for the keyed schemes.
        prio = rng.permutation(n)
        if key is None:
            cand = live
        else:
            masked = np.where(live, key, key_sentinel)
            best = segment_max(masked, xadj, key_sentinel)
            cand = live & (masked == best[src])
        tprio = np.where(cand, prio[adjncy], -1)
        bestp = segment_max(tprio, xadj, np.int64(-1))
        chosen = cand & (tprio == bestp[src])
        partner = np.full(n, UNMATCHED, dtype=np.int64)
        # Priorities are distinct per round, so each proposing vertex
        # selects exactly one neighbour and the scatter never collides.
        partner[src[chosen]] = adjncy[chosen]
        proposers = np.flatnonzero(partner >= 0)
        accepted = partner[partner[proposers]] == proposers
        matched = proposers[accepted]
        match[matched] = partner[matched]
        free[matched] = False
    match[match == UNMATCHED] = arange[match == UNMATCHED]
    return match


__all__ = [
    "vectorized_matching",
    "segment_max",
    "UNMATCHED",
]
