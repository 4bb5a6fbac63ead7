"""Greedy vertex-separator refinement.

The minimum-vertex-cover construction (§2 of the paper) gives the smallest
separator obtainable *from a fixed edge separator* — but a different,
smaller vertex separator may exist nearby.  The released METIS therefore
refines separators directly with a node-based FM; this module implements
the greedy (monotone) variant:

* the graph is 3-way labelled: side 0, side 1, separator (2), with no
  edge joining side 0 to side 1 (the invariant, asserted in tests);
* moving separator vertex ``s`` into side ``a`` forces every neighbour of
  ``s`` on the other side into the separator, so the separator weight
  changes by ``Σ vwgt(pulled) − vwgt(s)``;
* passes sweep the separator in random order, applying moves that shrink
  the separator (or keep it equal while improving balance), until a sweep
  makes no move.

Each accepted move strictly improves ``(separator weight, imbalance)``
lexicographically, so termination is immediate and the invariant is
maintained by construction.  On mesh separators this typically shaves
5–15 % off the cover separator, which compounds over the dissection
levels into a measurable opcount win (see the ablation bench).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

SIDE_A = 0
SIDE_B = 1
SEPARATOR = 2


def separator_weight(graph, where3) -> int:
    """Total vertex weight of the separator."""
    return int(graph.vwgt[np.asarray(where3) == SEPARATOR].sum())


def is_valid_separator_labelling(graph, where3) -> bool:
    """No edge may join side 0 to side 1."""
    where3 = np.asarray(where3)
    src = graph.edge_sources()
    a = where3[src]
    b = where3[graph.adjncy]
    bad = ((a == SIDE_A) & (b == SIDE_B)) | ((a == SIDE_B) & (b == SIDE_A))
    return not bool(bad.any())


def refine_vertex_separator(
    graph,
    where3,
    rng=None,
    *,
    maxpwgt=None,
    max_passes: int = 6,
) -> np.ndarray:
    """Greedily shrink a vertex separator in place; returns ``where3``.

    Parameters
    ----------
    where3:
        int array labelling each vertex 0 (side A), 1 (side B) or
        2 (separator); mutated in place.
    maxpwgt:
        Optional per-side weight caps ``(cap_a, cap_b)``; moves that would
        push a side over its cap are taken only if they also reduce the
        larger side (i.e. improve balance).
    max_passes:
        Sweep cap; each sweep is monotone so this is a safety bound.
    """
    rng = as_generator(rng)
    where3 = np.asarray(where3)
    if maxpwgt is None:
        maxpwgt = (np.iinfo(np.int64).max, np.iinfo(np.int64).max)

    pwgts = [
        int(graph.vwgt[where3 == SIDE_A].sum()),
        int(graph.vwgt[where3 == SIDE_B].sum()),
    ]
    xadj, adjncy = memoryview(graph.xadj), memoryview(graph.adjncy)
    vwgt, label = memoryview(graph.vwgt), memoryview(where3)

    for _ in range(max_passes):
        sep = np.flatnonzero(where3 == SEPARATOR)
        if len(sep) == 0:
            break
        moved = 0
        for s in rng.permutation(sep).tolist():
            if label[s] != SEPARATOR:
                continue  # pulled into the separator earlier this sweep? no — only grows; guard anyway
            # One pass over the row sums each side's neighbour weight; a
            # move (rare) walks the row again to pull the other side in.
            row = adjncy[xadj[s] : xadj[s + 1]]
            w_a = w_b = 0
            for v in row:
                lv = label[v]
                if lv == SIDE_A:
                    w_a += vwgt[v]
                elif lv == SIDE_B:
                    w_b += vwgt[v]
            nbr_wgt = (w_a, w_b)
            w_s = vwgt[s]
            best = None  # (key, side, other); key = (delta_sep, larger side)
            for side, other in ((SIDE_A, SIDE_B), (SIDE_B, SIDE_A)):
                delta = nbr_wgt[other] - w_s
                if delta > 0:
                    continue  # separator would grow
                new_side = pwgts[side] + w_s
                new_other = pwgts[other] - nbr_wgt[other]
                if new_side > maxpwgt[side] and new_side >= pwgts[other]:
                    continue  # violates cap without improving balance
                if delta == 0:
                    # Pure swap: accept only if balance improves.
                    if max(new_side, new_other) >= max(pwgts):
                        continue
                key = (delta, max(new_side, new_other))
                if best is None or key < best[0]:
                    best = (key, side, other)
            if best is None:
                continue
            _, side, other = best
            label[s] = side
            pwgts[side] += w_s
            for v in row:
                if label[v] == other:
                    label[v] = SEPARATOR
            pwgts[other] -= nbr_wgt[other]
            moved += 1
        if moved == 0:
            break
    return where3


def build_labelling(graph, where, separator) -> np.ndarray:
    """3-way labelling from a bisection ``where`` and a separator list."""
    where3 = np.asarray(where, dtype=np.int8).copy()
    where3[np.asarray(separator, dtype=np.int64)] = SEPARATOR
    return where3
