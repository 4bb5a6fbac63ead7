"""Shared helpers for the workload generators.

The paper's test graphs are *simple unweighted* graphs (matrix patterns),
but natural generator code emits duplicates — a triangulation lists each
interior edge once per incident element, random attachment may pick the
same pair twice.  :func:`simple_edges` canonicalises an edge array to the
unique undirected simple edges so generators feed
:func:`~repro.graph.build.from_edge_list` exactly one copy per edge (weight
1), instead of having duplicates merge into weight-2 edges.
"""

from __future__ import annotations

import numpy as np


def simple_edges(edges: np.ndarray) -> np.ndarray:
    """Unique undirected edges (u < v) from an ``(E, 2)`` array.

    Drops self-loops and duplicate mentions regardless of orientation.
    The rows come out sorted by ``(u, v)``: one ``np.unique`` of the fused
    key ``u·span + v`` (``span = max v + 1``; vertex ids fit int32, so the
    key fits int64), split back by ``divmod``.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size:
        edges = edges[edges[:, 0] != edges[:, 1]]
    if edges.size == 0:
        return edges.reshape(0, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    span = int(hi.max()) + 1
    return np.column_stack(np.divmod(np.unique(lo * span + hi), span))
