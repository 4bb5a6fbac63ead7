"""Connected components and subgraph extraction.

Recursive bisection and nested dissection repeatedly carve subgraphs out of
a parent graph; :func:`extract_subgraph` is the shared kernel for that, and
:func:`connected_components` supports both the generators (which guarantee
connected outputs) and the partitioners (GGP/GGGP need a starting vertex per
component).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def connected_components(graph) -> np.ndarray:
    """Label vertices by connected component.

    Returns an int32 array ``comp`` with ``comp[v]`` in ``[0, ncomp)``;
    component ids are assigned in order of discovery (lowest vertex id
    first), so the traversal order inside a component cannot change a
    label.  Iterative DFS over memoryviews — no recursion-depth hazards on
    path graphs, and no NumPy call per vertex.
    """
    n = graph.nvtxs
    xadj, adjncy = memoryview(graph.xadj), memoryview(graph.adjncy)
    comp = [-1] * n
    current = 0
    for root in range(n):
        if comp[root] != -1:
            continue
        comp[root] = current
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adjncy[xadj[v] : xadj[v + 1]]:
                if comp[u] == -1:
                    comp[u] = current
                    stack.append(u)
        current += 1
    return np.array(comp, dtype=np.int32)


def num_components(graph) -> int:
    """Number of connected components."""
    if graph.nvtxs == 0:
        return 0
    return int(connected_components(graph).max()) + 1


def is_connected(graph) -> bool:
    """True when the graph has exactly one connected component."""
    return num_components(graph) <= 1


def extract_subgraph(graph, vertices):
    """Induced subgraph on ``vertices``.

    Parameters
    ----------
    graph:
        The parent :class:`CSRGraph`.
    vertices:
        Array of vertex ids (need not be sorted; must be unique).

    Returns
    -------
    (sub, vmap):
        ``sub`` is the induced subgraph with vertices renumbered
        ``0..len(vertices)-1`` in the order given; ``vmap`` is the input
        array (so ``vmap[i]`` is the parent id of subgraph vertex ``i``).
        Edge and vertex weights are inherited; coordinates, if present, are
        sliced through.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    nsub = len(vertices)
    local = np.full(graph.nvtxs, -1, dtype=np.int64)
    local[vertices] = np.arange(nsub, dtype=np.int64)

    # One gather over the kept vertices' adjacency runs, in the given
    # order; ``row[s]`` is the subgraph vertex that owns gathered slot s.
    starts = graph.xadj[vertices]
    lens = graph.xadj[vertices + 1] - starts
    row = np.repeat(np.arange(nsub, dtype=np.int64), lens)
    slots = np.arange(len(row), dtype=np.int64) + np.repeat(
        starts - (np.cumsum(lens) - lens), lens
    )
    nbrs = local[graph.adjncy[slots]]
    keep = nbrs >= 0  # only in-subgraph targets survive
    sub_xadj = np.zeros(nsub + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[keep], minlength=nsub), out=sub_xadj[1:])
    sub = CSRGraph(
        sub_xadj,
        nbrs[keep],
        graph.adjwgt[slots[keep]],
        graph.vwgt[vertices],
        validate=False,
    )
    if graph.coords is not None:
        sub.coords = graph.coords[vertices]
    return sub, vertices


def largest_component(graph):
    """Induced subgraph on the largest connected component.

    Returns ``(sub, vmap)`` as in :func:`extract_subgraph`.  Generators use
    this to guarantee connected benchmark graphs, as the paper's matrices
    are (pattern-)connected.
    """
    comp = connected_components(graph)
    if graph.nvtxs == 0:
        return graph, np.empty(0, dtype=np.int64)
    sizes = np.bincount(comp)
    keep = np.flatnonzero(comp == sizes.argmax()).astype(np.int64)
    return extract_subgraph(graph, keep)
