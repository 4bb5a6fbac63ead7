"""The CSR graph kernel.

Every algorithm in this library operates on :class:`CSRGraph`, an undirected
weighted graph stored in the compressed-sparse-row layout that METIS (and
essentially every serious partitioner since) uses:

``xadj``
    ``int64`` array of length ``n + 1``; the adjacency list of vertex ``v``
    occupies ``adjncy[xadj[v]:xadj[v+1]]``.
``adjncy``
    ``int32`` array of length ``2m`` (each undirected edge appears twice,
    once per endpoint).
``adjwgt``
    ``int64`` array parallel to ``adjncy`` with the edge weights.  The two
    copies of an undirected edge carry equal weight.
``vwgt``
    ``int64`` array of length ``n`` with the vertex weights.

Weights are integral, as in the paper: coarsening sums weights, so starting
from unit weights every intermediate weight is an integer, and integer
arithmetic keeps edge-cut comparisons exact.

The class is deliberately a thin, immutable-by-convention record: algorithms
read the arrays directly (that is the fast path in NumPy) rather than going
through per-vertex accessor calls.
"""

from __future__ import annotations

import numpy as np

from repro.graph.validate import checked_cast, validate_graph
from repro.utils.errors import GraphValidationError

INDEX_DTYPE = np.int32
WEIGHT_DTYPE = np.int64


def _cast(values, name, dtype):
    return np.ascontiguousarray(values, dtype=dtype)


class CSRGraph:
    """An undirected weighted graph in CSR form.

    Parameters
    ----------
    xadj, adjncy, adjwgt, vwgt:
        CSR arrays as described in the module docstring.  ``adjwgt`` and
        ``vwgt`` may be ``None``, meaning unit weights.
    validate:
        When true (the default) each array is checked before it is cast to
        its storage dtype (integer dtype, values in range; see
        :func:`~repro.graph.validate.checked_cast`) and the graph for
        structural consistency (symmetry, no self-loops, weight
        positivity).  Internal callers that construct graphs they know to
        be valid (e.g. the contraction kernel) pass ``False`` to skip the
        O(m log m) check.
    """

    __slots__ = ("xadj", "adjncy", "adjwgt", "vwgt", "_coords", "_degrees", "_src")

    def __init__(self, xadj, adjncy, adjwgt=None, vwgt=None, *, validate=True):
        cast = checked_cast if validate else _cast
        xadj = cast(xadj, "xadj", np.int64)
        adjncy = cast(adjncy, "adjncy", INDEX_DTYPE)
        n = len(xadj) - 1
        if adjwgt is None:
            adjwgt = np.ones(len(adjncy), dtype=WEIGHT_DTYPE)
        else:
            adjwgt = cast(adjwgt, "adjwgt", WEIGHT_DTYPE)
        if vwgt is None:
            vwgt = np.ones(n, dtype=WEIGHT_DTYPE)
        else:
            vwgt = cast(vwgt, "vwgt", WEIGHT_DTYPE)
        self.xadj = xadj
        self.adjncy = adjncy
        self.adjwgt = adjwgt
        self.vwgt = vwgt
        self._coords = None  # optional vertex coordinates (geometric methods)
        self._degrees = None  # cached np.diff(xadj); see degrees()
        self._src = None  # cached edge-source expansion; see edge_sources()
        if validate:
            validate_graph(self)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nvtxs(self) -> int:
        """Number of vertices ``n``."""
        return len(self.xadj) - 1

    @property
    def nedges(self) -> int:
        """Number of undirected edges ``m`` (half the adjacency length)."""
        return len(self.adjncy) // 2

    @property
    def coords(self):
        """Optional ``(n, d)`` float array of vertex coordinates, or ``None``.

        Mesh generators attach coordinates so geometric partitioners can be
        compared on the same graphs; purely combinatorial inputs leave this
        unset, mirroring the paper's point that geometric methods have
        limited applicability.
        """
        return self._coords

    @coords.setter
    def coords(self, value) -> None:
        if value is not None:
            value = np.asarray(value, dtype=np.float64)
            if value.ndim != 2 or value.shape[0] != self.nvtxs:
                raise GraphValidationError(
                    f"coords must be (nvtxs, d); got shape {value.shape} "
                    f"for a graph with {self.nvtxs} vertices"
                )
        self._coords = value

    def degree(self, v: int) -> int:
        """Number of neighbours of vertex ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def degrees(self) -> np.ndarray:
        """All vertex degrees as an int64 array (cached; do not mutate).

        Built once per graph: CSR arrays are immutable by convention
        (lint rule RP002), so the derived array can never go stale.
        """
        if self._degrees is None:
            self._degrees = np.diff(self.xadj)
        return self._degrees

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every directed adjacency entry (cached).

        ``edge_sources()[e]`` is the vertex whose adjacency list holds slot
        ``e``, i.e. the CSR expansion ``np.repeat(arange(n), degrees)``.
        Hot paths (gain seeding, cut evaluation, contraction) index this
        array instead of rebuilding the O(m) expansion per call.  Treat as
        read-only, like the CSR arrays themselves.
        """
        if self._src is None:
            self._src = np.repeat(
                np.arange(self.nvtxs, dtype=np.int64), self.degrees()
            )
        return self._src

    def neighbors(self, v: int) -> np.ndarray:
        """View of vertex ``v``'s adjacency list (do not mutate)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """View of the edge weights parallel to :meth:`neighbors`."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def total_vwgt(self) -> int:
        """Sum of all vertex weights."""
        return int(self.vwgt.sum())

    def total_adjwgt(self) -> int:
        """Sum of all undirected edge weights, i.e. ``W(E)`` in the paper."""
        return int(self.adjwgt.sum()) // 2

    def average_degree(self) -> float:
        """Mean vertex degree (0.0 for an empty graph)."""
        return 2.0 * self.nedges / self.nvtxs if self.nvtxs else 0.0

    # ------------------------------------------------------------------
    # queries used by tests and examples
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` is present."""
        return bool(np.any(self.neighbors(u) == v))

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge ``(u, v)``; 0 if absent."""
        nbrs = self.neighbors(u)
        hits = np.flatnonzero(nbrs == v)
        if len(hits) == 0:
            return 0
        return int(self.neighbor_weights(u)[hits[0]])

    def edges(self):
        """Iterate over undirected edges as ``(u, v, w)`` with ``u < v``."""
        for u in range(self.nvtxs):
            nbrs = self.neighbors(u)
            wgts = self.neighbor_weights(u)
            for v, w in zip(nbrs, wgts):
                if u < v:
                    yield int(u), int(v), int(w)

    def edge_array(self):
        """All undirected edges as ``(E, 3)`` int64 array of (u, v, w), u < v.

        Vectorised counterpart of :meth:`edges`; used by writers and tests.
        """
        src = self.edge_sources()
        dst = self.adjncy.astype(np.int64)
        mask = src < dst
        out = np.column_stack([src[mask], dst[mask], self.adjwgt[mask]])
        return out

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(nvtxs={self.nvtxs}, nedges={self.nedges}, "
            f"total_vwgt={self.total_vwgt()}, total_adjwgt={self.total_adjwgt()})"
        )

    def __eq__(self, other) -> bool:
        """Structural equality (same arrays); coordinates are ignored."""
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.xadj, other.xadj)
            and np.array_equal(self.adjncy, other.adjncy)
            and np.array_equal(self.adjwgt, other.adjwgt)
            and np.array_equal(self.vwgt, other.vwgt)
        )

    def __hash__(self):  # graphs are mutable containers; keep them unhashable
        raise TypeError("CSRGraph is not hashable")

    def copy(self) -> "CSRGraph":
        """Deep copy of all arrays (coordinates included)."""
        g = CSRGraph(
            self.xadj.copy(),
            self.adjncy.copy(),
            self.adjwgt.copy(),
            self.vwgt.copy(),
            validate=False,
        )
        if self._coords is not None:
            g.coords = self._coords.copy()
        return g

    # ------------------------------------------------------------------
    # canonical ordering
    # ------------------------------------------------------------------
    def sorted_adjacency(self) -> "CSRGraph":
        """Return a copy whose per-vertex adjacency lists are sorted by id.

        Algorithms do not require sorted lists, but canonical ordering makes
        graph equality well-defined, which the tests rely on.
        """
        xadj = self.xadj
        adjncy = self.adjncy.copy()
        adjwgt = self.adjwgt.copy()
        for v in range(self.nvtxs):
            s, e = xadj[v], xadj[v + 1]
            order = np.argsort(adjncy[s:e], kind="stable")
            adjncy[s:e] = adjncy[s:e][order]
            adjwgt[s:e] = adjwgt[s:e][order]
        g = CSRGraph(xadj.copy(), adjncy, adjwgt, self.vwgt.copy(), validate=False)
        g.coords = None if self._coords is None else self._coords.copy()
        return g
