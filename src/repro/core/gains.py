"""Gain bookkeeping for KL/FM refinement.

For a bisection, each vertex ``v`` has an *external degree* ``ed[v]`` (total
weight of its cut edges) and an *internal degree* ``id[v]`` (total weight of
its uncut edges).  The **gain** of moving ``v`` to the other side is
``ed[v] − id[v]``; the edge-cut after the move drops by exactly that amount.
A vertex is on the **boundary** iff ``ed[v] > 0``.  Since ``ed[v] + id[v]``
is ``v``'s weighted degree under any bisection, the FM pass stores ``ed``
alone and reads the gain as ``2·ed[v] − wdeg[v]``.

The paper stores gains "in a hash table that allows insertions, updates, and
extraction of the vertex with maximum gain in constant time".  The FM pass
(:func:`repro.core.refine.fm_pass`) keeps its default container, a lazy
binary heap whose stale entries are skipped when they reach the top, inside
its own move loop; :class:`BucketGainTable` is the classical FM bucket
array, selected with ``MultilevelOptions.gain_table = "bucket"``.
"""
from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigurationError


def external_degrees(graph, where):
    """Vectorised external-degree array ``ed`` for the bisection ``where``.

    O(m); called once per refinement pass, after which the pass maintains
    the array incrementally as vertices move.  ``ed`` is one row sum of
    the cut edges' weights (:meth:`~repro.graph.csr.CSRGraph.row_sums`, a
    prefix-sum difference, exact in int64).
    """
    where = np.asarray(where)
    cross = where[graph.edge_sources()] != np.take(where, graph.adjncy)
    return graph.row_sums(graph.adjwgt * cross)


def external_internal_degrees(graph, where):
    """Fresh ``(ed, id)`` arrays for the bisection ``where``.

    ``id = wdeg − ed`` with the graph's cached
    :meth:`~repro.graph.csr.CSRGraph.weighted_degrees` — built once per
    graph, like the source expansion the cut test indexes.
    """
    ed = external_degrees(graph, where)
    return ed, graph.weighted_degrees() - ed


class BucketGainTable:
    """The classical FM bucket array, as an alternative to the heap.

    Fiduccia–Mattheyses' original structure: an array of buckets indexed
    by gain (offset by the maximum possible |gain|, which is bounded by
    the maximum weighted degree), a moving max-gain pointer, and O(1)
    insert/update/remove.  Each bucket is an insertion-ordered ``dict``
    used as a linked set; pops are LIFO within a bucket, FM's classic
    tie-breaking (most-recently-touched vertex moves first).

    Selected via ``MultilevelOptions.gain_table = "bucket"`` as the
    alternative to the FM pass's lazy heap.  Worthwhile when gains
    span a small range (unit-weight graphs); the heap wins when weights
    make the gain range huge and sparse.
    """

    __slots__ = ("_offset", "_buckets", "_gain", "_maxptr")

    def __init__(self, max_abs_gain: int) -> None:
        if max_abs_gain < 0:
            raise ConfigurationError("max_abs_gain must be non-negative")
        self._offset = int(max_abs_gain)
        self._buckets: list[dict] = [dict() for _ in range(2 * self._offset + 1)]
        self._gain: dict[int, int] = {}
        self._maxptr = -1  # index of highest non-empty bucket, or -1

    def _index(self, gain: int) -> int:
        idx = gain + self._offset
        if not (0 <= idx < len(self._buckets)):
            raise ConfigurationError(
                f"gain {gain} outside the declared range ±{self._offset}"
            )
        return idx

    def push(self, v: int, gain: int) -> None:
        """Insert ``v`` with ``gain`` (replacing any previous entry)."""
        old = self._gain.get(v)
        if old is not None:
            del self._buckets[old + self._offset][v]
        idx = self._index(gain)
        self._buckets[idx][v] = None
        self._gain[v] = gain
        if idx > self._maxptr:
            self._maxptr = idx

    update = push

    def remove(self, v: int) -> None:
        """Remove ``v`` (no-op if absent)."""
        old = self._gain.pop(v, None)
        if old is not None:
            del self._buckets[old + self._offset][v]

    def __contains__(self, v: int) -> bool:
        return v in self._gain

    def __len__(self) -> int:
        return len(self._gain)

    def _settle_maxptr(self):
        while self._maxptr >= 0 and not self._buckets[self._maxptr]:
            self._maxptr -= 1

    def pop_best(self):
        """Remove and return ``(v, gain)`` with maximal gain, or ``None``."""
        self._settle_maxptr()
        if self._maxptr < 0:
            return None
        bucket = self._buckets[self._maxptr]
        v, _ = bucket.popitem()  # LIFO
        gain = self._maxptr - self._offset
        del self._gain[v]
        return v, gain

    def peek_best_gain(self):
        """Best gain without removal, or ``None`` when empty."""
        self._settle_maxptr()
        if self._maxptr < 0:
            return None
        return self._maxptr - self._offset

    def bulk_load(self, vertices, gains) -> None:
        """Seed many (vertex, gain) pairs (no empty-table requirement)."""
        for v, g in zip(vertices, gains):
            self.push(int(v), int(g))
