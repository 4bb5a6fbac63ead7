"""Gain bookkeeping for KL/FM refinement.

For a bisection, each vertex ``v`` has an *external degree* ``ed[v]`` (total
weight of its cut edges) and an *internal degree* ``id[v]`` (total weight of
its uncut edges).  The **gain** of moving ``v`` to the other side is
``ed[v] − id[v]``; the edge-cut after the move drops by exactly that amount.
A vertex is on the **boundary** iff ``ed[v] > 0``.

The paper stores gains "in a hash table that allows insertions, updates, and
extraction of the vertex with maximum gain in constant time".
:class:`GainTable` provides the same operations with a lazy binary heap:
stale entries are skipped at pop time, which keeps every operation O(log n)
amortised and — more importantly for Python — keeps the constant factors in
NumPy/heapq C code.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.utils.errors import ConfigurationError


def external_internal_degrees(graph, where):
    """Vectorised ``(ed, id)`` arrays for the bisection ``where``.

    O(m); called once per refinement pass, after which the pass maintains
    the arrays incrementally as vertices move.  ``ed`` is one row sum of
    the cut edges' weights (:meth:`~repro.graph.csr.CSRGraph.row_sums`, a
    prefix-sum difference, exact in int64), and ``id = wdeg − ed`` with
    the graph's cached
    :meth:`~repro.graph.csr.CSRGraph.weighted_degrees` — built once per
    graph, like the source expansion the cut test indexes.
    """
    where = np.asarray(where)
    cross = where[graph.edge_sources()] != np.take(where, graph.adjncy)
    ed = graph.row_sums(graph.adjwgt * cross)
    return ed, graph.weighted_degrees() - ed


class GainTable:
    """Max-priority queue over vertices keyed by gain, with lazy updates.

    ``push``/``update`` append a stamped heap entry; ``pop_best`` discards
    entries whose stamp no longer matches the vertex's latest.  ``remove``
    bumps the stamp so all of a vertex's entries become stale.  Ties in gain
    are broken by insertion order (earlier wins), making refinement
    deterministic for a fixed RNG stream.
    """

    __slots__ = ("_heap", "_stamp", "_live", "_counter")

    def __init__(self) -> None:
        self._heap: list = []
        self._stamp: dict[int, int] = {}
        self._live = 0
        self._counter = 0

    def push(self, v: int, gain: int) -> None:
        """Insert ``v`` with ``gain`` (replaces any previous entry)."""
        if v not in self._stamp:
            self._live += 1
        self._counter += 1
        self._stamp[v] = self._counter
        heapq.heappush(self._heap, (-gain, self._counter, v))

    # update is push with replace semantics; alias for readability at call sites
    update = push

    def bulk_load(self, vertices, gains) -> None:
        """Seed many (vertex, gain) pairs at once.

        ``heapify`` on a prebuilt list is O(k) in C, versus k × O(log k)
        Python-level pushes — this is how refinement passes seed their
        tables.  Only valid on an empty table (the refinement use case).
        """
        if self._heap:
            for v, g in zip(vertices, gains):
                self.push(int(v), int(g))
            return
        counter = self._counter
        heap = []
        stamp = self._stamp
        for v, g in zip(vertices, gains):
            counter += 1
            v = int(v)
            heap.append((-int(g), counter, v))
            stamp[v] = counter
        self._counter = counter
        heapq.heapify(heap)
        self._heap = heap
        self._live = len(stamp)

    def remove(self, v: int) -> None:
        """Invalidate all entries for ``v`` (no-op if absent)."""
        if v in self._stamp:
            del self._stamp[v]
            self._live -= 1

    def __contains__(self, v: int) -> bool:
        return v in self._stamp

    def __len__(self) -> int:
        """Number of live vertices in the table."""
        return self._live

    def pop_best(self):
        """Remove and return ``(v, gain)`` with maximal gain, or ``None``."""
        heap = self._heap
        stamp = self._stamp
        while heap:
            neg_gain, counter, v = heapq.heappop(heap)
            if stamp.get(v) == counter:
                del stamp[v]
                self._live -= 1
                return v, -neg_gain
        return None

    def peek_best_gain(self):
        """Best live gain without removal, or ``None`` when empty."""
        heap = self._heap
        stamp = self._stamp
        while heap:
            neg_gain, counter, v = heap[0]
            if stamp.get(v) == counter:
                return -neg_gain
            heapq.heappop(heap)
        return None


class BucketGainTable:
    """The classical FM bucket array, as an alternative to the heap.

    Fiduccia–Mattheyses' original structure: an array of buckets indexed
    by gain (offset by the maximum possible |gain|, which is bounded by
    the maximum weighted degree), a moving max-gain pointer, and O(1)
    insert/update/remove.  Each bucket is an insertion-ordered ``dict``
    used as a linked set; pops are LIFO within a bucket, FM's classic
    tie-breaking (most-recently-touched vertex moves first).

    Same interface as :class:`GainTable`; selected via
    ``MultilevelOptions.gain_table = "bucket"``.  Worthwhile when gains
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


def make_gain_tables(kind: str, graph, ed, id_):
    """Construct a pair of gain tables of the configured ``kind``.

    ``"heap"`` needs no bounds; ``"bucket"`` is sized to the maximum
    weighted degree, the hard bound on any |gain| during a pass.
    """
    if kind == "heap":
        return GainTable(), GainTable()
    if kind == "bucket":
        bound = int((ed + id_).max(initial=0))
        return BucketGainTable(bound), BucketGainTable(bound)
    raise ConfigurationError(f"unknown gain table kind {kind!r}; 'heap' or 'bucket'")
