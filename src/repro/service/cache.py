"""Content-addressed result cache for the partitioning service.

The paper's whole pitch is that multilevel schemes make partitioning cheap
enough to be a *routine* operation; operationally that only pays off when
a repeated request for a hot graph costs nothing.  This module provides
the two halves of that bargain:

* **content addressing** — :func:`graph_digest` hashes the canonical CSR
  arrays (``xadj``/``adjncy``/``adjwgt``/``vwgt`` bytes, each length-
  prefixed so array boundaries cannot alias), and :func:`request_key`
  folds in the request kind plus the stable options serialization from
  :func:`repro.core.options.cache_key_payload`.  Two requests share a key
  exactly when the library guarantees them bit-identical results;
* **bounded retention** — :class:`ResultCache` is an LRU with optional
  TTL.  Hits refresh recency; expired entries are dropped on access (and
  by :meth:`ResultCache.purge_expired`); inserting past capacity evicts
  the least-recently-used entry.  Hit/miss/eviction/expiration counters
  are kept for the ``/stats`` endpoint, and an optional ``on_event``
  callback lets the service surface each decision as a ``service.cache.*``
  trace event.

The cache is synchronous and lock-protected: the service only touches it
from the event-loop thread, but unit tests (and future embedders) may not.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict

import numpy as np

from repro.utils.errors import ConfigurationError

__all__ = ["graph_digest", "request_key", "where_digest", "ResultCache"]


def _update_array(digest, name: str, array) -> None:
    """Feed one CSR array into ``digest``, tagged and length-prefixed."""
    data = np.ascontiguousarray(array)
    digest.update(name.encode("ascii"))
    digest.update(str(data.dtype).encode("ascii"))
    digest.update(len(data.tobytes()).to_bytes(8, "little"))
    digest.update(data.tobytes())


def graph_digest(graph) -> str:
    """SHA-256 over the canonical CSR arrays of ``graph``.

    The four arrays are hashed in a fixed order with name, dtype and byte-
    length prefixes, so ``(xadj, adjncy)`` splits can never collide with
    different-shaped graphs that happen to share a byte stream.
    """
    digest = hashlib.sha256()
    _update_array(digest, "xadj", graph.xadj)
    _update_array(digest, "adjncy", graph.adjncy)
    _update_array(digest, "adjwgt", graph.adjwgt)
    _update_array(digest, "vwgt", graph.vwgt)
    return digest.hexdigest()


def request_key(kind: str, graph, payload: dict) -> str:
    """The content-addressed cache key of one service request.

    ``kind`` names the product (``"partition"`` / ``"order"``), ``graph``
    contributes its CSR digest, and ``payload`` is a JSON-able dict of
    everything else that determines the result bits — the options
    serialization plus request parameters (``nparts``, ``method``, …).
    """
    body = json.dumps(
        {"kind": kind, "graph": graph_digest(graph), "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def where_digest(where) -> str:
    """SHA-256 of a partition/permutation vector, for bit-identity checks."""
    data = np.ascontiguousarray(where)
    digest = hashlib.sha256()
    digest.update(str(data.dtype).encode("ascii"))
    digest.update(data.tobytes())
    return digest.hexdigest()


class ResultCache:
    """LRU + TTL cache mapping request keys to serialized results.

    Parameters
    ----------
    maxsize:
        Entry capacity; inserting past it evicts the least-recently-used
        entry.  ``0`` disables storage entirely (every ``get`` misses).
    ttl:
        Seconds an entry stays servable, or ``None`` for no expiry.
    clock:
        Monotonic time source, injectable for tests.
    on_event:
        Optional callback ``(name, **fields)`` invoked on every eviction
        and expiration (``"evict"`` / ``"expire"``), which the service
        forwards to the tracer as ``service.cache.*`` events.
    """

    def __init__(self, maxsize: int = 128, ttl: float | None = None, *,
                 clock=time.monotonic, on_event=None):
        if maxsize < 0:
            raise ConfigurationError("maxsize must be >= 0")
        if ttl is not None and ttl <= 0:
            raise ConfigurationError("ttl must be positive when set")
        self.maxsize = maxsize
        self.ttl = ttl
        self._clock = clock
        self._on_event = on_event
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[float, object]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def _notify(self, name: str, key: str) -> None:
        if self._on_event is not None:
            self._on_event(name, key=key)

    def get(self, key: str, *, count_miss: bool = True):
        """The cached value, or ``None`` on miss/expiry.  Refreshes LRU.

        ``count_miss=False`` leaves a miss out of the counters, for a probe
        whose caller goes on to a lookup that counts it.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stored_at, value = entry
                if self.ttl is not None and self._clock() - stored_at > self.ttl:
                    del self._entries[key]
                    self.expirations += 1
                    self._notify("expire", key)
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return value
            self.misses += count_miss
            return None

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``, evicting LRU entries past capacity."""
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = (self._clock(), value)
            while len(self._entries) > self.maxsize:
                victim, _ = self._entries.popitem(last=False)
                self.evictions += 1
                self._notify("evict", victim)

    def purge_expired(self) -> int:
        """Drop every expired entry; return how many were dropped."""
        if self.ttl is None:
            return 0
        dropped = 0
        with self._lock:
            now = self._clock()
            for key in [
                k for k, (t, _) in self._entries.items() if now - t > self.ttl
            ]:
                del self._entries[key]
                self.expirations += 1
                dropped += 1
                self._notify("expire", key)
        return dropped

    def clear(self) -> int:
        """Drop everything; return how many entries were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        return dropped

    def stats(self) -> dict:
        """Counters and occupancy, JSON-ready for the ``/stats`` endpoint."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "ttl": self.ttl,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
