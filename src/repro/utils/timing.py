"""Lightweight timing helpers used by the multilevel driver and benchmarks.

The paper reports per-phase times (CTime = coarsening, UTime = uncoarsening,
with UTime further split into ITime/RTime/PTime).  :class:`PhaseTimer`
accumulates named phase durations so the driver can report the same split.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class PhaseTimer:
    """Accumulates wall-clock time per named phase.

    Example
    -------
    >>> t = PhaseTimer()
    >>> with t.phase("coarsen"):
    ...     pass
    >>> t.total("coarsen") >= 0.0
    True
    """

    def __init__(self) -> None:
        self._totals: dict[str, float] = defaultdict(float)
        self._counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def phase(self, name: str):
        """Context manager that adds the block's duration to phase ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._totals[name] += time.perf_counter() - start
            self._counts[name] += 1

    def add(self, name: str, seconds: float) -> None:
        """Manually credit ``seconds`` to phase ``name``."""
        self._totals[name] += seconds
        self._counts[name] += 1

    def total(self, name: str) -> float:
        """Total seconds accumulated under ``name`` (0.0 if never seen)."""
        return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        """How many times phase ``name`` was entered."""
        return self._counts.get(name, 0)

    def totals(self) -> dict[str, float]:
        """A copy of all phase totals."""
        return dict(self._totals)

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's totals into this one (used by recursion)."""
        for name, secs in other._totals.items():
            self._totals[name] += secs
            self._counts[name] += other._counts[name]
