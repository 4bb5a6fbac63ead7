"""Wall-clock deadline guard for deadline-bounded partitioning.

A production partitioner serving interactive traffic must bound its
latency: a request is better served by a slightly worse cut than by a
perfect cut that arrives late (Sanders & Schulz engineer the same
time-quality dial into KaHIP).  :class:`DeadlineGuard` is the repo's
mechanism: the multilevel driver consults it at phase boundaries, degrades
refinement (BKLR → BGR) once the remaining budget falls under
``degrade_fraction`` of the deadline, and raises
:class:`~repro.utils.errors.DeadlineExceededError` — carrying the best
bisection found so far — once the budget is gone.

The guard shares :class:`~repro.utils.timing.PhaseTimer`'s clock
(``time.perf_counter``) and can be handed the driver's timer so the raised
error explains *where* the time went (the per-phase breakdown of the run
that overran).  The ``clock`` parameter exists for deterministic tests.
"""

from __future__ import annotations

import time

from repro.utils.errors import ConfigurationError, DeadlineExceededError

__all__ = ["DeadlineGuard"]


class DeadlineGuard:
    """Tracks one run's wall-clock budget.

    Parameters
    ----------
    deadline:
        Budget in seconds (> 0).
    degrade_fraction:
        Once ``remaining() <= degrade_fraction * deadline`` the driver
        should switch to its cheapest refinement variant; exposed as
        :meth:`nearing`.
    timer:
        Optional :class:`~repro.utils.timing.PhaseTimer` of the guarded
        run; its per-phase totals are included in the error detail.
    clock:
        Monotonic time source (default ``time.perf_counter``); injectable
        so tests can drive the guard deterministically.
    """

    def __init__(
        self,
        deadline: float,
        *,
        degrade_fraction: float = 0.25,
        timer=None,
        clock=time.perf_counter,
    ) -> None:
        if deadline is None or not deadline > 0:
            raise ConfigurationError(f"deadline must be > 0 seconds, got {deadline}")
        if not (0.0 <= degrade_fraction <= 1.0):
            raise ConfigurationError("degrade_fraction must be in [0, 1]")
        self.deadline = float(deadline)
        self.degrade_fraction = float(degrade_fraction)
        self.timer = timer
        self._clock = clock
        self._start = clock()
        self._forced = False

    def elapsed(self) -> float:
        """Seconds since the guard was armed."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds of budget left (0.0 once expired; never negative)."""
        if self._forced:
            return 0.0
        return max(0.0, self.deadline - self.elapsed())

    def expired(self) -> bool:
        """Whether the budget is exhausted."""
        return self._forced or self.elapsed() >= self.deadline

    def nearing(self) -> bool:
        """Whether the run entered the degradation window near the deadline."""
        return self.remaining() <= self.degrade_fraction * self.deadline

    def force_expire(self) -> None:
        """Expire the guard immediately (used by the ``deadline`` fault site)."""
        self._forced = True

    def check(self, *, phase, level=None, best=None, report=None) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is exhausted.

        ``best`` (a finest-graph bisection or ``None``) and ``report`` are
        attached to the error so the caller can degrade instead of failing.
        """
        if not self.expired():
            return
        elapsed = self.elapsed()
        detail = f"wall-clock deadline exceeded in phase {phase!r}"
        if self.timer is not None:
            spent = ", ".join(
                f"{name}={secs:.3f}s" for name, secs in sorted(self.timer.totals().items())
            )
            if spent:
                detail += f" (phase breakdown: {spent})"
        if report is not None:
            report.record(
                "deadline", phase, detail, level=level,
                deadline=self.deadline, elapsed=elapsed,
            )
        raise DeadlineExceededError(
            detail,
            deadline=self.deadline,
            elapsed=elapsed,
            phase=phase,
            level=level,
            best=best,
            report=report,
        )
