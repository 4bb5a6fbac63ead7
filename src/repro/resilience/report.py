"""The ResilienceReport: an audit trail of every fallback that fired.

Graceful degradation is only trustworthy when it is *visible*: a pipeline
that silently swaps SBP for GGGP, retries a bad initial partition, or cuts
refinement short under deadline pressure produces results whose provenance
the caller can no longer explain.  Every degradation path in
:mod:`repro.core` and :mod:`repro.ordering` therefore records a
:class:`ResilienceEvent` here (lint rule ``RP009`` enforces this for
``except ReproError`` fallbacks), and the report rides on the result
object: ``MultilevelResult.resilience``, ``KWayPartition.resilience``,
``Ordering.meta["resilience"]``.

Event kinds
-----------
``fallback``
    An algorithm failed and a different one took over (SBP → GGGP,
    bisector → MMD in nested dissection).
``retry``
    A stochastic phase was re-run with a fresh seed after producing an
    invalid result.
``degradation``
    A cheaper variant was substituted under budget pressure (BKLR → BGR
    near the deadline, contiguous splits after deadline expiry).
``stall``
    Coarsening stopped early because matchings made no progress.
``deadline``
    The wall-clock deadline fired (paired with a
    :class:`~repro.utils.errors.DeadlineExceededError` in ``bisect``).

One call records a degradation in both channels: a report built with a
tracer (every traced :class:`~repro.core.run.Run` builds one) also emits
each recorded event as one trace event on the innermost open span, named
:attr:`ResilienceEvent.trace_name` and carrying the record's ``fields``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ResilienceEvent", "ResilienceReport", "EVENT_KINDS"]

#: The recognised event kinds, in the order documented above.
EVENT_KINDS = ("fallback", "retry", "degradation", "stall", "deadline")

#: Trace names that predate the one-call rule, by ``(phase, kind)``; every
#: other event is traced as ``<phase>.<kind>``.
_TRACE_NAMES = {
    ("ordering", "degradation"): "nd.degraded",
    ("ordering", "fallback"): "nd.fallback",
    ("worker", "degradation"): "worker.degrade",
}


@dataclass(frozen=True)
class ResilienceEvent:
    """One recorded fallback/retry/degradation.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    phase:
        Pipeline phase that degraded (``"coarsen"``, ``"initial"``,
        ``"refine"``, ``"kway"``, ``"dissect"``).
    detail:
        Human-readable description of what happened and what took over.
    level:
        Coarsening level / dissection depth, or ``None``.
    fields:
        The fields of the event's trace record.
    """

    kind: str
    phase: str
    detail: str
    level: int | None = None
    fields: dict = field(default_factory=dict, compare=False)

    @property
    def trace_name(self) -> str:
        """The name of the event's trace record."""
        return _TRACE_NAMES.get((self.phase, self.kind),
                                f"{self.phase}.{self.kind}")

    def __str__(self) -> str:
        at = f"{self.kind}/{self.phase}"
        if self.level is not None:
            at += f"@L{self.level}"
        return f"[{at}] {self.detail}"


class ResilienceReport:
    """Ordered collection of :class:`ResilienceEvent` records.

    Falsy while empty, so result consumers can guard with
    ``if result.resilience:``.  Reports are shared down recursive drivers
    (k-way recursion, nested dissection) so one report describes the whole
    run; :meth:`merge` folds an independently-collected report in.

    With a ``tracer`` every event recorded or merged here is also written
    to the trace.  The tracer never crosses a process boundary: a pickled
    report carries its events only.
    """

    def __init__(self, tracer=None) -> None:
        self.events: list[ResilienceEvent] = []
        self.tracer = tracer

    def __getstate__(self):
        return {**self.__dict__, "tracer": None}

    def record(self, kind: str, phase: str, detail: str, *, level=None,
               **fields):
        """Append an event and return it; a traced report also emits it
        as one trace event (``fields`` are that event's fields)."""
        event = ResilienceEvent(kind, phase, detail, level, fields)
        self.events.append(event)
        if self.tracer:
            self.tracer.event(event.trace_name, **fields)
        return event

    def count(self, kind=None, phase=None) -> int:
        """Number of events, optionally filtered by kind and/or phase."""
        return sum(
            1
            for e in self.events
            if (kind is None or e.kind == kind)
            and (phase is None or e.phase == phase)
        )

    def merge(self, other: "ResilienceReport") -> None:
        """Fold another report's events into this one (order preserved).

        ``other`` is an untraced report (a pool branch's), so a traced
        report emits the merged events here.
        """
        if other is not self:
            self.events.extend(other.events)
            if self.tracer:
                for event in other.events:
                    self.tracer.event(event.trace_name, **event.fields)

    def summary(self) -> str:
        """Multi-line human-readable rendering (empty string if no events)."""
        return "\n".join(str(e) for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResilienceReport({len(self.events)} events)"
