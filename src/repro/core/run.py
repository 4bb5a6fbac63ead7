"""One driver call's run state, opened once and threaded down as ``run=``.

Each public driver entry (``bisect``, k-way ``partition``,
``partition_refined``, ``refine_kway``, MSB, Chaco-ML, the orderings)
joins the :class:`Run` its caller passes or opens one from its options.
The run's report, fault injector, deadline guard (armed with the run's
:class:`~repro.utils.timing.PhaseTimer`), tracer, sanitizer and kernels
then span the whole call — every bisection of a k-way recursion or a
dissection included, whichever bisector makes it.  The phase functions
(``coarsen``, ``initial_bisection``, ``refine_bisection``) take it too.

Each fact is recorded by one call: :meth:`Run.phase` times a phase and
traces it, and the run's report writes every degradation it records to
the trace as well.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

from repro.analysis.sanitize import sanitizer
from repro.kernels import KernelSelection, resolve_kernels
from repro.obs.tracer import NULL as NULL_TRACER
from repro.obs.tracer import tracer_from
from repro.resilience.deadline import DeadlineGuard
from repro.resilience.faults import NULL as NULL_FAULTS
from repro.resilience.faults import fault_injector
from repro.resilience.report import ResilienceReport
from repro.utils.timing import PhaseTimer

__all__ = ["Run"]


@dataclass(frozen=True, eq=False)
class Run:
    """The state one driver call shares with every phase it runs.

    ``guard`` is ``None`` without a deadline; the null tracer, injector
    and sanitizer are falsy when off.  Leaving a ``with`` block on the
    run closes ``tracer`` when the run opened it (``owns_tracer``).
    """

    options: object
    timers: PhaseTimer
    report: ResilienceReport
    faults: object
    guard: DeadlineGuard | None
    tracer: object
    sanitizer: object
    kernels: KernelSelection
    owns_tracer: bool = False

    @classmethod
    def open(cls, options, name="run", *, tracer=None, timers=None, **meta):
        """Open the run of one driver call.

        A given ``tracer`` is shared and stays open; by default the one
        ``options.trace`` / ``REPRO_TRACE`` selects is opened, its meta
        record naming ``name`` with ``meta``.  The deadline guard reports
        from ``timers`` (a fresh :class:`PhaseTimer` by default).
        """
        timers = PhaseTimer() if timers is None else timers
        guard = None
        if options.deadline is not None:
            guard = DeadlineGuard(options.deadline, timer=timers)
        owns = tracer is None
        if owns:
            tracer = tracer_from(options, run=name, **meta)
        return cls(
            options=options,
            timers=timers,
            report=ResilienceReport(tracer),
            faults=fault_injector(options),
            guard=guard,
            tracer=tracer,
            sanitizer=sanitizer(options),
            kernels=resolve_kernels(options),
            owns_tracer=owns and bool(tracer),
        )

    @classmethod
    def branch(cls, options, guard=None):
        """The run of one recursion branch handed to the supervisor, or of
        a phase function called without a run.

        Tracing and fault injection are off (the parent owns the trace
        and splices worker timings and events back; a pool only runs
        branches whose faults are the parent's ``worker_*`` sites), and
        the only guard is the given one: ``None`` in a pool worker, whose
        time the parent bounds, and the remaining budget in the
        supervisor's in-process sequential fallback.
        """
        return cls(
            options=options,
            timers=PhaseTimer(),
            report=ResilienceReport(),
            faults=NULL_FAULTS,
            guard=guard,
            tracer=NULL_TRACER,
            sanitizer=sanitizer(options),
            kernels=resolve_kernels(options),
        )

    @classmethod
    def entry(cls, run, options, name, *, timers=None, **kwargs):
        """``with`` target: the caller's ``run``, its phases timed into
        ``timers`` when given, else a new one (``timers`` and ``kwargs``
        go to :meth:`open`) closed when the block exits."""
        if run is None:
            return cls.open(options, name, timers=timers, **kwargs)
        return nullcontext(run if timers is None else replace(run, timers=timers))

    @contextmanager
    def phase(self, key, name, **fields):
        """Time the block under ``key`` in :attr:`timers` and trace it as
        span ``name`` tagged ``phase=key``; yields the span (falsy when
        tracing is off)."""
        with self.timers.phase(key), self.tracer.span(
            name, phase=key, **fields
        ) as span:
            yield span

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, *exc) -> None:
        if self.owns_tracer:
            self.tracer.close()
