"""Structured tracing for the multilevel pipeline.

The paper's entire evaluation is per-phase accounting — CTime/ITime/RTime/
PTime splits, per-level cut trajectories, per-pass FM behaviour — and this
module is the layer that makes those quantities observable on any run, not
just inside a benchmark.  A :class:`Tracer` records three things:

* **spans** — nested, timed regions opened with ``with trc.span(name):``.
  The pipeline opens one span per phase entry (coarsen/initial/refine/
  project), tagged with the phase key its wall-clock is accounted under,
  so span totals reconcile with ``result.timers``.
* **events** — point-in-time records attached to the innermost open span:
  one per coarsening level (|V|, |E|, matched fraction, heavy-edge share),
  one per FM pass (moves, rejections, undo depth, boundary size), one per
  accepted initial partition, and one per event of the run's
  :class:`~repro.resilience.report.ResilienceReport`, which writes them.
* **counters** — monotonically accumulated totals, emitted once when the
  tracer closes.

Activation mirrors :mod:`repro.resilience.faults`: the ``REPRO_TRACE``
environment variable (a file path, or ``-`` for stdout) or
``MultilevelOptions.trace``; :func:`tracer_from` returns a falsy null
object when neither is set.  Disabled call sites guard with ``if trc:`` /
``if span:`` so the happy path stays bit-identical — tracing never touches
the RNG — and the FM move loop itself contains **no** tracer calls at all
(events are per pass, never per move), which is the overhead guarantee
``docs/OBSERVABILITY.md`` documents and the test suite enforces.

Records are written as JSONL with a versioned schema; see
:mod:`repro.obs.schema` for the exact shapes and
:mod:`repro.obs.export` for readers and the profile aggregation behind
``repro trace``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone

from repro.obs.schema import SCHEMA_VERSION

__all__ = [
    "ENV_VAR",
    "Span",
    "Tracer",
    "NullSpan",
    "NullTracer",
    "NULL",
    "NULL_SPAN",
    "trace_target",
    "tracer_from",
    "open_tracer",
]

#: Environment variable holding the ambient trace target (path or ``-``).
ENV_VAR = "REPRO_TRACE"


def _jsonable(value):
    """Coerce numpy scalars (and anything else odd) to JSON-safe values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class Span:
    """One open (or finished) timed region; yielded by :meth:`Tracer.span`.

    Truthy, so workers handed a span can guard per-pass instrumentation
    with ``if span:`` exactly like the tracer itself.
    """

    __slots__ = ("tracer", "id", "parent", "name", "t0", "fields")

    def __init__(self, tracer, span_id, parent, name, t0, fields):
        self.tracer = tracer
        self.id = span_id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.fields = fields

    def __bool__(self) -> bool:
        return True

    def set(self, **fields) -> None:
        """Attach extra fields to the span record (emitted at exit)."""
        self.fields.update(fields)

    def event(self, name: str, **fields) -> None:
        """Emit an event attached to this span."""
        self.tracer._emit_event(self.id, name, fields)

    def counter(self, name: str, inc=1) -> None:
        """Accumulate into the owning tracer's counters."""
        self.tracer.counter(name, inc)

    def child(self, name: str, **fields):
        """Open a nested kernel span (context manager) under this span.

        Lets pipeline code holding only a phase span time an inner kernel
        (``coarsen.match``, ``kway.branch``) without being handed the
        tracer itself; the returned context manager must be entered, same
        as ``Tracer.span``.
        """
        owner = self.tracer
        return owner.span(name, **fields)

    def record(self, name: str, dur: float, **fields) -> None:
        """Emit a pre-timed child span under this span.

        For work whose wall-clock was measured elsewhere — a branch that
        ran in a pool worker reports its phase-timer totals back, and the
        parent records them here as synthetic spans (``worker.phase``,
        tagged with the phase key) so traced ``workers=N`` runs still
        reconcile span totals against ``result.timers``.
        """
        self.tracer.record_span(name, dur, parent=self.id, **fields)


class Tracer:
    """Span/event/counter recorder writing JSONL records to a sink.

    One tracer spans one driver entry (``bisect``, ``partition``, an
    ordering, a benchmark); recursive drivers thread a single tracer
    through so the whole run forms one span tree.  Not thread-safe — the
    pipeline is single-threaded by design.
    """

    enabled = True

    def __init__(self, sink, *, run: str = "run", owns_sink: bool = False,
                 meta=None):
        self._sink = sink
        self._owns_sink = owns_sink
        self._epoch = time.perf_counter()
        self._next_id = 0
        self._stack: list[Span] = []
        self._closed = False
        #: name → accumulated value; emitted as one record at close.
        self.counters: dict[str, float] = {}
        self.run = run
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "t": "meta",
                "run": run,
                "time": datetime.now(timezone.utc).isoformat(),
                "fields": _jsonable(dict(meta or {})),
            }
        )

    def __bool__(self) -> bool:
        return True

    # -- low-level emission -------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _emit(self, record: dict) -> None:
        if self._closed:
            return
        self._sink.write(json.dumps(record, separators=(",", ":")) + "\n")

    def _emit_event(self, span_id, name, fields) -> None:
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "t": "event",
                "name": name,
                "span": span_id,
                "at": self._now(),
                "fields": _jsonable(fields),
            }
        )

    # -- public API ----------------------------------------------------

    @contextmanager
    def span(self, name: str, **fields):
        """Open a nested span; the record is emitted when the block exits."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1].id if self._stack else None
        sp = Span(self, span_id, parent, name, self._now(), fields)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            self._emit(
                {
                    "v": SCHEMA_VERSION,
                    "t": "span",
                    "id": sp.id,
                    "parent": sp.parent,
                    "name": sp.name,
                    "t0": sp.t0,
                    "dur": self._now() - sp.t0,
                    "fields": _jsonable(sp.fields),
                }
            )

    def event(self, name: str, **fields) -> None:
        """Emit an event attached to the innermost open span (if any)."""
        parent = self._stack[-1].id if self._stack else None
        self._emit_event(parent, name, fields)

    def record_span(self, name: str, dur: float, *, parent=None, **fields):
        """Emit a finished span whose duration was measured elsewhere.

        The record is stamped as ending *now* (``t0 = now - dur``), under
        ``parent`` (default: the innermost open span).  Used to splice
        worker-measured branch timings into the parent's span tree.
        """
        span_id = self._next_id
        self._next_id += 1
        if parent is None and self._stack:
            parent = self._stack[-1].id
        now = self._now()
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "t": "span",
                "id": span_id,
                "parent": parent,
                "name": name,
                "t0": max(0.0, now - dur),
                "dur": dur,
                "fields": _jsonable(fields),
            }
        )

    def counter(self, name: str, inc=1) -> None:
        """Accumulate ``inc`` into counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + inc

    def close(self) -> None:
        """Emit the counters record and release the sink.  Idempotent."""
        if self._closed:
            return
        if self.counters:
            self._emit(
                {
                    "v": SCHEMA_VERSION,
                    "t": "counters",
                    "values": {k: _jsonable(v) for k, v in self.counters.items()},
                }
            )
        try:
            self._sink.flush()
        finally:
            if self._owns_sink:
                self._sink.close()
            self._closed = True


class NullSpan:
    """Falsy no-op span handed out by :class:`NullTracer`.

    Workers guard with ``if span:``, so the disabled path never calls any
    of these; they exist so an unguarded call is still harmless.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **fields) -> None:
        pass

    def event(self, name: str, **fields) -> None:
        pass

    def counter(self, name: str, inc=1) -> None:
        pass

    def child(self, name: str, **fields) -> "NullSpan":
        return self

    def record(self, name: str, dur: float, **fields) -> None:
        pass


#: Shared null span: also what ``NULL.span(...)`` returns, so phase
#: boundaries can write ``with trc.span(...) as sp:`` unconditionally.
NULL_SPAN = NullSpan()


class NullTracer:
    """Falsy stand-in used when tracing is disabled.

    Mirrors :class:`Tracer`'s surface; ``span`` returns the shared
    :data:`NULL_SPAN` (usable directly as a context manager, no allocation
    beyond the call itself), everything else is a no-op.
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    def span(self, name: str, **fields):
        return NULL_SPAN

    def event(self, name: str, **fields) -> None:
        pass

    def record_span(self, name: str, dur: float, *, parent=None, **fields):
        pass

    def counter(self, name: str, inc=1) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared null singleton handed out by :func:`tracer_from` when off.
NULL = NullTracer()


def trace_target(options=None) -> str | None:
    """The configured trace target: ``options.trace`` else ``REPRO_TRACE``.

    Returns a path, ``-`` for stdout, or ``None`` when tracing is off.
    """
    target = getattr(options, "trace", None) if options is not None else None
    if target is None:
        target = os.environ.get(ENV_VAR, "").strip() or None
    return target


def open_tracer(target: str, *, run: str = "run", **meta) -> Tracer:
    """Open a :class:`Tracer` writing to ``target`` (path, or ``-``).

    File targets are opened in append mode so successive runs accumulate
    in one trace, each delimited by its own ``meta`` record.
    """
    if target == "-":
        return Tracer(sys.stdout, run=run, owns_sink=False, meta=meta)
    return Tracer(
        open(target, "a", encoding="utf-8"), run=run, owns_sink=True, meta=meta
    )


def tracer_from(options=None, *, run: str = "run", **meta):
    """Build the tracer selected by ``options`` and the environment.

    Returns the falsy :data:`NULL` singleton when neither
    ``options.trace`` nor ``REPRO_TRACE`` requests tracing, so disabled
    call sites perform no framework calls at all.
    """
    target = trace_target(options)
    if not target:
        return NULL
    return open_tracer(target, run=run, **meta)
