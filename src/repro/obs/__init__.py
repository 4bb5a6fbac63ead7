"""repro.obs — structured tracing and metrics for the multilevel pipeline.

See ``docs/OBSERVABILITY.md`` for the full story.  In one paragraph: a
:class:`~repro.obs.tracer.Tracer` (enabled by ``REPRO_TRACE=<path|->`` or
``MultilevelOptions.trace``) records nested phase spans, per-level
coarsening events, per-pass FM events and initial-partition attempt
events as schema-versioned JSONL (:mod:`repro.obs.schema`); the readers
and the ``BENCH_*.json`` benchmark export live in
:mod:`repro.obs.export`.  When disabled, :func:`~repro.obs.tracer.tracer_from`
returns a falsy null object — mirroring :mod:`repro.resilience.faults` —
so results are bit-identical and the FM hot loop carries zero overhead.
"""

from repro.obs.export import (
    BENCH_SCHEMA,
    SPAN_PHASES,
    bench_env,
    bench_payload,
    format_profile,
    profile,
    read_trace,
    write_bench_json,
)
from repro.obs.schema import (
    PHASE_KEYS,
    RECORD_KINDS,
    SCHEMA_VERSION,
    SERVICE_EVENT_PREFIX,
    WORKER_EVENT_PREFIX,
    validate_record,
    validate_trace_lines,
)
from repro.obs.tracer import (
    ENV_VAR,
    NULL,
    NULL_SPAN,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    open_tracer,
    trace_target,
    tracer_from,
)

__all__ = [
    "Tracer",
    "Span",
    "NullTracer",
    "NullSpan",
    "NULL",
    "NULL_SPAN",
    "ENV_VAR",
    "trace_target",
    "tracer_from",
    "open_tracer",
    "SCHEMA_VERSION",
    "RECORD_KINDS",
    "PHASE_KEYS",
    "WORKER_EVENT_PREFIX",
    "SERVICE_EVENT_PREFIX",
    "validate_record",
    "validate_trace_lines",
    "read_trace",
    "profile",
    "format_profile",
    "SPAN_PHASES",
    "BENCH_SCHEMA",
    "bench_env",
    "bench_payload",
    "write_bench_json",
]
