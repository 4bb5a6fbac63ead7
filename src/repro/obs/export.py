"""Trace readers, the run-profile aggregation, and the bench JSON export.

Two consumers live here:

* ``repro trace FILE`` — :func:`read_trace` + :func:`profile` +
  :func:`format_profile` turn a JSONL trace into the per-phase /
  per-span / counter summary the CLI prints;
* the benchmark harness — :func:`bench_payload` +
  :func:`write_bench_json` persist every benchmark table as
  ``BENCH_<table>.json`` (machine-readable rows, environment, knobs),
  which is what starts the repository's performance trajectory.  The
  payload schema is versioned independently of the trace schema
  (:data:`BENCH_SCHEMA`).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone

from repro.obs.schema import (
    PHASE_KEYS,
    SERVICE_EVENT_PREFIX,
    WORKER_EVENT_PREFIX,
    validate_trace_lines,
)

__all__ = [
    "read_trace",
    "profile",
    "format_profile",
    "SPAN_PHASES",
    "BENCH_SCHEMA",
    "bench_env",
    "bench_payload",
    "write_bench_json",
]


def read_trace(path) -> list[dict]:
    """Read and schema-validate a JSONL trace file.

    Raises :class:`~repro.utils.errors.TraceError` on the first
    malformed record.
    """
    with open(path, encoding="utf-8") as fh:
        return validate_trace_lines(fh)


#: Phase affiliation for spans that carry no ``fields.phase`` tag.  Nested
#: kernel spans (``coarsen.match``, ``coarsen.contract``) are not tagged —
#: tagging them would double-count their wall-clock inside the already
#: phase-tagged parent span in ``phases`` — and driver-level recursion
#: spans (``partition`` / ``dissect`` / ``kway.branch``) enclose whole
#: subtrees.  The rollup buckets both kinds by this table instead of
#: dumping them in "other".
SPAN_PHASES = {
    "coarsen.match": "CTime",
    "coarsen.contract": "CTime",
    "kway-refine": "RTime",
    "kway.branch": "driver",
    "partition": "driver",
    "dissect": "driver",
    "worker.sequential": "worker",
}

#: Rollup bucket order: the paper's phase keys, then driver, then the
#: branch-supervision bucket, then the service bucket, then other.
#: (Synthetic ``worker.phase`` / ``job.phase`` spans are phase-tagged and
#: land in the phase buckets — they carry pool workers' and service jobs'
#: CTime/ITime/RTime/PTime back into the reconciliation; the ``worker``
#: bucket holds supervision itself — demoted sequential re-runs and the
#: ``worker.*`` decision events — and the ``service`` bucket holds the
#: partitioning service's request accounting and cache decisions.)
ROLLUP_BUCKETS = (*PHASE_KEYS, "driver", "worker", "service", "other")


def _rollup_bucket(name: str, fields: dict) -> str:
    """Which rollup bucket a span belongs to."""
    phase = fields.get("phase")
    if phase in PHASE_KEYS:
        return phase
    return SPAN_PHASES.get(name, "other")


def profile(records) -> dict:
    """Aggregate trace records into a run profile.

    Returns a dict with:

    * ``runs`` — the meta records, in order;
    * ``phases`` — summed span durations per CTime/ITime/RTime/PTime tag
      (a span contributes to the phase named by its ``fields.phase``);
    * ``spans`` — per span name: ``count`` and ``total`` seconds;
    * ``rollup`` — spans grouped by phase affiliation: ``fields.phase``
      when tagged, else the :data:`SPAN_PHASES` table (this is what puts
      the nested ``coarsen.*`` kernel spans under CTime and the recursion
      spans under "driver" instead of "other").  Per bucket: ``total``,
      ``count`` and a per-span-name ``spans`` breakdown.  Nested spans
      appear under their own name *and* inside their parent's duration,
      so rollup buckets overlap with ``phases`` by design — ``phases``
      stays the reconciliation against ``result.timers``.  The
      ``worker`` bucket additionally carries an ``events`` breakdown —
      the ``worker.*`` supervision decisions (crashes, timeouts,
      retries, degradations) of the run;
    * ``events`` — per event name: occurrence count;
    * ``counters`` — summed counter values across all counters records.
    """
    runs: list[dict] = []
    phases = {key: 0.0 for key in PHASE_KEYS}
    spans: dict[str, dict] = {}
    rollup = {
        bucket: {"total": 0.0, "count": 0, "spans": {}, "events": {}}
        for bucket in ROLLUP_BUCKETS
    }
    events: dict[str, int] = {}
    counters: dict[str, float] = {}
    for record in records:
        kind = record.get("t")
        if kind == "meta":
            runs.append(record)
        elif kind == "span":
            name = record["name"]
            dur = float(record["dur"])
            agg = spans.setdefault(name, {"count": 0, "total": 0.0})
            agg["count"] += 1
            agg["total"] += dur
            fields = record.get("fields", {})
            phase = fields.get("phase")
            if phase in phases:
                phases[phase] += dur
            bucket = rollup[_rollup_bucket(name, fields)]
            bucket["total"] += dur
            bucket["count"] += 1
            bucket["spans"][name] = bucket["spans"].get(name, 0.0) + dur
        elif kind == "event":
            name = record["name"]
            events[name] = events.get(name, 0) + 1
            if name.startswith(WORKER_EVENT_PREFIX):
                worker_events = rollup["worker"]["events"]
                worker_events[name] = worker_events.get(name, 0) + 1
            elif name.startswith(SERVICE_EVENT_PREFIX):
                service_events = rollup["service"]["events"]
                service_events[name] = service_events.get(name, 0) + 1
        elif kind == "counters":
            for name, value in record["values"].items():
                counters[name] = counters.get(name, 0) + value
    return {
        "runs": runs,
        "phases": phases,
        "spans": spans,
        "rollup": rollup,
        "events": events,
        "counters": counters,
    }


def format_profile(prof: dict) -> str:
    """Human-readable rendering of a :func:`profile` result."""
    lines = []
    runs = prof["runs"]
    lines.append(f"runs:     {len(runs)}")
    for meta in runs[:10]:
        fields = meta.get("fields", {})
        extra = (
            " (" + ", ".join(f"{k}={v}" for k, v in sorted(fields.items())) + ")"
            if fields
            else ""
        )
        lines.append(f"  {meta['run']}{extra}  at {meta['time']}")
    if len(runs) > 10:
        lines.append(f"  … and {len(runs) - 10} more")
    utime = sum(prof["phases"][k] for k in ("ITime", "RTime", "PTime"))
    lines.append("phases:")
    for key in PHASE_KEYS:
        lines.append(f"  {key}:  {prof['phases'][key]:9.4f}s")
    lines.append(f"  UTime: {utime:9.4f}s (ITime + RTime + PTime)")
    if prof["spans"]:
        lines.append("spans (by total time):")
        ranked = sorted(
            prof["spans"].items(), key=lambda kv: kv[1]["total"], reverse=True
        )
        for name, agg in ranked:
            mean = agg["total"] / agg["count"] if agg["count"] else 0.0
            lines.append(
                f"  {name:18s} ×{agg['count']:<6d} total {agg['total']:9.4f}s"
                f"  mean {mean * 1e3:8.3f}ms"
            )
    rollup = prof.get("rollup") or {}
    if any(
        bucket["count"] or bucket.get("events")
        for bucket in rollup.values()
    ):
        lines.append("rollup (span time by phase affiliation):")
        for key in ROLLUP_BUCKETS:
            bucket = rollup.get(key)
            if not bucket or not (bucket["count"] or bucket.get("events")):
                continue
            lines.append(
                f"  {key}:  {bucket['total']:9.4f}s  ×{bucket['count']}"
            )
            for name in sorted(
                bucket["spans"], key=bucket["spans"].get, reverse=True
            ):
                lines.append(
                    f"    {name:18s} {bucket['spans'][name]:9.4f}s"
                )
            for name in sorted(bucket.get("events") or {}):
                lines.append(
                    f"    {name:18s} ×{bucket['events'][name]}"
                )
    if prof["events"]:
        lines.append("events:")
        for name in sorted(prof["events"]):
            lines.append(f"  {name:24s} ×{prof['events'][name]}")
    if prof["counters"]:
        lines.append("counters:")
        for name in sorted(prof["counters"]):
            value = prof["counters"][name]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:24s} {rendered}")
    return "\n".join(lines)


#: Versioned identifier of the benchmark JSON payload shape.
BENCH_SCHEMA = "repro-bench/1"


def bench_env() -> dict:
    """The environment block every ``BENCH_*.json`` payload records."""
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": list(sys.argv),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        env["numpy"] = None
    knobs = {
        key: value
        for key, value in os.environ.items()
        if key.startswith("REPRO_")
    }
    if knobs:
        env["knobs"] = knobs
    return env


def _row_dict(row) -> dict:
    """Serialise a bench ``Row`` (or mapping) into plain JSON-safe data."""
    from repro.obs.tracer import _jsonable

    if isinstance(row, dict):
        return _jsonable(row)
    return {
        "matrix": row.matrix,
        "scheme": row.scheme,
        "values": _jsonable(dict(row.values)),
    }


def bench_payload(table: str, rows, *, title: str = "", columns=None,
                  extra=None) -> dict:
    """Build the versioned JSON payload for one benchmark table."""
    payload = {
        "schema": BENCH_SCHEMA,
        "table": table,
        "title": title,
        "columns": list(columns) if columns is not None else None,
        "written": datetime.now(timezone.utc).isoformat(),
        "env": bench_env(),
        "rows": [_row_dict(row) for row in rows],
    }
    if extra:
        from repro.obs.tracer import _jsonable

        payload["extra"] = _jsonable(dict(extra))
    return payload


def write_bench_json(path, payload: dict) -> None:
    """Write a :func:`bench_payload` dict to ``path`` (pretty-printed)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
