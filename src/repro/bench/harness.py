"""Benchmark harness: experiment records, environment knobs, formatting.

The paper reports three kinds of artefacts — per-matrix tables (Tables
2–4), per-matrix ratio bars (Figures 1–3, 5) and relative-runtime bars
(Figure 4).  The drivers in :mod:`repro.bench.tables` and
:mod:`repro.bench.figures` produce lists of :class:`Row` records; this
module renders them as aligned text tables and centralises the environment
knobs the pytest benchmarks honour:

``REPRO_BENCH_SCALE``
    Multiplier on the suite's default graph orders (default ``1.0``;
    set ``0.5`` for a quick pass).
``REPRO_BENCH_MATRICES``
    Comma-separated matrix names overriding each experiment's default
    subset; ``all`` selects the experiment's full paper set.
``REPRO_BENCH_SEED``
    Seed for all experiments (default 1995 — "fixed seed" as in §4).
``REPRO_BENCH_DEADLINE``
    Optional per-partition wall-clock budget in seconds (unset = no
    deadline); exercises the deadline-degraded paths of
    docs/RESILIENCE.md under benchmark load.

The experiments start from
:data:`~repro.core.options.DEFAULT_OPTIONS`, so the library's own
variables select the rest: ``REPRO_KERNELS`` the kernel backend,
``REPRO_WORKERS`` the process count.  Every ``REPRO_*`` variable is
recorded in each ``BENCH_*.json`` payload's env block (see
:func:`repro.obs.export.bench_env`), so a snapshot always says which
kernel and worker count produced it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass
class Row:
    """One table/figure row: a matrix × scheme measurement."""

    matrix: str
    scheme: str
    values: dict = field(default_factory=dict)


def bench_scale() -> float:
    """Graph-order multiplier from ``REPRO_BENCH_SCALE``."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_seed() -> int:
    """Experiment seed from ``REPRO_BENCH_SEED``."""
    return int(os.environ.get("REPRO_BENCH_SEED", "1995"))


def bench_deadline() -> float | None:
    """Per-partition wall-clock budget from ``REPRO_BENCH_DEADLINE``."""
    raw = os.environ.get("REPRO_BENCH_DEADLINE", "")
    return float(raw) if raw else None


def bench_matrices(default: list[str], full: list[str]) -> list[str]:
    """Matrix subset for an experiment.

    ``default`` is the quick subset a plain ``pytest benchmarks/`` run
    uses; ``full`` is the experiment's complete paper set, selected with
    ``REPRO_BENCH_MATRICES=all``.
    """
    raw = os.environ.get("REPRO_BENCH_MATRICES", "")
    if not raw:
        return list(default)
    if raw.strip().lower() == "all":
        return list(full)
    return [name.strip() for name in raw.split(",") if name.strip()]


def format_table(rows: list[Row], columns: list[str], *, title: str = "") -> str:
    """Render rows as an aligned text table (matrix, scheme, columns…)."""
    headers = ["matrix", "scheme", *columns]
    table = [headers]
    for row in rows:
        cells = [row.matrix, row.scheme]
        for col in columns:
            value = row.values.get(col, "")
            if isinstance(value, float):
                cells.append(f"{value:.3f}")
            else:
                cells.append(str(value))
        table.append(cells)
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, line in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def pivot(rows: list[Row], value_key: str) -> dict[str, dict[str, object]]:
    """``{matrix: {scheme: value}}`` view of a row list."""
    out: dict[str, dict[str, object]] = {}
    for row in rows:
        out.setdefault(row.matrix, {})[row.scheme] = row.values.get(value_key)
    return out
