"""Benchmark drivers that regenerate the paper's tables and figures.

See :mod:`repro.bench.tables` (Tables 2–4), :mod:`repro.bench.figures`
(Figures 1–5), :mod:`repro.bench.harness` (records, env knobs,
formatting) and :mod:`repro.bench.regress` (the ``repro bench-diff``
snapshot comparison).  The pytest entry points live in the repository's
``benchmarks/`` directory and call these drivers.
"""

from repro.bench.harness import (
    Row,
    bench_matrices,
    bench_scale,
    bench_seed,
    format_table,
    pivot,
)
from repro.bench.regress import diff_paths, diff_payloads, format_report
from repro.bench.tables import table2_rows, table3_rows, table4_rows
from repro.bench.figures import cut_ratio_rows, ordering_rows, runtime_rows

__all__ = [
    "Row",
    "bench_scale",
    "bench_seed",
    "bench_matrices",
    "format_table",
    "pivot",
    "diff_paths",
    "diff_payloads",
    "format_report",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "cut_ratio_rows",
    "runtime_rows",
    "ordering_rows",
]
