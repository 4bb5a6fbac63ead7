"""Command-line interface: ``python -m repro`` / ``repro-partition``.

Subcommands mirror what the METIS binaries of the era offered:

* ``partition GRAPH K`` — k-way partition a Chaco/METIS ``.graph`` file,
  print cut and balance, optionally write the partition vector;
* ``order GRAPH`` — compute a fill-reducing ordering (mlnd/mmd/snd),
  print the symbolic-factorization stats, optionally write the perm;
* ``generate NAME OUT`` — write a suite workload to a ``.graph`` file;
* ``info GRAPH`` — print basic statistics of a graph file;
* ``lint [PATHS]`` — run the repo's AST lint pass (see docs/ANALYSIS.md);
* ``trace FILE`` — pretty-print the profile of a JSONL trace written with
  ``--trace`` / ``REPRO_TRACE`` (see docs/OBSERVABILITY.md);
* ``serve`` — run the partitioning service: an HTTP/JSON API with a
  content-addressed result cache (see docs/SERVICE.md);
* ``bench-diff OLD NEW`` — compare two ``BENCH_<table>.json`` snapshots
  and flag per-cell regressions (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_common_options(p):
    from repro.core.options import DEFAULT_OPTIONS
    from repro.kernels import BACKENDS

    p.add_argument(
        "--seed", type=int, default=DEFAULT_OPTIONS.seed,
        help="RNG seed (default %(default)s)",
    )
    for flag, what in (
        ("matching", "coarsening matching scheme"),
        ("initial", "coarsest-graph partitioner"),
        ("refinement", "refinement policy"),
    ):
        default = getattr(DEFAULT_OPTIONS, flag)
        p.add_argument(
            f"--{flag}",
            default=default.value,
            choices=[member.value for member in type(default)],
            help=f"{what} (default %(default)s)",
        )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget; refinement degrades near the limit and the "
            "remaining work falls back to cheap assignment once it expires "
            "(see docs/RESILIENCE.md)"
        ),
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=DEFAULT_OPTIONS.max_init_retries,
        metavar="N",
        help="reseeded retries of an invalid initial bisection (default %(default)s)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "write a structured JSONL trace here ('-' for stdout); inspect "
            "it with 'repro trace FILE' (see docs/OBSERVABILITY.md)"
        ),
    )
    p.add_argument(
        "--kernels",
        default=None,
        choices=BACKENDS,
        help=(
            "kernel backend for the hot phases (matching, FM refinement, "
            "contraction): 'loop' is the bit-exact reference, 'numba' the "
            "optional jitted kernels, which fall back to 'loop' without "
            "numba; overrides REPRO_KERNELS (see docs/PERFORMANCE.md)"
        ),
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan independent recursion branches across N processes "
            "(bit-identical to N=1; overrides REPRO_WORKERS; see "
            "docs/PERFORMANCE.md)"
        ),
    )
    p.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-branch wall-clock budget for pool workers; a branch that "
            "exceeds it is retried and eventually demoted to in-process "
            "sequential execution (overrides REPRO_WORKER_TIMEOUT; see "
            "docs/RESILIENCE.md)"
        ),
    )
    p.add_argument(
        "--worker-retries",
        type=int,
        default=DEFAULT_OPTIONS.worker_retries,
        metavar="N",
        help=(
            "pool resubmissions of a crashed/timed-out branch before it "
            "degrades to in-process sequential execution (default "
            "%(default)s; see docs/RESILIENCE.md)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.cli import add_lint_arguments

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multilevel graph partitioning and sparse matrix ordering "
            "(Karypis & Kumar, ICPP 1995 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="k-way partition a .graph file")
    p.add_argument("graph", help="input file in Chaco/METIS .graph format")
    p.add_argument("nparts", type=int, help="number of parts")
    p.add_argument("-o", "--output", help="write the partition vector here")
    p.add_argument(
        "--report", action="store_true",
        help="also print communication volume, halos and connectivity",
    )
    p.add_argument(
        "--kway-refine", action="store_true",
        help="apply direct k-way refinement after recursive bisection",
    )
    _add_common_options(p)

    p = sub.add_parser("order", help="compute a fill-reducing ordering")
    p.add_argument("graph", help="input file in Chaco/METIS .graph format")
    p.add_argument(
        "--method", default="mlnd", choices=["mlnd", "mmd", "snd"],
        help="ordering algorithm (default mlnd)",
    )
    p.add_argument("-o", "--output", help="write the permutation here")
    _add_common_options(p)

    p = sub.add_parser("generate", help="generate a suite workload")
    p.add_argument("name", help="suite matrix name, e.g. 4ELT (see 'repro info --suite')")
    p.add_argument("output", help="output .graph path")
    p.add_argument("--scale", type=float, default=1.0, help="order multiplier")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("info", help="print statistics of a graph file")
    p.add_argument("graph", nargs="?", help="input .graph file")
    p.add_argument("--suite", action="store_true", help="list suite workloads")

    p = sub.add_parser(
        "lint",
        help="run the whole-program lint pass (RP001-RP018, docs/ANALYSIS.md)",
    )
    add_lint_arguments(p)

    p = sub.add_parser(
        "trace", help="pretty-print the profile of a JSONL trace file"
    )
    p.add_argument("file", help="trace file written via --trace / REPRO_TRACE")
    p.add_argument(
        "--json", action="store_true",
        help="print the aggregated profile as JSON instead of text",
    )

    p = sub.add_parser(
        "serve",
        help=(
            "run the partitioning service: HTTP/JSON API with a "
            "content-addressed result cache (docs/SERVICE.md)"
        ),
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8157, help="bind port (default 8157)")
    p.add_argument(
        "--cache-size", type=int, default=128, metavar="N",
        help="result-cache capacity in entries; 0 disables caching (default 128)",
    )
    p.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
        help="seconds a cached result stays servable (default: no expiry)",
    )
    p.add_argument(
        "--queue-workers", type=int, default=2, metavar="N",
        help="concurrently running jobs (default 2)",
    )
    p.add_argument(
        "--backlog", type=int, default=16, metavar="N",
        help="jobs allowed to wait beyond the running ones; past that the "
             "service answers 503 (default 16)",
    )
    p.add_argument(
        "--max-body", type=int, default=64 << 20, metavar="BYTES",
        help="request-body cap; larger posts answer 413 (default 64 MiB)",
    )
    p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="service JSONL trace target ('-' for stdout); falls back to "
             "REPRO_TRACE (see docs/OBSERVABILITY.md)",
    )

    p = sub.add_parser(
        "bench-diff",
        help=(
            "compare two BENCH_<table>.json snapshots (files or "
            "directories) and report per-cell regressions"
        ),
    )
    p.add_argument("old", help="baseline snapshot: BENCH_*.json file or directory")
    p.add_argument("new", help="candidate snapshot: BENCH_*.json file or directory")
    p.add_argument(
        "--fail-on-regress", action="store_true",
        help="exit non-zero when any time/quality cell regressed",
    )
    p.add_argument(
        "--time-tol", type=float, default=None, metavar="FRAC",
        help="relative tolerance for time-like columns (default 0.25)",
    )
    p.add_argument(
        "--cut-tol", type=float, default=None, metavar="FRAC",
        help="relative tolerance for quality columns (default 0.05)",
    )
    p.add_argument(
        "--min-time", type=float, default=None, metavar="SECONDS",
        help="ignore time cells below this on both sides (default 0.05)",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="also list non-regressed cells",
    )
    p.add_argument(
        "--markdown", action="store_true",
        help=(
            "emit the report as a GitHub-flavored markdown table "
            "(for $GITHUB_STEP_SUMMARY)"
        ),
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "partition":
        return _cmd_partition(args)
    if args.command == "order":
        return _cmd_order(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "bench-diff":
        return _cmd_bench_diff(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _options_from(args):
    from repro.core.options import DEFAULT_OPTIONS

    return DEFAULT_OPTIONS.with_(
        matching=args.matching,
        initial=args.initial,
        refinement=args.refinement,
        seed=args.seed,
        deadline=args.deadline,
        max_init_retries=args.max_retries,
        trace=args.trace,
        kernels=args.kernels,
        workers=args.workers,
        worker_timeout=args.worker_timeout,
        worker_retries=args.worker_retries,
    )


def _print_resilience(report) -> None:
    """Print the resilience audit trail (nothing on a clean run)."""
    if not report:
        return
    print(f"resilience: {len(report)} event(s)")
    for event in report:
        print(f"  {event}")


def _cmd_partition(args) -> int:
    from repro.core import partition, partition_refined
    from repro.graph import read_graph

    graph = read_graph(args.graph)
    options = _options_from(args)
    drive = partition_refined if args.kway_refine else partition
    result = drive(graph, args.nparts, options)
    print(f"graph:    {args.graph} ({graph.nvtxs} vertices, {graph.nedges} edges)")
    print(f"nparts:   {args.nparts}")
    print(f"edge-cut: {result.cut}")
    print(f"balance:  {result.balance(graph):.4f}")
    for phase in ("CTime", "ITime", "RTime", "PTime"):
        if phase in result.timers:
            print(f"{phase}:   {result.timers[phase]:.3f}s")
    _print_resilience(getattr(result, "resilience", None))
    if args.report:
        from repro.graph import partition_report

        report = partition_report(graph, result.where, args.nparts)
        print(f"commvol:  {report.communication_volume}")
        print(f"max halo: {report.max_halo}")
        print(f"max conn: {report.max_connectivity}")
    if args.output:
        np.savetxt(args.output, result.where, fmt="%d")
        print(f"partition vector written to {args.output}")
    return 0


def _cmd_order(args) -> int:
    from repro.graph import read_graph
    from repro.ordering import factor_stats, mlnd_ordering, mmd_ordering, snd_ordering

    graph = read_graph(args.graph)
    options = _options_from(args)
    if args.method == "mmd":
        ordering = mmd_ordering(graph)
    elif args.method == "snd":
        ordering = snd_ordering(graph, options)
    else:
        ordering = mlnd_ordering(graph, options)
    stats = factor_stats(graph, ordering.perm)
    print(f"graph:        {args.graph} ({graph.nvtxs} vertices, {graph.nedges} edges)")
    print(f"method:       {ordering.method}")
    print(f"factor nnz:   {stats.nnz_factor}")
    print(f"fill:         {stats.fill}")
    print(f"opcount:      {stats.opcount}")
    print(f"tree height:  {stats.tree_height}")
    print(f"parallelism:  {stats.available_parallelism:.2f}")
    _print_resilience(ordering.meta.get("resilience"))
    if args.output:
        np.savetxt(args.output, ordering.perm, fmt="%d")
        print(f"permutation written to {args.output}")
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.obs import format_profile, profile, read_trace
    from repro.utils.errors import TraceError

    try:
        records = read_trace(args.file)
    except (OSError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prof = profile(records)
    if args.json:
        print(json.dumps(prof, indent=2, sort_keys=True))
    else:
        print(format_profile(prof))
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve

    print(
        f"repro service listening on http://{args.host}:{args.port} "
        f"(cache {args.cache_size} entries"
        + (f", ttl {args.cache_ttl:g}s" if args.cache_ttl else "")
        + f"; {args.queue_workers} workers, backlog {args.backlog})"
    )
    print("POST /partition | POST /order | GET /healthz | GET /stats | DELETE /cache")
    serve(
        args.host,
        args.port,
        cache_size=args.cache_size,
        cache_ttl=args.cache_ttl,
        queue_workers=args.queue_workers,
        backlog=args.backlog,
        max_body=args.max_body,
        trace=args.trace,
    )
    return 0


def _cmd_bench_diff(args) -> int:
    from repro.bench import regress
    from repro.utils.errors import ConfigurationError

    kwargs = {}
    if args.time_tol is not None:
        kwargs["time_tol"] = args.time_tol
    if args.cut_tol is not None:
        kwargs["cut_tol"] = args.cut_tol
    if args.min_time is not None:
        kwargs["min_time"] = args.min_time
    try:
        report = regress.diff_paths(args.old, args.new, **kwargs)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.markdown:
        print(regress.format_markdown(report, verbose=args.verbose))
    else:
        print(regress.format_report(report, verbose=args.verbose))
    if args.fail_on_regress and not report.ok:
        return 1
    return 0


def _cmd_generate(args) -> int:
    from repro.graph import write_graph
    from repro.matrices import suite

    graph = suite.load(args.name, scale=args.scale, seed=args.seed)
    write_graph(graph, args.output)
    print(
        f"wrote {args.name} analogue: {graph.nvtxs} vertices, "
        f"{graph.nedges} edges -> {args.output}"
    )
    return 0


def _cmd_info(args) -> int:
    if args.suite:
        from repro.matrices import suite

        print(f"{'name':12s} {'short':6s} {'paper |V|':>9s} {'default |V|':>11s}  description")
        for name in suite.suite_names():
            e = suite.SUITE[name]
            print(
                f"{e.name:12s} {e.short:6s} {e.paper_order:9d} "
                f"{e.default_order:11d}  {e.description}"
            )
        return 0
    if not args.graph:
        print("error: provide a graph file or --suite", file=sys.stderr)
        return 2
    from repro.graph import read_graph
    from repro.graph.components import num_components

    graph = read_graph(args.graph)
    degrees = graph.degrees()
    print(f"vertices:   {graph.nvtxs}")
    print(f"edges:      {graph.nedges}")
    print(f"components: {num_components(graph)}")
    print(f"degree:     min {degrees.min()} / avg {graph.average_degree():.2f} / max {degrees.max()}")
    print(f"vwgt total: {graph.total_vwgt()}")
    print(f"ewgt total: {graph.total_adjwgt()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
