"""The library workloads: bisect_mesh2d and mlnd_stiff3d_w2.

Every timed call in a run does identical work — the same generated graph
and the same partitioner seed, both derived from ``--seed`` — so the run's
median spans the host's speed drift instead of mixing easy and hard
inputs.  Every call's output is checked (see the ``check_*`` functions)
and must hash the same as the untimed warm-up call of the set-up.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from measure import (CallLog, fresh_import_seconds, median, normalize,
                     peak_rss_mb, probe)
from spans import (EXPECTED, Patcher, Recorder, install_library, keep_bisect,
                   library_metrics, unreached)

ROOT = Path(__file__).resolve().parent.parent

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: What the fresh interpreter of each set-up imports.
IMPORTS = ("repro.core.multilevel", "repro.ordering.nested_dissection")

#: Outside-in phase totals must agree with ``result.timers`` within this
#: share of the call's total phase time.
RECONCILE_TOLERANCE = 0.02

#: Span name -> the ``PhaseTimer`` phase it must reconcile with.
PHASE_SPANS = {"coarsen": "CTime", "initial": "ITime", "refine": "RTime",
               "project": "PTime"}


@dataclass(frozen=True)
class Spec:
    matrix: str
    scale: float
    kind: str  # "bisect" | "mlnd"
    workers: int = 1


SPECS = {
    "bisect_mesh2d": Spec("4ELT", 4.0, "bisect"),
    "mlnd_stiff3d_w2": Spec("BCSSTK31", 1.0, "mlnd", workers=2),
}


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, np.int64)).hexdigest()


class Problem:
    """One generated input and the driver call the workload times."""

    def __init__(self, spec: Spec, seed: int, scale: float):
        from repro.core.options import DEFAULT_OPTIONS
        from repro.matrices import suite

        self.spec = spec
        self.graph = suite.load(spec.matrix, scale=spec.scale * scale,
                                seed=seed, cache=False)
        self.options = DEFAULT_OPTIONS.with_(seed=seed, workers=spec.workers)
        self.reference = None  # digest of the warm-up call's output

    def call(self, workers=None):
        from repro.core import multilevel
        from repro.ordering import nested_dissection

        options = self.options
        if workers is not None:
            options = options.with_(workers=workers)
        if self.spec.kind == "bisect":
            return multilevel.bisect(self.graph, options)
        return nested_dissection.mlnd_ordering(self.graph, options)

    def output(self, result):
        """The assignment or permutation vector of ``result``."""
        if self.spec.kind == "bisect":
            return np.asarray(result.bisection.where)
        return np.asarray(result.perm)

    def check(self, result):
        """``None`` when ``result`` is correct, else what is wrong."""
        check = check_bisect if self.spec.kind == "bisect" else check_mlnd
        error = check(self, result)
        if error:
            return error
        if self.reference is not None:
            if digest(self.output(result)) != self.reference:
                return "output differs from the warm-up call (nondeterminism)"
        return None

    def quality(self, result, record) -> dict:
        """``cut`` and ``factor_opcount`` of a checked result (untimed)."""
        from repro.ordering.elimination import factor_stats

        out = self.output(result)
        if self.spec.kind == "mlnd":
            return {"cut": self.top_cut(record),
                    "factor_opcount": factor_stats(self.graph, out).opcount}
        return {"cut": result.bisection.cut,
                "factor_opcount": block_opcount(self.graph, out)}

    def top_cut(self, record) -> int:
        """Edge cut of the bisection MLND makes of the whole graph.

        Kept from one more untimed call with ``nested_dissection.ml_bisect``
        wrapped.  Should that entry point go, the cut of
        ``multilevel.bisect`` on the same options stands in, and the run
        record says so under ``cut_source``.
        """
        from repro.core.multilevel import bisect

        cuts = []

        def make(ml_bisect):
            def keep(graph, *args, **kwargs):
                result = ml_bisect(graph, *args, **kwargs)
                if graph.nvtxs == self.graph.nvtxs:
                    cuts.append(result.bisection.cut)
                return result

            return keep

        patcher = Patcher()
        patcher.attr("repro.ordering.nested_dissection", "ml_bisect", make,
                     "cut")
        try:
            self.call(workers=1)
        finally:
            patcher.restore()
        if cuts:
            record["cut_source"] = "nested_dissection.ml_bisect, whole graph"
            return cuts[0]
        record["cut_source"] = "multilevel.bisect stands in: " + (
            patcher.unmeasured.get("cut")
            or "MLND made no bisection of the whole graph")
        return bisect(self.graph, self.options).bisection.cut


def block_opcount(graph, where) -> int:
    """Factor opcount of the diagonal blocks a partition leaves: each part's
    induced subgraph in index order, summed over the parts (the work each
    part's owner does in a domain-decomposition solve)."""
    from repro.graph.components import extract_subgraph
    from repro.ordering.elimination import factor_stats

    total = 0
    for part in np.unique(where):
        sub, _ = extract_subgraph(graph, np.flatnonzero(where == part))
        total += factor_stats(sub, np.arange(sub.nvtxs)).opcount
    return total


def check_bisect(problem, result):
    from repro.graph.partition import edge_cut, part_weights

    g, opts = problem.graph, problem.options
    where = problem.output(result)
    if where.shape != (g.nvtxs,) or not np.isin(where, (0, 1)).all():
        return "where is not a 0/1 vector over the vertices"
    if edge_cut(g, where) != result.bisection.cut:
        return "reported cut differs from the recounted edge cut"
    total = g.total_vwgt()
    target0 = total // 2
    caps = (np.ceil(opts.ubfactor * target0),
            np.ceil(opts.ubfactor * (total - target0)))
    pw = part_weights(g, where, 2)
    if pw[0] > caps[0] or pw[1] > caps[1]:
        return f"part weights {pw.tolist()} exceed ubfactor caps {caps}"
    return None


def check_mlnd(problem, result):
    perm = problem.output(result)
    n = problem.graph.nvtxs
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        return "perm is not a permutation of the vertices"
    return None


def setup(spec: Spec, seed: int, scale: float, record: dict):
    """Start a fresh interpreter that imports the library, generate the
    input and make the warm-up call, ``SETUP_REPEATS`` times.  Returns the
    last problem, its warm-up result, the median normalized set-up time
    and the warm-up output's error (``None`` when correct)."""
    raw, imports, norm = [], [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = time.perf_counter()
        imports.append(fresh_import_seconds(ROOT, IMPORTS))
        problem = Problem(spec, seed, scale)
        result = problem.call()
        raw.append(time.perf_counter() - start)
        norm.append(normalize(raw[-1], before, probe()))
    error = problem.check(result)
    problem.reference = digest(problem.output(result))
    record["setup_repeats_s"] = raw
    record["setup_imports_s"] = imports
    record["setup_norm_s"] = norm
    record["output_sha256"] = problem.reference
    return problem, result, median(norm), error


def _failed_warmup(error) -> CallLog:
    log = CallLog()
    log.attempted, log.failed, log.errors = 1, 1, [f"warm-up: {error}"]
    return log


def run_e2e(name: str, seed: int, seconds: float, scale: float, record: dict):
    problem, warm, setup_s, error = setup(SPECS[name], seed, scale, record)
    if error:
        return _failed_warmup(error), {}
    log = CallLog()
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        log.run(problem.call, problem.check)
    window = time.perf_counter() - start
    rss = peak_rss_mb()
    calls = record["calls"] = log.record()
    # The mean probe, taken evenly through the window, weighs each speed
    # phase by its length; the median would pick one phase.
    speed = statistics.fmean(log.probes)
    metrics = {
        "setup_s": setup_s,
        "lat_p50_s": calls["p50_s"],
        "lat_tail_s": calls["tail_s"],
        # One request class: a library call is its own cheapest path.
        "hit_p50_s": calls["p50_s"],
        "hit_tail_s": calls["tail_s"],
        "throughput_rps": calls["n"] / normalize(window, speed, speed),
        "peak_rss_mb": rss,
    }
    metrics.update(problem.quality(warm, record))
    return log, metrics


# -- traced run ---------------------------------------------------------

def run_traced(name: str, seed: int, seconds: float, scale: float,
               record: dict, out_dir: str):
    """Round-robin untraced, span-wrapped and ``REPRO_TRACE`` calls.

    ``mlnd_stiff3d_w2`` adds a span-wrapped ``workers=1`` repeat: work in
    pool children is invisible to the parent, so its ordering and core
    layer split comes from that repeat, and the parent side of the
    ``workers=2`` call gives the pool metrics.
    """
    spec = SPECS[name]
    problem, _warm, _setup_s, error = setup(spec, seed, scale, record)
    if error:
        return _failed_warmup(error), {}, {}
    obs_path = os.path.join(out_dir, f"obs-{name}-{seed}.jsonl")
    spans = Recorder("spans")
    split = Recorder("spans_w1") if spec.kind == "mlnd" else spans
    modes = {"plain": CallLog(), "spans": CallLog(), "obs": CallLog()}
    if split is not spans:
        modes["spans_w1"] = CallLog()
    unmeasured: dict[str, str] = {}
    phase_err = [0.0]

    def traced(rec, workers=None):
        def call():
            patcher = install_library(rec)
            unmeasured.update(patcher.unmeasured)
            rec.start_call()
            keep = keep_bisect if spec.kind == "bisect" else None
            try:
                return rec.wrap(spec.kind, problem.call, keep)(workers)
            finally:
                patcher.restore()

        def check(result):
            error = problem.check(result)
            if error:
                return error
            if spec.kind == "mlnd":
                rec.counts["pool.retries"] += result.meta["resilience"].count(
                    kind="retry", phase="worker")
                return None
            err = reconcile(rec, result, unmeasured)
            phase_err[0] = max(phase_err[0], err)
            if err > RECONCILE_TOLERANCE:
                return f"phase spans off result.timers by {err:.3f} of the call"
            return None

        return call, check

    def obs_call():
        open(obs_path, "w").close()
        os.environ["REPRO_TRACE"] = obs_path
        try:
            return problem.call()
        finally:
            del os.environ["REPRO_TRACE"]

    runs = {
        "plain": (problem.call, problem.check),
        "spans": traced(spans),
        "obs": (obs_call, problem.check),
        "spans_w1": traced(split, workers=1),
    }
    deadline = time.perf_counter() + seconds
    for mode in itertools.cycle(modes):
        if time.perf_counter() >= deadline:
            break
        modes[mode].run(*runs[mode])
    if os.path.exists(obs_path):
        os.unlink(obs_path)

    # The pool layer is read from the workers=2 parent, the rest from the
    # recorder the metrics come from.
    sources = ({spans: {"pool"}, split: set(EXPECTED) - {"pool"}}
               if split is not spans else {spans: set(EXPECTED)})
    for rec, layers in sources.items():
        for layer, why in unreached(rec.totals()[2], name, layers).items():
            unmeasured.setdefault(layer, why)

    metrics = library_metrics(split, split.calls)
    if split is not spans:
        parent = library_metrics(spans, spans.calls)
        metrics.update({k: v for k, v in parent.items()
                        if k.startswith("pool.")})
        record["split_source"] = (
            "ordering/core layers from a workers=1 repeat; pool.* from the "
            "parent side of the workers=2 call")
    plain = median(modes["plain"].norm)
    metrics["trace.overhead_frac"] = median(modes["spans"].norm) / plain
    metrics["obs.trace_on_frac"] = median(modes["obs"].norm) / plain
    metrics["trace.phase_err_frac"] = phase_err[0]
    record["calls"] = {mode: log.record() for mode, log in modes.items()}
    record["spans_files"] = []
    for rec in dict.fromkeys((spans, split)):
        path = os.path.join(out_dir, f"spans-{name}-{seed}-{rec.label}.jsonl")
        rec.dump(path)
        record["spans_files"].append(path)
    total = CallLog()
    for log in modes.values():
        total.attempted += log.attempted
        total.failed += log.failed
        total.errors += log.errors
    return total, metrics, unmeasured


def reconcile(rec: Recorder, result, unmeasured) -> float:
    """Largest gap between a phase's span total and ``result.timers``, as
    a share of the call's total phase time (phases never wrapped are
    skipped)."""
    timers = result.timers.totals()
    total = sum(timers.get(p, 0.0) for p in PHASE_SPANS.values())
    if not total:
        return 0.0
    spans = rec.call_totals(rec.calls)
    worst = 0.0
    for name, phase in PHASE_SPANS.items():
        if name in unmeasured:
            continue
        worst = max(worst, abs(spans.get(name, 0.0) - timers.get(phase, 0.0)))
    return worst / total
