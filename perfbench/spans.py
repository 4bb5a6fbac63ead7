"""Outside-in span recording for the traced benchmark runs.

The end-to-end runs install nothing.  A traced run wraps the public entry
points of each layer *where their callers look them up* (a module
attribute such as ``repro.core.multilevel.coarsen``, the ``loop`` kernel
backend in the :mod:`repro.kernels` registry, or an attribute of a live
service object), records one span per wrapped call and restores the
originals afterwards.  Spans carry a name, start, end, parent span id and
call id; they stay in memory until the run writes them out.

An entry point that no longer exists is not an error: its layer is
reported as unmeasured, with the reason, and the run goes on.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import itertools
import json
import time
from collections import defaultdict

#: The innermost open span of the current thread or asyncio task.
_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """In-memory span and counter store for one traced mode of a run."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list[tuple] = []  # (id, parent, name, start, end, call)
        self.counts: dict[str, float] = defaultdict(float)
        self.results: dict[str, list] = defaultdict(list)
        self.calls = 0
        self._ids = itertools.count(1)

    def start_call(self) -> None:
        """Open the next top-level call; its spans share this call id."""
        self.calls += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the body; nests under the open span."""
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((sid, parent, name, start, end, self.calls))

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span whose interval was measured by the caller."""
        self.spans.append(
            (next(self._ids), _CURRENT.get(), name, start, end, self.calls))

    def wrap(self, name: str, fn, keep=None):
        """``fn`` timed as span ``name``; ``keep(result, args)`` stores
        whatever the metrics need from the returned object (outside the
        span, but never heavy work)."""

        def timed(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep is not None:
                self.results[name].append(keep(result, args))
            return result

        timed.__wrapped__ = fn
        return timed

    # -- reductions ----------------------------------------------------

    def totals(self):
        """``(inclusive, self_time, count)`` dicts keyed by span name."""
        child = defaultdict(float)
        for _sid, parent, _name, start, end, _call in self.spans:
            if parent is not None:
                child[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        count = defaultdict(int)
        for sid, _parent, name, start, end, _call in self.spans:
            inclusive[name] += end - start
            own[name] += end - start - child[sid]
            count[name] += 1
        return inclusive, own, count

    def call_totals(self, call: int) -> dict:
        """Inclusive seconds per span name within top-level call ``call``."""
        out = defaultdict(float)
        for _sid, _parent, name, start, end, c in self.spans:
            if c == call:
                out[name] += end - start
        return out

    def inclusive_under(self, name: str, parent_name: str) -> float:
        """Total duration of ``name`` spans whose parent is ``parent_name``."""
        names = {sid: n for sid, _p, n, _s, _e, _c in self.spans}
        return sum(
            end - start
            for _sid, parent, n, start, end, _call in self.spans
            if n == name and names.get(parent) == parent_name
        )

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, call in self.spans:
                fh.write(json.dumps({
                    "mode": self.label, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end, "call": call,
                }) + "\n")


class Patcher:
    """Installs wrappers on module or object attributes and restores them."""

    def __init__(self):
        self.unmeasured: dict[str, str] = {}
        self._undo: list = []

    def attr(self, target, attr: str, make, layer: str) -> None:
        """Replace ``target.attr`` by ``make(original)``.

        ``target`` is an object or a dotted module name.  A missing module
        or attribute marks ``layer`` unmeasured instead of raising.
        """
        if isinstance(target, str):
            try:
                target = importlib.import_module(target)
            except ImportError as exc:
                self.unmeasured[layer] = f"cannot import {target}: {exc}"
                return
        original = getattr(target, attr, None)
        if original is None:
            where = getattr(target, "__name__", type(target).__name__)
            self.unmeasured[layer] = f"{where}.{attr} no longer exists"
            return
        if attr in getattr(target, "__dict__", {}):
            self._undo.append(lambda: setattr(target, attr, original))
        else:  # an instance attribute shadowing a class attribute
            self._undo.append(lambda: delattr(target, attr))
        setattr(target, attr, make(original))

    def kernels(self, rec: Recorder, keep: dict) -> None:
        """Re-register the ``loop`` backend with timed phase kernels."""
        try:
            from repro.core.options import MultilevelOptions
            from repro.kernels import PHASES, register_backend, resolve_kernels

            selection = resolve_kernels(MultilevelOptions(kernels="loop"))
            plain = {phase: selection.kernel(phase) for phase in PHASES}
        # The registry's surface is what a later change may rework; any
        # failure here only means the kernel layer goes unmeasured.
        except Exception as exc:  # noqa: BLE001
            self.unmeasured["kernels"] = f"loop backend not wrappable: {exc}"
            return

        def register(kernels):
            register_backend(
                "loop",
                {phase: (lambda fn=fn: fn) for phase, fn in kernels.items()},
                fallback=None,
            )

        register({
            phase: rec.wrap(KERNEL_SPANS.get(phase, phase), fn, keep.get(phase))
            for phase, fn in plain.items()
        })
        self._undo.append(lambda: register(plain))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


#: Kernel phase -> span name.
KERNEL_SPANS = {"matching": "match", "fm": "fm", "contract": "contract"}


def _keep_match(match, args):
    return args[0].nvtxs, match


def _keep_contract(_coarse, args):
    graph, _cmap, ncoarse = args[:3]
    return ncoarse / max(graph.nvtxs, 1)


def keep_bisect(result, _args):
    return result.nlevels, result.coarsest_nvtxs, result.stats


def _timed_supervisor(rec: Recorder, cls):
    """Subclass of the branch supervisor whose pool steps are spans."""

    class TimedSupervisor(cls):
        def __enter__(self):
            with rec.span("pool.enter"):
                return super().__enter__()

        def __exit__(self, *exc):
            with rec.span("pool.exit"):
                return super().__exit__(*exc)

        def submit(self, *args, **kwargs):
            rec.counts["pool.submits"] += 1
            with rec.span("pool.submit"):
                return super().submit(*args, **kwargs)

        def drain(self):
            items = super().drain()
            while True:
                with rec.span("pool.wait"):
                    item = next(items, None)
                if item is None:
                    return
                yield item

    TimedSupervisor.__name__ = cls.__name__
    return TimedSupervisor


def install_library(rec: Recorder) -> Patcher:
    """Wrap every library layer the workloads reach; returns the patcher."""
    p = Patcher()
    wrap = rec.wrap
    p.kernels(rec, {"matching": _keep_match, "contract": _keep_contract})
    ml = "repro.core.multilevel"
    p.attr(ml, "coarsen", lambda f: wrap("coarsen", f), "coarsen")
    p.attr(ml, "initial_bisection", lambda f: wrap("initial", f), "initial")
    p.attr(ml, "refine_bisection", lambda f: wrap("refine", f), "refine")
    p.attr(ml, "project_where", lambda f: wrap("project", f), "project")
    p.attr(ml, "part_weights", lambda f: wrap("project", f), "project")
    kw = "repro.core.kway"
    p.attr(kw, "bisect", lambda f: wrap("bisect", f, keep_bisect), "bisect")
    p.attr(kw, "extract_subgraph", lambda f: wrap("kway.extract", f), "kway")
    p.attr(kw, "BranchSupervisor", lambda c: _timed_supervisor(rec, c), "pool")
    nd = "repro.ordering.nested_dissection"
    p.attr(nd, "ml_bisect", lambda f: wrap("bisect", f, keep_bisect), "bisect")
    p.attr(nd, "vertex_separator_from_bisection",
           lambda f: wrap("nd.separator", f), "nd")
    p.attr(nd, "mmd_ordering", lambda f: wrap("nd.mmd", f), "nd")
    p.attr(nd, "connected_components",
           lambda f: wrap("nd.components", f), "nd")
    p.attr(nd, "extract_subgraph", lambda f: wrap("nd.extract", f), "nd")
    p.attr(nd, "BranchSupervisor", lambda c: _timed_supervisor(rec, c), "pool")
    sr = "repro.ordering.separator_refine"
    p.attr(sr, "build_labelling", lambda f: wrap("nd.sep_refine", f), "nd")
    p.attr(sr, "refine_vertex_separator",
           lambda f: wrap("nd.sep_refine", f), "nd")
    return p


def library_metrics(rec: Recorder, calls: int) -> dict:
    """Per-call layer metrics from a recorder of library calls."""
    import numpy as np

    inc, own, cnt = rec.totals()
    per = 1.0 / max(calls, 1)
    bis = rec.results.get("bisect", [])
    stats = [s for _lv, _cn, s in bis]
    tried = sum(s.moves_tried for s in stats)
    kept = sum(s.moves_kept for s in stats)
    matched = total = 0
    for n, match in rec.results.get("match", []):
        match = np.asarray(match)
        ids = np.arange(n)
        matched += int((np.where(match < 0, ids, match) != ids).sum())
        total += n
    shrink = rec.results.get("contract", [])
    refine_s = inc["refine"]
    return {
        "match.s": own["match"] * per,
        "match.calls": cnt["match"] * per,
        "match.matched_frac": matched / total if total else 0.0,
        "fm.s": own["fm"] * per,
        "fm.calls": cnt["fm"] * per,
        "contract.s": own["contract"] * per,
        "contract.calls": cnt["contract"] * per,
        "coarsen.s": own["coarsen"] * per,
        "coarsen.levels": _mean(lv for lv, _cn, _s in bis),
        "coarsen.shrink": _mean(shrink),
        "coarsen.coarsest_nvtxs": _mean(cn for _lv, cn, _s in bis),
        "initial.s": own["initial"] * per,
        "initial.calls": cnt["initial"] * per,
        "refine.s": own["refine"] * per,
        "refine.fm_passes": cnt["fm"] * per,
        "refine.fm_moves": tried * per,
        "refine.fm_rejected": sum(s.moves_rejected for s in stats) * per,
        "refine.fm_kept_frac": kept / tried if tried else 0.0,
        "refine.moves_per_s": tried / refine_s if refine_s else 0.0,
        "project.s": own["project"] * per,
        "bisect.calls": cnt["bisect"] * per,
        "bisect.self_s": own["bisect"] * per,
        "kway.extract_s": own["kway.extract"] * per,
        "kway.self_s": own["kway"] * per,
        "nd.bisect_s": rec.inclusive_under("bisect", "mlnd") * per,
        "nd.separator_s": own["nd.separator"] * per,
        "nd.sep_refine_s": own["nd.sep_refine"] * per,
        "nd.mmd_s": own["nd.mmd"] * per,
        "nd.mmd_leaves": cnt["nd.mmd"] * per,
        "nd.components_s": own["nd.components"] * per,
        "nd.extract_s": own["nd.extract"] * per,
        "pool.enter_s": own["pool.enter"] * per,
        "pool.submits": rec.counts["pool.submits"] * per,
        "pool.wait_s": own["pool.wait"] * per,
        "pool.exit_s": own["pool.exit"] * per,
        "pool.retries": rec.counts["pool.retries"] * per,
    }


#: Layer -> the spans its wrappers record, and the workloads whose traced
#: run must record every one of them.  A wrapper that is installed but no
#: longer called (the program reaches the layer some other way) leaves its
#: span missing there, and the layer is reported unmeasured.
_ALL = ("bisect_mesh2d", "mlnd_stiff3d_w2", "service_mix")
EXPECTED = {
    "kernels": (("match", "fm", "contract"), _ALL),
    "coarsen": (("coarsen",), _ALL),
    "initial": (("initial",), _ALL),
    "refine": (("refine",), _ALL),
    "project": (("project",), _ALL),
    "bisect": (("bisect",), _ALL),
    "kway": (("kway", "kway.extract"), ("service_mix",)),
    "nd": (("nd.separator", "nd.sep_refine", "nd.mmd", "nd.components",
            "nd.extract"), ("mlnd_stiff3d_w2",)),
    "pool": (("pool.enter", "pool.wait", "pool.exit"), ("mlnd_stiff3d_w2",)),
    "service": (("svc.decode", "svc.key", "svc.queue_wait", "svc.compute",
                 "svc.encode"), ("service_mix",)),
}

#: Per-layer metrics whose healthy value is 0.
MAY_BE_ZERO = frozenset({"pool.retries", "svc.rejected", "trace.phase_err_frac"})


def unreached(counts, workload: str, layers) -> dict:
    """``{layer: reason}`` for each of ``layers`` that ``workload`` must
    reach but whose spans ``counts`` (span name -> count) lacks."""
    out = {}
    for layer in layers:
        names, workloads = EXPECTED[layer]
        missing = [n for n in names if not counts.get(n)]
        if workload in workloads and missing:
            out[layer] = (f"no {', '.join(missing)} span on {workload}: the "
                          "wrapped entry point is no longer called")
    return out


def metric_layer(name: str) -> str:
    """The layer a per-layer metric belongs to (the ``unmeasured`` key)."""
    head = name.split(".", 1)[0]
    return {"match": "kernels", "fm": "kernels", "contract": "kernels",
            "svc": "service"}.get(head, head)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
