"""Initial bisection of the coarsest graph (§3.2).

Three algorithms, matching the paper's implementation:

* **GGP** — graph growing: pick a random vertex, grow a region around it in
  breadth-first order until the region holds half the vertex weight.  Ten
  random seeds are tried and the best cut wins.
* **GGGP** — greedy graph growing: grow from a random vertex, but at each
  step absorb the frontier vertex whose move *least increases* (most
  decreases) the cut — i.e. the highest-gain vertex in FM terms.  Five
  seeds are tried.  The paper found GGGP consistently best, and it is the
  default.
* **SBP** — spectral bisection: split at the weighted median of the Fiedler
  vector.  The coarsest graph has ≲ 100 vertices, so a dense symmetric
  eigensolve is exact and cheap.

All three take an explicit target weight for part 0 so recursive bisection
can request unequal splits (⌈k/2⌉ : ⌊k/2⌋ for odd k).  Disconnected coarse
graphs are handled by re-seeding growth in an untouched component.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro.core.options import DEFAULT_OPTIONS, InitialScheme
from repro.core.run import Run
from repro.graph.partition import Bisection, edge_cut, part_weights, weight_cap
from repro.utils.errors import PartitionError, SpectralConvergenceError
from repro.utils.rng import as_generator, spawn_child


def _grown_bisection(graph, where) -> Bisection:
    return Bisection.from_where(graph, where)


def ggp_bisection(graph, target0=None, rng=None, trials=10) -> Bisection:
    """Graph-growing bisection (GGP): BFS region growth, best of ``trials``."""
    rng = as_generator(rng)
    n = graph.nvtxs
    if n < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    total = graph.total_vwgt()
    if target0 is None:
        target0 = total // 2
    xadj, adjncy, vwgt = graph.xadj, graph.adjncy, graph.vwgt

    best = None
    for _ in range(trials):
        where = np.ones(n, dtype=np.int8)
        visited = np.zeros(n, dtype=bool)
        pwgt0 = 0
        queue: list[int] = []
        head = 0
        while pwgt0 < target0 and pwgt0 < total:
            if head >= len(queue):  # (re)seed in an untouched component
                candidates = np.flatnonzero(~visited)
                seed = int(candidates[rng.integers(len(candidates))])
                visited[seed] = True
                queue.append(seed)
            v = queue[head]
            head += 1
            if pwgt0 + int(vwgt[v]) >= total:
                break  # absorbing v would empty part 1
            where[v] = 0
            pwgt0 += int(vwgt[v])
            for u in adjncy[xadj[v] : xadj[v + 1]]:
                if not visited[u]:
                    visited[u] = True
                    queue.append(int(u))
        cand = _grown_bisection(graph, where)
        if best is None or cand.cut < best.cut:
            best = cand
    return best


def gggp_bisection(graph, target0=None, rng=None, trials=5) -> Bisection:
    """Greedy graph-growing bisection (GGGP): gain-ordered growth."""
    rng = as_generator(rng)
    n = graph.nvtxs
    if n < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    total = graph.total_vwgt()
    if target0 is None:
        target0 = total // 2
    xadj, adjncy = memoryview(graph.xadj), memoryview(graph.adjncy)
    adjwgt, vwgt = memoryview(graph.adjwgt), memoryview(graph.vwgt)

    # gain[v] = (edge weight from v into the region) − (edge weight to the
    # rest): absorbing the max-gain frontier vertex grows the region with
    # the least increase in cut.  The frontier is a lazy max-heap keyed
    # (−gain, v), so a pop yields the lowest index among the maximal gains,
    # as argmax would.  Edge weights are positive, so gains only rise: a
    # vertex's newest entry outranks its older ones, and an entry popped
    # after it finds the vertex in the region and is dropped.
    # Accumulate in int64 (bincount's float64 weights round past 2**53).
    wdeg = np.zeros(n, dtype=np.int64)
    np.add.at(wdeg, graph.edge_sources(), graph.adjwgt)
    neg_wdeg = (-wdeg).tolist()

    best = None
    for _ in range(trials):
        in_region = np.zeros(n, dtype=bool)
        region = memoryview(in_region)
        gain = neg_wdeg.copy()
        heap: list[tuple[int, int]] = []
        pwgt0 = 0
        while pwgt0 < target0 and pwgt0 < total:
            while heap:
                v = heappop(heap)[1]
                if not region[v]:
                    break
            else:  # frontier empty: seed a fresh component
                candidates = np.flatnonzero(~in_region)
                v = int(candidates[rng.integers(len(candidates))])
            if pwgt0 + vwgt[v] >= total:
                break  # absorbing v would empty part 1
            region[v] = True
            pwgt0 += vwgt[v]
            for e in range(xadj[v], xadj[v + 1]):
                u = adjncy[e]
                if not region[u]:
                    # Each edge into the region flips external→internal: +2w.
                    gain[u] += 2 * adjwgt[e]
                    heappush(heap, (-gain[u], u))
        cand = _grown_bisection(graph, (~in_region).astype(np.int8))
        if best is None or cand.cut < best.cut:
            best = cand
    return best


def sbp_bisection(graph, target0=None, rng=None, *, faults=None) -> Bisection:
    """Spectral bisection (SBP) of a small graph via the dense Fiedler vector.

    Intended for coarsest graphs (the dense eigensolve is O(n³)); for large
    graphs use :mod:`repro.spectral` which provides a Lanczos path.

    Raises
    ------
    repro.utils.errors.SpectralConvergenceError
        Propagated unmasked from the eigensolver — the caller
        (:func:`initial_bisection`) owns the fallback decision.
    """
    from repro.spectral.fiedler import fiedler_vector

    n = graph.nvtxs
    if n < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    total = graph.total_vwgt()
    if target0 is None:
        target0 = total // 2
    fiedler = fiedler_vector(graph, rng=rng, faults=faults)
    return split_at_weighted_median(graph, fiedler, target0)


def split_at_weighted_median(graph, values, target0) -> Bisection:
    """Bisect by thresholding ``values``: the lowest-valued vertices whose
    weight first reaches ``target0`` form part 0.

    Shared by spectral and geometric bisection.  Ties in value are broken
    by vertex id (via stable argsort), which keeps results deterministic.
    """
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(graph.vwgt[order])
    # First prefix whose weight reaches the target (always ≥ 1 vertex,
    # always leaves ≥ 1 vertex when target0 < total).
    k = int(np.searchsorted(cum, target0, side="left")) + 1
    k = min(max(k, 1), graph.nvtxs - 1)
    where = np.ones(graph.nvtxs, dtype=np.int8)
    where[order[:k]] = 0
    return Bisection.from_where(graph, where)


#: Scheme order tried on failure: spectral falls back to the combinatorial
#: growers (which cannot fail to converge), and each grower falls back to
#: the other before the terminal weighted-median split.
FALLBACK_CHAINS = {
    InitialScheme.SBP: (InitialScheme.SBP, InitialScheme.GGGP, InitialScheme.GGP),
    InitialScheme.GGGP: (InitialScheme.GGGP, InitialScheme.GGP),
    InitialScheme.GGP: (InitialScheme.GGP, InitialScheme.GGGP),
}


def _run_scheme(scheme, graph, options, rng, target0, faults):
    if scheme is InitialScheme.GGP:
        return ggp_bisection(graph, target0, rng, options.ggp_trials)
    if scheme is InitialScheme.GGGP:
        return gggp_bisection(graph, target0, rng, options.gggp_trials)
    return sbp_bisection(graph, target0, rng, faults=faults)


def _corrupt_bisection(graph) -> Bisection:
    """The injected ``initial`` fault: everything on one side but the single
    lightest vertex — a grossly unbalanced (but structurally well-formed)
    bisection, the shape of failure a buggy or degenerate scheme produces."""
    where = np.ones(graph.nvtxs, dtype=np.int8)
    where[int(np.argmin(graph.vwgt))] = 0
    return Bisection.from_where(graph, where)


def initial_defect(graph, bisection, target0, ubfactor) -> str | None:
    """Validate an initial bisection; return a defect description or None.

    The balance cap is deliberately loose — ``ubfactor × the larger target
    plus one maximum vertex weight`` — so every legitimate scheme output
    passes (coarse vertices are heavy, exact balance is unattainable) while
    the pathological all-on-one-side shapes are caught.
    """
    n = graph.nvtxs
    where = np.asarray(bisection.where)
    if where.shape != (n,):
        return f"a where array of length {where.shape} for {n} vertices"
    if n and not np.isin(where, (0, 1)).all():
        return "part labels outside {0, 1}"
    pwgts = part_weights(graph, where, 2)
    if not np.array_equal(pwgts, np.asarray(bisection.pwgts)):
        return (
            f"part-weight drift (recorded {np.asarray(bisection.pwgts).tolist()}, "
            f"actual {pwgts.tolist()})"
        )
    if edge_cut(graph, where) != bisection.cut:
        return "edge-cut drift between the record and the assignment"
    if n >= 2 and (pwgts == 0).any():
        return "an empty side"
    total = int(graph.total_vwgt())
    target1 = total - target0
    cap = weight_cap(ubfactor * max(target0, target1), total) + int(graph.vwgt.max())
    if int(pwgts.max()) > cap:
        return f"gross imbalance (pwgts={pwgts.tolist()}, cap={cap})"
    return None


def initial_bisection(
    graph,
    options=DEFAULT_OPTIONS,
    rng=None,
    target0=None,
    *,
    run=None,
    span=None,
):
    """Dispatch to the configured initial-partitioning scheme, resiliently.

    Walks the scheme's :data:`FALLBACK_CHAINS` entry.  Each scheme gets
    ``1 + options.max_init_retries`` attempts; an attempt that raises
    :class:`~repro.utils.errors.SpectralConvergenceError` skips straight to
    the next scheme, and one that produces an invalid bisection (see
    :func:`initial_defect`) is retried with a fresh child seed.  The
    terminal fallback — a weighted-median split by vertex id — cannot fail
    and is accepted unconditionally.  ``run`` (the caller's
    :class:`~repro.core.run.Run`; without one nothing is traced or
    injected) supplies the ``lanczos`` and ``initial`` fault sites, and
    its report records every fallback and retry — in a traced run also as
    ``initial.fallback`` / ``initial.retry`` events, next to the
    ``initial.attempt`` event ``span`` gets for the accepted bisection.

    The first attempt consumes ``rng`` exactly as the pre-resilience
    dispatch did, so results on the no-failure path are bit-identical.
    """
    rng = as_generator(rng if rng is not None else options.seed)
    if run is None:
        run = Run.branch(options)
    faults, report = run.faults, run.report
    n = graph.nvtxs
    if n < 2:
        raise PartitionError("cannot bisect a graph with fewer than 2 vertices")
    total = graph.total_vwgt()
    if target0 is None:
        target0 = total // 2

    chain = FALLBACK_CHAINS[options.initial]
    first_attempt = True
    for scheme in chain:
        for attempt in range(options.max_init_retries + 1):
            attempt_rng = rng if first_attempt else spawn_child(rng)
            first_attempt = False
            try:
                bisection = _run_scheme(
                    scheme, graph, options, attempt_rng, target0, faults
                )
            except SpectralConvergenceError as exc:
                report.record(
                    "fallback",
                    "initial",
                    f"{scheme.value} failed ({exc}); trying next scheme",
                    scheme=scheme.value,
                    reason="convergence",
                )
                break  # retrying a deterministic solver is pointless
            if faults and faults.trip("initial"):
                bisection = _corrupt_bisection(graph)
            defect = initial_defect(graph, bisection, target0, options.ubfactor)
            if defect is None:
                if span:
                    span.event(
                        "initial.attempt",
                        scheme=scheme.value,
                        attempt=attempt + 1,
                        cut=int(bisection.cut),
                        outcome="accepted",
                    )
                return bisection
            if attempt < options.max_init_retries:
                report.record(
                    "retry",
                    "initial",
                    f"{scheme.value} produced {defect}; "
                    f"reseeding (attempt {attempt + 2})",
                    scheme=scheme.value,
                    attempt=attempt + 1,
                    defect=defect,
                )
            else:
                report.record(
                    "fallback",
                    "initial",
                    f"{scheme.value} still invalid after "
                    f"{options.max_init_retries} reseeds ({defect}); "
                    "trying next scheme",
                    scheme=scheme.value,
                    reason="defect",
                    defect=defect,
                )
    report.record(
        "fallback",
        "initial",
        "all schemes failed; weighted-median split by vertex id",
        scheme="median",
        reason="exhausted",
    )
    return split_at_weighted_median(graph, np.arange(n), target0)
