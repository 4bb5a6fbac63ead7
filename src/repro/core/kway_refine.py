"""Direct k-way refinement — the paper's stated future direction.

Recursive bisection refines each bisection in isolation: once parts are
split, a vertex can never move between cousins.  The paper's conclusion
(and the authors' 1998 follow-up, which became METIS's k-way refinement)
is that refining the *k-way* partition directly recovers that loss.  This
module implements greedy k-way boundary refinement in that spirit:

* for each boundary vertex, the **gain** of moving it to neighbouring part
  ``p`` is (edge weight to ``p``) − (edge weight to its own part);
* passes sweep the boundary in random order, applying the best positive-
  gain move that keeps every part under its weight cap (or any move that
  strictly repairs an overweight part), updating neighbours incrementally;
* passes repeat until a sweep makes no move (with a pass cap).

This is a *greedy* (no hill-climbing, no rollback) refiner: on a balanced
input every accepted move has positive gain, so each pass strictly
decreases the cut and termination is immediate.  On an *overweight* input
repair moves may trade cut for balance — they pick the cheapest eviction
from the heavy part (interior and isolated vertices included, where the
cost can be zero) and never increase the total overweight.  On
recursive-bisection partitions it typically shaves a few percent off the
cut at negligible cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.kway import partition as _kway_partition
from repro.core.options import DEFAULT_OPTIONS
from repro.core.run import Run
from repro.graph.partition import (
    KWayPartition,
    boundary_mask,
    edge_cut,
    part_weights,
    weight_cap,
)
from repro.kernels import kway_kernel
from repro.utils.rng import as_generator


def _python_sweep(graph, where, pwgts, maxpwgt, k, order):
    """One boundary sweep over ``order``; returns ``(moved, pass_gain)``.

    The reference (``loop``) k-way sweep kernel: applies the best
    admissible move per candidate, updating ``where``/``pwgts`` in place.
    The jitted backend (:func:`repro.kernels.numba_backend.kway_sweep_numba`)
    is move-for-move identical.
    """
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt
    moved = 0
    pass_gain = 0
    for v in order:
        v = int(v)
        s, e = xadj[v], xadj[v + 1]
        nbr_parts = where[adjncy[s:e]]
        my = where[v]
        must_repair = pwgts[my] > maxpwgt
        if not must_repair and not np.any(nbr_parts != my):
            continue  # became interior earlier this pass
        # Edge weight of v toward each adjacent part.  Gains stay in
        # exact integer arithmetic: the running cut is maintained
        # incrementally and must never drift, so the per-part sums
        # accumulate in int64 (bincount's float64 weights round past
        # 2**53).
        w = adjwgt[s:e]
        parts, inverse = np.unique(nbr_parts, return_inverse=True)
        toward = np.zeros(len(parts), dtype=np.int64)
        np.add.at(toward, inverse, w)
        my_idx = np.flatnonzero(parts == my)
        internal = int(toward[my_idx[0]]) if len(my_idx) else 0
        w_v = int(vwgt[v])

        # Destination candidates: adjacent parts (the only targets a
        # positive-gain move can have); under repair pressure *every*
        # part qualifies — a non-adjacent destination costs exactly
        # ``internal``, which is 0 for an interior-of-nothing vertex.
        tw_by_part = dict(zip(parts.tolist(), toward.tolist()))
        dests = range(k) if must_repair else parts.tolist()
        best_part = -1
        best_key = None
        for p in dests:
            if p == my:
                continue
            gain = int(tw_by_part.get(p, 0)) - internal
            fits = pwgts[p] + w_v <= maxpwgt
            repairs = must_repair and pwgts[p] + w_v < pwgts[my]
            if not (fits or repairs):
                continue
            # Maximise gain; ties toward the lighter destination.
            key = (gain, -int(pwgts[p]))
            if best_key is None or key > best_key:
                best_part, best_key = int(p), key
        if best_part == -1:
            continue
        best_gain = best_key[0]
        # Positive-gain moves always; non-positive gains only as
        # balance repair (the greedy refiner never hill-climbs).
        if best_gain <= 0 and not must_repair:
            continue
        where[v] = best_part
        pwgts[my] -= w_v
        pwgts[best_part] += w_v
        pass_gain += best_gain
        moved += 1
    return moved, pass_gain


def refine_kway(
    graph,
    partition: KWayPartition,
    options=DEFAULT_OPTIONS,
    rng=None,
    *,
    max_passes: int = 8,
    run=None,
) -> KWayPartition:
    """Greedily refine a k-way partition in place; returns the same object.

    Parameters
    ----------
    partition:
        The :class:`KWayPartition` to improve; ``where``/``cut``/``pwgts``
        are updated in place.
    options:
        ``ubfactor`` bounds every part at ``ubfactor × total / k``.
    max_passes:
        Upper bound on boundary sweeps (each pass is monotone, so this is
        a safety cap, not a tuning knob).
    run:
        The :class:`~repro.core.run.Run` of an outer driver call
        (:func:`partition_refined`); by default one is opened from
        ``options``.  Its tracer receives one ``kway.pass`` event per
        boundary sweep.
    """
    rng = as_generator(rng if rng is not None else options.seed)
    n = graph.nvtxs
    k = partition.nparts
    if n == 0 or k < 2:
        return partition
    where = partition.where
    pwgts = part_weights(graph, where, k)
    total = graph.total_vwgt()
    maxpwgt = weight_cap(options.ubfactor * total / k, total)
    cut = partition.cut

    with Run.entry(run, options, "kway-refine", nvtxs=n, nparts=k) as run:
        # The jitted sweep is move-for-move identical to the Python sweep
        # (same RNG consumption: one permutation per pass), so any backend
        # yields the same partition.
        sweep = kway_kernel(run.kernels) or _python_sweep
        fm_backend = run.kernels.backend("fm")
        with run.tracer.span("kway-refine", nparts=k, cut_in=int(cut)) as sp:
            if sp:
                sp.set(kernel=fm_backend if sweep is not _python_sweep else "loop")
            for _ in range(max_passes):
                # Only boundary vertices can have positive-gain moves;
                # vertices of overweight parts are repair candidates whether
                # or not they sit on the boundary — an interior (or isolated)
                # vertex is often the *cheapest* one to evict.  Sweep in
                # random order (O(m) NumPy to find candidates, the kernel
                # only touches the candidate set).
                cand_mask = boundary_mask(graph, where)
                heavy = np.flatnonzero(pwgts > maxpwgt)
                if len(heavy):
                    cand_mask = cand_mask | np.isin(where, heavy)
                candidates = np.flatnonzero(cand_mask)
                if len(candidates) == 0:
                    break
                order = candidates[rng.permutation(len(candidates))]
                moved, pass_gain = sweep(graph, where, pwgts, maxpwgt, k, order)
                cut -= pass_gain
                if sp:
                    sp.event(
                        "kway.pass",
                        moved=moved,
                        gain=pass_gain,
                        boundary=len(candidates),
                        cut=int(cut),
                    )
                if moved == 0:
                    break
                # Diminishing returns: stop once a whole pass recovers less
                # than 0.1 % of the cut — later passes cost full sweeps for
                # crumbs.  Never stop early while a part is still
                # overweight: repair passes recover balance, not cut, and
                # may legitimately gain nothing.
                if pass_gain < max(1, cut // 1000) and not np.any(
                    pwgts > maxpwgt
                ):
                    break
            if sp:
                sp.set(cut_out=int(cut))
        if run.sanitizer:
            run.sanitizer.check_kway(
                graph, where, pwgts, cut, k, phase="kway-refine"
            )
    partition.cut = edge_cut(graph, where)  # exact, guards vs drift
    partition.pwgts = part_weights(graph, where, k)
    return partition


def partition_refined(graph, nparts, options=DEFAULT_OPTIONS, rng=None):
    """Recursive bisection followed by direct k-way refinement, in one
    :class:`~repro.core.run.Run` (the CLI's ``--kway-refine`` and the
    service's ``kway_refine`` requests)."""
    rng = as_generator(rng if rng is not None else options.seed)
    with Run.open(
        options, "partition-refined",
        nvtxs=graph.nvtxs, nedges=graph.nedges, nparts=nparts,
    ) as run:
        result = _kway_partition(graph, nparts, options, rng, run=run)
        return refine_kway(graph, result, options, rng, run=run)
