"""KL/FM refinement of a bisection during uncoarsening (§3.3).

One **pass** follows the Fiduccia–Mattheyses organisation of Kernighan–Lin
that the paper's implementation uses ("similar to that described in [6]"):

1. seed the gain tables — every vertex (GR/KLR) or only boundary vertices
   (BGR/BKLR/BKLGR);
2. repeatedly extract the highest-gain movable vertex (from either side,
   respecting the balance constraint), move it, lock it for the rest of the
   pass, and update its neighbours' gains incrementally;
3. keep moving even through negative gains — that is what lets KL climb out
   of local minima — but stop after ``x`` consecutive moves that fail to
   improve on the best state seen (``x = 50`` in the paper) and undo the
   trailing non-improving moves.

Moved-vertex bookkeeping keeps one external-degree array ``ed`` exact
during the pass (the internal degree is the weighted degree minus it), so
the running cut is ``cut −= gain`` per move and never needs recomputation;
the pass returns the improvement it achieved.

:func:`fm_pass` is one move loop.  It owns the default lazy gain heap
(two ``heapq`` lists and a stamp dict, validated in place at the top)
and drives the bucket table's object, and it walks the moved vertex's
adjacency as Python scalars over memoryviews: a NumPy call per move costs
more than the few neighbours it touches.  Each neighbour's gain-table push
follows its own degree update, in adjacency order, exactly as in the
per-move NumPy formulation over two gain-table objects that
``tests/test_refine.py`` keeps as the bit-identity reference.

The five policies stack passes differently:

========  ========================================================
GR        one pass, all vertices seeded
KLR       passes until a pass yields no improvement
BGR       one pass, boundary seeded
BKLR      boundary-seeded passes until no improvement
BKLGR     BKLR while the boundary holds ≤ 2 % of the *original*
          graph's vertices, BGR otherwise (§3.3's hybrid)
========  ========================================================

On boundary insertion: the paper inserts newly-boundary neighbours "if they
have positive gain"; we insert every newly-boundary unlocked neighbour
regardless of gain sign, because negative-gain boundary vertices are
exactly what balance-restoring moves need.  This is also what the released
METIS does, and it only ever enlarges the candidate set the paper used.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from repro.core.gains import BucketGainTable, external_degrees
from repro.core.options import DEFAULT_OPTIONS, RefinePolicy
from repro.core.run import Run
from repro.graph.partition import Bisection, weight_cap
from repro.utils.errors import ConfigurationError


@dataclass
class PassStats:
    """Statistics of one refinement pass (exposed for the ablation bench).

    Attributes
    ----------
    moves_tried:
        Moves actually *executed* (the vertex changed sides), including
        those later undone.  Candidates popped from the gain tables but
        rejected by the empty-side or balance gates are **not** counted
        here — they never move anything — and land in ``moves_rejected``
        instead.
    moves_rejected:
        Candidates rejected by the empty-side / balance gates before any
        state changed.
    moves_kept:
        Executed moves surviving the end-of-pass undo (the best prefix).
    improvement:
        Total lexicographic ``(overweight, cut)`` improvement achieved.
    """

    moves_tried: int = 0
    moves_rejected: int = 0
    moves_kept: int = 0
    improvement: int = 0


def fm_pass(
    graph,
    where,
    pwgts,
    maxpwgt,
    cut,
    *,
    boundary_only,
    early_exit,
    ed=None,
    stats=None,
    eager=False,
    gain_table="heap",
    san=None,
    span=None,
):
    """Run one FM pass in place; return the (non-negative) improvement.

    Parameters
    ----------
    graph, where, pwgts, cut:
        The bisection state; ``where`` and ``pwgts`` are mutated in place
        and left at the best state found (which may be the initial state).
    maxpwgt:
        Two-element sequence of per-part weight caps.
    boundary_only:
        Seed only boundary vertices (the B* policies).
    early_exit:
        The paper's ``x``: stop after this many consecutive non-improving
        moves.
    ed:
        Optional external-degree array of ``where`` (computed when
        omitted).  The pass updates it in place as vertices move and does
        not reverse it in the undo step, so on return it is stale for the
        restored ``where``: pass a fresh array to every pass.  Internal
        degrees are not stored: ``id = wdeg − ed`` with the graph's cached
        :meth:`~repro.graph.csr.CSRGraph.weighted_degrees`, so a vertex's
        gain is ``2·ed − wdeg``.
    san:
        Optional active :class:`repro.analysis.sanitize.Sanitizer`; when
        set, the incrementally-maintained degrees and running cut are
        validated against a from-scratch recomputation at the end of the
        move loop (before the undo step).
    span:
        Optional open :class:`repro.obs.tracer.Span` (the enclosing
        refinement span); when truthy a ``refine.pass`` event with the
        pass statistics is emitted at the end of the pass.  The move loop
        itself is never instrumented — per-pass only, so the hot path is
        identical with tracing on or off.

    Returns
    -------
    (new_cut, improvement):
        ``improvement`` measures the lexicographic ``(overweight, cut)``
        state key, reported as the cut decrease plus any balance repair
        (> 0 means the pass helped).
    """
    n = graph.nvtxs
    if ed is None:
        ed = external_degrees(graph, where)
    wdeg = graph.weighted_degrees()
    where_arr = np.asarray(where)
    seeds = np.flatnonzero(ed > 0) if boundary_only else np.arange(n)
    gains = 2 * ed[seeds] - wdeg[seeds]
    on_side = [where_arr[seeds] == side for side in (0, 1)]

    # The default lazy heap is owned here: per side a list of
    # (−gain, counter, v) entries, plus one stamp dict (v → counter of its
    # live entry) and one counter shared by both sides.  A vertex sits
    # only in its own side's heap until it moves, and a moved vertex is
    # locked, so the shared increasing counter keeps each heap's insertion
    # order: ties go to the earlier push.  A locked vertex has no live
    # entry (its own was popped when it was chosen, and nothing pushes a
    # locked vertex), so the stamp alone tells a live entry.  The bucket
    # table keeps its object.
    heap = gain_table == "heap"
    if heap:
        queues = []
        for mine in on_side:
            queue = list(zip(
                (-gains[mine]).tolist(),
                np.flatnonzero(mine).tolist(),
                seeds[mine].tolist(),
            ))
            heapify(queue)
            queues.append(queue)
        stamp = dict(zip(seeds.tolist(), range(len(seeds))))
        counter = len(seeds)  # the next entry's counter
    elif gain_table == "bucket":
        # Any |gain| is bounded by the maximum weighted degree.
        bound = int(wdeg.max(initial=0))
        tables = (BucketGainTable(bound), BucketGainTable(bound))
        for table, mine in zip(tables, on_side):
            table.bulk_load(seeds[mine].tolist(), gains[mine].tolist())
    else:
        raise ConfigurationError(
            f"unknown gain table kind {gain_table!r}; 'heap' or 'bucket'"
        )

    # Scalar views for the move loop; they write through to the caller's
    # arrays.  Part weights are Python ints, copied back into ``pwgts``.
    xadj, adjncy = memoryview(graph.xadj), memoryview(graph.adjncy)
    adjwgt, vwgt = memoryview(graph.adjwgt), memoryview(graph.vwgt)
    where_s, ed_s, wdeg_s = memoryview(where_arr), memoryview(ed), memoryview(wdeg)
    locked = bytearray(n)
    pw = [int(pwgts[0]), int(pwgts[1])]
    caps = (int(maxpwgt[0]), int(maxpwgt[1]))
    moved: list[int] = []
    # The state key (overweight, cut), ranked lexicographically: total
    # weight above the caps first, so a pass can repair an unbalanced
    # projected partition before it optimises the cut.
    cut = int(cut)
    over = max(0, pw[0] - caps[0]) + max(0, pw[1] - caps[1])
    start_over, start_cut = best_over, best_cut = over, cut
    best_prefix = 0
    since_best = 0
    # Per-pass counters (folded into the cumulative ``stats`` at the end so
    # the traced event can report this pass alone, not the running totals).
    tried = 0
    rejected = 0
    boundary0 = int((ed > 0).sum()) if span else 0
    tops = [None, None]

    while since_best < early_exit:
        # Each side's best unlocked vertex with an up-to-date gain.  Gains
        # are lazy: a neighbour's degree update does not touch its entry,
        # so a stale top is re-entered with its current gain and the search
        # retried.  A heap top is validated in place (a refresh is one
        # heapreplace under the next counter); the bucket table pops it.
        for side in (0, 1):
            if heap:
                queue = queues[side]
                while queue:
                    top = queue[0]
                    neg, c, v = top
                    if stamp[v] != c:
                        heappop(queue)  # superseded
                        continue
                    gain = 2 * ed_s[v] - wdeg_s[v]
                    if gain + neg == 0:
                        break
                    stamp[v] = counter
                    heapreplace(queue, (-gain, counter, v))
                    counter += 1
                else:
                    top = None
            else:
                table = tables[side]
                while (top := table.pop_best()) is not None:
                    v, gain = top
                    now = 2 * ed_s[v] - wdeg_s[v]
                    if now == gain:
                        top = (-gain, v)
                        break
                    table.push(v, now)
            tops[side] = top

        t0, t1 = tops
        # Prefer the higher gain; break ties toward the heavier side so the
        # pass drifts toward balance.
        if t0 is None:
            if t1 is None:
                break
            side = 1
        elif t1 is None or t0[0] < t1[0]:
            side = 0
        elif t1[0] < t0[0]:
            side = 1
        else:
            side = 0 if pw[0] >= pw[1] else 1
        other = 1 - side
        top = tops[side]
        neg = top[0]
        v = top[-1]
        # Take the chosen vertex out and put the rival back.  The heap
        # re-keys its rival under the next counter, behind its equal-gain
        # peers, as a pop and a push-back would; the bucket table's buckets
        # are LIFO, so its push-back restores the popped state exactly.
        rival = tops[other]
        if heap:
            heappop(queues[side])
            if rival is not None:
                stamp[rival[2]] = counter
                heapreplace(queues[other], (rival[0], counter, rival[2]))
                counter += 1
        elif rival is not None:
            tables[other].push(rival[1], -rival[0])

        w_v = vwgt[v]
        if pw[side] == w_v:
            locked[v] = 1  # moving v would empty its side
            rejected += 1
            continue
        dest_after = pw[other] + w_v
        # Balance gate: the move must keep the destination under its cap,
        # unless it strictly reduces the current overweight (repair).
        if dest_after > caps[other]:
            src_over = pw[side] - w_v - caps[side]
            if max(0, src_over) + dest_after - caps[other] >= over:
                locked[v] = 1  # unusable this pass
                rejected += 1
                continue

        # Execute the move: v's internal degree becomes its external one.
        tried += 1
        where_s[v] = other
        pw[side] -= w_v
        pw[other] += w_v
        cut += neg
        ed_s[v] = wdeg_s[v] - ed_s[v]
        locked[v] = 1
        moved.append(v)

        # Neighbour degree updates, in adjacency order.  Under lazy gains
        # the tables only hear of *new* boundary vertices (stale entries are
        # corrected when they reach the top); under the 1995-style eager
        # mode every unlocked neighbour's entry is refreshed right after its
        # update.
        start, stop = xadj[v], xadj[v + 1]
        for u, delta in zip(adjncy[start:stop], adjwgt[start:stop]):
            if where_s[u] == other:
                delta = -delta  # the edge to v is now internal for u
            was = ed_s[u]
            now = was + delta
            ed_s[u] = now
            if eager:
                # Re-enter every unlocked neighbour, except an interior one
                # that boundary seeding never entered.
                if locked[u] or (boundary_only and not now and (
                    u not in stamp if heap else u not in tables[where_s[u]]
                )):
                    continue
            elif was or delta < 0 or not boundary_only or locked[u]:
                continue  # lazy: only a vertex just joined the boundary
            gain = 2 * now - wdeg_s[u]
            if heap:
                stamp[u] = counter
                heappush(queues[where_s[u]], (-gain, counter, u))
                counter += 1
            else:
                tables[where_s[u]].push(u, gain)

        o0 = pw[0] - caps[0]
        o1 = pw[1] - caps[1]
        over = (o0 if o0 > 0 else 0) + (o1 if o1 > 0 else 0)
        if over < best_over or (over == best_over and cut < best_cut):
            best_over, best_cut = over, cut
            best_prefix = len(moved)
            since_best = 0
        else:
            since_best += 1

    # All moves are applied and the degree array is final for this pass:
    # validate the incremental bookkeeping before the undo step (after it,
    # ed is intentionally stale — the next pass recomputes it).
    if san:
        san.check_degrees(graph, where, ed, wdeg - ed, cut, phase="refine")

    # Undo the moves past the best prefix ("Since the last x vertex moves
    # did not decrease the edge-cut they are undone").
    for v in reversed(moved[best_prefix:]):
        side = where_s[v]
        other = 1 - side
        w_v = vwgt[v]
        where_s[v] = other
        pw[side] -= w_v
        pw[other] += w_v
    pwgts[0], pwgts[1] = pw

    improvement = (start_over - best_over) + (start_cut - best_cut)

    if stats is not None:
        stats.moves_tried += tried
        stats.moves_rejected += rejected
        stats.moves_kept += best_prefix
        stats.improvement += improvement

    if span:
        span.event(
            "refine.pass",
            moves=tried,
            rejected=rejected,
            kept=best_prefix,
            undo=len(moved) - best_prefix,
            boundary=boundary0,
            improvement=improvement,
            cut=best_cut,
            table=gain_table,
        )

    return best_cut, improvement


def refine_bisection(
    graph,
    bisection: Bisection,
    policy=RefinePolicy.BKLGR,
    options=DEFAULT_OPTIONS,
    *,
    maxpwgt=None,
    original_nvtxs=None,
    stats=None,
    run=None,
    span=None,
) -> Bisection:
    """Refine ``bisection`` in place according to ``policy``.

    Parameters
    ----------
    maxpwgt:
        Per-part weight caps; defaults to ``ubfactor × total/2`` rounded up.
    original_nvtxs:
        |V₀| of the multilevel run, used by BKLGR's 2 % switch; defaults to
        this graph's size (i.e. flat refinement).
    run:
        The caller's :class:`~repro.core.run.Run` (by default
        :meth:`Run.branch <repro.core.run.Run.branch>` of ``options``),
        whose sanitizer checks each pass and whose ``fm`` kernel runs it:
        :func:`fm_pass` for ``loop``, the jitted bucket-array pass for
        ``numba``.
    span:
        Optional open tracer span; annotated with the resolved policy and
        the selected FM kernel backend, and forwarded to the pass kernel
        for per-pass events.

    Returns
    -------
    Bisection
        The same object, with ``cut`` and ``pwgts`` updated.
    """
    policy = RefinePolicy(policy)
    if policy is RefinePolicy.NONE or graph.nvtxs == 0:
        return bisection
    total = graph.total_vwgt()
    if maxpwgt is None:
        cap = weight_cap(options.ubfactor * total / 2.0, total)
        maxpwgt = (cap, cap)
    if original_nvtxs is None:
        original_nvtxs = graph.nvtxs

    where = bisection.where
    pwgts = bisection.pwgts
    cut = bisection.cut
    x = options.kl_early_exit
    if run is None:
        run = Run.branch(options)
    san = run.sanitizer
    pass_kernel = run.kernels.kernel("fm")
    fm_backend = run.kernels.backend("fm")

    # One O(m) degree computation serves both BKLGR's switch and the first
    # pass; later passes recompute it, since each pass leaves it stale.
    ed = external_degrees(graph, where)
    if policy is RefinePolicy.BKLGR:
        boundary_count = int((ed > 0).sum())
        policy = (
            RefinePolicy.BKLR
            if boundary_count <= options.bklgr_boundary_fraction * original_nvtxs
            else RefinePolicy.BGR
        )

    boundary_only = policy in (RefinePolicy.BGR, RefinePolicy.BKLR)
    multi_pass = policy in (RefinePolicy.KLR, RefinePolicy.BKLR)

    if span:
        span.set(
            policy=policy.value, nvtxs=graph.nvtxs, cut_in=cut,
            kernel=fm_backend,
        )

    passes = options.max_kl_passes if multi_pass else 1
    for _ in range(passes):
        cut, improvement = pass_kernel(
            graph,
            where,
            pwgts,
            maxpwgt,
            cut,
            boundary_only=boundary_only,
            early_exit=x,
            ed=ed,
            stats=stats,
            eager=options.eager_gains,
            gain_table=options.gain_table,
            san=san or None,
            span=span,
        )
        ed = None
        if improvement <= 0:
            break

    if span:
        span.set(cut_out=cut)
    bisection.cut = cut
    return bisection
