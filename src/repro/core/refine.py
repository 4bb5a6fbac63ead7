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

Moved-vertex bookkeeping keeps the external/internal degree arrays exact
during the pass, so the running cut is ``cut −= gain`` per move and never
needs recomputation; the pass returns the improvement it achieved.

The move loop walks the moved vertex's adjacency as Python scalars over
memoryviews: a NumPy call per move costs more than the few neighbours it
touches.  Each neighbour's gain-table push follows its own degree update,
in adjacency order, exactly as in the per-move NumPy formulation that
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

import numpy as np

from repro.core.gains import external_internal_degrees, make_gain_tables
from repro.core.options import DEFAULT_OPTIONS, RefinePolicy
from repro.core.run import Run
from repro.graph.partition import Bisection


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


def _balance_key(pwgts, maxpwgt, cut):
    """Rank partition states: balanced-with-small-cut first.

    Lexicographic key ``(overweight, cut)`` where ``overweight`` is the
    total weight above the per-part caps (0 for a balanced state).  Using
    total overweight lets refinement *repair* an unbalanced projected
    partition before optimising the cut.
    """
    over = max(0, int(pwgts[0]) - maxpwgt[0]) + max(0, int(pwgts[1]) - maxpwgt[1])
    return (over, cut)


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
    id_=None,
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
    ed, id_:
        Optional external/internal degree arrays of ``where`` (computed
        when omitted).  The pass updates them in place as vertices move and
        does not reverse them in the undo step, so on return they are stale
        for the restored ``where``: pass fresh arrays to every pass.
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
        ``improvement`` measures the lexicographic state key, reported as
        the cut decrease plus any balance repair (> 0 means the pass helped).
    """
    n = graph.nvtxs
    if ed is None or id_ is None:
        ed, id_ = external_internal_degrees(graph, where)

    tables = make_gain_tables(gain_table, graph, ed, id_)
    if boundary_only:
        seeds = np.flatnonzero(ed > 0)
    else:
        seeds = np.arange(n)
    gains = ed - id_
    where_arr = np.asarray(where)
    for side in (0, 1):
        mine = seeds[where_arr[seeds] == side]
        tables[side].bulk_load(mine, gains[mine])

    # Scalar views for the move loop; they write through to the caller's
    # arrays.  Part weights are Python ints, copied back into ``pwgts``.
    xadj, adjncy = memoryview(graph.xadj), memoryview(graph.adjncy)
    adjwgt, vwgt = memoryview(graph.adjwgt), memoryview(graph.vwgt)
    where_s, ed_s, id_s = memoryview(where_arr), memoryview(ed), memoryview(id_)
    locked = bytearray(n)
    pw = [int(pwgts[0]), int(pwgts[1])]
    moved: list[int] = []
    best_prefix = 0
    start_key = best_key = key = _balance_key(pw, maxpwgt, cut)
    since_best = 0
    # Per-pass counters (folded into the cumulative ``stats`` at the end so
    # the traced event can report this pass alone, not the running totals).
    tried = 0
    rejected = 0
    boundary0 = int((ed > 0).sum()) if span else 0

    def pop_valid(table):
        """Best unlocked vertex of ``table`` with an up-to-date gain.

        Gains in the tables are *lazy*: neighbour updates do not touch the
        heap.  A popped entry whose stored gain is stale is re-pushed with
        the current gain and the pop retried, so each move does O(deg)
        scalar work plus the re-pushes of its stale pops.
        """
        while True:
            item = table.pop_best()
            if item is None:
                return None
            v, gain = item
            if locked[v]:
                continue
            gain_now = ed_s[v] - id_s[v]
            # Both sides are exact ints read from the int64 degree arrays.
            if gain_now != gain:  # repro: noqa[RP004]
                table.push(v, gain_now)
                continue
            return item

    while since_best < early_exit:
        c0 = pop_valid(tables[0])
        c1 = pop_valid(tables[1])
        if c0 is None and c1 is None:
            break
        # Prefer the higher gain; break ties toward the heavier side so the
        # pass drifts toward balance.
        if c0 is None:
            side = 1
        elif c1 is None:
            side = 0
        elif c0[1] > c1[1]:
            side = 0
        elif c1[1] > c0[1]:
            side = 1
        else:
            side = 0 if pw[0] >= pw[1] else 1
        v, gain = (c0, c1)[side]
        unchosen = (c0, c1)[1 - side]
        if unchosen is not None:
            tables[1 - side].push(unchosen[0], unchosen[1])
        other = 1 - side
        w_v = vwgt[v]
        if pw[side] == w_v:
            locked[v] = 1  # moving v would empty its side
            rejected += 1
            continue
        dest_after = pw[other] + w_v
        # Balance gate: the move must keep the destination under its cap,
        # unless it strictly reduces the current overweight key[0] (repair).
        if dest_after > maxpwgt[other]:
            over_after = max(0, pw[side] - w_v - maxpwgt[side]) + max(
                0, dest_after - maxpwgt[other]
            )
            if over_after >= key[0]:
                locked[v] = 1  # unusable this pass
                rejected += 1
                continue

        # Execute the move.
        tried += 1
        where_s[v] = other
        pw[side] -= w_v
        pw[other] += w_v
        cut -= gain
        ed_s[v], id_s[v] = id_s[v], ed_s[v]
        locked[v] = 1
        moved.append(v)

        # Neighbour degree updates, in adjacency order.  Under lazy gains
        # the tables only hear of *new* boundary vertices (stale entries are
        # corrected at pop time); under the 1995-style eager mode every
        # unlocked neighbour's entry is refreshed right after its update.
        for j in range(xadj[v], xadj[v + 1]):
            u = adjncy[j]
            delta = adjwgt[j]
            if where_s[u] == other:
                delta = -delta  # the edge to v is now internal for u
            was_interior = ed_s[u] == 0
            ed_s[u] += delta
            id_s[u] -= delta
            if locked[u]:
                continue
            if eager:
                table_u = tables[where_s[u]]
                if u in table_u:
                    table_u.update(u, ed_s[u] - id_s[u])
                elif not boundary_only or ed_s[u] > 0:
                    table_u.push(u, ed_s[u] - id_s[u])
            elif boundary_only and was_interior and delta > 0:
                tables[where_s[u]].push(u, ed_s[u] - id_s[u])

        key = _balance_key(pw, maxpwgt, cut)
        if key < best_key:
            best_key = key
            best_prefix = len(moved)
            since_best = 0
        else:
            since_best += 1

    # All moves are applied and the degree arrays are final for this pass:
    # validate the incremental bookkeeping before the undo step (after it,
    # ed/id_ are intentionally stale — the next pass recomputes them).
    if san:
        san.check_degrees(graph, where, ed, id_, cut, phase="refine")

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

    # Reconstruct the best-state cut: best_key[1] is exactly it.
    improvement = (start_key[0] - best_key[0]) + (start_key[1] - best_key[1])

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
            cut=best_key[1],
            table=gain_table,
        )

    return best_key[1], improvement


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
        cap = int(np.ceil(options.ubfactor * total / 2.0))
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
    # pass; later passes recompute them, since each pass leaves them stale.
    ed, id_ = external_internal_degrees(graph, where)
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
            id_=id_,
            stats=stats,
            eager=options.eager_gains,
            gain_table=options.gain_table,
            san=san or None,
            span=span,
        )
        ed = id_ = None
        if improvement <= 0:
            break

    if span:
        span.set(cut_out=cut)
    bisection.cut = cut
    return bisection
