"""The optional ``numba`` kernel backend: ``@njit`` phase kernels.

Reached only through the :mod:`repro.kernels` registry (lint rule RP017),
and **never** imports numba at module top level: :func:`available` is the
capability probe, and each kernel function is compiled on first use by
:func:`_kernel`.  When numba is absent this module still imports cleanly —
the registry falls back to ``loop`` and never loads the wrappers — and
the undecorated kernel functions remain callable as plain Python, which
is how the equivalence tests pin their semantics on machines without
numba.

Four kernels:

* :func:`fm_pass_numba` — the FM inner loop with the classical
  Fiduccia–Mattheyses bucket gain structure flattened into arrays
  (doubly-linked bucket lists via ``head``/``nxt``/``prv``, a max-gain
  pointer per side), maintained *eagerly* so pops are always current.
  Same move semantics as the reference :func:`repro.core.refine.fm_pass`
  (side preference, empty-side and balance gates, early exit, suffix
  undo); in-bucket tie-breaking is LIFO rather than the heap's
  insertion-order, so cuts may differ from ``loop`` — both orders are
  valid FM and the sanitizer/equivalence oracles hold for each.
* :func:`matching_numba` — the §3.1 matching loop with RNG draws hoisted
  out of the jitted region (a visit permutation, plus pre-drawn uniforms
  for RM): HEM/LEM/HCM replicate the loop kernel's visitation order and
  first-index tie-breaks exactly.
* :func:`contract_numba` — dense-marker contraction: O(n + m) bucketing
  of fine edges into coarse rows with per-row insertion sort, producing
  output bit-identical to :func:`repro.graph.contract.contract`.
* :func:`kway_sweep_numba` — one boundary sweep of the greedy k-way
  refiner, replicating the reference Python sweep move-for-move (the
  candidate order is drawn by the caller).

The first call of each kernel pays a JIT compilation (cached on disk via
``cache=True``); benchmarks warm the kernels up before timing.
"""

from __future__ import annotations

import numpy as np

from repro.core.gains import external_internal_degrees
from repro.core.options import MatchingScheme
from repro.graph.contract import propagate_coords
from repro.graph.csr import CSRGraph, INDEX_DTYPE, WEIGHT_DTYPE
from repro.graph.partition import exact_weight_bincount
from repro.utils.rng import as_generator

__all__ = [
    "available",
    "fm_pass_numba",
    "matching_numba",
    "contract_numba",
    "kway_sweep_numba",
]

_NUMBA_OK: bool | None = None
_COMPILED: dict = {}


def available() -> bool:
    """Capability probe: can numba be imported?  Cached after first call."""
    global _NUMBA_OK
    if _NUMBA_OK is None:
        try:
            import numba  # noqa: F401  (probe only; lazy by design, RP017)

            _NUMBA_OK = True
        except ImportError:
            _NUMBA_OK = False
    return _NUMBA_OK


def _kernel(fn):
    """The jitted version of kernel function ``fn``, compiling on first use.

    Falls back to the undecorated Python function when numba is absent, so
    the wrappers below stay callable (slowly) everywhere — the registry's
    probe keeps this backend from being *selected* without numba, but the
    equivalence tests call the wrappers directly on any machine.
    """
    compiled = _COMPILED.get(fn.__name__)
    if compiled is None:
        if available():
            from numba import njit

            compiled = njit(cache=True)(fn)
        else:
            compiled = fn
        _COMPILED[fn.__name__] = compiled
    return compiled


# --------------------------------------------------------------------------
# FM pass.

def _fm_kernel(
    xadj,
    adjncy,
    adjwgt,
    vwgt,
    where,
    pwgts,
    max0,
    max1,
    cut,
    ed,
    id_,
    boundary_only,
    early_exit,
):
    """One FM pass over ``where`` with eager bucket gain maintenance.

    Mutates ``where``/``pwgts``/``ed``/``id_`` in place through *all*
    moves (the caller performs the best-prefix undo, mirroring the
    reference kernel so the sanitizer can validate the final degree
    arrays first).  Returns ``(moved, nmoved, best_prefix, tried,
    rejected, start_over, best_over, run_cut, best_cut)``.
    """
    n = xadj.shape[0] - 1

    # |gain| is bounded by the maximum weighted degree (ed+id is invariant
    # under moves), which sizes the bucket array once for the whole pass.
    bound = np.int64(0)
    for v in range(n):
        d = ed[v] + id_[v]
        if d > bound:
            bound = d
    nb = 2 * bound + 1

    # Bucket lists flattened into arrays: head[side*nb + gain+bound] is the
    # first vertex of that bucket, nxt/prv the in-bucket links, gain_of the
    # gain a table member is filed under, maxptr the per-side top bucket.
    head = np.full(2 * nb, -1, np.int64)
    nxt = np.full(n, -1, np.int64)
    prv = np.full(n, -1, np.int64)
    gain_of = np.zeros(n, np.int64)
    intab = np.zeros(n, np.uint8)
    locked = np.zeros(n, np.uint8)
    maxptr = np.full(2, -1, np.int64)

    for v in range(n):
        if boundary_only and ed[v] <= 0:
            continue
        g = ed[v] - id_[v]
        side = where[v]
        idx = side * nb + g + bound
        h = head[idx]
        nxt[v] = h
        prv[v] = -1
        if h != -1:
            prv[h] = v
        head[idx] = v
        gain_of[v] = g
        intab[v] = 1
        if g + bound > maxptr[side]:
            maxptr[side] = g + bound

    moved = np.empty(n, np.int64)
    nmoved = 0
    best_prefix = 0
    tried = 0
    rejected = 0

    start_over = np.int64(0)
    if pwgts[0] > max0:
        start_over += pwgts[0] - max0
    if pwgts[1] > max1:
        start_over += pwgts[1] - max1
    best_over = start_over
    best_cut = cut
    since_best = 0

    while since_best < early_exit:
        # Settle each side's max-gain pointer past drained buckets.
        for side in range(2):
            mp = maxptr[side]
            while mp >= 0 and head[side * nb + mp] == -1:
                mp -= 1
            maxptr[side] = mp
        if maxptr[0] < 0 and maxptr[1] < 0:
            break
        # Prefer the higher gain; break ties toward the heavier side so
        # the pass drifts toward balance (same rule as the reference).
        if maxptr[0] < 0:
            side = 1
        elif maxptr[1] < 0:
            side = 0
        elif maxptr[0] > maxptr[1]:
            side = 0
        elif maxptr[1] > maxptr[0]:
            side = 1
        elif pwgts[0] >= pwgts[1]:
            side = 0
        else:
            side = 1
        idx = side * nb + maxptr[side]
        v = head[idx]
        gain = maxptr[side] - bound
        h = nxt[v]
        head[idx] = h
        if h != -1:
            prv[h] = -1
        intab[v] = 0

        other = 1 - side
        w_v = vwgt[v]
        if side == 0:
            max_side = max0
            max_other = max1
        else:
            max_side = max1
            max_other = max0
        if pwgts[side] == w_v:
            locked[v] = 1  # moving v would empty its side
            rejected += 1
            continue
        dest_after = pwgts[other] + w_v
        if dest_after > max_other:
            over_before = np.int64(0)
            if pwgts[0] > max0:
                over_before += pwgts[0] - max0
            if pwgts[1] > max1:
                over_before += pwgts[1] - max1
            over_after = dest_after - max_other
            src_after = pwgts[side] - w_v
            if src_after > max_side:
                over_after += src_after - max_side
            if over_after >= over_before:
                locked[v] = 1  # unusable this pass
                rejected += 1
                continue

        tried += 1
        where[v] = other
        pwgts[side] -= w_v
        pwgts[other] += w_v
        cut -= gain
        t = ed[v]
        ed[v] = id_[v]
        id_[v] = t
        locked[v] = 1
        moved[nmoved] = v
        nmoved += 1

        for j in range(xadj[v], xadj[v + 1]):
            u = adjncy[j]
            w = adjwgt[j]
            if where[u] == other:
                delta = -w
            else:
                delta = w
            was_interior = ed[u] == 0
            ed[u] += delta
            id_[u] -= delta
            if locked[u] == 1:
                continue
            g = ed[u] - id_[u]
            su = where[u]
            if intab[u] == 1:
                oidx = su * nb + gain_of[u] + bound
                pn = nxt[u]
                pp = prv[u]
                if pp == -1:
                    head[oidx] = pn
                else:
                    nxt[pp] = pn
                if pn != -1:
                    prv[pn] = pp
            elif boundary_only and not (was_interior and delta > 0):
                continue  # not newly boundary; stays out of the table
            nidx = su * nb + g + bound
            h = head[nidx]
            nxt[u] = h
            prv[u] = -1
            if h != -1:
                prv[h] = u
            head[nidx] = u
            gain_of[u] = g
            intab[u] = 1
            if g + bound > maxptr[su]:
                maxptr[su] = g + bound

        over = np.int64(0)
        if pwgts[0] > max0:
            over += pwgts[0] - max0
        if pwgts[1] > max1:
            over += pwgts[1] - max1
        if over < best_over or (over == best_over and cut < best_cut):
            best_over = over
            best_cut = cut
            best_prefix = nmoved
            since_best = 0
        else:
            since_best += 1

    return (
        moved,
        nmoved,
        best_prefix,
        tried,
        rejected,
        start_over,
        best_over,
        cut,
        best_cut,
    )


def fm_pass_numba(
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
    """Jitted FM pass; drop-in for :func:`repro.core.refine.fm_pass`.

    ``eager`` and ``gain_table`` are accepted for signature compatibility
    and ignored: the bucket-array structure is inherently eager and is
    the only gain table the jitted kernel implements.
    """
    if ed is None or id_ is None:
        ed, id_ = external_internal_degrees(graph, where)
    boundary0 = int((ed > 0).sum()) if span else 0
    start_cut = int(cut)

    kern = _kernel(_fm_kernel)
    (
        moved,
        nmoved,
        best_prefix,
        tried,
        rejected,
        start_over,
        best_over,
        run_cut,
        best_cut,
    ) = kern(
        graph.xadj,
        graph.adjncy,
        graph.adjwgt,
        graph.vwgt,
        np.asarray(where),
        pwgts,
        int(maxpwgt[0]),
        int(maxpwgt[1]),
        int(cut),
        ed,
        id_,
        bool(boundary_only),
        int(early_exit),
    )

    # All moves are applied and the degree arrays are final: validate the
    # incremental bookkeeping before the undo (mirrors the reference).
    if san:
        san.check_degrees(graph, where, ed, id_, int(run_cut), phase="refine")

    vwgt = graph.vwgt
    for v in moved[best_prefix:nmoved][::-1].tolist():
        side = int(where[v])
        other = 1 - side
        w_v = int(vwgt[v])
        where[v] = other
        pwgts[side] -= w_v
        pwgts[other] += w_v

    improvement = (int(start_over) - int(best_over)) + (start_cut - int(best_cut))

    if stats is not None:
        stats.moves_tried += int(tried)
        stats.moves_rejected += int(rejected)
        stats.moves_kept += int(best_prefix)
        stats.improvement += improvement

    if span:
        span.event(
            "refine.pass",
            moves=int(tried),
            rejected=int(rejected),
            kept=int(best_prefix),
            undo=int(nmoved) - int(best_prefix),
            boundary=boundary0,
            improvement=improvement,
            cut=int(best_cut),
            table="numba",
        )

    return int(best_cut), improvement


# --------------------------------------------------------------------------
# Matching.

_SCHEME_CODES = {
    MatchingScheme.RM: 0,
    MatchingScheme.HEM: 1,
    MatchingScheme.LEM: 2,
    MatchingScheme.HCM: 3,
}


def _match_kernel(xadj, adjncy, adjwgt, vwgt, cewgt, perm, rand, code):
    """§3.1 matching loop over a pre-drawn visit permutation.

    ``rand`` holds one pre-drawn uniform per vertex (consumed by RM only;
    empty for the deterministic-pick schemes).  HEM/LEM/HCM pick by a
    strict-inequality scan, which reproduces the reference kernels'
    ``argmax``/``argmin`` first-index tie-breaking.
    """
    n = perm.shape[0]
    match = np.full(n, -1, np.int64)
    for i in range(n):
        u = perm[i]
        if match[u] != -1:
            continue
        s = xadj[u]
        e = xadj[u + 1]
        best = np.int64(-1)
        if code == 0:  # RM: uniformly random free neighbour
            nfree = 0
            for j in range(s, e):
                if match[adjncy[j]] == -1:
                    nfree += 1
            if nfree > 0:
                want = np.int64(rand[u] * nfree)
                if want >= nfree:
                    want = nfree - 1
                c = 0
                for j in range(s, e):
                    v = adjncy[j]
                    if match[v] == -1:
                        if c == want:
                            best = v
                            break
                        c += 1
        elif code == 1:  # HEM: heaviest edge, first index on ties
            bw = np.int64(-1)
            for j in range(s, e):
                v = adjncy[j]
                if match[v] == -1 and adjwgt[j] > bw:
                    bw = adjwgt[j]
                    best = v
        elif code == 2:  # LEM: lightest edge, first index on ties
            bw = np.int64(0)
            first = True
            for j in range(s, e):
                v = adjncy[j]
                if match[v] == -1 and (first or adjwgt[j] < bw):
                    bw = adjwgt[j]
                    best = v
                    first = False
        else:  # HCM: densest merged multinode, first index on ties
            bd = -1.0
            for j in range(s, e):
                v = adjncy[j]
                if match[v] != -1:
                    continue
                size = vwgt[u] + vwgt[v]
                denom = size * (size - 1)
                if denom > 0:
                    d = 2.0 * (cewgt[u] + cewgt[v] + adjwgt[j]) / denom
                else:
                    d = 0.0
                if d > bd:
                    bd = d
                    best = v
        if best == -1:
            match[u] = u  # stays unmatched; copied to the coarse graph
        else:
            match[u] = best
            match[best] = u
    return match


def matching_numba(graph, scheme, rng=None, cewgt=None) -> np.ndarray:
    """Jitted §3.1 matching; involution form like the reference kernels.

    RNG draws happen here, outside the jitted region, so the kernel is
    deterministic for a given generator: one visit permutation always,
    plus one uniform per vertex for RM's neighbour choice.
    """
    scheme = MatchingScheme(scheme)
    rng = as_generator(rng)
    n = graph.nvtxs
    perm = rng.permutation(n)
    if scheme is MatchingScheme.RM:
        rand = rng.random(n)
    else:
        rand = np.empty(0, dtype=np.float64)
    if cewgt is None:
        cewgt = np.zeros(n, dtype=np.int64)
    kern = _kernel(_match_kernel)
    return kern(
        graph.xadj,
        graph.adjncy,
        graph.adjwgt,
        graph.vwgt,
        np.asarray(cewgt, dtype=np.int64),
        perm,
        rand,
        _SCHEME_CODES[scheme],
    )


# --------------------------------------------------------------------------
# Contraction.

def _contract_kernel(xadj, adjncy, adjwgt, cmap, ncoarse):
    """Dense-marker contraction: O(n + m) bucketing plus per-row sort.

    Groups fine vertices by coarse id (counting sort), accumulates each
    coarse row with a marker array (``mark[c]`` = position of coarse
    neighbour ``c`` in the output, valid while ≥ the row's start), then
    insertion-sorts each row by neighbour id so the output matches the
    sorted-merge reference bit-for-bit.
    """
    n = xadj.shape[0] - 1
    counts = np.zeros(ncoarse + 1, np.int64)
    for v in range(n):
        counts[cmap[v] + 1] += 1
    for c in range(ncoarse):
        counts[c + 1] += counts[c]
    members = np.empty(n, np.int64)
    fill = counts[:ncoarse].copy()
    for v in range(n):
        c = cmap[v]
        members[fill[c]] = v
        fill[c] += 1

    m = adjncy.shape[0]
    mark = np.full(ncoarse, -1, np.int64)
    cxadj = np.zeros(ncoarse + 1, np.int64)
    cadjncy = np.empty(m, np.int64)
    cadjwgt = np.empty(m, np.int64)
    pos = np.int64(0)
    for c in range(ncoarse):
        row_start = pos
        for t in range(counts[c], counts[c + 1]):
            v = members[t]
            for j in range(xadj[v], xadj[v + 1]):
                nc = cmap[adjncy[j]]
                if nc == c:
                    continue  # collapsed intra-multinode edge
                p = mark[nc]
                if p >= row_start:  # already present in this row
                    cadjwgt[p] += adjwgt[j]
                else:
                    mark[nc] = pos
                    cadjncy[pos] = nc
                    cadjwgt[pos] = adjwgt[j]
                    pos += 1
        # Insertion sort the row by coarse neighbour id (rows are short).
        for a in range(row_start + 1, pos):
            key_n = cadjncy[a]
            key_w = cadjwgt[a]
            b = a - 1
            while b >= row_start and cadjncy[b] > key_n:
                cadjncy[b + 1] = cadjncy[b]
                cadjwgt[b + 1] = cadjwgt[b]
                b -= 1
            cadjncy[b + 1] = key_n
            cadjwgt[b + 1] = key_w
        cxadj[c + 1] = pos
    return cxadj, cadjncy[:pos], cadjwgt[:pos]


def contract_numba(graph, cmap, ncoarse) -> CSRGraph:
    """Jitted contraction; bit-identical to the reference ``contract``."""
    cmap = np.asarray(cmap, dtype=np.int64)
    kern = _kernel(_contract_kernel)
    cxadj, cadjncy, cadjwgt = kern(
        graph.xadj, graph.adjncy, graph.adjwgt, cmap, int(ncoarse)
    )
    cvwgt = exact_weight_bincount(
        cmap, graph.vwgt, minlength=ncoarse, total=graph.total_vwgt()
    )
    coarse = CSRGraph(
        cxadj,
        cadjncy.astype(INDEX_DTYPE),
        cadjwgt.astype(WEIGHT_DTYPE),
        cvwgt,
        validate=False,
    )
    propagate_coords(graph, coarse, cmap, ncoarse, cvwgt)
    return coarse


# --------------------------------------------------------------------------
# K-way boundary sweep.

def _kway_sweep_kernel(xadj, adjncy, adjwgt, vwgt, where, pwgts, maxpwgt, k, order):
    """One greedy k-way sweep over ``order``; returns (moved, pass_gain).

    Move-for-move identical to the reference Python sweep in
    :mod:`repro.core.kway_refine` (ascending-part tie scan, lighter
    destination on gain ties, repair rules), so the backends agree
    bit-for-bit given the same candidate order.
    """
    moved = 0
    pass_gain = np.int64(0)
    toward = np.zeros(k, np.int64)
    touched = np.empty(k, np.int64)
    for i in range(order.shape[0]):
        v = order[i]
        my = where[v]
        must_repair = pwgts[my] > maxpwgt
        s = xadj[v]
        e = xadj[v + 1]
        ntouch = 0
        has_other = False
        for j in range(s, e):
            p = where[adjncy[j]]
            if p != my:
                has_other = True
            if toward[p] == 0:  # weights are positive: 0 == untouched
                touched[ntouch] = p
                ntouch += 1
            toward[p] += adjwgt[j]
        if not must_repair and not has_other:
            for t in range(ntouch):
                toward[touched[t]] = 0
            continue  # interior vertex (became interior earlier this pass)
        internal = toward[my]
        w_v = vwgt[v]

        # Destinations: adjacent parts only (ascending id, matching the
        # reference's sorted np.unique scan); under repair pressure every
        # part qualifies.
        best_part = -1
        best_gain = np.int64(0)
        best_pw = np.int64(0)
        for p in range(k):
            if p == my:
                continue
            if not must_repair and toward[p] == 0:
                continue  # not adjacent; only repair may move there
            gain = toward[p] - internal
            fits = pwgts[p] + w_v <= maxpwgt
            repairs = must_repair and pwgts[p] + w_v < pwgts[my]
            if not (fits or repairs):
                continue
            # Maximise gain; ties toward the lighter destination.
            if (
                best_part == -1
                or gain > best_gain
                # both sides int64 by construction (exact integer gains)
                or (gain == best_gain and pwgts[p] < best_pw)  # repro: noqa[RP004]
            ):
                best_part = p
                best_gain = gain
                best_pw = pwgts[p]
        for t in range(ntouch):
            toward[touched[t]] = 0
        if best_part == -1:
            continue
        # Positive-gain moves always; non-positive gains only as balance
        # repair (the greedy refiner never hill-climbs).
        if best_gain <= 0 and not must_repair:
            continue
        where[v] = best_part
        pwgts[my] -= w_v
        pwgts[best_part] += w_v
        pass_gain += best_gain
        moved += 1
    return moved, pass_gain


def kway_sweep_numba(graph, where, pwgts, maxpwgt, k, order):
    """Jitted k-way boundary sweep; returns ``(moved, pass_gain)``."""
    kern = _kernel(_kway_sweep_kernel)
    moved, pass_gain = kern(
        graph.xadj,
        graph.adjncy,
        graph.adjwgt,
        graph.vwgt,
        np.asarray(where),
        pwgts,
        int(maxpwgt),
        int(k),
        np.asarray(order, dtype=np.int64),
    )
    return int(moved), int(pass_gain)
