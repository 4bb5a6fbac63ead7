"""Multiple minimum degree (MMD) ordering — Liu's algorithm.

The paper's serial baseline ([27], "the most widely used variant of minimum
degree due to its very fast runtime").  This is a faithful quotient-graph
implementation with the three devices that define MMD:

* **quotient graph** (George & Liu): eliminated vertices become *elements*;
  a variable's reachable set is its variable neighbours plus the variables
  of its adjacent elements.  Elements adjacent to a newly eliminated
  variable are absorbed into the new element, so storage never exceeds the
  original graph's.
* **multiple elimination**: in each round, an independent set of variables
  whose degree is within ``delta`` of the minimum is eliminated before any
  degree is recomputed — degree updates are the expensive step, and this
  batches them.
* **supervariables** (indistinguishable nodes): variables with identical
  closed reachable sets are merged and eliminated together (*mass
  elimination*); detected after each round by hashing ``(adjacent
  elements, variable adjacency)``.  Every variable hashed has just gained
  an element, so two with equal keys share one; eliminating that element's
  variable removed the edge between them, so neither is in the other's
  variable adjacency and their closed reachable sets are equal.

External degrees (excluding the supervariable's own weight) are used, as in
Liu's MMD.
"""

from __future__ import annotations

import numpy as np

from repro.ordering.base import Ordering


def mmd_ordering(graph, delta: int = 0) -> Ordering:
    """Multiple-minimum-degree ordering of ``graph``.

    Parameters
    ----------
    delta:
        Multiple-elimination tolerance: a round eliminates independent
        variables with degree ≤ min_degree + ``delta``.  0 is Liu's
        default.

    Returns
    -------
    Ordering
        ``meta["supervariables"]`` lists the size of each eliminated
        supervariable in elimination order; they sum to ``nvtxs``.
    """
    n = graph.nvtxs
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    adj_vars: list[set] = [set(adjncy[xadj[v] : xadj[v + 1]]) for v in range(n)]
    adj_elems: list[set] = [set() for _ in range(n)]
    elem_vars: dict[int, set] = {}
    weight = [1] * n  # supervariable sizes
    members: list[list[int]] = [[v] for v in range(n)]
    alive = [True] * n  # still a supervariable representative
    eliminated = [False] * n

    degree = [len(adj_vars[v]) for v in range(n)]  # every weight is 1

    # Degree buckets (dict of sets) with a moving minimum pointer.
    buckets: dict[int, set] = {}
    for v in range(n):
        buckets.setdefault(degree[v], set()).add(v)

    def bucket_move(v, old_d, new_d):
        if old_d == new_d:
            return
        b = buckets.get(old_d)
        if b is not None:
            b.discard(v)
            if not b:
                del buckets[old_d]
        buckets.setdefault(new_d, set()).add(v)

    def reach(v):
        # Invariants keep adj_vars/elem_vars free of eliminated and
        # merged-away ids, so the union is the live reachable set directly.
        r = set(adj_vars[v])
        for e in adj_elems[v]:
            r |= elem_vars[e]
        r.discard(v)
        return r

    order: list[int] = []
    remaining = n

    while remaining > 0:
        min_d = min(buckets)
        threshold = min_d + delta
        # Gather this round's candidates in ascending degree.
        candidates = []
        for d in sorted(buckets):
            if d > threshold:
                break
            candidates.extend(sorted(buckets[d]))

        touched: set = set()
        round_eliminated = []
        for v in candidates:
            if eliminated[v] or not alive[v] or v in touched:
                continue
            rv = reach(v)
            # --- eliminate v: it becomes element v --------------------
            absorbed = list(adj_elems[v])
            elem_vars[v] = rv
            for e in absorbed:
                elem_vars.pop(e, None)
            for u in rv:
                adj_vars[u].discard(v)
                adj_vars[u] -= rv  # edges inside the element are redundant
                adj_elems[u] -= set(absorbed)
                adj_elems[u].add(v)
            eliminated[v] = True
            b = buckets.get(degree[v])
            if b is not None:
                b.discard(v)
                if not b:
                    del buckets[degree[v]]
            order.append(v)
            round_eliminated.append(v)
            remaining -= weight[v]
            touched |= rv

        # --- batched degree update + supervariable detection ----------
        sig: dict = {}
        for u in sorted(touched):
            if eliminated[u] or not alive[u]:
                continue
            key = (frozenset(adj_elems[u]), frozenset(adj_vars[u]))
            other = sig.get(key)
            if other is not None:
                # u is indistinguishable from `other`: merge u into it.  u
                # was external to `other` and is now internal, so `other`'s
                # external degree drops by u's weight.
                bucket_move(other, degree[other], degree[other] - weight[u])
                degree[other] -= weight[u]
                weight[other] += weight[u]
                members[other].extend(members[u])
                alive[u] = False
                b = buckets.get(degree[u])
                if b is not None:
                    b.discard(u)
                    if not b:
                        del buckets[degree[u]]
                for w in adj_vars[u]:
                    adj_vars[w].discard(u)
                for e in adj_elems[u]:
                    if e in elem_vars:
                        elem_vars[e].discard(u)
                adj_vars[u] = set()
                adj_elems[u] = set()
                continue
            sig[key] = u
            r = reach(u)
            new_d = sum(map(weight.__getitem__, r))
            bucket_move(u, degree[u], new_d)
            degree[u] = new_d

    perm = np.fromiter(
        (orig for v in order for orig in members[v]), dtype=np.int64, count=n
    )
    ordering = Ordering.from_perm(perm, "mmd")
    ordering.meta["supervariables"] = [weight[v] for v in order]
    return ordering
