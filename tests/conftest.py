"""Shared fixtures and graph-construction helpers for the test suite."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graph import CSRGraph, from_edge_list

INT64_MAX = int(np.iinfo(np.int64).max)


# ---------------------------------------------------------------------------
# deterministic small graphs
# ---------------------------------------------------------------------------
def path_graph(n, weights=None):
    """0-1-2-…-(n-1)."""
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)], weights)


def cycle_graph(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return from_edge_list(n, edges)


def star_graph(n):
    """Center 0 joined to 1..n-1."""
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def complete_graph(n, weight=1):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return from_edge_list(n, edges, [weight] * len(edges))


def dumbbell_graph(k=6, bridge_weight=1):
    """Two k-cliques joined by one bridge edge — the canonical 'obvious
    bisection' graph: the minimum cut is exactly the bridge."""
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + i, k + j))
    weights = [10] * len(edges)
    edges.append((k - 1, k))
    weights.append(bridge_weight)
    return from_edge_list(2 * k, edges, weights)


def two_triangles():
    """Two disjoint triangles (disconnected graph)."""
    return from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def weighted_path(weights):
    """Path with the given edge weights."""
    n = len(weights) + 1
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)], weights)


def random_graph(n, p, seed=0, *, connected=False):
    """Erdős–Rényi G(n, p), optionally restricted to its largest component."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    mask = np.triu(mask, 1)
    src, dst = np.nonzero(mask)
    g = from_edge_list(n, np.column_stack([src, dst]))
    if connected:
        from repro.graph import largest_component

        g, _ = largest_component(g)
    return g


@st.composite
def kernel_graphs(draw, max_n=20):
    """A small graph for the per-level kernel oracles.

    Often disconnected (isolated vertices, several components) and
    sometimes edgeless.  Its edge and vertex weights are either small and
    tie-prone or at validation's bound ``max(w)·len(w) ≤ INT64_MAX``,
    where every packed sort key overflows and takes its fallback.
    """
    n = draw(st.integers(1, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=50)
    ) if possible else []
    heavy = draw(st.booleans())

    def weights(count, stored):
        # ``stored`` entries hold the ``count`` weights (two per edge).
        low, high = 1, 3
        if heavy and count:
            high = INT64_MAX // stored
            low = high - 2
        return draw(st.lists(st.integers(low, high), min_size=count,
                             max_size=count))

    return from_edge_list(
        n, pairs, weights(len(pairs), 2 * len(pairs)), vwgt=weights(n, n)
    )


@pytest.fixture
def grid8():
    from repro.matrices import grid2d

    return grid2d(8, 8)


@pytest.fixture
def grid16():
    from repro.matrices import grid2d

    return grid2d(16, 16)


@pytest.fixture
def dumbbell():
    return dumbbell_graph()


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------
def interleaved_best(reference, candidate, repeats):
    """Best wall time and last result of two calls, timed in turn.

    ``reference()`` and ``candidate()`` alternate ``repeats`` times each,
    so a burst of host load slows both sides rather than one block of
    runs.  Each call builds its own inputs.  Returns
    ``((t_reference, reference_result), (t_candidate, candidate_result))``.
    """
    best, results = [float("inf")] * 2, [None] * 2
    for _ in range(repeats):
        for side, call in enumerate((reference, candidate)):
            t0 = time.perf_counter()
            results[side] = call()
            best[side] = min(best[side], time.perf_counter() - t0)
    return (best[0], results[0]), (best[1], results[1])


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------
def brute_force_cut(graph, where):
    """Edge-cut computed edge by edge, for cross-checking vectorised code."""
    cut = 0
    for u, v, w in graph.edges():
        if where[u] != where[v]:
            cut += w
    return cut


def brute_force_fill(graph, perm):
    """Fill and column counts by literal elimination simulation.

    Returns (counts, fill): counts[j] = off-diagonal nnz of column j of L
    in elimination order, via the 'add a clique on later neighbours' rule.
    """
    n = graph.nvtxs
    iperm = np.empty(n, dtype=np.int64)
    iperm[np.asarray(perm)] = np.arange(n)
    adj = [set(int(iperm[u]) for u in graph.neighbors(v)) for v in range(n)]
    # Re-index adjacency by elimination position.
    byposition = [set() for _ in range(n)]
    for v in range(n):
        byposition[iperm[v]] = adj[v]
    counts = np.zeros(n, dtype=np.int64)
    for j in range(n):
        later = {u for u in byposition[j] if u > j}
        counts[j] = len(later)
        for u in later:
            byposition[u] |= later
            byposition[u].discard(u)
    fill = int(counts.sum()) - graph.nedges
    return counts, fill


def assert_valid_bisection(graph, bisection):
    """Structural checks every bisection in the suite must pass."""
    assert len(bisection.where) == graph.nvtxs
    assert set(np.unique(bisection.where)).issubset({0, 1})
    bisection.verify(graph)


def assert_separator(graph, separator, where):
    """No edge may join a part-0 and a part-1 vertex once the separator
    is removed."""
    sep = set(int(s) for s in separator)
    for u, v, _ in graph.edges():
        if u in sep or v in sep:
            continue
        assert where[u] == where[v], (
            f"edge ({u},{v}) crosses parts but is not covered by the separator"
        )
