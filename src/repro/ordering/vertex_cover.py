"""Vertex separators from edge separators via minimum vertex cover.

Nested dissection needs a *vertex* separator; the multilevel partitioner
produces an *edge* separator.  As in the paper ("a vertex separator is
computed from an edge separator by finding the minimum vertex cover"), the
cut edges form a bipartite graph between the two boundary sets, and by
König's theorem its minimum vertex cover — computable exactly from a
maximum matching — is the smallest vertex set covering every cut edge,
hence the smallest separator obtainable from this edge separator.

Maximum bipartite matching is Hopcroft–Karp, O(E√V) on the boundary
subgraph (tiny compared to the graph).
"""

from __future__ import annotations

from collections import deque

import numpy as np


def boundary_bipartite(graph, where):
    """Cut edges as a bipartite adjacency.

    Returns ``(a_vertices, b_vertices, adj)`` where ``a_vertices`` are the
    part-0 endpoints of cut edges, ``b_vertices`` the part-1 endpoints, and
    ``adj[i]`` lists indices into ``b_vertices`` adjacent to
    ``a_vertices[i]``.
    """
    where = np.asarray(where)
    src = graph.edge_sources()
    dst = graph.adjncy
    cross = (where[src] == 0) & (where[dst] == 1)
    a_raw = src[cross]
    b_raw = dst[cross]
    a_vertices, a_idx = np.unique(a_raw, return_inverse=True)
    b_vertices, b_idx = np.unique(b_raw, return_inverse=True)
    adj: list[list[int]] = [[] for _ in range(len(a_vertices))]
    for ai, bi in zip(a_idx.tolist(), b_idx.tolist()):
        adj[ai].append(bi)
    return a_vertices, b_vertices, adj


def hopcroft_karp(n_left, n_right, adj):
    """Maximum bipartite matching.

    Returns ``(match_left, match_right)``: partner index or -1.  Standard
    Hopcroft–Karp with BFS layering and DFS augmentation.
    """
    INF = np.iinfo(np.int64).max
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left

    def bfs():
        q = deque()
        found = False
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(u):
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n_left + n_right + 1000))
    try:
        while bfs():
            for u in range(n_left):
                if match_l[u] == -1:
                    dfs(u)
    finally:
        sys.setrecursionlimit(old_limit)
    return match_l, match_r


def minimum_vertex_cover(n_left, n_right, adj, match_l, match_r):
    """König's construction: min vertex cover from a maximum matching.

    Let ``Z`` be the vertices reachable from unmatched left vertices by
    alternating paths (unmatched edges left→right, matched right→left);
    the cover is ``(L ∖ Z) ∪ (R ∩ Z)``.  Returns boolean masks
    ``(cover_left, cover_right)``.
    """
    z_left = [False] * n_left
    z_right = [False] * n_right
    q = deque(u for u in range(n_left) if match_l[u] == -1)
    for u in q:
        z_left[u] = True
    while q:
        u = q.popleft()
        for v in adj[u]:
            if not z_right[v]:
                z_right[v] = True
                w = match_r[v]
                if w != -1 and not z_left[w]:
                    z_left[w] = True
                    q.append(w)
    cover_left = np.array([not z for z in z_left], dtype=bool)
    cover_right = np.array(z_right, dtype=bool)
    return cover_left, cover_right


def vertex_separator_from_bisection(graph, where):
    """Smallest vertex separator covering the cut of bisection ``where``.

    Returns ``sep``, an int64 array of separator vertex ids.  Removing
    ``sep`` disconnects the remaining part-0 vertices from the remaining
    part-1 vertices (verified by the tests via BFS).
    """
    a_vertices, b_vertices, adj = boundary_bipartite(graph, where)
    if len(a_vertices) == 0:
        return np.empty(0, dtype=np.int64)
    match_l, match_r = hopcroft_karp(len(a_vertices), len(b_vertices), adj)
    cover_left, cover_right = minimum_vertex_cover(
        len(a_vertices), len(b_vertices), adj, match_l, match_r
    )
    return np.sort(
        np.concatenate([a_vertices[cover_left], b_vertices[cover_right]])
    )
