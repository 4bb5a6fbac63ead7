"""Tests for the multiple-minimum-degree ordering.

:func:`repro.ordering.mmd_ordering` keeps supervariable weights and degree
sums as Python ints.  ``_reference_mmd_ordering`` below keeps the NumPy
fancy-indexed degree sums it replaced; a hypothesis sweep asserts the two
orderings are identical, and a ``perf``-marked test that the rewrite is
the faster one on an MLND-leaf-sized graph.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices import grid2d
from repro.ordering import (
    Ordering,
    factor_stats,
    minimum_degree_ordering,
    mmd_ordering,
)
from tests.conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)
from tests.test_properties import graphs


def _reference_mmd_ordering(graph, delta=0):
    """MMD with ndarray weights and a fancy-indexed sum per degree update."""
    n = graph.nvtxs
    if n == 0:
        return Ordering.identity(0, "mmd")

    adj_vars: list[set] = [
        set(int(u) for u in graph.neighbors(v)) for v in range(n)
    ]
    adj_elems: list[set] = [set() for _ in range(n)]
    elem_vars: dict[int, set] = {}
    weight = np.ones(n, dtype=np.int64)
    members: list[list[int]] = [[v] for v in range(n)]
    alive = [True] * n
    eliminated = [False] * n

    degree = [int(weight[list(adj_vars[v])].sum()) if adj_vars[v] else 0
              for v in range(n)]

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
        candidates = []
        for d in sorted(buckets):
            if d > threshold:
                break
            candidates.extend(sorted(buckets[d]))

        touched: set = set()
        for v in candidates:
            if eliminated[v] or not alive[v] or v in touched:
                continue
            rv = reach(v)
            absorbed = list(adj_elems[v])
            elem_vars[v] = rv
            for e in absorbed:
                elem_vars.pop(e, None)
            for u in rv:
                adj_vars[u].discard(v)
                adj_vars[u] -= rv
                adj_elems[u] -= set(absorbed)
                adj_elems[u].add(v)
            eliminated[v] = True
            b = buckets.get(degree[v])
            if b is not None:
                b.discard(v)
                if not b:
                    del buckets[degree[v]]
            order.append(v)
            remaining -= int(weight[v])
            touched |= rv

        sig: dict = {}
        for u in sorted(touched):
            if eliminated[u] or not alive[u]:
                continue
            key = (
                frozenset(adj_elems[u]),
                frozenset(adj_vars[u] | {u}),
            )
            other = sig.get(key)
            if other is not None:
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
            new_d = int(weight[list(r)].sum()) if r else 0
            bucket_move(u, degree[u], new_d)
            degree[u] = new_d

    perm = np.fromiter(
        (orig for v in order for orig in members[v]), dtype=np.int64, count=n
    )
    return Ordering.from_perm(perm, "mmd")


def _assert_same_ordering(got, ref):
    for name in ("perm", "iperm"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)
    assert got.method == ref.method


class TestValidity:
    @pytest.mark.parametrize(
        "graph",
        [
            path_graph(12),
            cycle_graph(9),
            star_graph(7),
            complete_graph(6),
            random_graph(40, 0.15, seed=1),
            random_graph(40, 0.02, seed=2),  # sparse, disconnected
        ],
        ids=["path", "cycle", "star", "clique", "random", "sparse"],
    )
    def test_produces_permutation(self, graph):
        mmd_ordering(graph).verify()

    def test_empty_graph(self):
        from repro.graph import from_edge_list

        o = mmd_ordering(from_edge_list(0, []))
        assert len(o) == 0

    def test_edgeless_graph(self):
        from repro.graph import from_edge_list

        o = mmd_ordering(from_edge_list(5, []))
        o.verify()

    def test_method_tag(self):
        assert mmd_ordering(path_graph(4)).method == "mmd"


class TestQuality:
    def test_tree_ordering_is_perfect(self):
        """Trees have perfect elimination orders; minimum degree finds one
        (always a leaf available), so MMD must produce zero fill."""
        rng = np.random.default_rng(3)
        n = 60
        edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
        from repro.graph import from_edge_list

        g = from_edge_list(n, edges)
        stats = factor_stats(g, mmd_ordering(g).perm)
        assert stats.fill == 0

    def test_path_no_fill(self):
        g = path_graph(30)
        stats = factor_stats(g, mmd_ordering(g).perm)
        assert stats.fill == 0

    def test_star_no_fill(self):
        """Leaves have degree 1 < centre, so MMD orders the centre last."""
        g = star_graph(20)
        o = mmd_ordering(g)
        assert o.perm[-1] == 0
        assert factor_stats(g, o.perm).fill == 0

    def test_cycle_minimal_fill(self):
        # Optimal fill of an n-cycle is n-3 (triangulation of a polygon).
        g = cycle_graph(12)
        stats = factor_stats(g, mmd_ordering(g).perm)
        assert stats.fill == 9

    def test_beats_natural_on_grid(self):
        from repro.matrices import grid2d

        g = grid2d(14, 14)
        natural = factor_stats(g, np.arange(g.nvtxs))
        md = factor_stats(g, mmd_ordering(g).perm)
        assert md.opcount < natural.opcount / 2

    def test_beats_random_ordering(self):
        g = random_graph(50, 0.1, seed=4, connected=True)
        rnd = factor_stats(g, np.random.default_rng(0).permutation(g.nvtxs))
        md = factor_stats(g, mmd_ordering(g).perm)
        assert md.opcount <= rnd.opcount

    def test_delta_variants_all_valid(self):
        g = random_graph(50, 0.1, seed=5, connected=True)
        for delta in (0, 1, 2):
            mmd_ordering(g, delta=delta).verify()

    def test_minimum_degree_alias(self):
        g = path_graph(10)
        minimum_degree_ordering(g).verify()

    def test_deterministic(self):
        g = random_graph(40, 0.15, seed=6)
        a = mmd_ordering(g)
        b = mmd_ordering(g)
        assert np.array_equal(a.perm, b.perm)

    def test_supervariables_on_clique_graph(self):
        """All vertices of a clique are indistinguishable after the first
        round; the ordering must still be a valid permutation and fill-free
        (cliques are already dense)."""
        g = complete_graph(8)
        o = mmd_ordering(g)
        o.verify()
        assert factor_stats(g, o.perm).fill == 0


class TestReferenceOracle:
    """Python-int degree sums give the reference's ordering exactly."""

    @settings(max_examples=200, deadline=None)
    @given(graph=graphs(weighted=True, min_n=0), delta=st.integers(0, 2))
    def test_random_graphs(self, graph, delta):
        _assert_same_ordering(
            mmd_ordering(graph, delta), _reference_mmd_ordering(graph, delta)
        )

    @pytest.mark.parametrize("delta", [0, 1])
    def test_leaf_sized_graphs(self, delta):
        # Supervariables form on meshes and cliques; the random graph is
        # disconnected.
        for graph in (grid2d(12, 10), complete_graph(9),
                      random_graph(120, 0.03, seed=8)):
            _assert_same_ordering(
                mmd_ordering(graph, delta),
                _reference_mmd_ordering(graph, delta),
            )


@pytest.mark.perf
class TestSpeed:
    def test_mmd_1_5x_over_reference_on_a_leaf(self):
        # MLND's default leaf size is 120 vertices.
        graph = grid2d(12, 10)

        def run(impl):
            best, result = float("inf"), None
            for _ in range(10):
                t0 = time.perf_counter()
                result = impl(graph)
                best = min(best, time.perf_counter() - t0)
            return best, result

        t_ref, ref = run(_reference_mmd_ordering)
        t_new, got = run(mmd_ordering)
        _assert_same_ordering(got, ref)
        assert t_ref / t_new >= 1.5, (
            f"mmd_ordering only {t_ref / t_new:.2f}x faster than the "
            f"reference (reference {t_ref:.4f}s, new {t_new:.4f}s)"
        )
