"""Tests for the KL/FM refinement pass and the five policies (§3.3).

The ``loop`` kernel :func:`repro.core.refine.fm_pass` walks each moved
vertex's adjacency as Python scalars.  ``_reference_fm_pass`` below keeps
the per-move NumPy formulation it replaced; a hypothesis sweep asserts the
two are bit-identical, and a ``perf``-marked test that the scalar scan is
the faster of the two on a large mesh.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gains import external_internal_degrees, make_gain_tables
from repro.core.options import DEFAULT_OPTIONS, RefinePolicy
from repro.core.run import Run
from repro.core.refine import (
    PassStats,
    _balance_key,
    fm_pass,
    refine_bisection,
)
from repro.graph import Bisection, edge_cut, from_edge_list, part_weights
from repro.matrices import grid2d
from tests.conftest import (
    assert_valid_bisection,
    dumbbell_graph,
    interleaved_best,
    path_graph,
    random_graph,
)


def _reference_fm_pass(
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
    """The per-move NumPy formulation of one FM pass, kept as the oracle.

    The loop kernel :func:`repro.core.refine.fm_pass` must reproduce this
    bit for bit: the same moves, the same pushes into the gain tables with
    the same gains in the same order, hence the same ``where``, ``pwgts``,
    cut, improvement and :class:`PassStats`.  Each move gathers its
    neighbours' sides and degrees with fancy indexing and updates the
    degrees with one vectorised scatter.
    """
    n = graph.nvtxs
    xadj, adjncy, adjwgt, vwgt = graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt
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

    locked = np.zeros(n, dtype=bool)
    moved: list[int] = []
    best_prefix = 0
    start_key = _balance_key(pwgts, maxpwgt, cut)
    best_key = start_key
    since_best = 0
    # Per-pass counters (folded into the cumulative ``stats`` at the end so
    # the traced event can report this pass alone, not the running totals).
    tried = 0
    rejected = 0
    boundary0 = int((ed > 0).sum()) if span else 0

    def pop_valid(side):
        """Best unlocked vertex of ``side`` with an up-to-date gain.

        Gains in the tables are *lazy*: neighbour updates do not touch the
        heap.  A popped entry whose stored gain is stale is re-pushed with
        the current gain and the pop retried — the amortised cost matches
        eager updates while the per-move bookkeeping drops to O(deg) NumPy
        work.
        """
        table = tables[side]
        while True:
            item = table.pop_best()
            if item is None:
                return None
            v, gain = item
            if locked[v]:
                continue
            gain_now = int(ed[v] - id_[v])
            # Both sides are exact ints (ed/id_ are int64 arrays).
            if gain_now != gain:  # repro: noqa[RP004]
                table.push(v, gain_now)
                continue
            return v, gain

    while since_best < early_exit:
        c0 = pop_valid(0)
        c1 = pop_valid(1)
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
            side = 0 if pwgts[0] >= pwgts[1] else 1
        v, gain = (c0, c1)[side]
        unchosen = (c0, c1)[1 - side]
        if unchosen is not None:
            tables[1 - side].push(unchosen[0], unchosen[1])
        other = 1 - side
        w_v = int(vwgt[v])
        if int(pwgts[side]) == w_v:
            locked[v] = True  # moving v would empty its side
            rejected += 1
            continue
        dest_after = int(pwgts[other]) + w_v
        # Balance gate: the move must keep the destination under its cap,
        # unless it strictly reduces total overweight (repair move).
        if dest_after > maxpwgt[other]:
            over_before = max(0, int(pwgts[0]) - maxpwgt[0]) + max(
                0, int(pwgts[1]) - maxpwgt[1]
            )
            over_after = max(0, int(pwgts[side]) - w_v - maxpwgt[side]) + max(
                0, dest_after - maxpwgt[other]
            )
            if over_after >= over_before:
                locked[v] = True  # unusable this pass
                rejected += 1
                continue

        # Execute the move.
        tried += 1
        where[v] = other
        pwgts[side] -= w_v
        pwgts[other] += w_v
        cut -= gain
        ed[v], id_[v] = id_[v], ed[v]
        locked[v] = True
        moved.append(v)

        # Vectorised neighbour degree update; under lazy gains the tables
        # are only told about *new* boundary vertices (stale entries are
        # corrected at pop time); under the 1995-style eager mode every
        # unlocked neighbour's table entry is refreshed on the spot.
        s, e = xadj[v], xadj[v + 1]
        nbrs = adjncy[s:e]
        w = adjwgt[s:e]
        became_internal = where[nbrs] == other
        delta = np.where(became_internal, -w, w)
        was_interior = ed[nbrs] == 0
        ed[nbrs] += delta
        id_[nbrs] -= delta
        # The gain/side/degree lookups for the touched neighbours are done
        # as single fancy-indexing gathers (one NumPy call each) instead of
        # per-vertex scalar indexing; only the unavoidable per-entry heap
        # pushes remain as Python-level iteration, over plain ints.
        if eager:
            active = nbrs[~locked[nbrs]]
            if len(active):
                gains_a = (ed[active] - id_[active]).tolist()
                eds_a = ed[active].tolist()
                sides_a = where_arr[active].tolist()
                for u, s_u, g_u, e_u in zip(
                    active.tolist(), sides_a, gains_a, eds_a
                ):
                    table_u = tables[s_u]
                    if u in table_u:
                        table_u.update(u, g_u)
                    elif not boundary_only or e_u > 0:
                        table_u.push(u, g_u)
        elif boundary_only:
            fresh = nbrs[was_interior & (delta > 0) & ~locked[nbrs]]
            if len(fresh):
                gains_f = (ed[fresh] - id_[fresh]).tolist()
                sides_f = where_arr[fresh].tolist()
                for u, s_u, g_u in zip(fresh.tolist(), sides_f, gains_f):
                    tables[s_u].push(u, g_u)

        key = _balance_key(pwgts, maxpwgt, cut)
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
        side = int(where[v])
        other = 1 - side
        w_v = int(vwgt[v])
        where[v] = other
        pwgts[side] -= w_v
        pwgts[other] += w_v

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


def make_state(graph, where):
    where = np.asarray(where, dtype=np.int8).copy()
    pwgts = part_weights(graph, where, 2)
    cut = edge_cut(graph, where)
    return where, pwgts, cut


def loose_caps(graph):
    cap = int(np.ceil(0.6 * graph.total_vwgt()))
    return (cap, cap)


class TestFmPass:
    def test_finds_dumbbell_bridge(self):
        """From a bad split, one pass must recover the bridge cut."""
        g = dumbbell_graph(k=5)
        # Bad split: one clique vertex stranded on the wrong side.
        where = np.array([1] + [0] * 4 + [1] * 5, dtype=np.int8)
        where, pwgts, cut = make_state(g, where)
        new_cut, improvement = fm_pass(
            g, where, pwgts, loose_caps(g), cut,
            boundary_only=False, early_exit=50,
        )
        assert improvement > 0
        assert new_cut == 1  # exactly the bridge
        assert edge_cut(g, where) == new_cut
        assert np.array_equal(part_weights(g, where, 2), pwgts)

    def test_no_move_when_optimal(self):
        g = dumbbell_graph(k=4)
        where = np.array([0] * 4 + [1] * 4, dtype=np.int8)
        where, pwgts, cut = make_state(g, where)
        new_cut, improvement = fm_pass(
            g, where, pwgts, loose_caps(g), cut,
            boundary_only=True, early_exit=50,
        )
        assert new_cut == cut == 1
        assert improvement == 0

    def test_never_worsens_state(self):
        g = random_graph(50, 0.15, seed=1)
        rng = np.random.default_rng(0)
        for trial in range(5):
            where = rng.integers(0, 2, g.nvtxs).astype(np.int8)
            where, pwgts, cut = make_state(g, where)
            before = cut
            new_cut, _ = fm_pass(
                g, where, pwgts, loose_caps(g), cut,
                boundary_only=False, early_exit=50,
            )
            assert new_cut <= before
            assert edge_cut(g, where) == new_cut

    def test_boundary_pass_consistent(self):
        g = random_graph(50, 0.15, seed=2)
        rng = np.random.default_rng(1)
        where = rng.integers(0, 2, g.nvtxs).astype(np.int8)
        where, pwgts, cut = make_state(g, where)
        new_cut, _ = fm_pass(
            g, where, pwgts, loose_caps(g), cut,
            boundary_only=True, early_exit=50,
        )
        assert edge_cut(g, where) == new_cut
        assert np.array_equal(part_weights(g, where, 2), pwgts)

    def test_respects_balance_caps(self):
        # Path with tight caps: no vertex may move if it would overload.
        g = path_graph(10)
        where = np.array([0] * 5 + [1] * 5, dtype=np.int8)
        where, pwgts, cut = make_state(g, where)
        maxp = (5, 5)  # exactly balanced; any move violates
        new_cut, improvement = fm_pass(
            g, where, pwgts, loose_caps(g), cut,
            boundary_only=False, early_exit=50,
        )
        # With loose caps moves may happen; with tight caps they must not.
        where2 = np.array([0] * 5 + [1] * 5, dtype=np.int8)
        where2, pwgts2, cut2 = make_state(g, where2)
        fm_pass(g, where2, pwgts2, maxp, cut2, boundary_only=False, early_exit=50)
        assert np.abs(pwgts2[0] - pwgts2[1]) <= 0  # still balanced
        assert max(pwgts2) <= 5

    def test_repairs_overweight_partition(self):
        """A pass must be able to fix a partition that starts unbalanced."""
        g = path_graph(12)
        where = np.zeros(12, dtype=np.int8)
        where[-1] = 1  # 11 vs 1
        where, pwgts, cut = make_state(g, where)
        maxp = (8, 8)
        fm_pass(g, where, pwgts, maxp, cut, boundary_only=True, early_exit=50)
        assert pwgts.max() <= 8

    def test_early_exit_limits_futile_moves(self):
        g = random_graph(80, 0.1, seed=3)
        rng = np.random.default_rng(2)
        where = rng.integers(0, 2, g.nvtxs).astype(np.int8)
        where, pwgts, cut = make_state(g, where)
        stats = PassStats()
        fm_pass(
            g, where, pwgts, loose_caps(g), cut,
            boundary_only=False, early_exit=3, stats=stats,
        )
        # All vertices were seeded but early exit must stop well short of
        # moving everyone.
        assert stats.moves_tried < g.nvtxs


class TestRefinePolicies:
    @pytest.mark.parametrize("policy", list(RefinePolicy))
    def test_policies_preserve_consistency(self, policy):
        g = random_graph(60, 0.12, seed=4)
        rng = np.random.default_rng(3)
        where = rng.integers(0, 2, g.nvtxs).astype(np.int8)
        b = Bisection.from_where(g, where)
        before = b.cut
        refine_bisection(g, b, policy, DEFAULT_OPTIONS)
        assert_valid_bisection(g, b)
        if policy is not RefinePolicy.NONE:
            assert b.cut <= before

    def test_none_is_identity(self):
        g = random_graph(40, 0.2, seed=5)
        rng = np.random.default_rng(4)
        where = rng.integers(0, 2, g.nvtxs).astype(np.int8)
        b = Bisection.from_where(g, where)
        snapshot = b.where.copy()
        refine_bisection(g, b, RefinePolicy.NONE, DEFAULT_OPTIONS)
        assert np.array_equal(b.where, snapshot)

    def test_klr_at_least_as_good_as_gr(self):
        g = random_graph(80, 0.1, seed=6)
        rng1 = np.random.default_rng(5)
        where = rng1.integers(0, 2, g.nvtxs).astype(np.int8)
        b_gr = Bisection.from_where(g, where.copy())
        b_klr = Bisection.from_where(g, where.copy())
        refine_bisection(g, b_gr, RefinePolicy.GR, DEFAULT_OPTIONS)
        refine_bisection(g, b_klr, RefinePolicy.KLR, DEFAULT_OPTIONS)
        assert b_klr.cut <= b_gr.cut

    def test_bklgr_switches_on_boundary_size(self):
        """With a huge boundary BKLGR must behave like single-pass BGR."""
        g = random_graph(60, 0.3, seed=7)
        rng = np.random.default_rng(6)
        where = rng.integers(0, 2, g.nvtxs).astype(np.int8)
        b_hybrid = Bisection.from_where(g, where.copy())
        b_bgr = Bisection.from_where(g, where.copy())
        options = DEFAULT_OPTIONS.with_(bklgr_boundary_fraction=0.0)
        refine_bisection(g, b_hybrid, RefinePolicy.BKLGR, options)
        refine_bisection(g, b_bgr, RefinePolicy.BGR, options)
        assert b_hybrid.cut == b_bgr.cut

    def test_bklgr_multi_pass_when_boundary_small(self):
        g = random_graph(60, 0.3, seed=8)
        rng = np.random.default_rng(7)
        where = rng.integers(0, 2, g.nvtxs).astype(np.int8)
        b_hybrid = Bisection.from_where(g, where.copy())
        b_bklr = Bisection.from_where(g, where.copy())
        options = DEFAULT_OPTIONS.with_(bklgr_boundary_fraction=1.0)
        refine_bisection(g, b_hybrid, RefinePolicy.BKLGR, options)
        refine_bisection(g, b_bklr, RefinePolicy.BKLR, options)
        assert b_hybrid.cut == b_bklr.cut

    def test_empty_graph_noop(self):
        from repro.graph import from_edge_list

        g = from_edge_list(0, [])
        b = Bisection.from_where(g, np.zeros(0, dtype=np.int8))
        refine_bisection(g, b, RefinePolicy.KLR, DEFAULT_OPTIONS)
        assert b.cut == 0

    def test_stats_accumulate(self):
        g = random_graph(60, 0.12, seed=9)
        rng = np.random.default_rng(8)
        where = rng.integers(0, 2, g.nvtxs).astype(np.int8)
        b = Bisection.from_where(g, where)
        stats = PassStats()
        refine_bisection(g, b, RefinePolicy.KLR, DEFAULT_OPTIONS, stats=stats)
        assert stats.moves_tried >= stats.moves_kept >= 0
        assert stats.improvement >= 0


@st.composite
def _split_graphs(draw):
    """A small graph with 1–3 isolated vertices, tie-prone edge weights in
    1..3, vertex weights in 1..4 and a random two-way split."""
    n = draw(st.integers(1, 30))
    isolated = draw(st.integers(1, 3))
    total = n + isolated
    label = draw(st.permutations(range(total)))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=80)
    ) if possible else []
    edges = [(label[i], label[j]) for i, j in pairs]
    weights = draw(
        st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges))
    )
    vwgt = draw(st.lists(st.integers(1, 4), min_size=total, max_size=total))
    where = draw(st.lists(st.integers(0, 1), min_size=total, max_size=total))
    graph = from_edge_list(total, edges, weights, vwgt=vwgt)
    return graph, np.array(where, dtype=np.int8)


def _run_pass(impl, graph, where0, cap, *, pass_degrees, **kwargs):
    """One pass of ``impl`` from ``where0``; everything it returns or mutates."""
    where, pwgts, cut = make_state(graph, where0)
    degrees = {}
    if pass_degrees:
        ed, id_ = external_internal_degrees(graph, where)
        degrees = {"ed": ed, "id_": id_}
    stats = PassStats()
    result = impl(
        graph, where, pwgts, (cap, cap), cut, stats=stats, **degrees, **kwargs
    )
    return result, where, pwgts, stats, degrees


@pytest.mark.parametrize("gain_table", ["heap", "bucket"])
@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
@pytest.mark.parametrize(
    "boundary_only", [False, True], ids=["all", "boundary"]
)
class TestReferenceOracle:
    """The scalar-scan pass is bit-identical to the NumPy reference."""

    @settings(max_examples=50, deadline=None)
    @given(case=_split_graphs())
    def test_random_graphs(self, boundary_only, eager, gain_table, case):
        graph, where0 = case
        total = graph.total_vwgt()
        # A cap of half the total weight drives the balance gate and the
        # repair path; 0.7 leaves the moves nearly free.
        for frac in (0.5, 0.55, 0.7):
            cap = int(np.ceil(frac * total))
            for early_exit in (1, 3, 50):
                for pass_degrees in (False, True):
                    kwargs = dict(
                        boundary_only=boundary_only, early_exit=early_exit,
                        eager=eager, gain_table=gain_table,
                        pass_degrees=pass_degrees,
                    )
                    got = _run_pass(fm_pass, graph, where0, cap, **kwargs)
                    ref = _run_pass(
                        _reference_fm_pass, graph, where0, cap, **kwargs
                    )
                    case_id = (frac, early_exit, pass_degrees)
                    assert got[0] == ref[0], case_id
                    assert np.array_equal(got[1], ref[1]), case_id
                    assert np.array_equal(got[2], ref[2]), case_id
                    assert got[3] == ref[3], case_id
                    # Caller-supplied degrees are mutated identically too.
                    for name, arr in got[4].items():
                        assert np.array_equal(arr, ref[4][name]), case_id


class _ReferenceKernels:
    """Kernel selection whose ``fm`` phase is the reference pass."""

    def kernel(self, phase):
        assert phase == "fm"
        return _reference_fm_pass

    def backend(self, phase):
        return "reference"


@pytest.mark.parametrize("gain_table", ["heap", "bucket"])
@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
@pytest.mark.parametrize("policy", list(RefinePolicy))
def test_policies_match_reference_passes(policy, eager, gain_table):
    """refine_bisection hands its degree arrays to the first pass only;
    every policy must still end where the reference passes end."""
    g = random_graph(60, 0.12, seed=10)
    rng = np.random.default_rng(9)
    where = rng.integers(0, 2, g.nvtxs).astype(np.int8)
    options = DEFAULT_OPTIONS.with_(eager_gains=eager, gain_table=gain_table)
    runs = []
    reference = replace(Run.branch(options), kernels=_ReferenceKernels())
    for run in (None, reference):
        b = Bisection.from_where(g, where.copy())
        stats = PassStats()
        refine_bisection(g, b, policy, options, stats=stats, run=run)
        runs.append((b, stats))
    (got, got_stats), (ref, ref_stats) = runs
    assert got.cut == ref.cut
    assert np.array_equal(got.where, ref.where)
    assert np.array_equal(got.pwgts, ref.pwgts)
    assert got_stats == ref_stats


@pytest.mark.perf
class TestKernelSpeed:
    def test_loop_fm_pass_1_5x_over_reference_on_100k_mesh(self):
        # The random split of TestNumbaSpeedup in tests/test_kernels.py.
        g = grid2d(320, 320)
        rng = np.random.default_rng(0)
        where0 = (rng.random(g.nvtxs) < 0.5).astype(np.int32)
        cap = int(np.ceil(1.05 * g.total_vwgt() / 2))

        def run(impl):
            where, pwgts, cut = make_state(g, where0)
            result = impl(
                g, where, pwgts, (cap, cap), cut,
                boundary_only=False, early_exit=100,
            )
            return result, where, pwgts

        (t_ref, ref), (t_loop, got) = interleaved_best(
            lambda: run(_reference_fm_pass), lambda: run(fm_pass), repeats=2
        )
        assert got[0] == ref[0]
        assert np.array_equal(got[1], ref[1])
        assert np.array_equal(got[2], ref[2])
        assert t_ref / t_loop >= 1.5, (
            f"loop fm_pass only {t_ref / t_loop:.2f}x faster than the "
            f"reference (reference {t_ref:.3f}s, loop {t_loop:.3f}s)"
        )
