"""Regression tests for the cached CSR expansion arrays.

``CSRGraph.degrees()`` / ``CSRGraph.edge_sources()`` /
``CSRGraph.weighted_degrees()`` exist so hot paths (gain seeding,
boundary extraction, metrics, GGGP) stop re-materialising
``np.diff(xadj)`` / ``np.repeat(arange, degrees)`` / the per-vertex edge
weight sums on every call.  These tests pin the contract: one build per
graph, ever — and :class:`TestCoreUsesTheCaches` keeps inline rebuilds
out of ``core/``.
"""

import os
import sys

import numpy as np

import repro.core
from repro.core.gains import external_internal_degrees
from repro.core.initial import gggp_bisection
from repro.core.kway_refine import partition_refined
from repro.core.multilevel import bisect
from repro.core.options import (
    DEFAULT_OPTIONS,
    InitialScheme,
    MatchingScheme,
    RefinePolicy,
)
from repro.graph import CSRGraph, from_edge_list
from repro.matrices import grid2d, suite
from repro.ordering import mlnd_ordering
from tests.conftest import random_graph


class TestCachedArrays:
    def test_degrees_cached_and_correct(self):
        g = grid2d(6, 5)
        first = g.degrees()
        assert np.array_equal(first, np.diff(g.xadj))
        assert g.degrees() is first

    def test_edge_sources_cached_and_correct(self):
        g = grid2d(6, 5)
        src = g.edge_sources()
        expected = np.repeat(
            np.arange(g.nvtxs, dtype=np.int64), np.diff(g.xadj)
        )
        assert np.array_equal(src, expected)
        assert g.edge_sources() is src

    def test_one_repeat_build_per_graph(self, monkeypatch):
        g = random_graph(40, 0.15, seed=2)
        calls = {"repeat": 0}
        real_repeat = np.repeat

        def counting_repeat(*args, **kwargs):
            calls["repeat"] += 1
            return real_repeat(*args, **kwargs)

        monkeypatch.setattr(np, "repeat", counting_repeat)
        g.edge_sources()
        g.edge_sources()
        where = np.zeros(g.nvtxs, dtype=np.int32)
        where[: g.nvtxs // 2] = 1
        external_internal_degrees(g, where)
        external_internal_degrees(g, where)
        assert calls["repeat"] == 1, (
            f"expected exactly one np.repeat build per graph, "
            f"saw {calls['repeat']}"
        )

    def test_weighted_degrees_cached_and_correct(self):
        g = random_graph(30, 0.2, seed=4)
        wdeg = g.weighted_degrees()
        expected = np.zeros(g.nvtxs, dtype=np.int64)
        np.add.at(expected, g.edge_sources(), g.adjwgt)
        assert wdeg.dtype == np.int64
        assert np.array_equal(wdeg, expected)
        assert g.weighted_degrees() is wdeg
        edgeless = from_edge_list(3, [])
        assert edgeless.weighted_degrees().tolist() == [0, 0, 0]

    def test_one_weighted_degrees_build_per_graph(self, monkeypatch):
        g = random_graph(40, 0.15, seed=2)
        builds = []
        real_row_sums = CSRGraph.row_sums

        def counting_row_sums(graph, values):
            if values is graph.adjwgt:
                builds.append(graph)
            return real_row_sums(graph, values)

        monkeypatch.setattr(CSRGraph, "row_sums", counting_row_sums)
        wdeg = g.weighted_degrees()
        where = np.zeros(g.nvtxs, dtype=np.int32)
        where[: g.nvtxs // 2] = 1
        external_internal_degrees(g, where)
        external_internal_degrees(g, where)
        gggp_bisection(g, rng=np.random.default_rng(0))
        assert g.weighted_degrees() is wdeg
        assert builds == [g], (
            f"expected exactly one weighted_degrees() build per graph, "
            f"saw {len(builds)}"
        )

    def test_gain_seeding_matches_bruteforce(self):
        g = random_graph(30, 0.2, seed=9)
        where = (np.arange(g.nvtxs) % 2).astype(np.int32)
        ed, idg = external_internal_degrees(g, where)
        for v in range(g.nvtxs):
            nbrs = g.adjncy[g.xadj[v]: g.xadj[v + 1]]
            wgts = g.adjwgt[g.xadj[v]: g.xadj[v + 1]]
            ext = int(wgts[where[nbrs] != where[v]].sum())
            int_ = int(wgts[where[nbrs] == where[v]].sum())
            assert ed[v] == ext
            assert idg[v] == int_


class TestCoreUsesTheCaches:
    """``core/`` rebuilds no degree array (``np.diff`` of CSR offsets) and
    no edge-source array (``np.repeat`` by per-vertex counts) inline: every
    driver reads the graph's cached expansions instead."""

    def test_no_inline_expansion_in_core(self, monkeypatch):
        core = os.path.dirname(repro.core.__file__)
        real_diff, real_repeat = np.diff, np.repeat
        rebuilt = []

        def note_if_core(what):
            frame = sys._getframe(2)
            if os.path.dirname(frame.f_code.co_filename) == core:
                rebuilt.append(f"{what} at {frame.f_code.co_filename}:"
                               f"{frame.f_lineno}")

        def diff(a, *args, **kwargs):
            a_ = np.asarray(a)
            if (a_.ndim == 1 and a_.dtype.kind in "iu" and a_.size
                    and a_[0] == 0 and (real_diff(a_) >= 0).all()):
                note_if_core("np.diff of CSR offsets")
            return real_diff(a, *args, **kwargs)

        def repeat(a, repeats, *args, **kwargs):
            if np.ndim(repeats) == 1:
                note_if_core("np.repeat by per-vertex counts")
            return real_repeat(a, repeats, *args, **kwargs)

        monkeypatch.setattr(np, "diff", diff)
        monkeypatch.setattr(np, "repeat", repeat)
        mesh = suite.load("4ELT", scale=0.1, seed=0)
        for scheme in MatchingScheme:
            bisect(mesh, DEFAULT_OPTIONS.with_(matching=scheme), 0)
        for policy in RefinePolicy:
            bisect(mesh, DEFAULT_OPTIONS.with_(refinement=policy), 0)
        for initial in InitialScheme:
            bisect(mesh, DEFAULT_OPTIONS.with_(initial=initial), 0)
        partition_refined(mesh, 4, DEFAULT_OPTIONS, 0)
        mlnd_ordering(grid2d(12, 12), DEFAULT_OPTIONS, 0)
        assert rebuilt == []
