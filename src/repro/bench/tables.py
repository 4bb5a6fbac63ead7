"""Drivers regenerating Tables 2, 3 and 4 of the paper.

Each driver sweeps one phase's alternatives with the paper's choices fixed
for the other two phases, on (analogues of) the paper's 12-matrix table
set, and reports the same columns:

* Table 2 — matching schemes RM/HEM/LEM/HCM with GGGP + BKLGR fixed;
  columns ``32EC`` (32-way edge-cut), ``CTime``, ``UTime``.
* Table 3 — the same sweep with **no refinement** (``RefinePolicy.NONE``);
  column ``32EC``.  This isolates coarsening quality: how good is the
  projected initial partition by itself.
* Table 4 — refinement policies GR/KLR/BGR/BKLR/BKLGR with HEM + GGGP
  fixed; columns ``32EC``, ``RTime``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import Row, bench_deadline, bench_seed
from repro.core import partition
from repro.core.options import (
    DEFAULT_OPTIONS,
    InitialScheme,
    MatchingScheme,
    RefinePolicy,
)
from repro.matrices import suite

MATCHING_SCHEMES = [
    MatchingScheme.RM,
    MatchingScheme.HEM,
    MatchingScheme.LEM,
    MatchingScheme.HCM,
]

REFINE_POLICIES = [
    RefinePolicy.GR,
    RefinePolicy.KLR,
    RefinePolicy.BGR,
    RefinePolicy.BKLR,
    RefinePolicy.BKLGR,
]


def run_kway(graph, nparts, options, seed):
    """One timed k-way partition; returns (cut, timers dict, wall seconds).

    Honours ``REPRO_BENCH_DEADLINE``: when set, every benchmark partition
    runs under that wall-clock budget (degrading rather than overrunning).
    """
    deadline = bench_deadline()
    if deadline is not None and options.deadline is None:
        options = options.with_(deadline=deadline)
    start = time.perf_counter()
    result = partition(graph, nparts, options, np.random.default_rng(seed))
    wall = time.perf_counter() - start
    return result, wall


def table2_rows(matrices, *, nparts=32, scale=1.0, seed=None) -> list[Row]:
    """Table 2: matching-scheme sweep (GGGP + BKLGR fixed)."""
    seed = bench_seed() if seed is None else seed
    rows = []
    for name in matrices:
        graph = suite.load(name, scale=scale, seed=0)
        for scheme in MATCHING_SCHEMES:
            options = DEFAULT_OPTIONS.with_(
                matching=scheme,
                initial=InitialScheme.GGGP,
                refinement=RefinePolicy.BKLGR,
            )
            result, wall = run_kway(graph, nparts, options, seed)
            timers = result.timers
            ctime = timers.get("CTime", 0.0)
            utime = (
                timers.get("ITime", 0.0)
                + timers.get("RTime", 0.0)
                + timers.get("PTime", 0.0)
            )
            rows.append(
                Row(
                    matrix=name,
                    scheme=scheme.name,
                    values={
                        "32EC": result.cut,
                        "CTime": ctime,
                        "UTime": utime,
                        "wall": wall,
                        "balance": result.balance(graph),
                    },
                )
            )
    return rows


def table3_rows(matrices, *, nparts=32, scale=1.0, seed=None) -> list[Row]:
    """Table 3: matching-scheme sweep with refinement disabled."""
    seed = bench_seed() if seed is None else seed
    rows = []
    for name in matrices:
        graph = suite.load(name, scale=scale, seed=0)
        for scheme in MATCHING_SCHEMES:
            options = DEFAULT_OPTIONS.with_(
                matching=scheme,
                initial=InitialScheme.GGGP,
                refinement=RefinePolicy.NONE,
            )
            result, wall = run_kway(graph, nparts, options, seed)
            rows.append(
                Row(
                    matrix=name,
                    scheme=scheme.name,
                    values={"32EC": result.cut, "wall": wall},
                )
            )
    return rows


def table4_rows(matrices, *, nparts=32, scale=1.0, seed=None) -> list[Row]:
    """Table 4: refinement-policy sweep (HEM + GGGP fixed).

    Runs with ``eager_gains=True`` — the 1995 implementation's cost model,
    in which moves eagerly maintain all neighbours' table gains.  That is
    the regime whose costs Table 4 compares (the boundary policies exist
    to avoid the eager bookkeeping); the library's default lazy-gain FM
    deliberately erases most of that gap (see EXPERIMENTS.md).
    """
    seed = bench_seed() if seed is None else seed
    rows = []
    for name in matrices:
        graph = suite.load(name, scale=scale, seed=0)
        for policy in REFINE_POLICIES:
            options = DEFAULT_OPTIONS.with_(
                matching=MatchingScheme.HEM,
                initial=InitialScheme.GGGP,
                refinement=policy,
                eager_gains=True,
            )
            result, wall = run_kway(graph, nparts, options, seed)
            rows.append(
                Row(
                    matrix=name,
                    scheme=policy.name,
                    values={
                        "32EC": result.cut,
                        "RTime": result.timers.get("RTime", 0.0),
                        "wall": wall,
                    },
                )
            )
    return rows
