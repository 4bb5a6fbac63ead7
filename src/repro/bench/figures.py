"""Drivers regenerating Figures 1–5 of the paper.

Figures 1–3 plot, per matrix, the ratio of our multilevel algorithm's
edge-cut to a baseline's (MSB, MSB-KL, Chaco-ML) for three part counts;
bars under 1.0 mean the multilevel algorithm wins.  Figure 4 plots the
baselines' 256-way runtimes relative to ours (bars above 1.0 mean we are
faster by that factor).  Figure 5 plots ordering opcount ratios MMD/MLND
and SND/MLND (bars above 1.0 mean MLND produces the better ordering).

Part counts are scaled with the graphs: the suite graphs are ~1/10 the
paper's orders, so the paper's (64, 128, 256) becomes (16, 32, 64) by
default — the vertices-per-part ratio, which is what drives the curves,
is preserved.  Pass ``nparts_list`` explicitly to override.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import Row, bench_seed
from repro.core import partition
from repro.core.options import DEFAULT_OPTIONS
from repro.matrices import suite
from repro.ordering import factor_stats, mlnd_ordering, mmd_ordering, snd_ordering
from repro.spectral.chaco_ml import chaco_ml_partition
from repro.spectral.msb import msb_partition
from repro.utils.errors import ConfigurationError

#: Paper part counts (64, 128, 256) scaled to the suite's graph orders.
DEFAULT_NPARTS = (16, 32, 64)


def _ml_cut(graph, nparts, seed, options):
    result = partition(graph, nparts, options, np.random.default_rng(seed))
    return result


def cut_ratio_rows(
    matrices,
    baseline: str,
    *,
    nparts_list=DEFAULT_NPARTS,
    scale=1.0,
    seed=None,
) -> list[Row]:
    """Figures 1–3: edge-cut ratios ML / baseline per matrix and k.

    ``baseline`` is ``"msb"``, ``"msb-kl"`` or ``"chaco-ml"``.
    """
    seed = bench_seed() if seed is None else seed
    options = DEFAULT_OPTIONS
    runners = {
        "msb": lambda g, k, s: msb_partition(
            g, k, options, np.random.default_rng(s)
        ),
        "msb-kl": lambda g, k, s: msb_partition(
            g, k, options, np.random.default_rng(s), kl_refine=True
        ),
        "chaco-ml": lambda g, k, s: chaco_ml_partition(
            g, k, options, np.random.default_rng(s)
        ),
    }
    if baseline not in runners:
        raise ConfigurationError(f"unknown baseline {baseline!r}; one of {sorted(runners)}")
    run_baseline = runners[baseline]

    rows = []
    for name in matrices:
        graph = suite.load(name, scale=scale, seed=0)
        values = {}
        for nparts in nparts_list:
            t0 = time.perf_counter()
            ours = _ml_cut(graph, nparts, seed, options)
            t_ours = time.perf_counter() - t0
            t0 = time.perf_counter()
            theirs = run_baseline(graph, nparts, seed)
            t_theirs = time.perf_counter() - t0
            values[f"ratio_{nparts}"] = (
                ours.cut / theirs.cut if theirs.cut else float("nan")
            )
            values[f"ml_cut_{nparts}"] = ours.cut
            values[f"base_cut_{nparts}"] = theirs.cut
            values[f"ml_time_{nparts}"] = t_ours
            values[f"base_time_{nparts}"] = t_theirs
        rows.append(Row(matrix=name, scheme=baseline, values=values))
    return rows


def runtime_rows(
    matrices,
    *,
    nparts=64,
    scale=1.0,
    seed=None,
) -> list[Row]:
    """Figure 4: baseline runtimes relative to the multilevel algorithm.

    ``nparts=64`` is the scaled analogue of the paper's 256-way runs.
    """
    seed = bench_seed() if seed is None else seed
    options = DEFAULT_OPTIONS
    rows = []
    for name in matrices:
        graph = suite.load(name, scale=scale, seed=0)
        t0 = time.perf_counter()
        partition(graph, nparts, options, np.random.default_rng(seed))
        t_ml = time.perf_counter() - t0

        t0 = time.perf_counter()
        chaco_ml_partition(graph, nparts, options, np.random.default_rng(seed))
        t_chaco = time.perf_counter() - t0

        t0 = time.perf_counter()
        msb_partition(graph, nparts, options, np.random.default_rng(seed))
        t_msb = time.perf_counter() - t0

        t0 = time.perf_counter()
        msb_partition(
            graph, nparts, options, np.random.default_rng(seed), kl_refine=True
        )
        t_msbkl = time.perf_counter() - t0

        rows.append(
            Row(
                matrix=name,
                scheme="runtime",
                values={
                    "ml_seconds": t_ml,
                    "chaco_ml_rel": t_chaco / t_ml,
                    "msb_rel": t_msb / t_ml,
                    "msb_kl_rel": t_msbkl / t_ml,
                },
            )
        )
    return rows


def ordering_rows(matrices, *, scale=1.0, seed=None) -> list[Row]:
    """Figure 5: opcount of MMD and SND relative to MLND per matrix.

    Also reports the concurrency metrics (§4.3's second argument for MLND):
    elimination-tree available parallelism for each ordering.
    """
    seed = bench_seed() if seed is None else seed
    options = DEFAULT_OPTIONS
    rows = []
    for name in matrices:
        graph = suite.load(name, scale=scale, seed=0)
        rng = np.random.default_rng(seed)

        t0 = time.perf_counter()
        nd = mlnd_ordering(graph, options, rng)
        t_nd = time.perf_counter() - t0
        s_nd = factor_stats(graph, nd.perm)

        t0 = time.perf_counter()
        md = mmd_ordering(graph)
        t_md = time.perf_counter() - t0
        s_md = factor_stats(graph, md.perm)

        t0 = time.perf_counter()
        sd = snd_ordering(graph, options, np.random.default_rng(seed))
        t_sd = time.perf_counter() - t0
        s_sd = factor_stats(graph, sd.perm)

        rows.append(
            Row(
                matrix=name,
                scheme="ordering",
                values={
                    "mlnd_ops": s_nd.opcount,
                    "mmd_over_mlnd": s_md.opcount / s_nd.opcount,
                    "snd_over_mlnd": s_sd.opcount / s_nd.opcount,
                    "mlnd_parallelism": s_nd.available_parallelism,
                    "mmd_parallelism": s_md.available_parallelism,
                    "snd_parallelism": s_sd.available_parallelism,
                    "mlnd_seconds": t_nd,
                    "mmd_seconds": t_md,
                    "snd_seconds": t_sd,
                },
            )
        )
    return rows
