"""repro — a reproduction of "Multilevel Graph Partitioning Schemes"
(George Karypis & Vipin Kumar, ICPP 1995), the work that became METIS.

The library provides:

* **multilevel k-way graph partitioning** (:func:`repro.partition`,
  :func:`repro.bisect`) with all of the paper's coarsening schemes
  (RM/HEM/LEM/HCM), initial partitioners (SBP/GGP/GGGP) and refinement
  policies (GR/KLR/BGR/BKLR/BKLGR);
* **fill-reducing sparse matrix ordering** via multilevel nested dissection
  (:func:`repro.nested_dissection`), with MMD and spectral nested
  dissection baselines;
* the **spectral baselines** the paper compares against (MSB, MSB-KL,
  Chaco-ML);
* a synthetic **workload suite** standing in for the paper's Table 1
  matrices (:mod:`repro.matrices`).

Quickstart::

    import repro
    graph = repro.matrices.grid2d(64, 64)
    result = repro.partition(graph, 8, seed=1)
    print(result.cut, result.pwgts)
"""

from __future__ import annotations

import numpy as np

from repro import graph as graph  # noqa: PLC0414 - re-export subpackage
from repro.core import (
    DEFAULT_OPTIONS,
    InitialScheme,
    MatchingScheme,
    MultilevelOptions,
    RefinePolicy,
)
from repro.core import bisect as _ml_bisect
from repro.core import partition as _ml_partition
from repro.graph import CSRGraph, from_edge_list, read_graph, write_graph

__version__ = "1.0.0"


def bisect(g, options=None, seed=None, target0=None, **option_overrides):
    """Multilevel 2-way partition of ``g`` (friendly top-level wrapper).

    ``option_overrides`` are :class:`MultilevelOptions` field names, e.g.
    ``bisect(g, matching="rm", refinement="klr")``.
    """
    options = (options or DEFAULT_OPTIONS).with_(**option_overrides)
    rng = np.random.default_rng(seed if seed is not None else options.seed)
    return _ml_bisect(g, options, rng, target0=target0)


def partition(g, nparts, options=None, seed=None, **option_overrides):
    """Multilevel k-way partition of ``g`` by recursive bisection."""
    options = (options or DEFAULT_OPTIONS).with_(**option_overrides)
    rng = np.random.default_rng(seed if seed is not None else options.seed)
    return _ml_partition(g, nparts, options, rng)


def nested_dissection(g, options=None, seed=None, **option_overrides):
    """Fill-reducing ordering of ``g`` by multilevel nested dissection.

    Returns a :class:`repro.ordering.Ordering` with ``perm`` (new→old) and
    ``iperm`` (old→new) arrays.
    """
    from repro.ordering import mlnd_ordering

    options = (options or DEFAULT_OPTIONS).with_(**option_overrides)
    rng = np.random.default_rng(seed if seed is not None else options.seed)
    return mlnd_ordering(g, options, rng)


__all__ = [
    "__version__",
    "bisect",
    "partition",
    "nested_dissection",
    "CSRGraph",
    "from_edge_list",
    "read_graph",
    "write_graph",
    "MultilevelOptions",
    "DEFAULT_OPTIONS",
    "MatchingScheme",
    "InitialScheme",
    "RefinePolicy",
]


def __getattr__(name):
    # Lazy subpackage access (repro.matrices, repro.spectral, repro.ordering,
    # repro.geometric, repro.bench) without importing them eagerly — the
    # ordering stack pulls in more code than a plain partition call needs.
    import importlib

    if name in {"matrices", "spectral", "ordering", "geometric", "bench", "linalg", "parallel", "resilience"}:
        module = importlib.import_module(f"repro.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
