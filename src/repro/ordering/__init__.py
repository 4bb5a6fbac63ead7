"""Fill-reducing sparse-matrix ordering (§4.3 of the paper).

* :func:`mlnd_ordering` — multilevel nested dissection (the paper's);
* :func:`mmd_ordering` — multiple minimum degree (Liu) baseline;
* :func:`snd_ordering` — spectral nested dissection baseline;
* :func:`factor_stats` / :class:`FactorStats` — symbolic factorization
  metrics (fill, opcount, elimination-tree height, critical path);
* :func:`vertex_separator_from_bisection` — minimum-vertex-cover
  separators (König/Hopcroft–Karp);
* :class:`Ordering` — the shared result record.
"""

from repro.ordering.base import Ordering
from repro.ordering.elimination import (
    FactorStats,
    elimination_tree,
    factor_stats,
    symbolic_factor,
)
from repro.ordering.mmd import mmd_ordering
from repro.ordering.nested_dissection import (
    mlnd_ordering,
    nested_dissection_ordering,
)
from repro.ordering.parallel_sim import (
    ParallelFactorStats,
    simulate_parallel_factorization,
)
from repro.ordering.separator_refine import (
    build_labelling,
    is_valid_separator_labelling,
    refine_vertex_separator,
    separator_weight,
)
from repro.ordering.snd import snd_ordering
from repro.ordering.vertex_cover import (
    boundary_bipartite,
    hopcroft_karp,
    minimum_vertex_cover,
    vertex_separator_from_bisection,
)

__all__ = [
    "Ordering",
    "mlnd_ordering",
    "nested_dissection_ordering",
    "mmd_ordering",
    "snd_ordering",
    "factor_stats",
    "FactorStats",
    "elimination_tree",
    "symbolic_factor",
    "vertex_separator_from_bisection",
    "boundary_bipartite",
    "hopcroft_karp",
    "minimum_vertex_cover",
    "simulate_parallel_factorization",
    "ParallelFactorStats",
    "refine_vertex_separator",
    "build_labelling",
    "is_valid_separator_labelling",
    "separator_weight",
]
