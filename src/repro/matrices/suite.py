"""The benchmark suite registry: paper matrix names → synthetic analogues.

Every matrix in the paper's Table 1 has an entry.  Default orders are
scaled to roughly **1/8 – 1/20** of the originals so pure-Python runs finish
in seconds per experiment (the paper's C code on a 200 MHz R4400 and our
NumPy on a modern core differ by enough that *relative* comparisons — which
is all the paper's tables assert — are preserved; see DESIGN.md §2).

Use :func:`load` to instantiate by name; graphs are cached per process so a
benchmark sweep generates each workload once.  ``scale`` multiplies the
default order for studies at other sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.csr import INDEX_DTYPE
from repro.matrices import circuits, highway, lp, mesh2d, mesh3d, power
from repro.utils.errors import ConfigurationError, UnknownWorkloadError


@dataclass(frozen=True)
class SuiteEntry:
    """One benchmark workload.

    Attributes
    ----------
    name:
        Paper matrix name (e.g. ``"BCSSTK31"``).
    short:
        Paper's short code used in the figures (e.g. ``"BC31"``).
    description:
        Table 1's description column.
    paper_order:
        Order of the original matrix (|V|), for the record.
    factory:
        ``factory(n, seed)`` returning a CSRGraph of about ``n`` vertices.
    default_order:
        Scaled-down default |V| used by the benchmarks.
    """

    name: str
    short: str
    description: str
    paper_order: int
    factory: Callable
    default_order: int


def _stiff(dofs, shape=(1.0, 1.0, 1.0)):
    def make(n, seed):
        return mesh3d.stiffness3d(max(24, n // dofs), dofs=dofs, seed=seed, shape=shape)

    return make


def _tet(elongation=(1.0, 1.0, 1.0)):
    def make(n, seed):
        return mesh3d.fe_tet3d(n, seed, elongation=elongation)

    return make


_ENTRIES = [
    SuiteEntry("BCSSTK28", "BC28", "Solid element model", 4410, _stiff(3), 1200),
    SuiteEntry("BCSSTK29", "BC29", "3D Stiffness matrix", 13992, _stiff(3), 1800),
    SuiteEntry("BCSSTK30", "BC30", "3D Stiffness matrix", 28294, _stiff(3), 3000),
    SuiteEntry("BCSSTK31", "BC31", "3D Stiffness matrix", 35588, _stiff(3), 3600),
    SuiteEntry("BCSSTK32", "BC32", "3D Stiffness matrix", 44609, _stiff(3), 4200),
    SuiteEntry("BCSSTK33", "BC33", "3D Stiffness matrix", 8738, _stiff(3), 1500),
    SuiteEntry(
        "BCSPWR10", "BSP10", "Eastern US power network", 5300,
        lambda n, seed: power.power_network(n, seed), 5300,
    ),
    SuiteEntry("BRACK2", "BRCK", "3D Finite element mesh", 62631,
               _tet((2.0, 1.0, 0.7)), 5000),
    SuiteEntry("CANT", "CANT", "3D Stiffness matrix", 54195,
               _stiff(6, (3.0, 1.0, 0.6)), 4800),
    SuiteEntry("COPTER2", "COPT", "3D Finite element mesh", 55476,
               _tet((3.0, 1.5, 0.5)), 5000),
    SuiteEntry("CYLINDER93", "CY93", "3D Stiffness matrix", 45594,
               _stiff(6, (1.0, 1.0, 2.5)), 4200),
    SuiteEntry("FINAN512", "FINC", "Linear programming", 74752,
               lambda n, seed: lp.financial_lp(n, seed), 6000),
    SuiteEntry("4ELT", "4ELT", "2D Finite element mesh", 15606,
               lambda n, seed: mesh2d.airfoil(n, seed), 4000),
    SuiteEntry("INPRO1", "INPR", "3D Stiffness matrix", 46949, _stiff(6), 4200),
    SuiteEntry("LHR71", "LHR", "3D Coefficient matrix", 70304,
               lambda n, seed: lp.process_matrix(n, seed), 5600),
    SuiteEntry("LSHP3466", "LS34", "Graded L-shape pattern", 3466,
               lambda n, seed: mesh2d.graded_lshape(n), 3466),
    SuiteEntry("MAP", "MAP", "Highway network", 267241,
               lambda n, seed: highway.highway_network(n, seed), 9000),
    SuiteEntry("MEMPLUS", "MEM", "Memory circuit", 17758,
               lambda n, seed: circuits.memory_circuit(n, seed), 4200),
    SuiteEntry("ROTOR", "ROTR", "3D Finite element mesh", 99617,
               _tet((4.0, 1.0, 1.0)), 6400),
    SuiteEntry("S38584.1", "S38", "Sequential circuit", 22143,
               lambda n, seed: circuits.sequential_circuit(n, seed), 4600),
    SuiteEntry("SHELL93", "SHEL", "3D Stiffness matrix", 181200,
               _stiff(6, (2.0, 2.0, 0.3)), 6600),
    SuiteEntry("SHYY161", "SHYY", "CFD/Navier-Stokes", 76480,
               lambda n, seed: mesh2d.grid2d(
                   int(round((n * 1.6) ** 0.5)), int(round((n / 1.6) ** 0.5)),
                   nine_point=True), 5800),
    SuiteEntry("TROLL", "TROL", "3D Stiffness matrix", 213453,
               _stiff(6, (1.5, 1.5, 1.0)), 7200),
    SuiteEntry("WAVE", "WAVE", "3D Finite element mesh", 156317,
               _tet((1.5, 1.5, 1.0)), 6800),
]

#: Registry keyed by paper matrix name.
SUITE: dict[str, SuiteEntry] = {e.name: e for e in _ENTRIES}
_SHORT = {e.short: e for e in _ENTRIES}
_CACHE: dict[tuple, object] = {}

#: The 12 matrices used in Tables 2–4.
TABLE_MATRICES = [
    "BCSSTK31", "BCSSTK32", "BRACK2", "CANT", "COPTER2", "CYLINDER93",
    "4ELT", "INPRO1", "ROTOR", "SHELL93", "TROLL", "WAVE",
]

#: The 16 matrices plotted in Figures 1–4.
FIGURE_MATRICES = [
    "BCSSTK30", "BCSSTK32", "BRACK2", "CANT", "COPTER2", "CYLINDER93",
    "FINAN512", "LHR71", "MAP", "MEMPLUS", "ROTOR", "S38584.1",
    "SHELL93", "SHYY161", "TROLL", "WAVE",
]

#: The 18 matrices of Figure 5, in the paper's increasing-order display.
ORDERING_MATRICES = [
    "LSHP3466", "BCSSTK28", "BCSPWR10", "BCSSTK33", "BCSSTK29", "4ELT",
    "BCSSTK30", "BCSSTK31", "BCSSTK32", "CYLINDER93", "INPRO1", "CANT",
    "COPTER2", "BRACK2", "ROTOR", "WAVE", "SHELL93", "TROLL",
]


def suite_names() -> list[str]:
    """All registered matrix names, in Table 1 order."""
    return [e.name for e in _ENTRIES]


def load(name: str, *, scale: float = 1.0, seed: int = 0, cache: bool = True):
    """Instantiate the synthetic analogue of matrix ``name``.

    ``name`` may be a full name (``"BCSSTK31"``) or the short figure code
    (``"BC31"``).  ``scale`` multiplies the default order; it must be
    finite and positive, the order it gives must fit ``int32`` vertex ids
    and ``seed`` must be non-negative (else :class:`ConfigurationError`).
    Instances are cached by ``(name, scale, seed)``.
    """
    entry = SUITE.get(name) or _SHORT.get(name)
    if entry is None:
        raise UnknownWorkloadError(
            f"unknown suite matrix {name!r}; known: {', '.join(suite_names())}"
        )
    key = (entry.name, scale, seed)
    if cache and key in _CACHE:
        return _CACHE[key]
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigurationError(f"scale must be finite and positive, got {scale}")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    order = entry.default_order * scale  # inf past the float range
    if order >= np.iinfo(INDEX_DTYPE).max + 1:
        raise ConfigurationError(
            f"scale {scale} gives {entry.name} {order:.3g} vertices, past int32 ids"
        )
    n = max(16, int(order))
    graph = entry.factory(n, seed)
    if cache:
        _CACHE[key] = graph
    return graph
