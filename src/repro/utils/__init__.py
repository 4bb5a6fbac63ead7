"""Shared utilities: seeded randomness, timing, and error types.

Everything in :mod:`repro` that makes a random choice threads a
:class:`numpy.random.Generator` through explicitly; these helpers normalise
the many ways a caller may express "which RNG" into a concrete generator.
"""

from repro.utils.errors import (
    ConfigurationError,
    GraphValidationError,
    PartitionError,
    ReproError,
    SanitizerError,
    TraceError,
    UnknownWorkloadError,
)
from repro.utils.rng import as_generator, spawn_child
from repro.utils.timing import PhaseTimer

__all__ = [
    "ReproError",
    "ConfigurationError",
    "GraphValidationError",
    "PartitionError",
    "SanitizerError",
    "TraceError",
    "UnknownWorkloadError",
    "as_generator",
    "spawn_child",
    "PhaseTimer",
]
